"""The ordered critical orbit: ``f^i(c±)`` enclosed, ranked and exact on demand.

Every order question the analysis asks about a renormalization, from
the pair search to the orbit unions of the tower levels, is an order
relation between the points ``f^i(c-)``, ``f^i(c+)``, ``a``, ``b`` and
``c``.  So these values are ranked once per map, and the callers decide
on the integer ranks.

The critical orbits are iterated as dyadic enclosures: integers
``lo <= f^i(c±)·2^P <= hi``, at a precision ``P`` fixed by the map and
the orbit length.  Each branch is increasing and continuous, so
evaluating it at ``lo`` rounded down and at ``hi`` rounded up encloses
the next iterate.  Disjoint enclosures order their values outright.
Exact ``Fraction`` iterates are computed only on demand: where an
enclosure meets ``c`` (the branch is then decided exactly), where
enclosures overlap while the values are ranked, and where a caller asks
for a value.  So every decision is still exact.
"""

from __future__ import annotations

import bisect
import math

from .numerics import Scalar
from .maps import BranchLabel, LorenzMap, Side

_GUARD_BITS = 64


def enclose(x: Scalar, precision: int) -> tuple:
    """``(floor(x·2^P), ceil(x·2^P))`` for ``P = precision``."""
    num, den = x.numerator, x.denominator
    return (num << precision) // den, -((-num << precision) // den)


class _ScaledBranch:
    """A branch acting on integers ``X`` that stand for ``X·2^-P``.

    The end pieces are continued affinely past the branch domain, so the
    scaled branch is increasing and continuous on all integers.
    """

    def __init__(self, branch, precision: int):
        # X <= floor(bp·2^P) gives X·2^-P <= bp and X > floor(bp·2^P) gives
        # X·2^-P > bp, so bisecting the floors picks a piece that holds X
        self.cuts = [enclose(bp, precision)[0] for bp in branch.breakpoints[1:-1]]
        # s·X + t·2^P = (A·X + B) / D
        self.pieces = [
            (
                s.numerator * t.denominator,
                (t.numerator * s.denominator) << precision,
                s.denominator * t.denominator,
            )
            for s, t in zip(branch.slopes, branch.intercepts)
        ]

    def image(self, lo: int, hi: int) -> tuple:
        """Enclosure of the branch image of ``[lo, hi]·2^-P``."""
        a, b, d = self.pieces[bisect.bisect_left(self.cuts, lo)]
        lo = (a * lo + b) // d
        a, b, d = self.pieces[bisect.bisect_left(self.cuts, hi)]
        return lo, -(-(a * hi + b) // d)


class CriticalOrbit:
    """``f^i(c±)`` for ``i = 0..length``: enclosures, and exact values on demand.

    ``bounds[i]`` is an integer pair ``(lo, hi)`` with
    ``lo <= f^i(c±)·2^P <= hi`` and ``word[i]`` is the branch that step
    ``i`` applies.  An orbit landing on ``c`` continues as the one-sided
    limit it is carried with, so its branch at ``c`` is the left one for
    ``c-`` and the right one for ``c+``.  :meth:`exact` computes the exact
    iterates up to the one asked for, once, each with the branch of its
    step (at ``c`` that gives ``f(c-) = b`` and ``f(c+) = a``).
    """

    def __init__(
        self, m: LorenzMap, side: Side, length: int, precision: int, branches: dict
    ):
        self.precision = precision
        self._exact = [m.c]
        self._functions = {BranchLabel.LEFT: m.left, BranchLabel.RIGHT: m.right}
        self.word = word = []  # a tuple once the orbit is built; exact reads it
        c_lo, c_hi = enclose(m.c, precision)
        lo, hi = c_lo, c_hi
        bounds = []
        for i in range(length):
            if hi < c_hi:
                left = True
            elif lo > c_lo:
                left = False
            else:  # the enclosure meets c: decide on the exact value
                x = self.exact(i)
                lo, hi = enclose(x, precision)
                left = x < m.c or (x == m.c and side is Side.MINUS)
            label = BranchLabel.LEFT if left else BranchLabel.RIGHT
            bounds.append((lo, hi))
            word.append(label)
            lo, hi = branches[label].image(lo, hi)
        bounds.append((lo, hi))
        self.bounds, self.word = bounds, tuple(word)

    def exact(self, i: int) -> Scalar:
        known, word, functions = self._exact, self.word, self._functions
        while len(known) <= i:
            known.append(functions[word[len(known) - 1]].value(known[-1]))
        return known[i]


def critical_orbit_values(m: LorenzMap, length: int):
    """The orbits of ``c-`` and ``c+`` for ``i = 0..length``, as ``CriticalOrbit``.

    The precision gives every step room for the largest slope: a step
    multiplies an enclosure's width by at most that slope and adds under
    two units of rounding, so after ``length`` steps the width is still
    below about ``2·length·2^-64`` in the map's own coordinates.
    """
    steepest = max(m.left.slopes + m.right.slopes)
    precision = _GUARD_BITS + length * (math.ceil(steepest) - 1).bit_length()
    branches = {
        BranchLabel.LEFT: _ScaledBranch(m.left, precision),
        BranchLabel.RIGHT: _ScaledBranch(m.right, precision),
    }
    return tuple(
        CriticalOrbit(m, side, length, precision, branches)
        for side in (Side.MINUS, Side.PLUS)
    )


def rank_values(bounds, exact) -> list:
    """Dense ranks of enclosed values: ``x < y`` iff ``rank(x) < rank(y)``.

    ``bounds[i] = (lo, hi)`` encloses value ``i`` and ``exact(i)`` returns
    it.  Sorted by enclosure, the values fall into runs of overlapping
    enclosures; every value of a run is below every value of the next,
    and only inside a run of two or more are exact values compared.
    Equal values share a rank.
    """
    order = sorted(range(len(bounds)), key=bounds.__getitem__)
    ranks = [0] * len(bounds)
    rank, start = -1, 0
    while start < len(order):
        end, top = start + 1, bounds[order[start]][1]
        while end < len(order) and bounds[order[end]][0] <= top:
            top = max(top, bounds[order[end]][1])
            end += 1
        if end - start == 1:
            rank += 1
            ranks[order[start]] = rank
        else:
            previous = None
            for value, i in sorted((exact(i), i) for i in order[start:end]):
                if value != previous:
                    rank += 1
                    previous = value
                ranks[i] = rank
        start = end
    return ranks


def ranked_orbits(m: LorenzMap, minus, plus) -> tuple:
    """``(a, b, c, minus, plus)`` replaced by their joint ranks."""
    fixed = (m.a, m.b, m.c)
    bounds = [enclose(x, minus.precision) for x in fixed] + minus.bounds + plus.bounds
    split = 3 + len(minus.bounds)

    def exact(i: int) -> Scalar:
        if i < 3:
            return fixed[i]
        if i < split:
            return minus.exact(i - 3)
        return plus.exact(i - split)

    ranks = rank_values(bounds, exact)
    return ranks[0], ranks[1], ranks[2], ranks[3:split], ranks[split:]
