"""The ordered critical orbit: ``f^i(c±)`` enclosed, ranked and exact on demand.

Every order question the analysis asks about a renormalization, from
the pair search to the orbit unions of the tower levels, is an order
relation between the points ``f^i(c-)``, ``f^i(c+)``, ``a``, ``b`` and
``c``.  So these values are ranked once per map, and the callers decide
on the integer ranks.  Each map owns one :class:`CriticalOrbitPair`,
which :func:`critical_pair` builds on first use and every caller reads:
the ``(kappa, kappa)`` rule, the pair search, the validity check, the
minimal orbit and the orbit unions.  It grows the orbits to the longest
prefix asked for so far, so no caller iterates them again.

The critical orbits are iterated as dyadic enclosures: integers
``lo <= f^i(c±)·2^P <= hi``, at a precision ``P`` fixed by the map and
twice the length the orbits are built for (their horizon).  Each branch is
increasing and continuous, so evaluating it at ``lo`` rounded down and
at ``hi`` rounded up encloses the next iterate.  Disjoint enclosures
order their values outright.  Exact ``Fraction`` iterates are computed
only on demand: where an enclosure meets ``c`` (the branch is then
decided exactly), where enclosures overlap while the values are ranked,
and where a caller asks for a value.  So every decision is still exact.
An exact iterate is one integer step on the reduced pair of the one
before (:meth:`~lorenzmap.maps.BranchFn.step`), with the branch of the
orbit's word, so no ``Fraction`` arithmetic runs along the orbit.  The
enclosures and the exact steps read the same integer pieces of each
branch (:meth:`~lorenzmap.maps.BranchFn.integer_pieces`).
"""

from __future__ import annotations

import bisect
import dataclasses
import math

from .numerics import Scalar, reduced_fraction
from .maps import BranchLabel, LorenzMap, Side

_GUARD_BITS = 64


def enclose(x: Scalar, precision: int) -> tuple:
    """``(floor(x·2^P), ceil(x·2^P))`` for ``P = precision``."""
    num, den = x.numerator, x.denominator
    return (num << precision) // den, -((-num << precision) // den)


def order_key(x: Scalar) -> tuple:
    """``(floor(x·2^64), x)``: the lower end of :func:`enclose`, then ``x``.

    The floor is monotone, so this key sorts as ``x`` does, and two
    ``Fraction`` values are compared only when their floors tie.
    """
    return enclose(x, _GUARD_BITS)[0], x


class _ScaledBranch:
    """A branch acting on integers ``X`` that stand for ``X·2^-P``.

    Read from the branch's integer piece table
    (:meth:`~lorenzmap.maps.BranchFn.integer_pieces`), the one that
    :meth:`~lorenzmap.maps.BranchFn.step` reads.  The end pieces are
    continued affinely past the branch domain, so the scaled branch is
    increasing and continuous on all integers.
    """

    def __init__(self, branch, precision: int):
        cuts, pieces = branch.integer_pieces()
        # X <= floor(bp·2^P) gives X·2^-P <= bp and X > floor(bp·2^P) gives
        # X·2^-P > bp, so bisecting the floors picks a piece that holds X
        self.cuts = [(n << precision) // d for n, d in cuts]
        # s·X + t·2^P = (A·X + B·2^P) / E
        self.pieces = [(a, b << precision, e) for a, b, e, _ in pieces]

    def image(self, lo: int, hi: int) -> tuple:
        """Enclosure of the branch image of ``[lo, hi]·2^-P``."""
        a, b, d = self.pieces[bisect.bisect_left(self.cuts, lo)]
        lo = (a * lo + b) // d
        a, b, d = self.pieces[bisect.bisect_left(self.cuts, hi)]
        return lo, -(-(a * hi + b) // d)


class CriticalOrbit:
    """``f^i(c±)`` for ``i < len(bounds)``: enclosures, and exact values on demand.

    ``bounds[i]`` is an integer pair ``(lo, hi)`` with
    ``lo <= f^i(c±)·2^P <= hi`` and ``word[i]`` is the branch that step
    ``i`` applies.  An orbit landing on ``c`` continues as the one-sided
    limit it is carried with, so its branch at ``c`` is the left one for
    ``c-`` and the right one for ``c+``.  :meth:`extend` iterates further
    at the same precision, up to the ``horizon`` that precision was chosen
    for.  :meth:`exact` computes the exact iterates up to the one asked
    for, once, each with the branch of its step (at ``c`` that gives
    ``f(c-) = b`` and ``f(c+) = a``).
    """

    def __init__(
        self, m: LorenzMap, side: Side, precision: int, horizon: int, branches: dict
    ):
        self.precision, self.horizon = precision, horizon
        self._c, self._side, self._branches = m.c, side, branches
        self._c_bounds = enclose(m.c, precision)
        self._exact = [m.c]
        self._functions = {BranchLabel.LEFT: m.left, BranchLabel.RIGHT: m.right}
        self._word: list = []
        self.bounds = [self._c_bounds]

    @property
    def word(self) -> tuple:
        return tuple(self._word)

    def extend(self, length: int) -> None:
        """Iterate until ``f^length(c±)`` is enclosed."""
        if length > self.horizon:
            raise AssertionError("past the precision horizon: build a new orbit")
        bounds, word, branches, c = self.bounds, self._word, self._branches, self._c
        c_lo, c_hi = self._c_bounds
        lo, hi = bounds[-1]
        for i in range(len(word), length):
            if hi < c_hi:
                left = True
            elif lo > c_lo:
                left = False
            else:  # the enclosure meets c: decide on the exact value
                x = self.exact(i)
                lo, hi = bounds[i] = enclose(x, self.precision)
                left = x < c or (x == c and self._side is Side.MINUS)
            label = BranchLabel.LEFT if left else BranchLabel.RIGHT
            word.append(label)
            lo, hi = branches[label].image(lo, hi)
            bounds.append((lo, hi))

    def exact(self, i: int) -> Scalar:
        known, functions = self._exact, self._functions
        if len(known) <= i:
            n, d = known[-1].numerator, known[-1].denominator
            for label in self._word[len(known) - 1 : i]:
                n, d = functions[label].step(n, d)
                known.append(reduced_fraction(n, d))
        return known[i]


def critical_orbit_values(m: LorenzMap, length: int):
    """The orbits of ``c-`` and ``c+`` for ``i = 0..length``, as ``CriticalOrbit``.

    The precision covers ``H = 2·length`` steps: a step multiplies an
    enclosure's width by at most the largest slope and adds under two
    units of rounding, so after ``H`` steps the width is still below
    about ``2·H·2^-64`` in the map's own coordinates.
    """
    horizon = 2 * length
    steepest = max(m.left.slopes + m.right.slopes)
    precision = _GUARD_BITS + horizon * (math.ceil(steepest) - 1).bit_length()
    branches = {
        BranchLabel.LEFT: _ScaledBranch(m.left, precision),
        BranchLabel.RIGHT: _ScaledBranch(m.right, precision),
    }
    pair = tuple(
        CriticalOrbit(m, side, precision, horizon, branches)
        for side in (Side.MINUS, Side.PLUS)
    )
    for orbit in pair:
        orbit.extend(length)
    return pair


class CriticalOrbitPair:
    """The critical orbits of one map, shared by its callers and grown on demand.

    :meth:`grow` iterates ``minus`` and ``plus`` to the length asked for:
    in place within the horizon of the pair held, and past it by building
    a new pair for that length, whose horizon is twice it.  So no
    enclosure is carried past the length its precision covers, a request
    for ``n`` steps and then for at most ``2·n`` builds once, and a pair
    grown one step at a time is rebuilt ``O(log n)`` times.  The joint
    ranks of :func:`ranked_orbits` are computed once per length; ranks of
    a longer orbit order the shorter prefix just as exactly.

    The pair keeps a copy of ``m`` (the same branches, an empty pair
    slot), not ``m`` itself: the map holds its pair, and a reference
    back would make a cycle that only the cycle collector frees.
    """

    def __init__(self, m: LorenzMap):
        self.m = dataclasses.replace(m)
        self.minus = self.plus = None
        self._ranks = None

    def grow(self, length: int) -> tuple:
        """``(minus, plus)``, iterated at least ``length`` steps."""
        if self.minus is None or length > self.minus.horizon:
            self.minus, self.plus = critical_orbit_values(self.m, length)
        elif length >= len(self.minus.bounds):
            self.minus.extend(length)
            self.plus.extend(length)
        else:
            return self.minus, self.plus
        self._ranks = None
        return self.minus, self.plus

    def ranks(self, length: int) -> tuple:
        """:func:`ranked_orbits` of the orbits grown to at least ``length`` steps."""
        minus, plus = self.grow(length)
        if self._ranks is None:
            self._ranks = ranked_orbits(self.m, minus, plus)
        return self._ranks


def critical_pair(m: LorenzMap) -> CriticalOrbitPair:
    """The map's own :class:`CriticalOrbitPair`, built on first use."""
    if m._critical is None:
        object.__setattr__(m, "_critical", CriticalOrbitPair(m))
    return m._critical


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
