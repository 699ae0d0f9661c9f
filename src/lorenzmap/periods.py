"""Fixed points, the minimal period, and the unique minimal periodic orbit.

A fixed point can only be a domain end, ``f(a) = a`` or ``f(b) = b``.
For an expanding Lorenz map without fixed point the least period over
all periodic points is ``m + 2``, where ``m`` counts backward steps of
the discontinuity through its unique preimages, one branch solve each,
until the chain enters the two-preimage interval ``[f(a), f(b)]``.  The
minimal-period orbit is unique.  Its largest point left of ``c``
follows the branch word of ``c-`` for ``kappa`` steps (see
:func:`minimal_periodic_orbit`), read off the map's own critical-orbit
pair, so it is found by solving ``f^kappa(x) = x`` exactly on the
integer pieces ``(A·x + B)/E`` of :func:`~lorenzmap.maps.word_pieces`
along that one word, as ``x = B/(E - A)`` on the piece that holds it,
and its orbit is walked once along the same word
(:func:`~lorenzmap.maps.word_orbit`).  The same solve, on the words of
the return branches, gives the repelling fixed points ``e±`` of
:mod:`~lorenzmap.renorm`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .numerics import Scalar, reduced_fraction
from .maps import BranchLabel, LorenzMap, evaluate, word_orbit, word_pieces
from .orbits import critical_pair

DEFAULT_BACKWARD_CAP = 10_000


@dataclass(frozen=True)
class MinimalPeriodResult:
    """Minimal period ``kappa`` (None when undetermined at the cap).

    ``m`` is the number of backward steps of ``c`` before entering
    ``[f(a), f(b)]`` (None for fixed-point maps, where ``kappa = 1``),
    and ``backward_chain`` records ``c, c_1, ..., c_m``.
    """

    kappa: Optional[int]
    m: Optional[int]
    backward_chain: tuple

    @property
    def undetermined(self) -> bool:
        return self.kappa is None


@dataclass(frozen=True)
class PeriodicOrbit:
    points: tuple  # ascending
    period: int
    itinerary: str  # letter k is the branch of point k; at c, L means c-
    flank_left: Scalar  # largest orbit value left of c
    flank_right: Scalar  # smallest orbit value right of c


def minimal_period(m: LorenzMap, cap: int = DEFAULT_BACKWARD_CAP) -> MinimalPeriodResult:
    """Minimal period via the backward chain of the discontinuity.

    Fixed points short-circuit to ``kappa = 1``, and only ``a`` and
    ``b`` can be one.  On ``[a, c)`` the function ``f(x) - x`` is
    continuous and strictly increasing (every slope is above 1), and it
    tends to ``b - c > 0`` at ``c``.  So a fixed point there needs
    ``f(a) <= a``, and as ``f(a)`` lies in ``[a, b]`` that means
    ``f(a) = a``: the only candidate is ``a``.  The right branch mirrors
    this with ``f(b) = b``.  Otherwise
    ``c`` is pulled back through its unique preimages; the first entry
    of the chain into ``[f(a), f(b)]`` at step ``m`` gives
    ``kappa = m + 2``.
    Exceeding the cap leaves the period undetermined (an infinite
    minimal period is suspected but never asserted).

    Each backward step solves the one branch that holds the preimage.
    The left branch takes ``[a, c)`` onto ``[f(a), b)`` with every slope
    above 1, so ``b - f(a) > c - a``; the right branch likewise gives
    ``f(b) - a > b - c``.  Hence ``f(a) < a + b - c < f(b)``.  A point
    below ``f(a)`` lies only in the right image ``[a, f(b)]`` and a
    point above ``f(b)`` only in the left image ``[f(a), b]``, so every
    point outside ``[f(a), f(b)]`` has exactly one preimage, on that
    branch.  The chain never returns to ``c``, the one-sided preimage of
    ``b`` and ``a`` alone: it would hold ``b`` only after ``f(b)`` and
    ``a`` only after ``f(a)``, and both lie in ``[f(a), f(b)]``, where
    the chain stops.
    """
    fa = evaluate(m, m.a)
    fb = evaluate(m, m.b)
    if fa == m.a or fb == m.b:
        return MinimalPeriodResult(1, None, ())
    chain = [m.c]
    x = m.c
    for i in range(cap + 1):
        if fa <= x <= fb:
            return MinimalPeriodResult(i + 2, i, tuple(chain))
        x = (m.right if x < fa else m.left).solve(x)
        chain.append(x)
    return MinimalPeriodResult(None, None, tuple(chain))


def _fixed_point(pieces: list, lo: Scalar, hi: Scalar) -> Scalar:
    """The fixed point in ``[lo, hi]`` of a composition given by its pieces.

    The pieces (:func:`~lorenzmap.maps.word_pieces`) follow one branch
    word, so the composition is continuous and increasing with slope
    > 1; minus the identity it crosses zero at most once.  On the piece
    ``(A·x + B)/E`` that contains it, the solution is ``x = B/(E - A)``,
    held as ``-B / (A - E)`` with ``A - E > 0``, so it is placed by
    cross-multiplying and becomes a ``Fraction`` after one gcd.
    """
    lo_n, lo_d, hi_n, hi_d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    for n0, d0, n1, d1, A, B, E in pieces:
        n, d = -B, A - E
        if (
            n * d0 >= n0 * d
            and n * d1 <= n1 * d
            and n * lo_d >= lo_n * d
            and n * hi_d <= hi_n * d
        ):
            g = math.gcd(n, d)
            return reduced_fraction(n // g, d // g)
    raise AssertionError("no repelling fixed point in the word-domain bracket")


def minimal_periodic_orbit(m: LorenzMap, kappa: int) -> PeriodicOrbit:
    """The unique orbit of least period ``kappa`` (1 < kappa < ∞).

    Let ``p`` be the orbit's largest point left of ``c`` (at ``c`` itself
    when the orbit holds ``c-``).  If some ``y`` in ``(p, c)`` had
    ``f^i(y) = c`` for an ``i < kappa``, take the first such ``i``:
    ``f^i`` is continuous and increasing on ``[p, y]``, and
    ``f^i(p) < f^i(y) = c`` is an orbit point left of ``c``, so
    ``f^i(p) <= p``.  Then ``f^i([p, y]) ⊇ [p, y]`` holds a fixed point
    of ``f^i``, a periodic point of period at most ``i < kappa``, which
    contradicts the minimal period.  So no point of ``(p, c)`` reaches
    ``c`` in fewer than ``kappa`` steps, and ``p`` follows the branch word
    of ``c-`` for ``kappa`` steps.  On that word's domain
    ``f^kappa - id`` is increasing, so ``p`` is its only zero there, and
    one exact solve finds it.

    The orbit is walked along the word it follows, so its labels are the
    sides: a point is left of ``c`` when its letter is ``L``, and a point
    at ``c`` is ``c-`` under ``L`` and ``c+`` under ``R``.  ``kappa`` must be
    the minimal period; any other value raises :class:`ValueError`.  The
    word of ``c-`` is read off the map's own pair
    (:func:`~lorenzmap.orbits.critical_pair`), grown to ``kappa`` steps
    if shorter: after a tower, the orbits its first level was searched
    on.

    The orbit needs no check.  ``p`` solves ``(A·x + B)/E = x`` on a
    piece of :func:`~lorenzmap.maps.word_pieces`, whose branch pieces
    :func:`~lorenzmap.maps.word_orbit` applies exactly along the same
    word, so ``f^kappa(p) = p``.  As sided points the ``kappa`` values
    are distinct: ``p``'s least period divides ``kappa`` and is at least
    ``kappa``.  So two of them could be equal only as ``c-`` and ``c+``,
    on an orbit ``c- → b → ... → c+ → a → ... → c-``.  Reversed from
    ``c``, each arc follows the backward chain of :func:`minimal_period`
    and holds ``b`` or ``a`` only after ``f(b)`` or ``f(a)``, where the
    chain ends, so ``kappa >= 2(m + 1) + 2 > m + 2``.  Both letters
    occur: ``f - id`` is increasing on each branch, and with no fixed
    point (``kappa > 1``) it is positive on ``[a, c-]`` and negative on
    ``[c+, b]``, so an orbit on one branch is monotone.
    """
    if kappa <= 1:
        raise ValueError("the minimal orbit is defined for kappa > 1")
    if minimal_period(m, kappa - 2).kappa != kappa:
        raise ValueError("kappa is not the minimal period")
    minus, _plus = critical_pair(m).grow(kappa)
    word = minus.word[:kappa]
    pieces = word_pieces(m, word, m.a, m.c)
    values = word_orbit(m, word[:-1], _fixed_point(pieces, m.a, m.c))
    order = sorted(range(kappa), key=values.__getitem__)
    points = tuple(values[i] for i in order)
    itinerary = "".join(word[i].value for i in order)
    lefts = [values[i] for i in order if word[i] is BranchLabel.LEFT]
    rights = [values[i] for i in order if word[i] is BranchLabel.RIGHT]
    return PeriodicOrbit(points, kappa, itinerary, lefts[-1], rights[0])
