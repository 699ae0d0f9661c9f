"""Fixed points, the minimal period, and the unique minimal periodic orbit.

A fixed point can only be a domain end, ``f(a) = a`` or ``f(b) = b``.
For an expanding Lorenz map without fixed point the least period over
all periodic points is ``m + 2``, where ``m`` counts backward steps of
the discontinuity through its unique preimages until the chain enters
the two-preimage interval ``[f(a), f(b)]``.  The minimal-period orbit is
unique.  Its largest point left of ``c`` follows the branch word of
``c-`` for ``kappa`` steps (see :func:`minimal_periodic_orbit`), read
off the map's own critical-orbit pair, so it is found by solving
``f^kappa(x) = x`` exactly on the pieces of
:func:`~lorenzmap.maps.word_pieces` along that one word, and its orbit
is iterated once.  The same solve, on the words of the return branches,
gives the repelling fixed points ``e±`` of :mod:`~lorenzmap.renorm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .numerics import Scalar
from .maps import (
    LorenzMap,
    Side,
    SidedPoint,
    SideRequired,
    evaluate,
    inverse_images,
    orbit_values,
    word_pieces,
)
from .orbits import critical_pair

DEFAULT_BACKWARD_CAP = 10_000


class AmbiguousPreimage(Exception):
    """A backward-chain point had two preimages before entering [f(a), f(b)]."""


class UniquenessViolated(Exception):
    """The minimal-period orbit has the wrong size or misses one side of ``c``."""


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
    points: tuple  # SidedPoints sorted by value; sided when the orbit meets c
    period: int
    itinerary: str  # letter k is L iff the k-th sorted point is left of c
    flank_left: Scalar  # largest orbit value left of c
    flank_right: Scalar  # smallest orbit value right of c

    def values(self) -> tuple:
        return tuple(p.x for p in self.points)


def fixed_points(m: LorenzMap) -> list:
    """All solutions of ``f(x) = x`` on a valid map: ``a`` and ``b`` at most.

    On ``[a, c)`` the function ``f(x) - x`` is continuous and strictly
    increasing (every slope is above 1), and it tends to ``b - c > 0`` at
    ``c``.  So a fixed point there needs ``f(a) <= a``, and as
    ``f(a)`` lies in ``[a, b]`` that means ``f(a) = a``: the only
    candidate is ``a``.  The right branch mirrors this with ``f(b) = b``.
    """
    return [x for x in (m.a, m.b) if evaluate(m, x) == x]


def minimal_period(m: LorenzMap, cap: int = DEFAULT_BACKWARD_CAP) -> MinimalPeriodResult:
    """Minimal period via the backward chain of the discontinuity.

    Fixed points, which only ``a`` and ``b`` can be (see
    :func:`fixed_points`), short-circuit to ``kappa = 1``.  Otherwise
    ``c`` is pulled back through its unique preimages; the first entry
    of the chain into ``[f(a), f(b)]`` at step ``m`` gives
    ``kappa = m + 2``.
    Exceeding the cap leaves the period undetermined (an infinite
    minimal period is suspected but never asserted).
    """
    fa = evaluate(m, SidedPoint(m.a))
    fb = evaluate(m, SidedPoint(m.b))
    if fa == m.a or fb == m.b:
        return MinimalPeriodResult(1, None, ())
    chain = [m.c]
    x = m.c
    for i in range(cap + 1):
        if fa <= x <= fb:
            return MinimalPeriodResult(i + 2, i, tuple(chain))
        preimages = inverse_images(m, x)
        if len(preimages) != 1:
            raise AmbiguousPreimage(
                f"chain point {x} outside [f(a), f(b)] has {len(preimages)} preimages"
            )
        point = preimages[0][0]
        if point.side is not None:
            raise AmbiguousPreimage(
                "backward chain reached the discontinuity as a one-sided limit"
            )
        x = point.x
        chain.append(x)
    return MinimalPeriodResult(None, None, tuple(chain))


def _fixed_point(pieces: list, lo: Scalar, hi: Scalar) -> Scalar:
    """The fixed point in ``[lo, hi]`` of a composition given by its pieces.

    The pieces follow one branch word, so the composition is continuous
    and increasing with slope > 1; minus the identity it crosses zero at
    most once, and the solution of ``s·x + t = x`` on the piece that
    contains it is exact.
    """
    for x0, x1, s, t in pieces:
        x = t / (1 - s)
        if max(x0, lo) <= x <= min(x1, hi):
            return x
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

    A solution at a domain end whose orbit meets ``c`` is the one-sided
    point that end stands for: ``+`` at the left end, ``-`` at the right
    end.  ``kappa`` must be the minimal period; any other value raises
    :class:`ValueError`.  The word of ``c-`` is read off the map's own
    pair (:func:`~lorenzmap.orbits.critical_pair`), grown to ``kappa``
    steps if shorter: after a tower, the orbits its first level was
    searched on.
    """
    if kappa <= 1:
        raise ValueError("the minimal orbit is defined for kappa > 1")
    if minimal_period(m, kappa - 2).kappa != kappa:
        raise ValueError("kappa is not the minimal period")
    minus, _plus = critical_pair(m).grow(kappa)
    pieces = word_pieces(m, minus.word[:kappa], m.a, m.c)
    lo, hi = pieces[0][0], pieces[-1][1]
    x = _fixed_point(pieces, lo, hi)
    p = SidedPoint(x)
    try:
        values = orbit_values(m, p, kappa)
    except SideRequired:
        if x not in (lo, hi):
            raise AssertionError(
                "interior word-domain point hit the discontinuity"
            ) from None
        p = SidedPoint(x, Side.PLUS if x == lo else Side.MINUS)
        values = orbit_values(m, p, kappa)
    if values[kappa] != x:
        raise AssertionError("the word-domain solution is not fixed by f^kappa")
    points = tuple(SidedPoint(y, p.side) for y in sorted(set(values[:kappa])))
    if len(points) != kappa:
        raise UniquenessViolated("orbit size does not match the period")

    def is_left(sp: SidedPoint) -> bool:
        if sp.x == m.c:
            return sp.side is Side.MINUS
        return sp.x < m.c

    itinerary = "".join("L" if is_left(sp) else "R" for sp in points)
    lefts = [sp.x for sp in points if is_left(sp)]
    rights = [sp.x for sp in points if not is_left(sp)]
    if not lefts or not rights:
        raise UniquenessViolated("orbit does not flank the discontinuity")
    return PeriodicOrbit(points, kappa, itinerary, max(lefts), min(rights))
