"""Fixed points, the minimal period, and the unique minimal periodic orbit.

For an expanding Lorenz map without fixed point the least period over
all periodic points is ``m + 2``, where ``m`` counts backward steps of
the discontinuity through its unique preimages until the chain enters
the two-preimage interval ``[f(a), f(b)]``.  The minimal-period orbit is
unique.  It is found from the affine pieces of the kappa-th iterate on
``[a, b]`` (:func:`~lorenzmap.maps.affine_pieces`, the one composition
primitive: cylinders cut at preimages of ``c`` and of internal
breakpoints) by solving ``s·x + t = x`` on each piece exactly, and
each orbit is iterated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .numerics import Scalar
from .maps import (
    DEFAULT_BRANCH_BUDGET,
    BranchBudgetExceeded,  # raised by periodic_points, so public here too
    LorenzMap,
    Side,
    SidedPoint,
    SideRequired,
    affine_pieces,
    evaluate,
    inverse_images,
    orbit_values,
)

DEFAULT_BACKWARD_CAP = 10_000


class AmbiguousPreimage(Exception):
    """A backward-chain point had two preimages before entering [f(a), f(b)]."""


class UniquenessViolated(Exception):
    """More than one minimal-period orbit was found (broken input or bug)."""


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
    points: tuple  # SidedPoints sorted by value; side set only at c
    period: int
    itinerary: str  # letter k is L iff the k-th sorted point is left of c
    flank_left: Scalar  # largest orbit value left of c
    flank_right: Scalar  # smallest orbit value right of c

    def values(self) -> tuple:
        return tuple(p.x for p in self.points)


def fixed_points(m: LorenzMap) -> list:
    """All solutions of ``f(x) = x``, found per affine piece."""
    out = []
    for branch, is_left in ((m.left, True), (m.right, False)):
        for lo, hi, s, t in branch.pieces():
            if s == 1:
                continue
            x = t / (1 - s)
            if not (lo <= x <= hi):
                continue
            # the discontinuity itself belongs to neither branch
            if x == m.c:
                continue
            if is_left and not (m.a <= x < m.c):
                continue
            if not is_left and not (m.c < x <= m.b):
                continue
            if x not in out:
                out.append(x)
    return sorted(out)


def minimal_period(m: LorenzMap, cap: int = DEFAULT_BACKWARD_CAP) -> MinimalPeriodResult:
    """Minimal period via the backward chain of the discontinuity.

    Fixed points short-circuit to ``kappa = 1``.  Otherwise ``c`` is
    pulled back through its unique preimages; the first entry of the
    chain into ``[f(a), f(b)]`` at step ``m`` gives ``kappa = m + 2``.
    Exceeding the cap leaves the period undetermined (an infinite
    minimal period is suspected but never asserted).
    """
    if fixed_points(m):
        return MinimalPeriodResult(1, None, ())
    fa = evaluate(m, SidedPoint(m.a))
    fb = evaluate(m, SidedPoint(m.b))
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


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def _periodic_orbits(m: LorenzMap, n: int, budget: int) -> list:
    """``(p, least period, [p.x, ..., f^n(p)])`` per fixed point of ``f^n``, ascending.

    Each affine cylinder of ``f^n`` carries at most one solution because
    every slope exceeds 1.  Interior solutions are plain points.  A
    solution sitting on a cylinder endpoint whose orbit hits ``c``
    exactly is the one-sided point that endpoint stands for (``+`` at a
    left endpoint, ``-`` at a right endpoint).  Each point's orbit is
    iterated once; the fixed-point check and the least period (the least
    ``d | n`` with ``f^d(p) = p``) are read off it.  A candidate on an
    orbit already iterated that misses ``c`` reads both off that orbit.
    """
    if n < 1:
        raise ValueError("period must be >= 1")
    found: dict = {}
    walked: dict = {}  # x -> (k, values, least) with values[k] = x
    for lo, hi, s, t, _word in affine_pieces(m, m.a, m.b, n, budget):
        if s == 1:
            continue
        x = t / (1 - s)
        if not (lo <= x <= hi):
            continue
        if x in walked:
            k, values, least = walked[x]
            found[(x, None)] = (SidedPoint(x), least, values[k:n] + values[: k + 1])
            continue
        p = SidedPoint(x)
        try:
            values = orbit_values(m, p, n)
        except SideRequired:
            if x not in (lo, hi):
                raise AssertionError(
                    "interior cylinder point hit the discontinuity"
                ) from None
            p = SidedPoint(x, Side.PLUS if x == lo else Side.MINUS)
            values = orbit_values(m, p, n)
        if values[n] != x or (x, p.side) in found:
            continue
        least = next(d for d in _divisors(n) if values[d] == x)
        found[(x, p.side)] = (p, least, values)
        if p.side is None:
            walked.update((y, (k, values, least)) for k, y in enumerate(values[:n]))
    return sorted(found.values(), key=lambda item: item[0].x)


def periodic_points(
    m: LorenzMap, n: int, budget: int = DEFAULT_BRANCH_BUDGET
) -> list:
    """All fixed points of ``f^n`` with their least periods, ascending.

    Orbits through exact hits of ``c`` appear as one-sided points.
    """
    return [(p, least) for p, least, _values in _periodic_orbits(m, n, budget)]


def minimal_periodic_orbit(
    m: LorenzMap, kappa: int, budget: int = DEFAULT_BRANCH_BUDGET
) -> PeriodicOrbit:
    """The unique orbit of least period ``kappa`` (1 < kappa < ∞)."""
    if kappa <= 1:
        raise ValueError("the minimal orbit is defined for kappa > 1")
    candidates = _periodic_orbits(m, kappa, budget)
    if any(least < kappa for _, least, _values in candidates):
        raise ValueError(
            "points of period below kappa exist; kappa is not the minimal period"
        )
    orbits = []
    seen = set()
    for p, _, values in candidates:
        if (p.x, p.side) in seen:
            continue
        orbit = [SidedPoint(x, p.side) for x in values[:kappa]]
        for q in orbit:
            seen.add((q.x, q.side))
        orbits.append(sorted(orbit, key=lambda sp: sp.x))
    if len(orbits) != 1:
        raise UniquenessViolated(
            f"expected one orbit of period {kappa}, found {len(orbits)}"
        )
    points = tuple(orbits[0])
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
