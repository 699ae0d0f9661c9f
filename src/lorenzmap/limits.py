"""Backward-limit classification and the nonwandering decomposition.

Each tower level ``i`` contributes a proper repelling set ``E_i``: the
points whose forward orbit never enters the open level interval
``(a_i, b_i)``.  Backward limit sets of points are exactly these sets
plus the full interval: a point's class is decided by which nested
orbit unions ``orb([a_i, b_i])`` it belongs to.  The nonwandering set
splits into per-level pieces (a periodic orbit or a Cantor set,
matching the level's periodicity flag) plus the attractor, the orbit
union of the deepest interval.

Every endpoint of a level's orbit union is a base critical-orbit value
``f^k(c±)``, so the unions of a whole tower are sorted and merged on
the integer ranks of the base map's own ordered critical orbit
(:func:`~lorenzmap.orbits.critical_pair`), and only the endpoints that
survive the merge are taken as exact values.  The forward orbits that
give the periodic ω parts and decide membership in ``E_i`` are exact,
one integer step on a reduced pair per point
(:func:`~lorenzmap.maps.sided_step`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .numerics import Scalar, format_scalar, reduced_fraction
from .maps import (
    CapExceeded,
    LorenzMap,
    SidedPoint,
    as_sided,
    evaluate,
    inverse_images,
    sided_step,
)
from .interval_dynamics import IntervalUnion
from .orbits import critical_pair, order_key
from .renorm import Tower

DEFAULT_APPROX_DEPTH = 4
DEFAULT_MEMBERSHIP_CAP = 1_000


class AlphaKind(enum.Enum):
    PROPER_LIMIT_SET = "proper"
    FULL_INTERVAL = "full"


@dataclass(frozen=True)
class AlphaClass:
    kind: AlphaKind
    index: Optional[int] = None  # level i >= 1 for proper sets

    def label(self) -> str:
        if self.kind is AlphaKind.FULL_INTERVAL:
            return "I"
        return f"E_{self.index}"


def orbit_unions(m: LorenzMap, tower: Tower) -> list:
    """Orbit unions of the tower intervals in base coordinates, level 1 up.

    Level ``i`` with return times ``(RL, RR)`` has ``a_i = plus[RR]`` and
    ``b_i = minus[RL]``, where ``minus[k] = f^k(c-)`` and
    ``plus[k] = f^k(c+)`` are the base critical orbits.  So the iterates
    of ``[a_i, c]`` and ``[c, b_i]`` that
    :func:`~lorenzmap.interval_dynamics.interval_orbit` unites are
    ``[plus[RR + j], minus[j]]`` for ``j < RL`` and
    ``[plus[j], minus[RL + j]]`` for ``j < RR``.  One critical orbit of
    length ``max(RL + RR)``, ranked once, serves every level: the
    intervals are sorted and merged on the integer ranks, and exact
    values are taken only for the endpoints of the merged components.
    The orbit is the map's own pair, grown to that length, so the orbit
    the tower's first level was searched on is not iterated again.
    """
    if not tower.levels:
        return []
    length = max(level.return_left + level.return_right for level in tower.levels)
    critical = critical_pair(m)
    _a, _b, c, minus_rank, plus_rank = critical.ranks(length)
    minus, plus = critical.minus, critical.plus
    unions = []
    for level in tower.levels:
        ell, r = level.return_left, level.return_right
        if level.interval != (plus.exact(r), minus.exact(ell)):
            raise AssertionError("level interval is not (f^RR(c+), f^RL(c-))")
        # (plus index, minus index) of the iterates of [a_i, c], then [c, b_i]
        windows = [(r + j, j) for j in range(ell)] + [(j, ell + j) for j in range(r)]
        # the iterates whose images are taken, as in interval_orbit
        for p, q in windows[: ell - 1] + windows[ell : ell + r - 1]:
            if plus_rank[p] < c < minus_rank[q]:
                raise ValueError(
                    "interval image crossed the discontinuity: return times "
                    "do not match the first-return structure"
                )
        ranked = sorted((plus_rank[p], minus_rank[q], p, q) for p, q in windows)
        merged: list[list] = []
        for lo, hi, p, q in ranked:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1][1], merged[-1][3] = hi, q
            else:
                merged.append([lo, hi, p, q])
        components = []
        for lo, hi, p, q in merged:
            if lo > hi:
                raise ValueError(
                    f"empty interval: lo={plus.exact(p)} > hi={minus.exact(q)}"
                )
            components.append((plus.exact(p), minus.exact(q)))
        unions.append(IntervalUnion(tuple(components)))
    return unions


def outer_union(m: LorenzMap, unions: list, i: int) -> IntervalUnion:
    """The orbit union level ``i`` sits in: that of level ``i - 1``.

    Level 1 sits in the whole domain; ``i = len(unions) + 1`` gives the
    deepest union, which is the attractor.
    """
    if i >= 2:
        return unions[i - 2]
    return IntervalUnion.from_pairs([(m.a, m.b)])


def alpha_classify(
    m: LorenzMap, tower: Tower, x, unions: Optional[list] = None
) -> AlphaClass:
    """Backward-limit class of a point: some level's ``E_i`` or the full interval.

    The class is ``E_i`` for the unique level whose orbit union is the
    first one the point falls out of; points inside every level's union
    (the attractor) have full-interval backward limits.  Both sides of
    the discontinuity classify as full interval, since ``c`` lies in
    every level interval.
    """
    x = as_sided(x).x
    if not (m.a <= x <= m.b):
        raise ValueError("point outside the domain")
    if unions is None:
        unions = orbit_unions(m, tower)
    for i, union in enumerate(unions, start=1):
        if not union.contains(x):
            return AlphaClass(AlphaKind.PROPER_LIMIT_SET, i)
    return AlphaClass(AlphaKind.FULL_INTERVAL)


def _forward_orbit_closure(m: LorenzMap, x: Scalar, cap: int = 100_000) -> list:
    """The finite forward orbit of an exactly periodic point, ascending.

    Unsided evaluation suffices: repelling orbits avoid the open return
    window, which contains the discontinuity, and an orbit that lands on
    ``c`` raises :class:`~lorenzmap.maps.SideRequired`.  The orbit is
    stepped on reduced integer pairs (:func:`~lorenzmap.maps.sided_step`),
    so only ``x`` is checked against the domain.  Reduced pairs are equal
    exactly when their values are, so the walk stops where the orbit
    closes.  It is sorted with :func:`~lorenzmap.orbits.order_key`.
    """
    if not (m.a <= x <= m.b):
        raise ValueError(f"{format_scalar(x)} outside the domain")
    start = n, d = x.numerator, x.denominator
    orbit = []
    for _ in range(cap + 1):
        orbit.append(reduced_fraction(n, d))
        n, d = sided_step(m, n, d)
        if (n, d) == start:
            return sorted(orbit, key=order_key)
    raise CapExceeded(f"{x} did not return to itself within {cap} steps")


def alpha_limit_approx(
    m: LorenzMap, tower: Tower, i: int, depth: int
) -> tuple:
    """Finite inner approximation of the level-``i`` repelling set.

    Starts from the forward orbit of the level's repelling point ``e-``
    (in base coordinates) and adds preimages up to ``depth``, keeping
    only points outside the open level interval: a preimage of a kept
    point then has its whole forward orbit off the interval, which is
    the membership criterion for ``E_i``.
    """
    if not (1 <= i <= len(tower.levels)):
        raise ValueError("level index outside the tower")
    level = tower.levels[i - 1]
    gap_lo, gap_hi = level.interval
    points = set(_forward_orbit_closure(m, level.e_minus))
    for x in points:
        if gap_lo < x < gap_hi:
            raise AssertionError("repelling orbit enters its own level interval")
    frontier = set(points)
    for _ in range(depth):
        new = set()
        for y in frontier:
            for p, _branch in inverse_images(m, y):
                if p.side is not None:
                    continue  # one-sided hits of c sit inside the gap anyway
                if gap_lo < p.x < gap_hi:
                    continue
                if p.x not in points:
                    new.add(p.x)
        points |= new
        frontier = new
    return tuple(sorted(points, key=order_key))


class Membership(enum.Enum):
    IN = "in"
    OUT = "out"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class MembershipResult:
    status: Membership
    steps: Optional[int] = None  # entry step for OUT, cycle close for IN


def membership_E(
    m: LorenzMap,
    tower: Tower,
    i: int,
    x: Scalar,
    cap: int = DEFAULT_MEMBERSHIP_CAP,
) -> MembershipResult:
    """Certified membership query for the level-``i`` repelling set.

    OUT is certified by the forward orbit entering the open level
    interval; IN by exact cycle detection (rational orbits only) without
    entering.  Anything else is honestly undetermined.
    """
    if not (1 <= i <= len(tower.levels)):
        raise ValueError("level index outside the tower")
    if not isinstance(x, Fraction):
        raise TypeError("membership certification requires an exact rational point")
    gap_lo, gap_hi = tower.levels[i - 1].interval
    seen = set()
    y = x
    for step in range(cap + 1):
        if gap_lo < y < gap_hi:
            return MembershipResult(Membership.OUT, step)
        # one hash per point: the set grows unless y was seen before
        size = len(seen)
        seen.add(y)
        if len(seen) == size:
            return MembershipResult(Membership.IN, step)
        y = evaluate(m, SidedPoint(y))
    return MembershipResult(Membership.UNDETERMINED)


@dataclass(frozen=True)
class OmegaPart:
    """One nonwandering piece: a finite orbit, or a Cantor set approximation."""

    level: int
    periodic: bool
    points: tuple
    exact: bool  # False for Cantor parts (depth-bounded approximation)


@dataclass(frozen=True)
class OmegaDecomposition:
    parts: tuple
    attractor: IntervalUnion
    flags: tuple  # per-level periodicity


def omega_decomposition(
    m: LorenzMap,
    tower: Tower,
    unions: Optional[list] = None,
    approx_depth: int = DEFAULT_APPROX_DEPTH,
) -> OmegaDecomposition:
    """Split the nonwandering set into per-level pieces plus the attractor.

    The level-``i`` piece is the full forward orbit of the previous
    level's minimal orbit; for a periodic level that is exactly the
    forward orbit of the level's repelling point.  Cantor levels get a
    flag and a depth-bounded point approximation.  The attractor is the
    whole domain for an empty tower, otherwise the deepest orbit union.
    """
    if unions is None:
        unions = orbit_unions(m, tower)
    parts = []
    for level in tower.levels:
        if level.step.periodic:
            points = tuple(_forward_orbit_closure(m, level.e_minus))
            parts.append(OmegaPart(level.index, True, points, True))
        else:
            approx = alpha_limit_approx(m, tower, level.index, approx_depth)
            outer = outer_union(m, unions, level.index)
            points = tuple(x for x in approx if outer.contains(x))
            parts.append(OmegaPart(level.index, False, points, False))
    attractor = outer_union(m, unions, len(tower.levels) + 1)
    flags = tuple(level.step.periodic for level in tower.levels)
    return OmegaDecomposition(tuple(parts), attractor, flags)


class StructureKind(enum.Enum):
    COUNTABLE = "countable"
    CANTOR = "cantor"
    ISOLATED_OVER_CANTOR = "isolated-over-cantor"


@dataclass(frozen=True)
class StructureTag:
    level: int
    kind: StructureKind
    depth: Optional[int] = None  # defined only for countable sets


def depth_report(tower: Tower) -> tuple:
    """Structural tags for the repelling sets, derived from periodicity.

    All levels periodic through ``i``: countable with depth ``i`` (each
    derived set drops one level).  A non-periodic level is a Cantor set.
    A periodic level above a non-periodic one keeps isolated points but
    contains a Cantor set, so it is neither.
    """
    tags = []
    all_periodic = True
    for level in tower.levels:
        if not level.step.periodic:
            all_periodic = False
            tags.append(StructureTag(level.index, StructureKind.CANTOR))
        elif all_periodic:
            tags.append(
                StructureTag(level.index, StructureKind.COUNTABLE, level.index)
            )
        else:
            tags.append(StructureTag(level.index, StructureKind.ISOLATED_OVER_CANTOR))
    return tuple(tags)


def preimage_open_intervals(m: LorenzMap, lo: Scalar, hi: Scalar, depth: int) -> list:
    """Open intervals mapping into ``(lo, hi)`` within ``depth`` pullbacks.

    Level ``0`` is the interval itself; each pullback inverts both
    branches piecewise.  It checks the paper's complement identity: the
    preimages of the gap ``(u, v)`` of a renormalization avoid its
    repelling set ``E_1`` (acceptance criterion 11).
    """
    current = [(lo, hi)]
    out = [(lo, hi)]
    for _ in range(depth):
        pulled = []
        for plo, phi in current:
            for branch in (m.left, m.right):
                bps = branch.breakpoints
                for d0, d1, s, t in zip(bps, bps[1:], branch.slopes, branch.intercepts):
                    xlo = max(d0, (plo - t) / s)
                    xhi = min(d1, (phi - t) / s)
                    if xlo < xhi:
                        pulled.append((xlo, xhi))
        # merge duplicates from shared piece endpoints
        pulled = sorted(set(pulled))
        current = pulled
        out.extend(pulled)
    return out
