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
``f^k(c±)``, so the unions of a whole tower are merged on the integer
ranks of the base map's own ordered critical orbit
(:func:`~lorenzmap.orbits.critical_pair`), and only the endpoints that
survive the merge are taken as exact values.  The periodic ω parts
are the orbits of the levels' ``e-``, walked along the base word of
``c-`` (:func:`_level_orbit`, :func:`~lorenzmap.maps.word_orbit`), and
the forward orbits that decide membership in ``E_i`` are exact, one
integer step on a reduced pair per point
(:func:`~lorenzmap.maps.evaluate`).  The paper's statements about
these sets that the analyzer does not report, the structural depth of
each ``E_i`` and the preimages of a level's gap avoiding it, are
checked in the tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .numerics import InvalidInput, Scalar
from .maps import LorenzMap, evaluate, inverse_images, word_orbit
from .interval_dynamics import IntervalUnion
from .orbits import critical_pair, order_key
from .renorm import Tower, TowerLevel

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
    ``plus[k] = f^k(c+)`` are the base critical orbits: by the claim of
    :func:`_level_orbit`, the level's return branches are ``f^RL`` and
    ``f^RR`` along the base words of ``c-`` and ``c+``.  So the iterates
    of ``[a_i, c]`` and ``[c, b_i]`` that the level's interval orbit
    unites are ``[plus[RR + j], minus[j]]`` for ``j < RL`` and
    ``[plus[j], minus[RL + j]]`` for ``j < RR``, and by the same claim
    each lies in one branch domain, so none crosses ``c``.  One critical
    orbit of length ``max(RL + RR)``, ranked once, serves every level: each
    level's rank pairs ``(plus_rank[p], minus_rank[q])`` are merged by
    :meth:`~lorenzmap.interval_dynamics.IntervalUnion.from_pairs`, and
    each merged end is mapped back through its rank to an iterate, whose
    exact value is taken.  Ranks order the values exactly and equal
    values share a rank, so these are the components that merging the
    values would give, and only the ends that survive are made exact.
    The orbit is the map's own pair, grown to that length, so the orbit
    the tower's first level was searched on is not iterated again.
    """
    if not tower.levels:
        return []
    length = max(level.return_left + level.return_right for level in tower.levels)
    critical = critical_pair(m)
    c, minus_rank, plus_rank = critical.ranks(length)
    minus, plus = critical.minus, critical.plus
    unions = []
    for level in tower.levels:
        ell, r = level.return_left, level.return_right
        # (plus index, minus index) of the iterates of [a_i, c], then [c, b_i]
        windows = [(r + j, j) for j in range(ell)] + [(j, ell + j) for j in range(r)]
        ranked = IntervalUnion.from_pairs(
            (plus_rank[p], minus_rank[q]) for p, q in windows
        )
        plus_at = {plus_rank[p]: p for p, _q in windows}
        minus_at = {minus_rank[q]: q for _p, q in windows}
        components = (
            (plus.exact(plus_at[lo]), minus.exact(minus_at[hi]))
            for lo, hi in ranked.components
        )
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


def alpha_classify(m: LorenzMap, tower: Tower, x: Scalar, unions: list) -> AlphaClass:
    """Backward-limit class of a point: some level's ``E_i`` or the full interval.

    The class is ``E_i`` for the unique level whose orbit union is the
    first one the point falls out of; points inside every level's union
    (the attractor) have full-interval backward limits.  ``c`` (either
    side of it) classifies as full interval, since it lies in every
    level interval.  A point outside ``[a, b]`` raises ``InvalidInput``.
    ``unions`` is ``orbit_unions(m, tower)``, which callers compute once.
    """
    if not (m.a <= x <= m.b):
        raise InvalidInput("point outside the domain")
    for i, union in enumerate(unions, start=1):
        if not union.contains(x):
            return AlphaClass(AlphaKind.PROPER_LIMIT_SET, i)
    return AlphaClass(AlphaKind.FULL_INTERVAL)


def _level_orbit(m: LorenzMap, level: TowerLevel) -> list:
    """The orbit of the level's ``e-`` in base coordinates, ascending.

    Write ``RL_i`` and ``RR_i`` for level ``i``'s return times in base
    steps, and ``RL_0 = RR_0 = 1`` for the map itself.  Claim: level
    ``i``'s left return branch, on its closed domain with ``c`` read as
    ``c-``, is ``f^RL_i`` along the base word ``minus.word[:RL_i]``, and
    its right one ``f^RR_i`` along ``plus.word[:RR_i]``.  Level ``i``'s
    left return word ``w`` is a word in level ``i - 1``'s branches, so
    by the claim for ``i - 1`` a point that follows ``w`` follows, under
    ``f``, the word that expands each ``L`` of ``w`` into
    ``minus.word[:RL_{i-1}]`` and each ``R`` into
    ``plus.word[:RR_{i-1}]``.  ``c-`` follows ``w`` (the word is read
    off its orbit), so that expansion is ``minus.word[:RL_i]``; the
    points of the left domain follow ``w``, which proves the claim, and
    so does ``e-``, the fixed point on ``w``'s pieces.  So ``e-``
    follows ``minus.word[:RL_i]``, :func:`~lorenzmap.maps.word_orbit`
    walks it exactly, and ``f^RL_i(e-) = e-`` holds with no check.

    ``RL_i`` is the least period of ``e-``, so the orbit is the walk's
    first ``RL_i`` points.  ``e-`` lies left of ``c`` and follows the
    word of ``c-``.  If ``f^p(e-) = e-`` with ``0 < p < RL_i``, then
    ``e-``'s letter at step ``p`` is ``L``, and so is ``c-``'s, so
    ``f^p(c-) <= c``.  So ``f^p``, continuous and increasing on
    ``[e-, c)``, would map ``[e-, c)`` into ``[e-, c]`` with every slope
    above 1, which is impossible.
    """
    ell = level.return_left
    minus, _plus = critical_pair(m).grow(ell)
    values = word_orbit(m, minus.word[:ell - 1], level.e_minus)
    return sorted(values, key=order_key)


def alpha_limit_approx(
    m: LorenzMap, tower: Tower, i: int, depth: int
) -> tuple:
    """Finite inner approximation of the level-``i`` repelling set.

    Starts from the forward orbit of the level's repelling point ``e-``
    (in base coordinates) and adds preimages up to ``depth``, keeping
    only points outside the open level interval: a preimage of a kept
    point then has its whole forward orbit off the interval, which is
    the membership criterion for ``E_i``.

    The orbit of ``e-`` is off the interval: the proof of
    :func:`~lorenzmap.renorm._build_step` holds in base coordinates.
    There level ``i``'s return branches are ``f^RL_i`` and ``f^RR_i``
    along the words of ``c-`` and ``c+`` (the claim of
    :func:`_level_orbit`), and their windows stay off the open level
    interval ``J_i``, by induction: between returns to ``J_{i-1}`` a
    point stays off its interior, which holds ``J_i``, and at those
    returns level ``i``'s own windows keep it off ``J_i``.
    """
    if not (1 <= i <= len(tower.levels)):
        raise ValueError("level index outside the tower")
    level = tower.levels[i - 1]
    gap_lo, gap_hi = level.interval
    points = set(_level_orbit(m, level))
    frontier = set(points)
    for _ in range(depth):
        new = set()
        for y in frontier:
            for x, _label in inverse_images(m, y):
                if gap_lo < x < gap_hi:
                    continue  # c, the one-sided preimage, is in the gap too
                if x not in points:
                    new.add(x)
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
        y = evaluate(m, y)
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


def omega_decomposition(m: LorenzMap, tower: Tower, unions: list) -> OmegaDecomposition:
    """Split the nonwandering set into per-level pieces plus the attractor.

    The level-``i`` piece is the full forward orbit of the previous
    level's minimal orbit; for a periodic level that is exactly the
    forward orbit of the level's repelling point.  Cantor levels get a
    flag and a depth-bounded point approximation.  The attractor is the
    whole domain for an empty tower, otherwise the deepest orbit union.
    ``unions`` is ``orbit_unions(m, tower)``.
    """
    parts = []
    for level in tower.levels:
        if level.step.periodic:
            points = tuple(_level_orbit(m, level))
            parts.append(OmegaPart(level.index, True, points, True))
        else:
            approx = alpha_limit_approx(m, tower, level.index, DEFAULT_APPROX_DEPTH)
            outer = outer_union(m, unions, level.index)
            points = tuple(x for x in approx if outer.contains(x))
            parts.append(OmegaPart(level.index, False, points, False))
    attractor = outer_union(m, unions, len(tower.levels) + 1)
    flags = tuple(level.step.periodic for level in tower.levels)
    return OmegaDecomposition(tuple(parts), attractor, flags)
