"""Renormalization: validity checking, minimal search, towers, trichotomy.

A pair ``(ell, r)`` with both entries > 1 renormalizes the map when the
first-return candidate ``g = (f^ell on [u, c), f^r on (c, v])`` with
``u = f^r(c+)``, ``v = f^ell(c-)`` is itself a Lorenz map on a proper
subinterval ``[u, v]`` around ``c``.  Each renormalization comes with a
repelling set whose gap around ``c`` is bounded by two periodic points
``e- <= u`` and ``e+ >= v`` with ``f^ell(e-) = e-`` and ``f^r(e+) = e+``
exactly; the renormalization is periodic when ``e-`` and ``e+`` lie on
one orbit.

The minimal renormalization is ``(kappa, kappa)``, with ``kappa`` the
minimal period, when that pair is valid; otherwise it is the first valid
pair found by searching in increasing ``ell + r``.  Either way it is
coordinatewise minimal.  The search rules only on pairs of record
times: a first return keeps every earlier iterate of ``c±`` off
``(u, v)``, so ``r`` must be a time at which the ``c+`` orbit comes at
least as close to ``c`` from the left as at every earlier time, and
``ell`` the same for the ``c-`` orbit from the right
(:func:`_record_times`).  Every valid pair is such a pair, so the walk
finds the same first pair, and finding none still proves "prime up to
bound".  Consecutive minimal renormalizations of the rescaled inner maps
form the tower.

Every condition on a pair is an order relation between the points
``f^i(c-)``, ``f^i(c+)``, ``a``, ``b`` and ``c``, so the pair search
runs on the integer ranks of the ordered critical orbit
(:mod:`lorenzmap.orbits`); exact iterates are computed only where the
ranking needs them and for the ``u``, ``v`` of a chosen pair.  Each map
is ruled on with its own pair (:func:`~lorenzmap.orbits.critical_pair`),
so the tower's base map keeps the orbits its first level was searched
on for the minimal orbit and the orbit unions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .numerics import Scalar
from .maps import (
    BranchLabel,
    LorenzMap,
    orbit_values,
    rescale_to_unit,
    word_pieces,
)
# perfbench's tracer resolves the renorm.critical_orbit_values span by this name
from .orbits import critical_orbit_values, critical_pair
from .periods import MinimalPeriodResult, _fixed_point, minimal_period

DEFAULT_PAIR_BOUND = 64
DEFAULT_LEVEL_CAP = 16


@dataclass(frozen=True)
class RenormStep:
    """One renormalization in the coordinates of the map it was cut from."""

    ell: int
    r: int
    u: Scalar
    v: Scalar
    e_minus: Scalar
    e_plus: Scalar
    periodic: bool
    inner_map: LorenzMap
    left_word: tuple  # branch applied at each of the ell left return steps
    right_word: tuple


@dataclass(frozen=True)
class RenormCheck:
    step: Optional[RenormStep]
    reason: Optional[str] = None

    @property
    def valid(self) -> bool:
        return self.step is not None


def _build_step(m: LorenzMap, ell: int, r: int, minus, plus) -> RenormStep:
    u, v = plus.exact(r), minus.exact(ell)
    left_word, right_word = minus.word[:ell], plus.word[:r]

    left_pieces = word_pieces(m, left_word, m.a, m.c)
    right_pieces = word_pieces(m, right_word, m.c, m.b)
    e_minus = _fixed_point(left_pieces, m.a, u)
    e_plus = _fixed_point(right_pieces, v, m.b)

    if not (e_minus <= u and v <= e_plus):
        raise AssertionError("repelling fixed points do not bound the interval")
    orbit_of_e_minus = orbit_values(m, e_minus, ell - 1)
    for value in orbit_of_e_minus:
        if u < value < v:
            raise AssertionError("repelling orbit enters the return window")
    periodic = e_plus in orbit_of_e_minus
    inner = rescale_to_unit(m, (u, v), (left_pieces, right_pieces))
    return RenormStep(
        ell, r, u, v, e_minus, e_plus, periodic, inner, left_word, right_word
    )


def _pair_failure(a, b, c, ell: int, r: int, minus, plus) -> Optional[str]:
    """First-return renormalization conditions for ``(ell, r)``; None if all hold.

    Only the order of ``a``, ``b``, ``c`` and the critical orbits
    ``minus[i] = f^i(c-)``, ``plus[i] = f^i(c+)`` enters, so any totally
    ordered stand-ins give the same answer: the search passes the ranks
    of :func:`~lorenzmap.orbits.ranked_orbits`, which order the values exactly.

    Beyond the return images straddling ``c`` on a proper subinterval
    and the return branches mapping back into ``[u, v]``, the two
    windows must stay off the open interval ``(u, v)`` strictly inside
    their return times: a window passing through the interval early
    means ``(f^ell, f^r)`` is not the first return map, and no repelling
    periodic points exist for it.  (Avoiding ``(u, v)`` implies avoiding
    ``c``, so the return branches are continuous.)  Boundary touching is
    allowed; it is the degenerate periodic case.
    """
    u, v = plus[r], minus[ell]
    if not (u < c < v):
        return "return images of c+ and c- do not straddle c"
    if u == a and v == b:
        return "return interval is the whole domain"
    for i in range(1, ell):
        if not (minus[i] <= u or plus[r + i] >= v):
            return f"left window meets the return interval after {i} steps"
    for j in range(1, r):
        if not (minus[ell + j] <= u or plus[j] >= v):
            return f"right window meets the return interval after {j} steps"
    if plus[r + ell] < u:
        return "f^ell does not map [u, c) into [u, v]"
    if minus[ell + r] > v:
        return "f^r does not map (c, v] into [u, v]"
    return None


def is_valid_renormalization(m: LorenzMap, ell: int, r: int) -> RenormCheck:
    """Decide whether ``(ell, r)`` renormalizes the map.

    Checks, in order: the return images straddle ``c`` on a proper
    subinterval; the two return windows stay off ``c`` strictly inside
    their first ``ell``/``r`` steps (continuity of the return branches);
    and the return branches map back into ``[u, v]``.  On success the
    repelling fixed points, periodicity flag, and rescaled inner map are
    extracted.  The conditions read the ranks of the map's own pair.
    """
    if ell <= 1 or r <= 1:
        raise ValueError("renormalization needs ell > 1 and r > 1")
    critical = critical_pair(m)
    a, b, c, minus_rank, plus_rank = critical.ranks(ell + r)
    reason = _pair_failure(a, b, c, ell, r, minus_rank, plus_rank)
    if reason is not None:
        return RenormCheck(None, reason)
    return RenormCheck(_build_step(m, ell, r, critical.minus, critical.plus))


@dataclass(frozen=True)
class MinimalRenormResult:
    """Outcome of the minimal-renormalization decision for one map."""

    step: Optional[RenormStep]
    prime_bound: Optional[int]  # searched exhaustively up to this pair bound
    certainly_prime: bool  # fixed-point maps are prime outright
    fast_path: bool  # found by the (kappa, kappa) rule, before any search
    period: MinimalPeriodResult

    @property
    def found(self) -> bool:
        return self.step is not None


def _record_times(c, minus, plus, bound: int) -> tuple:
    """Candidate return times ``(L, R)`` in ``[2, bound]``, ascending.

    ``L`` holds the weak right-record times of ``c-``: the ``ell`` with
    ``minus[ell] > c`` and ``minus[ell] <= minus[i]`` for every earlier
    ``minus[i] > c``, ``1 <= i < ell``.  ``R`` holds the weak left-record
    times of ``c+``: the ``r`` with ``plus[r] < c`` and ``plus[r] >=``
    every earlier ``plus[j] < c``.

    Every pair that passes :func:`_pair_failure` lies in ``L × R``.  Take
    the right-window test at step ``j < r``.  If the earlier windows
    avoided ``(u, v)``, which contains ``c``, then ``f^j`` is continuous
    and increasing on ``(c, v]``, so the window image
    ``(plus[j], minus[ell+j]]`` is ordered.  If ``plus[j] < c < v``, the
    test then needs ``minus[ell+j] <= u``, hence ``plus[j] <= u =
    plus[r]``.  The left window, ``[plus[r+i], minus[i])``, gives the
    mirror statement ``minus[i] >= v = minus[ell]`` for every
    ``minus[i] > c``.  So walking only ``L × R`` finds the same first
    pair, and a walk that finds none still proves "prime up to bound".
    """
    left, right = [], []
    low, high = math.inf, -math.inf  # min of minus above c, max of plus below c
    for i in range(1, bound + 1):
        if minus[i] > c:
            if i >= 2 and minus[i] <= low:
                left.append(i)
            low = min(low, minus[i])
        if plus[i] < c:
            if i >= 2 and plus[i] >= high:
                right.append(i)
            high = max(high, plus[i])
    return left, right


def _search_pairs(m: LorenzMap, bound: int) -> Optional[RenormStep]:
    """The first valid pair of record times in ``[2, bound]``, or None.

    The record times need the first ``bound`` steps of the critical
    orbits, and a pair ``(ell, r)`` reads them up to ``ell + r``.  So the
    map's pair is grown to ``bound`` steps and then only to
    ``max(L) + max(R)``.
    """
    critical = critical_pair(m)
    _a, _b, c, minus_rank, plus_rank = critical.ranks(bound)
    left, right = _record_times(c, minus_rank, plus_rank, bound)
    if not (left and right):
        return None
    a, b, c, minus_rank, plus_rank = critical.ranks(left[-1] + right[-1])
    # increasing ell + r, ties by ell: the order of the full walk
    for ell, r in sorted(
        ((ell, r) for ell in left for r in right), key=lambda p: (p[0] + p[1], p[0])
    ):
        if _pair_failure(a, b, c, ell, r, minus_rank, plus_rank) is None:
            return _build_step(m, ell, r, critical.minus, critical.plus)
    return None


def minimal_renormalization(
    m: LorenzMap,
    bound: int = DEFAULT_PAIR_BOUND,
    period: Optional[MinimalPeriodResult] = None,
) -> MinimalRenormResult:
    """The coordinatewise-minimal renormalization, or bounded prime evidence.

    With a finite minimal period ``kappa > 1``, ``(kappa, kappa)`` is ruled
    on first, whatever the bound: ``e-`` is fixed by ``f^ell``, so its
    least period divides ``ell`` and is at least ``kappa``, and the same
    holds for ``e+`` and ``r``; a valid ``(kappa, kappa)`` is minimal
    outright.  Otherwise pairs are searched in increasing ``ell + r``
    (ties by ``ell``), and the first valid pair is the minimal one.  Only
    pairs of critical-orbit record times are ruled on: every valid pair
    is one (see :func:`_record_times`), so skipping the others changes
    neither the pair found nor the "prime up to bound" answer.  Both
    rulings read the ranks of the map's pair, grown to ``2·kappa`` steps
    for the first one.
    """
    period = period if period is not None else minimal_period(m)
    if period.kappa == 1:
        return MinimalRenormResult(None, None, True, False, period)
    critical = critical_pair(m)
    kappa = period.kappa
    if kappa is not None:
        a, b, c, minus_rank, plus_rank = critical.ranks(2 * kappa)
        if _pair_failure(a, b, c, kappa, kappa, minus_rank, plus_rank) is None:
            step = _build_step(m, kappa, kappa, critical.minus, critical.plus)
            return MinimalRenormResult(step, None, False, True, period)
    step = _search_pairs(m, bound)
    if step is not None:
        return MinimalRenormResult(step, None, False, False, period)
    return MinimalRenormResult(None, bound, False, False, period)


class TowerTerminal(enum.Enum):
    PRIME = "prime"
    PRIME_UP_TO_BOUND = "prime-up-to-bound"
    PERIOD_CAP_REACHED = "period-cap-reached"
    LEVEL_CAP_REACHED = "level-cap-reached"


@dataclass(frozen=True)
class TowerLevel:
    """A renormalization step with its original-coordinate bookkeeping.

    ``step`` lives in the frame of the map it renormalized;
    ``interval``, ``e_minus`` and ``e_plus`` are mapped back to the base
    map's coordinates; ``return_left``/``return_right`` count base-map
    steps per application of the level's return branches.
    """

    index: int
    step: RenormStep
    interval: tuple
    e_minus: Scalar
    e_plus: Scalar
    return_left: int
    return_right: int


@dataclass(frozen=True)
class Tower:
    """The levels, and why the tower ended."""

    levels: tuple
    terminal: TowerTerminal
    bound: int
    level_cap: int

    def __len__(self) -> int:
        return len(self.levels)


def renorm_tower(
    m: LorenzMap,
    level_cap: int = DEFAULT_LEVEL_CAP,
    bound: int = DEFAULT_PAIR_BOUND,
    period: Optional[MinimalPeriodResult] = None,
) -> Tower:
    """Consecutive minimal renormalizations of the rescaled inner maps.

    Level intervals are strictly nested around ``c`` in the base map's
    coordinates.  The tower ends when the current inner map has a fixed
    point (prime), shows no renormalization up to the pair bound (prime
    up to bound), when its minimal period is undetermined at the cap, or
    at the level cap.  ``period``, when given, is the base map's.
    """
    levels = []
    g = m
    scale, shift = Fraction(1), Fraction(0)
    cost_left, cost_right = 1, 1
    for index in range(1, level_cap + 1):
        result = minimal_renormalization(g, bound, period if g is m else None)
        if not result.found:
            if result.certainly_prime:
                terminal = TowerTerminal.PRIME
            elif result.period.undetermined:
                terminal = TowerTerminal.PERIOD_CAP_REACHED
            else:
                terminal = TowerTerminal.PRIME_UP_TO_BOUND
            return Tower(tuple(levels), terminal, bound, level_cap)
        step = result.step
        return_left = sum(
            cost_left if lab is BranchLabel.LEFT else cost_right
            for lab in step.left_word
        )
        return_right = sum(
            cost_left if lab is BranchLabel.LEFT else cost_right
            for lab in step.right_word
        )
        levels.append(
            TowerLevel(
                index,
                step,
                (scale * step.u + shift, scale * step.v + shift),
                scale * step.e_minus + shift,
                scale * step.e_plus + shift,
                return_left,
                return_right,
            )
        )
        shift = scale * step.u + shift
        scale = scale * (step.v - step.u)
        cost_left, cost_right = return_left, return_right
        g = step.inner_map
    return Tower(tuple(levels), TowerTerminal.LEVEL_CAP_REACHED, bound, level_cap)


class Trichotomy(enum.Enum):
    PRIME = "prime"
    PERIODIC_MINIMAL_RENORM = "periodic-minimal-renorm"
    CANTOR_MINIMAL_RENORM = "cantor-minimal-renorm"
    UNKNOWN = "prime-up-to-bound"


def decide_trichotomy(
    period: MinimalPeriodResult, step: Optional[RenormStep]
) -> Trichotomy:
    """The trichotomy from the minimal period and the minimal renormalization.

    Fixed-point maps are prime outright.  A found minimal
    renormalization is classified by its periodicity flag (periodic:
    the set is the minimal orbit; otherwise it is a Cantor set).  The
    pair search runs exhaustively in increasing ``ell + r``, so a step
    it finds is the minimal one even when the period is undetermined.
    With nothing found the honest answer is "prime up to the search
    bound": primality has no finite certificate.
    """
    if period.kappa == 1:
        return Trichotomy.PRIME
    if step is None:
        return Trichotomy.UNKNOWN
    if step.periodic:
        return Trichotomy.PERIODIC_MINIMAL_RENORM
    return Trichotomy.CANTOR_MINIMAL_RENORM


def classify_trichotomy(
    m: LorenzMap,
    bound: int = DEFAULT_PAIR_BOUND,
    period: Optional[MinimalPeriodResult] = None,
) -> tuple:
    """Structure of the minimal completely invariant set (see :func:`decide_trichotomy`)."""
    result = minimal_renormalization(m, bound, period)
    return decide_trichotomy(result.period, result.step), result
