"""Checkers of the paper's statements, the oracles of the acceptance tests.

The continuity index and the covering of the minimal orbit's window
(:func:`hitting_index`, :func:`leo_evidence`), the structural depth
tags of the repelling sets ``E_i`` (:func:`depth_report`) and the
preimages of a level's gap (:func:`preimage_open_intervals`) check what
the paper proves about the analyzer's answers, and
:func:`interval_orbit`, which iterates a level interval step by step,
is the reference that the ranked unions of
:func:`~lorenzmap.limits.orbit_unions` are checked against.  No command
of the analyzer needs them, so they live with the tests that assert
those statements.  Intervals follow the library's conventions: open
windows and closed components are ``(lo, hi)`` pairs, and closed
intervals are iterated with :func:`closed_image_pairs` in the
doubled-point convention.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from lorenzmap.interval_dynamics import IntervalUnion
from lorenzmap.maps import LorenzMap
from lorenzmap.numerics import Scalar, format_interval, format_scalar
from lorenzmap.renorm import Tower

DEFAULT_HIT_CAP = 10_000
DEFAULT_COVER_CAP = 1_000


class CapExceeded(Exception):
    """A checker's iteration cap was hit before the sought event occurred."""


def union(first: IntervalUnion, second: IntervalUnion) -> IntervalUnion:
    return IntervalUnion.from_pairs(first.components + second.components)


def covers(outer: IntervalUnion, inner: IntervalUnion) -> bool:
    return all(
        any(c_lo <= lo and hi <= c_hi for c_lo, c_hi in outer.components)
        for lo, hi in inner.components
    )


def equals_interval(u: IntervalUnion, lo: Scalar, hi: Scalar) -> bool:
    return u.components == ((lo, hi),)


@dataclass(frozen=True)
class HittingResult:
    """The continuity index ``n`` and the unique ``z`` with ``f^n(z) = c``."""

    n: int
    z: Scalar


def closed_image_pairs(m: LorenzMap, lo: Scalar, hi: Scalar) -> list:
    """Image of a closed interval, split at the discontinuity.

    Endpoints equal to ``c`` take the one-sided limit determined by the
    interval they bound (``[x, c]`` uses ``c-``, ``[c, y]`` uses ``c+``).
    """
    c = m.c
    if lo < c < hi:
        return [(m.left.value(lo), m.b), (m.a, m.right.value(hi))]
    if hi <= c:
        return [(m.left.value(lo), m.left.value(hi))]
    return [(m.right.value(lo), m.right.value(hi))]


def interval_orbit(m: LorenzMap, J: tuple, return_times) -> IntervalUnion:
    """The forward orbit of ``J = [u, v]`` as a finite closed union.

    With ``(ell, r)`` the return times of the renormalization on ``J``,
    the orbit is the union of the first ``ell`` iterates of ``[u, c]``
    and the first ``r`` iterates of ``[c, v]`` (sided images at ``c``);
    the result is forward invariant.
    """
    u, v = J
    if not (u < m.c < v):
        raise ValueError(f"{format_interval(u, v)} does not straddle c")
    ell, r = return_times
    if ell < 1 or r < 1:
        raise ValueError("return times must be positive")
    parts = []
    for start, steps in (((u, m.c), ell), ((m.c, v), r)):
        lo, hi = start
        parts.append((lo, hi))
        for _ in range(steps - 1):
            images = closed_image_pairs(m, lo, hi)
            if len(images) != 1:
                raise ValueError(
                    "interval image crossed the discontinuity: return times "
                    "do not match the first-return structure"
                )
            lo, hi = images[0]
            parts.append((lo, hi))
    return IntervalUnion.from_pairs(parts)


def image_union(m: LorenzMap, u: IntervalUnion) -> IntervalUnion:
    out = []
    for lo, hi in u.components:
        out.extend(closed_image_pairs(m, lo, hi))
    return IntervalUnion.from_pairs(out)


def _format_open(U: tuple) -> str:
    return f"({format_scalar(U[0])}, {format_scalar(U[1])})"


def hitting_index(
    m: LorenzMap, U: tuple, cap: int = DEFAULT_HIT_CAP
) -> HittingResult:
    """Smallest ``n`` with ``c`` in ``f^n(U)`` for the open ``U = (lo, hi)``.

    The point ``z`` is recovered by pulling ``c`` back through the
    branches recorded along the way; ``f^{n-1}`` is continuous and
    strictly increasing on ``U``, so ``z`` is unique.  It checks the
    paper's statement on the minimal periodic orbit: the windows
    between ``c`` and the orbit points flanking it have hitting index
    ``kappa`` (acceptance criterion 5).
    """
    lo, hi = U
    if not (m.a <= lo < hi <= m.b):
        raise ValueError(
            f"{_format_open(U)} is not a nonempty open subinterval of the domain"
        )
    c = m.c
    if lo < c < hi:
        return HittingResult(0, c)
    branches = []
    for n in range(1, cap + 1):
        if hi <= c:
            branch = m.left
        else:
            branch = m.right
        branches.append(branch)
        lo = branch.value(lo)
        hi = branch.value(hi)
        if lo < c < hi:
            z = c
            for branch in reversed(branches):
                z = branch.solve(z)
                if z is None:
                    raise AssertionError("pullback of the hit left the branch")
            return HittingResult(n, z)
    raise CapExceeded(f"no hit of c within {cap} iterates of {_format_open(U)}")


@dataclass(frozen=True)
class CoverageResult:
    """Outcome of a bounded locally-eventually-onto probe.

    A covered result is a certificate (least ``steps`` whose cumulative
    images tile the domain); not covering within the cap is inconclusive
    evidence only.
    """

    covered: bool
    steps: Optional[int]
    cap: int

    def __str__(self) -> str:
        if self.covered:
            return f"Covered({self.steps})"
        return f"NotCoveredWithin({self.cap})"


def leo_evidence(m: LorenzMap, U: tuple, cap: int = DEFAULT_COVER_CAP) -> CoverageResult:
    """Least ``n <= cap`` with the first ``n`` iterates of ``U = (lo, hi)`` covering.

    Covering is decided on the closure of the cumulative union (the
    doubled-point convention the covering statements use).  It checks
    the paper's statement that the first ``kappa - 1`` images of the
    window between the flanking points of the minimal orbit cover the
    whole interval (acceptance criterion 5).
    """
    frontier = IntervalUnion.from_pairs([U])
    total = frontier
    if equals_interval(total, m.a, m.b):
        return CoverageResult(True, 0, cap)
    for n in range(1, cap + 1):
        frontier = image_union(m, frontier)
        total = union(total, frontier)
        if equals_interval(total, m.a, m.b):
            return CoverageResult(True, n, cap)
    return CoverageResult(False, None, cap)


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
