"""Interval orbits, the continuity index, and covering evidence.

For a nonempty open interval ``U`` the continuity index ``N(U)`` is the
smallest ``n`` with ``c`` in ``f^n(U)``; equivalently the largest ``n``
such that ``f^n`` is continuous on ``U``, and there is a unique ``z`` in
``U`` with ``f^{N(U)}(z) = c``.

Closed intervals are iterated in the doubled-point convention: the
image of ``[x, c]`` is ``[f(x), b]`` and the image of ``[c, y]`` is
``[a, f(y)]``, so unions of iterates are finite unions of closed
intervals.  That convention is what makes covering statements exact,
such as the first iterates of the interval between the flanking
periodic points tiling the whole domain.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .numerics import Scalar, format_interval, format_scalar
from .maps import (
    CapExceeded,  # raised by hitting_index, so public here too
    IntervalDoesNotStraddleC,
    LorenzMap,
)


DEFAULT_HIT_CAP = 10_000
DEFAULT_COVER_CAP = 1_000

_lower_end = itemgetter(0)


@dataclass(frozen=True)
class IntervalUnion:
    """A normalized finite union of closed intervals.

    ``components`` holds ``(lo, hi)`` pairs, sorted, pairwise disjoint,
    and maximal: touching closed components are merged.
    """

    components: tuple

    @classmethod
    def from_pairs(cls, pairs) -> "IntervalUnion":
        pairs = sorted((lo, hi) for lo, hi in pairs)
        merged: list[list] = []
        for lo, hi in pairs:
            if lo > hi:
                raise ValueError(f"empty interval: lo={lo} > hi={hi}")
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        return cls(tuple((lo, hi) for lo, hi in merged))

    def pairs(self) -> list:
        return list(self.components)

    def contains(self, x: Scalar) -> bool:
        return self.component_containing(x) is not None

    def component_containing(self, x: Scalar) -> Optional[tuple]:
        # the components are sorted and disjoint: only the last one that
        # starts at or below x can hold it
        i = bisect.bisect_right(self.components, x, key=_lower_end) - 1
        if i >= 0 and x <= self.components[i][1]:
            return self.components[i]
        return None

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion.from_pairs(self.components + other.components)

    def covers(self, other: "IntervalUnion") -> bool:
        return all(
            any(c_lo <= lo and hi <= c_hi for c_lo, c_hi in self.components)
            for lo, hi in other.components
        )

    def equals_interval(self, lo: Scalar, hi: Scalar) -> bool:
        return self.components == ((lo, hi),)

    def __str__(self) -> str:
        return (
            " U ".join(format_interval(lo, hi) for lo, hi in self.components)
            or "(empty)"
        )


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


def image_union(m: LorenzMap, union: IntervalUnion) -> IntervalUnion:
    out = []
    for lo, hi in union.components:
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


def interval_orbit(m: LorenzMap, J: tuple, return_times) -> IntervalUnion:
    """The forward orbit of ``J = [u, v]`` as a finite closed union.

    With ``(ell, r)`` the return times of the renormalization on ``J``,
    the orbit is the union of the first ``ell`` iterates of ``[u, c]``
    and the first ``r`` iterates of ``[c, v]`` (sided images at ``c``);
    the result is forward invariant.
    """
    u, v = J
    if not (u < m.c < v):
        raise IntervalDoesNotStraddleC(f"{format_interval(u, v)} does not straddle c")
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
    if total.equals_interval(m.a, m.b):
        return CoverageResult(True, 0, cap)
    for n in range(1, cap + 1):
        frontier = image_union(m, frontier)
        total = total.union(frontier)
        if total.equals_interval(m.a, m.b):
            return CoverageResult(True, n, cap)
    return CoverageResult(False, None, cap)


def format_union(union: IntervalUnion) -> list:
    return [[format_scalar(lo), format_scalar(hi)] for lo, hi in union.components]
