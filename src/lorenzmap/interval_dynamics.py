"""Finite unions of closed intervals, and interval orbits.

Closed intervals are iterated in the doubled-point convention: the
image of ``[x, c]`` is ``[f(x), b]`` and the image of ``[c, y]`` is
``[a, f(y)]``, so unions of iterates are finite unions of closed
intervals.  :class:`IntervalUnion` holds one, normalized; the orbit
unions of the tower levels, the attractor and the backward-limit
classification are such unions.  :func:`interval_orbit` iterates a
level interval step by step, the reference that the ranked unions of
:func:`~lorenzmap.limits.orbit_unions` are checked against.  The
continuity index and the covering evidence of the paper's statements
are checked in the tests, on these same conventions.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .numerics import Scalar, format_interval
from .maps import LorenzMap


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
