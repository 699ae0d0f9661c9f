"""Finite unions of closed intervals.

Closed intervals are iterated in the doubled-point convention: the
image of ``[x, c]`` is ``[f(x), b]`` and the image of ``[c, y]`` is
``[a, f(y)]``, so unions of iterates are finite unions of closed
intervals.  :class:`IntervalUnion` holds one, normalized; the orbit
unions of the tower levels, the attractor and the backward-limit
classification are such unions.  The interval orbits that the ranked
unions of :func:`~lorenzmap.limits.orbit_unions` are checked against,
and the continuity index and the covering evidence of the paper's
statements, are iterated in the tests, on these same conventions.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .numerics import Scalar


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
