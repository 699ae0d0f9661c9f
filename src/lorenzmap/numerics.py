"""Exact scalars and intervals.

Every scalar in the analysis pipeline is a stdlib
:class:`fractions.Fraction`, always in lowest terms with positive
denominator, so every ordering decision is an exact comparison with the
plain operators.  Inputs that are known only to finite precision are
refused where maps are loaded (:func:`lorenzmap.maps.parse_map_text`)
by raising :class:`PrecisionExhausted`: no order relation of the
analysis can be certified for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Scalar = Fraction


class PrecisionExhausted(Exception):
    """An input is known only to finite precision, so no order is certified."""


def parse_scalar(text: str) -> Fraction:
    """Parse ``p/q`` or a decimal string into an exact rational."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def format_scalar(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Interval:
    """An interval with per-endpoint open/closed flags.

    Degenerate intervals (``lo == hi``) must be closed on both ends;
    anything narrower is rejected as empty.
    """

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("degenerate interval must be closed on both ends")

    @classmethod
    def closed(cls, lo: Fraction, hi: Fraction) -> "Interval":
        return cls(lo, hi, True, True)

    @classmethod
    def open(cls, lo: Fraction, hi: Fraction) -> "Interval":
        return cls(lo, hi, False, False)

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{format_scalar(self.lo)}, {format_scalar(self.hi)}{right}"


def interval_contains(J: Interval, x: Fraction) -> bool:
    """Membership respecting the endpoint flags."""
    if x < J.lo or (x == J.lo and not J.lo_closed):
        return False
    if x > J.hi or (x == J.hi and not J.hi_closed):
        return False
    return True
