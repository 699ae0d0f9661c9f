"""Exact scalars and intervals.

Every scalar in the analysis pipeline is a stdlib
:class:`fractions.Fraction`, always in lowest terms with positive
denominator, so every ordering decision is an exact comparison with the
plain operators.  Inputs that are known only to finite precision are
refused where maps are loaded (:func:`lorenzmap.maps.parse_map_text`)
by raising :class:`PrecisionExhausted`: no order relation of the
analysis can be certified for them.  An interval is a closed
``(lo, hi)`` pair of scalars with ``lo <= hi``.
"""

from __future__ import annotations

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


def format_interval(lo: Fraction, hi: Fraction) -> str:
    """The closed interval ``[lo, hi]`` with exact ``p/q`` endpoints."""
    return f"[{format_scalar(lo)}, {format_scalar(hi)}]"
