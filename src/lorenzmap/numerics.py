"""Exact scalars and intervals.

Every scalar in the analysis pipeline is a stdlib
:class:`fractions.Fraction`, always in lowest terms with positive
denominator, so every ordering decision is an exact comparison: with the
plain operators, or by cross-multiplying the integer pairs below.
Inputs that are known only to finite precision are refused where maps
are loaded (:func:`lorenzmap.maps.parse_map_text`) by raising
:class:`PrecisionExhausted`: no order relation of the analysis can be
certified for them.  An interval is a closed ``(lo, hi)`` pair of
scalars with ``lo <= hi``.

Every exact point evaluation steps on integer pairs instead of using
``Fraction`` arithmetic (:meth:`lorenzmap.maps.BranchFn.step`, which
also proves that its pairs stay reduced): a pair ``(n, d)`` with
``gcd(n, d) == 1`` and ``d > 0`` is the scalar ``n/d`` in lowest terms,
so it stands for exactly one ``Fraction``, and :func:`reduced_fraction`
turns it into that ``Fraction`` without normalising it again.
"""

from __future__ import annotations

import re
from fractions import Fraction

Scalar = Fraction


class PrecisionExhausted(Exception):
    """An input is known only to finite precision, so no order is certified."""


# CPython's default limit on the digits of an int: an exponent past it
# would build an integer of more digits than that before any check
# runs.  It has four digits, so a longer exponent is refused unread.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\Z")


def parse_scalar(text: str) -> Fraction:
    """Parse ``p/q`` or a decimal string into an exact rational.

    ``Fraction`` multiplies a decimal exponent out, so an exponent of
    absolute value above :data:`MAX_DECIMAL_EXPONENT` is refused first.
    """
    token = text.strip()
    exponent = _EXPONENT.search(token)
    if exponent is not None:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > 4 or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent out of range in {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None


_new = object.__new__


def reduced_fraction(n: int, d: int) -> Fraction:
    """``n/d`` for ``gcd(n, d) == 1`` and ``d > 0``, taken as it is.

    ``Fraction(n, d)`` would divide by ``gcd(n, d)`` again.  A pair that
    is not reduced would give a ``Fraction`` unequal to the same value
    in lowest terms, so sets and dicts would miss it: callers pass only
    reduced pairs.
    """
    x = _new(Fraction)
    x._numerator, x._denominator = n, d
    return x


def format_scalar(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def format_interval(lo: Fraction, hi: Fraction) -> str:
    """The closed interval ``[lo, hi]`` with exact ``p/q`` endpoints."""
    return f"[{format_scalar(lo)}, {format_scalar(hi)}]"
