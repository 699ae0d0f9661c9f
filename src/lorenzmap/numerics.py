"""Exact scalars and intervals.

Every scalar in the analysis pipeline is a stdlib
:class:`fractions.Fraction`, always in lowest terms with positive
denominator, so every ordering decision is an exact comparison: with the
plain operators, or by cross-multiplying the integer pairs below.
An interval is a closed ``(lo, hi)`` pair of scalars with ``lo <= hi``.

Every exact point evaluation and every composition steps on integer
pairs instead of using ``Fraction`` arithmetic
(:meth:`lorenzmap.maps.BranchFn.step` and
:func:`lorenzmap.maps.word_pieces`, which also prove that their pairs
stay reduced): a pair ``(n, d)`` with
``gcd(n, d) == 1`` and ``d > 0`` is the scalar ``n/d`` in lowest terms,
so it stands for exactly one ``Fraction``, and :func:`reduced_fraction`
turns it into that ``Fraction`` without normalising it again.
"""

from __future__ import annotations

import re
from fractions import Fraction

Scalar = Fraction


class InvalidInput(ValueError):
    """Input from outside the program (a flag, a map file, a point), refused."""


# CPython's default limit on the digits of an int.  ``Fraction`` turns
# each digit run of a scalar into an int in time quadratic in its
# length, and multiplies a decimal exponent out, so a longer run, or an
# exponent above it, is refused unread.  An exponent within it has at
# most four digits.
MAX_DIGITS = 4300
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\Z")
_DIGIT_RUN = re.compile(r"[0-9]+")


def parse_scalar(text: str) -> Fraction:
    """Parse ``p/q`` or a decimal string into an exact rational.

    A run of more than :data:`MAX_DIGITS` digits (underscores between
    digits do not end a run) and a decimal exponent of absolute value
    above it are refused before ``Fraction`` reads the token.  The
    refusal gives the token's length, not the token.  Every refusal is
    an :class:`InvalidInput`.
    """
    token = text.strip()
    if len(token) > MAX_DIGITS and max(
        map(len, _DIGIT_RUN.findall(token.replace("_", ""))), default=0
    ) > MAX_DIGITS:
        raise InvalidInput(
            f"a scalar of {len(token)} characters has a run of more than "
            f"{MAX_DIGITS} digits"
        )
    exponent = _EXPONENT.search(token)
    if exponent is not None:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > 4 or int(digits or 0) > MAX_DIGITS:
            raise InvalidInput(f"decimal exponent out of range in {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise InvalidInput(f"zero denominator in {token!r}") from None
    except ValueError as err:
        raise InvalidInput(str(err)) from None


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
