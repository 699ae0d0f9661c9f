import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzmap.interval_dynamics import IntervalUnion
from lorenzmap.maps import parse_map_text
from lorenzmap.numerics import (
    MAX_DIGITS,
    InvalidInput,
    format_interval,
    format_scalar,
    parse_scalar,
)


def _closed(lo, hi) -> IntervalUnion:
    return IntervalUnion.from_pairs([(lo, hi)])


def test_cmp_rational_examples():
    # every order decision is a plain Fraction comparison, here through
    # the endpoint checks of closed-interval membership
    assert _closed(F(1, 2), F(1, 2)).contains(F(1, 2))
    assert _closed(F(0), F(2)).contains(F(141, 100) ** 2)
    assert F(141, 100) ** 2 == F(19881, 10000)
    assert not _closed(F(0), F(2)).contains(F(142, 100) ** 2)
    assert F(142, 100) ** 2 == F(20164, 10000)


def test_cmp_agrees_with_cross_multiplication():
    rng = random.Random(0)
    top = F(1000)  # above every sampled point
    for _ in range(100_000):
        p1, q1 = rng.randint(-999, 999), rng.randint(1, 999)
        p2, q2 = rng.randint(-999, 999), rng.randint(1, 999)
        x, y = F(p1, q1), F(p2, q2)
        sign = p1 * q2 - p2 * q1
        assert _closed(y, top).contains(x) is (sign >= 0)
        assert (y < x) is (sign > 0)


def test_interval_validation():
    with pytest.raises(ValueError, match="empty interval: lo=1 > hi=0"):
        IntervalUnion.from_pairs([(F(1), F(0))])
    # a reversed pair is refused even where a wider pair would cover it
    with pytest.raises(ValueError, match="empty interval"):
        IntervalUnion.from_pairs([(F(0), F(2)), (F(1), F(1, 2))])
    # a degenerate closed point is fine
    assert IntervalUnion.from_pairs([(F(1, 2), F(1, 2))]).pairs() == [(F(1, 2), F(1, 2))]


def test_fixed_precision_decimal_exhausts_inside_its_radius():
    # a map file that gives its values to finite precision is refused when
    # it is loaded, for every family, even where the decimals are exact:
    # no family reads a precision line
    custom = (
        "family = custom\ndomain = 0 1\nc = 1/2\n"
        "left_breakpoints = 0 1/2\nleft_slopes = 3/2\nleft_intercepts = 1/4\n"
        "right_breakpoints = 1/2 1\nright_slopes = 3/2\nright_intercepts = -3/4\n"
    )
    for family, text in (
        ("symmetric", "family = symmetric\na = 1.4142135624\n"),
        ("beta", "family = beta\nbeta = 1.2\nalpha = 0.1\n"),
        ("custom", custom),
    ):
        parse_map_text(text)  # exact without the precision line
        with pytest.raises(InvalidInput) as refused:
            parse_map_text(text + "precision = 10\n")
        assert str(refused.value) == f"family {family!r} reads no 'precision' line"


def test_parse_and_format():
    assert parse_scalar("3/5") == F(3, 5)
    assert parse_scalar("1.07") == F(107, 100)
    assert parse_scalar("1e-4300") == F(1, 10**4300)
    assert parse_scalar("25E+0_02") == F(2500)
    # Fraction reads every Unicode decimal digit, so the guards count
    # Arabic-Indic (٠-٩) and fullwidth (０-９) digits as it does
    assert parse_scalar("٦/٥") == F(6, 5)
    assert parse_scalar("1e٠٠٠٠٠٠١") == F(10)
    for huge in ("1e4301", "1.5E-4301", "1e10000000", "2e0000043010", "1e٥٠٠٠"):
        with pytest.raises(ValueError, match="decimal exponent out of range"):
            parse_scalar(huge)
    # a run of MAX_DIGITS digits parses; one more digit is refused unread
    assert parse_scalar("7" * 4300 + "/3") == F(int("7" * 4300), 3)
    assert parse_scalar("1_" * 4299 + "1") == F(int("1" * 4300))
    for long in (
        "7" * 4301 + "/3", "1/" + "3" * 4301, "0." + "5" * 4301, "1_" * 4300 + "1",
        "٧" * 5000, "７" * 5000, "7" * 2500 + "٧" * 2500,
    ):
        with pytest.raises(ValueError, match="run of more than 4300 digits") as refused:
            parse_scalar(long)
        assert long not in str(refused.value)
    assert format_scalar(F(3, 5)) == "3/5"
    assert format_scalar(F(2)) == "2/1"


def test_malformed_input_is_refused_with_the_reader_s_own_message():
    # every refusal is an InvalidInput; a malformed text keeps the text
    # that Fraction gives for it
    for text in ("1//2", "abc"):
        with pytest.raises(ValueError) as native:
            F(text)
        with pytest.raises(InvalidInput) as refused:
            parse_scalar(text)
        assert str(refused.value) == str(native.value)
    with pytest.raises(InvalidInput, match=r"^zero denominator in '1/0'$"):
        parse_scalar("1/0")
    assert format_interval(F(0), F(2, 5)) == "[0/1, 2/5]"


def _fraction_path(text: str) -> F:
    """``parse_scalar`` as it read every token, with ``Fraction``: the
    run and exponent guards, then ``Fraction(token)``."""
    token = text.strip()
    runs = re.findall(r"\d+", token.replace("_", ""))
    if len(token) > MAX_DIGITS and max(map(len, runs), default=0) > MAX_DIGITS:
        raise InvalidInput(
            f"a scalar of {len(token)} characters has a run of more than "
            f"{MAX_DIGITS} digits"
        )
    exponent = re.search(r"[eE][-+]?([\d_]+)\Z", token)
    if exponent and int(exponent.group(1).replace("_", "") or 0) > MAX_DIGITS:
        raise InvalidInput(f"decimal exponent out of range in {token!r}")
    try:
        return F(token)
    except ZeroDivisionError:
        raise InvalidInput(f"zero denominator in {token!r}") from None
    except ValueError as err:
        raise InvalidInput(str(err)) from None


def _scalar_outcome(parse, text: str) -> tuple:
    """The type, numerator and denominator read, or the refusal's message."""
    try:
        x = parse(text)
    except InvalidInput as err:
        return "refused", str(err)
    return type(x), x.numerator, x.denominator


def _digits(count: int, first: str = "7") -> str:
    return (first + "1234567890" * (count // 10 + 1))[:count]


# every character a scalar token is made of, and some it is not: ASCII,
# Arabic-Indic and fullwidth digits, signs, "/", ".", exponents, "_" and
# ASCII and Unicode spaces
_SCALAR_CHARACTERS = list("0123456789-+/._eE x") + ["٦", "٥", "０", "７", "\t", "\u00a0"]
_scalar_tokens = st.one_of(
    st.text(st.sampled_from(_SCALAR_CHARACTERS), max_size=10),
    # plain tokens with leading zeros and zero denominators
    st.builds(
        "{}{}{}/{}{}".format,
        st.sampled_from(["", "-", "+", " "]),
        st.sampled_from(["", "0", "00"]),
        st.integers(0, 10**6),
        st.sampled_from(["", "0", "00"]),
        st.integers(0, 10**6),
    ),
    # at and around MAX_DIGITS characters, with and without a sign or a
    # denominator
    st.builds(
        lambda sign, count, slash, last: sign + _digits(count)[: count - slash] + (
            "/" + _digits(slash - 1, "3") if slash else ""
        ) + last,
        st.sampled_from(["", "-"]),
        st.integers(MAX_DIGITS - 3, MAX_DIGITS + 3),
        st.sampled_from([0, 2, MAX_DIGITS // 2]),
        st.sampled_from(["", "0", "٥", " ", ".5", "e1"]),
    ),
)


@settings(max_examples=500, deadline=None)
@given(_scalar_tokens)
def test_parse_scalar_is_the_fraction_path(text):
    # plain tokens are read with int and one gcd; the value, its type
    # and its lowest terms, or the refusal, are the same as Fraction's
    assert _scalar_outcome(parse_scalar, text) == _scalar_outcome(_fraction_path, text)


def test_parse_scalar_examples_on_both_paths():
    texts = [
        "0", "-0", "-0/7", "007/010", " -4/6 ", "1/0", "-0/00", "+3/4", "3 / 4", "1_0/3",
        "٦/٥", "１/2", "1.5", "2e3", "-", "/", "1/", "/2", "--1",
        "7" * MAX_DIGITS, "-" + "7" * (MAX_DIGITS - 1), "7" * (MAX_DIGITS + 1),
        "-" + "7" * MAX_DIGITS, "7" * (MAX_DIGITS // 2) + "/" + "3" * (MAX_DIGITS // 2),
    ]
    outcomes = [_scalar_outcome(parse_scalar, text) for text in texts]
    assert outcomes == [_scalar_outcome(_fraction_path, text) for text in texts]
    assert outcomes[:5] == [(F, 0, 1), (F, 0, 1), (F, 0, 1), (F, 7, 10), (F, -2, 3)]
    assert outcomes[5] == ("refused", "zero denominator in '1/0'")
    # a plain token is reduced, and is the Fraction of the same value
    assert parse_scalar("-4/6") == F(-2, 3) and hash(parse_scalar("-4/6")) == hash(F(-2, 3))
