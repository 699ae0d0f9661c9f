import contextlib
import itertools
import math
import random
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzmap import maps, periods
from lorenzmap.numerics import (
    InvalidInput,
    format_scalar,
    reduced_fraction,
)
from lorenzmap.maps import (
    BranchFn,
    BranchLabel,
    LorenzMap,
    beta_transformation,
    evaluate,
    inverse_images,
    parse_map_text,
    rescale_to_unit,
    symmetric_map,
    validate_map,
    word_orbit,
    word_pieces,
)
from lorenzmap.orbits import critical_orbit_values
from lorenzmap.periods import _fixed_point
from lorenzmap.renorm import renorm_tower

from conftest import (
    cylinder_pieces,
    evaluate_walk,
    fraction_pieces,
    interior_cuts,
    label_word,
    moved_to_minus_3_5,
    multi_piece_maps,
    piece_map,
    raw_eval,
    reference_fixed_point,
    reference_rescale,
    reference_value,
    reference_word_pieces,
    same_map,
    sym_params,
)


def test_validate_symmetric():
    report = validate_map(symmetric_map(F(3, 2)))
    assert report.valid and report.violations == ()


def test_validate_rejects_contracting_piece():
    left = BranchFn.affine(F(0), F(1, 2), F(9, 10), F(11, 20))
    right = BranchFn.affine(F(1, 2), F(1), F(3, 2), F(-3, 4))
    m = LorenzMap(F(0), F(1), F(1, 2), left, right)
    report = validate_map(m)
    assert not report.valid
    assert any("expanding" in v for v in report.violations)


def test_validate_beta_map():
    m = beta_transformation(F(6, 5), F(1, 10))
    assert m.c == F(3, 4)
    assert validate_map(m).valid


def test_validate_reports_broken_boundary():
    # left limit at c is 9/10, not 1
    left = BranchFn.affine(F(0), F(1, 2), F(11, 10), F(7, 20))
    right = BranchFn.affine(F(1, 2), F(1), F(3, 2), F(-3, 4))
    m = LorenzMap(F(0), F(1), F(1, 2), left, right)
    report = validate_map(m)
    assert any("left limit" in v for v in report.violations)


def test_eval_examples():
    m = symmetric_map(F(3, 2))
    assert evaluate(m, F(3, 10)) == F(7, 10)
    # at c the label says which one-sided value is meant
    assert word_orbit(m, (BranchLabel.LEFT,), F(1, 2)) == [F(1, 2), F(1)]
    assert word_orbit(m, (BranchLabel.RIGHT,), F(1, 2)) == [F(1, 2), F(0)]
    with pytest.raises(ValueError):
        evaluate(m, F(1, 2))
    with pytest.raises(ValueError):
        evaluate(m, F(3, 2))


def test_iterate_examples():
    m = symmetric_map(F(3, 2))
    _minus, plus = critical_orbit_values(m, 2)
    assert word_orbit(m, plus.word[:2], m.c)[2] == F(1, 4)
    assert evaluate(m, m.a) == F(1, 4)  # after f(c+) = a
    assert word_orbit(m, (), F(3, 10)) == [F(3, 10)]
    t = beta_transformation(F(6, 5), F(1, 10))
    assert word_orbit(t, (BranchLabel.LEFT,), t.c)[1] == F(1)


def test_iterate_carries_side_through_exact_hits():
    # f(1) = c exactly for this beta map, so the orbit of c- continues as c-
    m = beta_transformation(F(6, 5), F(19, 55))
    assert evaluate(m, F(1)) == m.c
    minus, _plus = critical_orbit_values(m, 3)
    assert minus.word[:3] == (BranchLabel.LEFT, BranchLabel.RIGHT, BranchLabel.LEFT)
    assert word_orbit(m, minus.word[:3], m.c) == [m.c, F(1), m.c, F(1)]
    with pytest.raises(ValueError):
        evaluate(m, evaluate(m, F(1)))  # without a label an orbit cannot pass c


def test_inverse_images_examples():
    m = symmetric_map(F(3, 2))
    hits = inverse_images(m, F(1, 2))
    assert hits == [(F(1, 6), BranchLabel.LEFT), (F(5, 6), BranchLabel.RIGHT)]
    hits = inverse_images(m, F(1, 10))
    assert hits == [(F(17, 30), BranchLabel.RIGHT)]
    # the one-sided preimages: c- of b, c+ of a
    assert inverse_images(m, m.b) == [(m.c, BranchLabel.LEFT)]
    assert inverse_images(m, m.a) == [(m.c, BranchLabel.RIGHT)]
    for y in (m.a - F(1, 10), m.b + F(1, 10)):
        with pytest.raises(ValueError, match="outside the domain"):
            inverse_images(m, y)


def test_branch_monotonicity_random():
    rng = random.Random(1)
    m = beta_transformation(F(7, 5), F(1, 7))
    for _ in range(300):
        x = F(rng.randint(0, 10**6), 10**6)
        y = F(rng.randint(0, 10**6), 10**6)
        if x == y or x == m.c or y == m.c:
            continue
        if (x < m.c) != (y < m.c):
            continue
        if x > y:
            x, y = y, x
        assert evaluate(m, x) < evaluate(m, y)


def test_inverse_images_contain_point_random():
    rng = random.Random(2)
    for m in (symmetric_map(F(8, 5)), beta_transformation(F(6, 5), F(1, 10))):
        with pytest.raises(ValueError):
            evaluate(m, m.c)
        ys = [m.a, m.b]
        for _ in range(200):
            x = F(rng.randint(0, 10**6), 10**6)
            if x == m.c:
                continue
            y = evaluate(m, x)
            assert x in [p for p, _ in inverse_images(m, y)]
            ys.append(y)
        for y in ys:
            # each preimage is mapped back to y by the branch its label names
            for x, label in inverse_images(m, y):
                branch = m.left if label is BranchLabel.LEFT else m.right
                assert F(*branch.step(x.numerator, x.denominator)) == y
        assert (m.c, BranchLabel.LEFT) in inverse_images(m, m.b)
        assert (m.c, BranchLabel.RIGHT) in inverse_images(m, m.a)


def test_sided_orbit_consistency():
    rng = random.Random(3)
    m = symmetric_map(F(6, 5))
    for _ in range(50):
        x = F(rng.randint(0, 10**4), 10**4)
        j, k = rng.randint(0, 6), rng.randint(0, 6)
        word = label_word(m, x, j + k)
        orbit = word_orbit(m, word, x)
        assert orbit == evaluate_walk(m, word, x)
        rest = word_orbit(m, word[j:], orbit[j])
        assert orbit == word_orbit(m, word[:j], x) + rest[1:]


def return_pieces(m, ell, r):
    """The pieces of the words of ``c-`` for ``ell`` steps on ``[a, c]`` and
    of ``c+`` for ``r`` steps on ``[c, b]``."""
    minus, plus = critical_orbit_values(m, max(ell, r))
    return (
        word_pieces(m, minus.word[:ell], m.a, m.c),
        word_pieces(m, plus.word[:r], m.c, m.b),
    )


def test_rescale_first_return_to_unit():
    m = symmetric_map(F(6, 5))
    inner = rescale_to_unit(m, (F(2, 5), F(3, 5)), return_pieces(m, 2, 2))
    assert same_map(inner, symmetric_map(F(36, 25)))


def test_rescale_whole_domain_is_identity_copy():
    m = symmetric_map(F(3, 2))
    # every point of [0, 1] is back in [0, 1] after one step
    assert same_map(rescale_to_unit(m, (F(0), F(1)), return_pieces(m, 1, 1)), m)


def test_rescale_requires_straddling():
    m = symmetric_map(F(3, 2))
    with pytest.raises(ValueError, match=r"^\[0/1, 2/5\] does not straddle c$"):
        rescale_to_unit(m, (F(0), F(2, 5)), return_pieces(m, 1, 1))
    # [2/5, 3/5] returns after (2, 2) steps; along the longer words of c-
    # and c+ an image of a branch crosses c before the last step
    m = symmetric_map(F(6, 5))
    J = (F(2, 5), F(3, 5))
    for ell, r in ((3, 3), (2, 3), (4, 4)):
        with pytest.raises(ValueError, match="does not follow its return word"):
            rescale_to_unit(m, J, return_pieces(m, ell, r))
    # the right lengths with the sides swapped: [u, c] cannot start right
    left_pieces, right_pieces = return_pieces(m, 2, 2)
    with pytest.raises(ValueError, match="does not follow its return word"):
        rescale_to_unit(m, J, (right_pieces, left_pieces))


def test_rescale_refuses_an_interval_outside_the_domain():
    m = symmetric_map(F(6, 5))
    with pytest.raises(ValueError, match="is not inside the domain"):
        rescale_to_unit(m, (F(-1, 10), F(3, 5)), return_pieces(m, 2, 2))


def test_multi_piece_rescale_splits_and_matches_pointwise():
    # the right return window crosses the internal breakpoint at 1/20,
    # so the composed inner branch must split into two affine pieces
    left = BranchFn(
        (F(0), F(1, 20), F(1, 2)), (F(11, 10), F(6, 5)), (F(81, 200), F(2, 5))
    )
    right = BranchFn.affine(F(1, 2), F(1), F(11, 10), F(-11, 20))
    m = LorenzMap(F(0), F(1), F(1, 2), left, right)
    assert validate_map(m).valid
    u, v = F(81, 200), F(11, 20)  # f^2(c+), f^2(c-)
    minus, plus = critical_orbit_values(m, 2)
    assert word_orbit(m, plus.word[:2], m.c)[2] == u
    assert word_orbit(m, minus.word[:2], m.c)[2] == v
    inner = rescale_to_unit(m, (u, v), return_pieces(m, 2, 2))
    assert validate_map(inner).valid
    assert inner.right.slopes == (F(121, 100), F(33, 25))
    rng = random.Random(4)
    width = v - u
    for _ in range(300):
        t = F(rng.randint(0, 10**6), 10**6)
        if t == inner.c:
            continue
        x = u + t * width
        word = (minus if x < m.c else plus).word[:2]
        expect = (word_orbit(m, word, x)[2] - u) / width
        assert evaluate(inner, t) == expect


@settings(max_examples=60, deadline=None)
@given(multi_piece_maps(), st.integers(0, 5), st.data())
def test_word_pieces_are_the_cylinders_of_their_word(m, steps, data):
    # ends are random points or cuts of the map, whose images sit on c
    # or on an internal breakpoint
    ends = st.one_of(
        st.fractions(min_value=0, max_value=1, max_denominator=1000),
        st.sampled_from((m.a, m.b) + interior_cuts(m)),
    )
    lo, hi = sorted((data.draw(ends), data.draw(ends)))
    if lo == hi:
        lo, hi = m.a, m.b
    cylinders = cylinder_pieces(m, lo, hi, steps)
    realized = {word for *_piece, word in cylinders}
    most = 1 + steps * (max(len(m.left.slopes), len(m.right.slopes)) - 1)
    inside = st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(
        lambda w: 0 < w < 1
    )
    tiles = []
    for word in itertools.product(BranchLabel, repeat=steps):
        pieces = fraction_pieces(word_pieces(m, word, lo, hi))
        if word not in realized:
            assert pieces == []
            continue
        assert pieces == [piece[:4] for piece in cylinders if piece[4] == word]
        assert len(pieces) <= most
        tiles += pieces
        for x0, x1, s, t in pieces:
            x = x0 + (x1 - x0) * data.draw(inside)
            # images of interior points never land on c before the last step
            assert word == label_word(m, x, steps)
            assert s * x + t == evaluate_walk(m, word, x)[-1]
            # f^steps is increasing on the piece, so every image of an end
            # that sits on c is approached from inside, and the word's
            # label there says so: c+ at x0, c- at x1
            assert s * x0 + t == evaluate_walk(m, word, x0)[-1]
            assert s * x1 + t == evaluate_walk(m, word, x1)[-1]
    # the words' pieces tile [lo, hi]
    tiles.sort()
    assert tiles[0][0] == lo and tiles[-1][1] == hi
    assert all(x0 < x1 for x0, x1, *_ in tiles)
    assert all(left[1] == right[0] for left, right in zip(tiles, tiles[1:]))


def _checked_fraction(n, d):
    assert d > 0 and math.gcd(n, d) == 1, (n, d)
    return reduced_fraction(n, d)


@contextlib.contextmanager
def reduced_pairs_checked():
    """Every pair that ``maps`` and ``periods`` hand to ``reduced_fraction`` is reduced."""
    with mock.patch.object(maps, "reduced_fraction", _checked_fraction):
        with mock.patch.object(periods, "reduced_fraction", _checked_fraction):
            yield


@settings(max_examples=80, deadline=None)
@given(multi_piece_maps(), st.integers(0, 6), st.data())
def test_integer_composition_matches_the_fraction_reference(m, steps, data):
    ends = st.one_of(
        st.fractions(min_value=0, max_value=1, max_denominator=1000),
        st.sampled_from((m.a, m.b) + interior_cuts(m)),
    )
    lo, hi = sorted((data.draw(ends), data.draw(ends)))
    if lo == hi:
        lo, hi = m.a, m.b
    # half the words are followed by a point of [lo, hi], so realized
    word = tuple(data.draw(st.lists(st.sampled_from(BranchLabel), min_size=steps,
                                    max_size=steps)))
    inside = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=10**6))
    x = lo + (hi - lo) * inside
    if data.draw(st.booleans()):
        try:
            word = label_word(m, x, steps)
        except ValueError:  # the orbit of x meets c
            pass
    pieces = word_pieces(m, word, lo, hi)
    reference = reference_word_pieces(m, word, lo, hi)
    assert fraction_pieces(pieces) == reference
    for n0, d0, n1, d1, a, b, e in pieces:
        assert d0 > 0 and math.gcd(n0, d0) == 1
        assert d1 > 0 and math.gcd(n1, d1) == 1
        assert e > 0 and math.gcd(a, b, e) == 1
    if word and pieces:
        with reduced_pairs_checked():
            try:
                fixed = _fixed_point(pieces, lo, hi)
            except AssertionError:
                fixed = None
        assert fixed == reference_fixed_point(reference, lo, hi)


def _assert_levels_match_reference(m):
    """Rebuild each level of ``m``'s tower with the integer and the ``Fraction``
    composition; returns the number of levels."""
    with reduced_pairs_checked():
        levels = renorm_tower(m, level_cap=4, bound=24).levels
    g = m
    for level in levels:
        step = level.step
        J = (step.u, step.v)
        words = ((step.left_word, g.a, g.c), (step.right_word, g.c, g.b))
        with reduced_pairs_checked():
            pieces = tuple(word_pieces(g, *word) for word in words)
            inner = rescale_to_unit(g, J, pieces)
            e_minus = _fixed_point(pieces[0], g.a, step.u)
            e_plus = _fixed_point(pieces[1], step.v, g.b)
        reference = tuple(reference_word_pieces(g, *word) for word in words)
        assert inner == reference_rescale(g, J, reference) == step.inner_map
        assert e_minus == reference_fixed_point(reference[0], g.a, step.u) == step.e_minus
        assert e_plus == reference_fixed_point(reference[1], step.v, g.b) == step.e_plus
        g = step.inner_map
    return len(levels)


@settings(max_examples=40, deadline=None)
@given(multi_piece_maps(near_unit=True))
def test_rescale_matches_the_fraction_reference_on_random_towers(m):
    _assert_levels_match_reference(m)


def test_rescale_matches_the_fraction_reference_on_seeded_towers(sample_maps):
    rng = random.Random(24)
    bases = [piece_map(rng.randint, near_unit=True) for _ in range(30)]
    bases += [m for _family, _p1, _p2, m in sample_maps]
    bases += [
        parse_map_text(path.read_text())
        for path in sorted((Path(__file__).parent / "golden" / "maps").glob("custom*.map"))
    ]
    # 11 levels of the piece maps, 33 of the samples and 11 of the custom maps
    assert sum(_assert_levels_match_reference(m) for m in bases) == 55


def _branch_points(branch):
    """Breakpoints (internal ones and both ends) or points of the domain."""
    lo, hi = branch.lo, branch.hi
    inside = st.integers(1, 2**128).flatmap(
        lambda q: st.integers(0, q).map(lambda k: lo + (hi - lo) * F(k, q))
    )
    return st.one_of(st.sampled_from(branch.breakpoints), inside)


def _assert_exact_evaluations(m, branch, x):
    """``step``, ``value`` and sided ``evaluate`` at ``x`` give the reference value."""
    expected = reference_value(branch, x)
    n, d = branch.step(x.numerator, x.denominator)
    assert d > 0 and math.gcd(n, d) == 1
    # an unreduced pair would make this Fraction unequal to the value
    assert reduced_fraction(n, d) == expected
    assert branch.value(x) == expected
    label = BranchLabel.LEFT if branch is m.left else BranchLabel.RIGHT
    assert word_orbit(m, (label,), x)[1] == expected
    if x != m.c:
        assert evaluate(m, x) == expected


def _assert_left_piece_at_breakpoints(branch):
    """With piece ``k`` raised by ``k`` the branch jumps at every internal
    breakpoint, and the value there is the left piece's."""
    jumped = BranchFn(
        branch.breakpoints,
        branch.slopes,
        tuple(t + k for k, t in enumerate(branch.intercepts)),
    )
    for x in branch.breakpoints:
        expected = reference_value(jumped, x)
        assert jumped.value(x) == expected
        assert reduced_fraction(*jumped.step(x.numerator, x.denominator)) == expected


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(multi_piece_maps(), multi_piece_maps(near_unit=True)),
    st.booleans(),
    st.data(),
)
def test_integer_step_is_the_reduced_value_on_random_maps(m, moved, data):
    if moved:
        m = moved_to_minus_3_5(m)
        assert validate_map(m).valid and (m.a, m.b) == (-3, 5)
    for branch in (m.left, m.right):
        _assert_left_piece_at_breakpoints(branch)
        for _ in range(3):
            _assert_exact_evaluations(m, branch, data.draw(_branch_points(branch)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_step_is_the_reduced_value_on_the_ranking_corpus(ranking_corpus, data):
    m = data.draw(st.sampled_from(ranking_corpus))
    for branch in (m.left, m.right):
        for _ in range(3):
            _assert_exact_evaluations(m, branch, data.draw(_branch_points(branch)))


def test_integer_step_at_every_breakpoint_of_the_ranking_corpus(ranking_corpus):
    shifted = [m for m in ranking_corpus if (m.a, m.b) == (-3, 5)]
    multi_piece = [m for m in ranking_corpus if len(m.left.slopes) + len(m.right.slopes) > 2]
    assert len(ranking_corpus) >= 119 and shifted and multi_piece
    for m in ranking_corpus:
        for branch in (m.left, m.right):
            _assert_left_piece_at_breakpoints(branch)
            for x in branch.breakpoints:
                _assert_exact_evaluations(m, branch, x)


def _assert_sides_and_domain_errors(m, eps):
    """``c`` gives ``b`` under ``L`` and ``a`` under ``R``; ``evaluate`` at
    ``c`` and points past the ends raise."""
    minus = word_orbit(m, (BranchLabel.LEFT,), m.c)
    plus = word_orbit(m, (BranchLabel.RIGHT,), m.c)
    assert minus[1] == m.b == reference_value(m.left, m.c)
    assert plus[1] == m.a == reference_value(m.right, m.c)
    with pytest.raises(ValueError):
        evaluate(m, m.c)
    for branch in (m.left, m.right):
        x = branch.lo - eps
        with pytest.raises(ValueError, match=f"^{format_scalar(x)} below branch domain$"):
            branch.value(x)
        x = branch.hi + eps
        with pytest.raises(ValueError, match=f"^{format_scalar(x)} above branch domain$"):
            branch.value(x)
    for x in (m.a - eps, m.b + eps):
        with pytest.raises(ValueError, match=f"^{format_scalar(x)} outside the domain$"):
            evaluate(m, x)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(multi_piece_maps(), multi_piece_maps(near_unit=True)),
    st.booleans(),
    st.integers(1, 2**64),
)
def test_exact_evaluation_at_c_and_past_the_ends_on_random_maps(m, moved, q):
    if moved:
        m = moved_to_minus_3_5(m)
    _assert_sides_and_domain_errors(m, F(1, q))


def test_exact_evaluation_at_c_and_past_the_ends_of_the_ranking_corpus(ranking_corpus):
    for m in ranking_corpus:
        _assert_sides_and_domain_errors(m, F(1, 10**30))


def test_rescale_clips_pieces_that_reach_past_the_interval():
    # a level's return words composed on [a, c] and [c, b] can have pieces
    # wholly outside [u, v]; clipped, they give the map that the pieces
    # composed on [u, c] and [c, v] give
    dropped = 0
    for path in sorted((Path(__file__).parent / "golden" / "maps").glob("custom*.map")):
        m = parse_map_text(path.read_text())
        for level in renorm_tower(m, level_cap=1).levels:
            step = level.step
            own = (
                word_pieces(m, step.left_word, step.u, m.c),
                word_pieces(m, step.right_word, m.c, step.v),
            )
            assert rescale_to_unit(m, (step.u, step.v), own) == step.inner_map
            whole = (
                word_pieces(m, step.left_word, m.a, m.c),
                word_pieces(m, step.right_word, m.c, m.b),
            )
            dropped += sum(len(w) - len(o) for w, o in zip(whole, own))
    assert dropped >= 10


def test_rescale_level_two_in_base_coordinates():
    # the twice-renormalized interval of the slope-11/10 map, taken in the
    # base coordinates with total return times (4, 4), rescales directly to
    # the symmetric map of slope (11/10)^4
    m = symmetric_map(F(11, 10))
    J = (F(979, 2000), F(1021, 2000))
    inner = rescale_to_unit(m, J, return_pieces(m, 4, 4))
    assert same_map(inner, symmetric_map(F(11, 10) ** 4))


def test_eval_matches_raw_formula():
    rng = random.Random(5)
    a = F(13, 10)
    m = symmetric_map(a)
    params = sym_params(a)
    for _ in range(200):
        x = F(rng.randint(0, 10**6), 10**6)
        if x == m.c:
            continue
        assert evaluate(m, x) == raw_eval(params, x)


def test_parse_map_text_families(tmp_path):
    m = parse_map_text("family = symmetric\na = 6/5\n")
    assert same_map(m, symmetric_map(F(6, 5)))
    m = parse_map_text("family = beta\nbeta = 6/5\nalpha = 0.1\n")
    assert same_map(m, beta_transformation(F(6, 5), F(1, 10)))
    text = """
    family = custom
    domain = 0 1
    c = 1/2
    left_breakpoints = 0 1/2
    left_slopes = 3/2
    left_intercepts = 1/4
    right_breakpoints = 1/2 1
    right_slopes = 3/2
    right_intercepts = -3/4
    """
    assert same_map(parse_map_text(text), symmetric_map(F(3, 2)))
    with pytest.raises(ValueError):
        parse_map_text("family = nosuch\n")


def test_certified_parameters_cannot_be_validated():
    # a precision line is refused where the map is loaded: no map comes back
    with pytest.raises(InvalidInput, match=r"^family 'symmetric' reads no 'precision' line$"):
        parse_map_text("family = symmetric\na = 1.4142135624\nprecision = 10\n")


@pytest.mark.parametrize(
    "text, message",
    [
        # a repeated key, compared in lower case, whatever the two values
        ("family = symmetric\na = 6/5\nA = 7/5\n", "map file repeats the 'a' line"),
        (
            "family = beta\nbeta = 6/5\nalpha = 1/10\nFamily = beta\n",
            "map file repeats the 'family' line",
        ),
        # a key the family does not read: another family's, or a misspelling
        ("family = symmetric\na = 6/5\nbeta = 6/5\n", "family 'symmetric' reads no 'beta' line"),
        ("family = beta\nbeta = 6/5\nalpha = 1/10\na = 6/5\n", "family 'beta' reads no 'a' line"),
        ("family = symmetric\na = 1.4\nprecison = 10\n", "family 'symmetric' reads no 'precison' line"),
        # a precision line is one more unread key; the first in order is named
        (
            "family = symmetric\na = 1.4\nprecision = 10\nprecison = 10\n",
            "family 'symmetric' reads no 'precision' line",
        ),
        (
            "family = symmetric\na = 1.4\nprecision = 10\nPRECISION = 12\n",
            "map file repeats the 'precision' line",
        ),
    ],
)
def test_parse_map_text_refuses_repeated_and_unread_keys(text, message):
    with pytest.raises(InvalidInput) as refused:
        parse_map_text(text)
    assert str(refused.value) == message
