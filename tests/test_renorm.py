import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzmap import orbits
from lorenzmap.maps import (
    BranchFn,
    BranchLabel,
    LorenzMap,
    beta_transformation,
    parse_map_text,
    symmetric_map,
    validate_map,
)
from lorenzmap.periods import minimal_period, minimal_periodic_orbit
from lorenzmap.renorm import (
    DEFAULT_PAIR_BOUND,
    MinimalRenormResult,
    TowerTerminal,
    Trichotomy,
    is_valid_renormalization,
    minimal_renormalization,
    renorm_tower,
    _build_step,
    _pair_bound,
    _pair_failure,
    _record_times,
    _search_pairs,
    critical_orbit_values,
)
from lorenzmap.cli import main
from lorenzmap.orbits import (
    CriticalOrbitPair,
    critical_pair,
    enclose,
    rank_values,
    ranked_orbits,
)

from conftest import (
    GOLDEN_MAPS,
    LONG_ORBIT_MAP_TEXT,
    classify_trichotomy,
    evaluate_orbit,
    golden_case_maps,
    multi_piece_maps,
    piece_map,
    reference_value,
    same_map,
)


def test_valid_renormalization_basic():
    m = symmetric_map(F(6, 5))
    check = is_valid_renormalization(m, 2, 2)
    assert check.valid
    step = check.step
    assert (step.u, step.v) == (F(2, 5), F(3, 5))
    assert (step.e_minus, step.e_plus) == (F(3, 11), F(8, 11))
    assert step.periodic
    assert same_map(step.inner_map, symmetric_map(F(36, 25)))
    # the check grew the map's own pair, and the (kappa, kappa) rule reads it
    minus = critical_pair(m).minus
    assert len(minus.bounds) == 5
    assert minimal_renormalization(m).step == step and critical_pair(m).minus is minus


def test_invalid_renormalizations():
    assert not is_valid_renormalization(symmetric_map(F(3, 2)), 2, 2).valid
    assert not is_valid_renormalization(symmetric_map(F(6, 5)), 2, 3).valid
    with pytest.raises(ValueError):
        is_valid_renormalization(symmetric_map(F(6, 5)), 1, 2)


def test_whole_domain_pair_is_refused_by_the_first_left_window():
    # slope 2 fixes a and b, so every pair returns to u = a, v = b; the left
    # window at step 1, [f(a), b), meets (a, b)
    m = symmetric_map(F(2))
    for ell, r in ((2, 2), (2, 5), (4, 3)):
        check = is_valid_renormalization(m, ell, r)
        assert not check.valid
        assert check.reason == "left window meets the return interval after 1 steps"


def test_rejects_pair_that_is_not_first_return():
    # this pair satisfies the straddle/containment conditions but its right
    # window passes through [u, v] at step 4: no repelling points exist
    # (the minimal period is 9), so it must be rejected
    c, s1, s2 = F(1, 4), F(51, 50), F(11, 10)
    left = BranchFn.affine(F(0), c, s1, 1 - s1 * c)
    right = BranchFn.affine(c, F(1), s2, -s2 * c)
    m = LorenzMap(F(0), F(1), c, left, right)
    assert minimal_period(m).kappa == 9
    check = is_valid_renormalization(m, 4, 5)
    assert not check.valid and "window" in check.reason


def test_periodic_renorm_check_examples():
    assert _assert_kappa_rule_matches_flanks(symmetric_map(F(6, 5)))
    assert not _assert_kappa_rule_matches_flanks(symmetric_map(F(3, 2)))
    assert _assert_kappa_rule_matches_flanks(symmetric_map(F(141, 100)))
    assert not _assert_kappa_rule_matches_flanks(symmetric_map(F(142, 100)))


def test_periodic_threshold_is_exact():
    # the flanking inclusion for the symmetric family reduces to 2 - a^2 >= 0
    for a in (F(1414, 1000), F(1415, 1000), F(14142, 10000), F(14143, 10000)):
        assert _assert_kappa_rule_matches_flanks(symmetric_map(a)) is (a * a <= 2)


def test_minimal_renormalization_fast_path():
    res = minimal_renormalization(symmetric_map(F(6, 5)))
    assert res.found and res.fast_path
    assert (res.step.ell, res.step.r) == (2, 2)


def test_minimal_renormalization_prime_band():
    m = symmetric_map(F(3, 2))
    assert not minimal_renormalization(m).found
    tower = renorm_tower(m)
    assert tower.terminal is TowerTerminal.PRIME_UP_TO_BOUND and tower.bound == 64


def test_minimal_renormalization_low_slope():
    res = minimal_renormalization(symmetric_map(F(11, 10)))
    assert res.found
    assert (res.step.u, res.step.v) == (F(9, 20), F(11, 20))
    assert res.step.e_minus == F(11, 42)


def test_fixed_point_maps_are_certainly_prime():
    res = minimal_renormalization(symmetric_map(F(2)))
    assert res.certainly_prime and not res.found
    tri, _ = classify_trichotomy(symmetric_map(F(2)))
    assert tri is Trichotomy.PRIME


def test_fast_path_agrees_with_exhaustive_search():
    for a in (F(6, 5), F(11, 10), F(141, 100)):
        m = symmetric_map(a)
        fast = minimal_renormalization(m)
        assert fast.fast_path
        fast = fast.step
        searched = _search_pairs(m, 16)
        assert (searched.ell, searched.r) == (fast.ell, fast.r)
        assert (searched.u, searched.v) == (fast.u, fast.v)
        assert (searched.e_minus, searched.e_plus) == (fast.e_minus, fast.e_plus)
        assert searched.periodic


def test_trichotomy_examples():
    assert classify_trichotomy(symmetric_map(F(6, 5)))[0] is (
        Trichotomy.PERIODIC_MINIMAL_RENORM
    )
    assert classify_trichotomy(symmetric_map(F(3, 2)))[0] is Trichotomy.UNKNOWN
    assert classify_trichotomy(symmetric_map(F(2)))[0] is Trichotomy.PRIME
    assert Trichotomy.UNKNOWN.value == "prime-up-to-bound"


def test_tower_lengths_follow_slope_bands():
    for a, length in ((F(3, 2), 0), (F(6, 5), 1), (F(11, 10), 2), (F(107, 100), 3)):
        tower = renorm_tower(symmetric_map(a))
        assert len(tower.levels) == length
        assert tower.terminal is TowerTerminal.PRIME_UP_TO_BOUND


def test_tower_slope_law_and_nesting():
    for a in (F(6, 5), F(11, 10), F(107, 100)):
        m = symmetric_map(a)
        tower = renorm_tower(m)
        for k, level in enumerate(tower.levels, start=1):
            assert same_map(level.step.inner_map, symmetric_map(a ** (2**k)))
        intervals = [level.interval for level in tower.levels]
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert lo1 < lo2 < m.c < hi2 < hi1


def test_second_level_agrees_with_direct_deep_pair():
    # the twice-renormalized structure, seen as a (4,4) first-return pair of
    # the base map, reproduces the tower's base-coordinate bookkeeping
    m = symmetric_map(F(11, 10))
    tower = renorm_tower(m)
    level2 = tower.levels[1]
    check = is_valid_renormalization(m, 4, 4)
    assert check.valid
    step = check.step
    assert (step.u, step.v) == level2.interval
    assert (step.e_minus, step.e_plus) == (level2.e_minus, level2.e_plus)
    assert step.periodic
    assert same_map(step.inner_map, symmetric_map(F(11, 10) ** 4))


def test_tower_total_return_times_compound():
    tower = renorm_tower(symmetric_map(F(107, 100)))
    assert [(lv.return_left, lv.return_right) for lv in tower.levels] == [
        (2, 2),
        (4, 4),
        (8, 8),
    ]


def test_tower_period_cap_terminal():
    m = beta_transformation(F(6, 5), F(1, 10))
    tower = renorm_tower(m, period=minimal_period(m, cap=1))
    assert tower.terminal is TowerTerminal.PERIOD_CAP_REACHED
    assert len(tower.levels) == 0


def test_tower_of_a_fixed_point_map_ends_prime():
    # nothing is searched, so the tower does not claim the pair bound
    tower = renorm_tower(symmetric_map(F(2)))
    assert tower.terminal is TowerTerminal.PRIME and len(tower.levels) == 0


def test_tower_level_cap_terminal():
    tower = renorm_tower(symmetric_map(F(107, 100)), level_cap=2)
    assert tower.terminal is TowerTerminal.LEVEL_CAP_REACHED
    assert len(tower.levels) == 2


def test_roundtrip_exactness_on_found_steps(sample_maps):
    for _family, _p1, _p2, m in sample_maps:
        per = minimal_period(m)
        orbit = minimal_periodic_orbit(m, per.kappa)
        res = minimal_renormalization(m, 16, period=per)
        if not res.found:
            continue
        step = res.step
        assert evaluate_orbit(m, step.e_minus, step.ell)[-1] == step.e_minus
        assert evaluate_orbit(m, step.e_plus, step.r)[-1] == step.e_plus
        assert validate_map(step.inner_map).valid
        assert step.e_minus <= step.u < m.c < step.v <= step.e_plus
        if step.periodic:
            assert {step.e_minus, step.e_plus} <= set(orbit.points)


def test_beta_family_renormalizes_only_periodically(sample_maps):
    for family, _p1, _p2, m in sample_maps:
        if family != "beta":
            continue
        tower = renorm_tower(m, bound=16)
        for level in tower.levels:
            assert level.step.periodic


# -- enclosed pair search -----------------------------------------------------


class _ExactOrbit:
    """A critical orbit iterated on reference values, with its branch word.

    ``first`` is the orbit's label at ``c``: ``L`` for ``c-``, ``R`` for ``c+``.
    """

    def __init__(self, m, first, length):
        self.values, word = [m.c], []
        for _ in range(length):
            x = self.values[-1]
            left = x < m.c or (x == m.c and first is BranchLabel.LEFT)
            word.append(BranchLabel.LEFT if left else BranchLabel.RIGHT)
            self.values.append(reference_value(m.left if left else m.right, x))
        self.word = tuple(word)

    def exact(self, i):
        return self.values[i]


def _exact_orbits(m, length):
    return tuple(_ExactOrbit(m, first, length) for first in BranchLabel)


def _exact_search(m, bound):
    """The pair search walked on the exact orbit values, with no enclosures."""
    minus, plus = _exact_orbits(m, 2 * bound)
    for total in range(4, 2 * bound + 1):
        for ell in range(max(2, total - bound), min(bound, total - 2) + 1):
            r = total - ell
            if _pair_failure(m.c, ell, r, minus.values, plus.values) is None:
                return _build_step(m, ell, r, minus, plus)
    return None


def _dense_ranks(values):
    distinct = sorted(set(values))
    return [distinct.index(x) for x in values]


def _assert_enclosures_are_exact(m, length):
    """Enclosures hold the exact iterates, words agree, ranks order exactly."""
    minus, plus = critical_orbit_values(m, length)
    exact_minus, exact_plus = _exact_orbits(m, length)
    for orbit, exact in ((minus, exact_minus), (plus, exact_plus)):
        assert orbit.word == exact.word
        assert len(orbit.bounds) == len(exact.values) == length + 1
        for (lo, hi), x in zip(orbit.bounds, exact.values):
            assert lo <= x * 2**orbit.precision <= hi
    c, minus_rank, plus_rank = ranked_orbits(m, minus, plus)
    expected = _dense_ranks([m.a, m.b, m.c, *exact_minus.values, *exact_plus.values])
    assert [c, *minus_rank, *plus_rank] == expected[2:]
    assert [minus.exact(i) for i in range(length + 1)] == exact_minus.values
    assert [plus.exact(i) for i in range(length + 1)] == exact_plus.values


def _scaled_branch_with_fraction_pieces(branch, precision):
    """A ``_ScaledBranch`` whose cuts and pieces are read off the branch's
    ``Fraction``s, not off its integer piece table."""
    scaled = object.__new__(orbits._ScaledBranch)
    scaled.cuts = [enclose(bp, precision)[0] for bp in branch.breakpoints[1:-1]]
    scaled.pieces = [
        (
            s.numerator * t.denominator,
            (t.numerator * s.denominator) << precision,
            s.denominator * t.denominator,
        )
        for s, t in zip(branch.slopes, branch.intercepts)
    ]
    return scaled


def test_scaled_branch_encloses_as_the_fraction_pieces_do(ranking_corpus):
    rng = random.Random(16)
    for m in ranking_corpus:
        for branch in (m.left, m.right):
            for precision in (0, 64, 300):
                scaled = orbits._ScaledBranch(branch, precision)
                oracle = _scaled_branch_with_fraction_pieces(branch, precision)
                assert scaled.cuts == oracle.cuts
                # the ends and cuts with their neighbours, and points between
                ends = [enclose(x, precision) for x in branch.breakpoints]
                points = {x + k for pair in ends for x in pair for k in (-1, 0, 1)}
                low, high = ends[0][0] - 2, ends[-1][1] + 2
                points.update(rng.randint(low, high) for _ in range(20))
                points = sorted(points)
                for lo, hi in [*zip(points, points[1:]), *zip(points, points)]:
                    assert scaled.image(lo, hi) == oracle.image(lo, hi)


def test_ranked_pair_failure_matches_exact_values(ranking_corpus):
    multi_piece = [
        m for m in ranking_corpus if len(m.left.slopes) > 1 or len(m.right.slopes) > 1
    ]
    assert len(multi_piece) >= 4
    valid = cut = 0
    for m in ranking_corpus:
        minus, plus = critical_orbit_values(m, 48)
        exact_minus, exact_plus = _exact_orbits(m, 48)
        c, minus_rank, plus_rank = ranked_orbits(m, minus, plus)
        for ell in range(2, 25):
            for r in range(2, 25):
                exact = _pair_failure(m.c, ell, r, exact_minus.values, exact_plus.values)
                ranked = _pair_failure(c, ell, r, minus_rank, plus_rank)
                assert ranked == exact, (m, ell, r)
                valid += exact is None
        # the default bound is where N(λ) cuts the search
        for bound in (24, DEFAULT_PAIR_BOUND):
            assert _search_pairs(m, bound) == _exact_search(m, bound)
        cut += _pair_bound(m, DEFAULT_PAIR_BOUND) < DEFAULT_PAIR_BOUND
    assert valid > 0 and cut >= 100  # 112 of the 124 maps


def test_enclosures_hold_the_exact_orbits(ranking_corpus):
    assert len(ranking_corpus) >= 119
    for m in ranking_corpus:
        _assert_enclosures_are_exact(m, 48)


def _assert_kappa_rule_matches_flanks(m):
    """The paper's periodicity criterion, as an oracle for the ``(kappa, kappa)`` rule.

    The minimal orbit's points flanking ``c`` enclose the return images
    ``f^kappa(c+)`` and ``f^kappa(c-)`` exactly when the minimal
    renormalization is ``(kappa, kappa)`` found by the rule; its ``e-``
    and ``e+`` are then those flanks, on one orbit.  Returns whether the
    flanks enclose, or None when the map has no orbit to compare with.
    """
    res = minimal_renormalization(m)
    kappa = res.period.kappa
    if kappa is None or kappa == 1:
        assert not res.fast_path
        return None
    orbit = minimal_periodic_orbit(m, kappa)
    minus, plus = _exact_orbits(m, kappa)
    u, v = plus.exact(kappa), minus.exact(kappa)
    flanked = orbit.flank_left <= u and v <= orbit.flank_right
    assert res.fast_path is flanked
    if flanked:
        step = res.step
        assert (step.ell, step.r, step.u, step.v) == (kappa, kappa, u, v)
        assert (step.e_minus, step.e_plus) == (orbit.flank_left, orbit.flank_right)
        assert step.periodic
    return flanked


def test_kappa_rule_matches_the_flank_criterion(ranking_corpus):
    # the corpus holds sample_maps and the golden custom*.map maps
    outcomes = [_assert_kappa_rule_matches_flanks(m) for m in ranking_corpus]
    # 55 and 64 on this corpus
    assert outcomes.count(True) >= 50 and outcomes.count(False) >= 60


@settings(max_examples=60, deadline=None)
@given(multi_piece_maps(near_unit=True))
def test_kappa_rule_matches_the_flank_criterion_on_random_maps(m):
    _assert_kappa_rule_matches_flanks(m)


def test_kappa_rule_ignores_the_pair_bound():
    # (5, 5) lies past bound 2, and the rule still finds it
    m = beta_transformation(F(11, 10), F(3, 20))
    res = minimal_renormalization(m, bound=2)
    assert res.fast_path and (res.step.ell, res.step.r) == (5, 5)
    assert res.step.periodic and _search_pairs(m, 2) is None


def test_tower_needs_no_periodic_orbit():
    # minimal period 662: the tower is decided on the critical-orbit ranks
    m = parse_map_text(LONG_ORBIT_MAP_TEXT)
    tower = renorm_tower(m, level_cap=4, bound=24)
    assert tower.terminal is TowerTerminal.PRIME_UP_TO_BOUND and not tower.levels
    assert minimal_period(m).kappa == 662


def test_orbit_landing_on_c_is_decided_exactly():
    # f(0) = alpha = c, so the c+ orbit is c, 0, c, 0, ...: its enclosure
    # meets c at every even step and the exact value picks the branch
    m = beta_transformation(F(3, 2), F(2, 5))
    assert m.c == m.left.value(m.a)
    minus, plus = critical_orbit_values(m, 8)
    assert plus.word == (BranchLabel.RIGHT, BranchLabel.LEFT) * 4
    assert plus.bounds[:8:2] == [enclose(m.c, plus.precision)] * 4
    assert [plus.exact(i) for i in range(9)] == [m.c, m.a] * 4 + [m.c]
    _assert_enclosures_are_exact(m, 48)
    assert _search_pairs(m, 24) == _exact_search(m, 24)


def test_periodic_fast_path_iterates_kappa_steps(monkeypatch):
    lengths = []
    traced = orbits.critical_orbit_values

    def recording(m, length, *args, **kwargs):
        lengths.append(length)
        return traced(m, length, *args, **kwargs)

    # the map's shared critical-orbit pair builds and grows its orbits here;
    # the (kappa, kappa) rule reads 2·kappa steps and finds the level
    monkeypatch.setattr(orbits, "critical_orbit_values", recording)
    result = minimal_renormalization(symmetric_map(F(6, 5)))
    assert result.fast_path and result.step.periodic and lengths == [4]
    assert result.step.left_word == (BranchLabel.LEFT, BranchLabel.RIGHT)


def _base_orbit_builds(monkeypatch, capsys, base, argv):
    """Precision horizons of the critical-orbit pairs that one ``analyze``
    builds for its base map, in build order (growing a pair builds none)."""
    built = []
    original = orbits.critical_orbit_values

    def recording(m, length):
        pair = original(m, length)
        if m == base:
            built.append(pair[0].horizon)
        return pair

    monkeypatch.setattr(orbits, "critical_orbit_values", recording)
    assert main(argv) in (0, 4)
    capsys.readouterr()
    return built


@pytest.mark.parametrize(
    "base, flags, horizons",
    [
        # the fast path at kappa = 2 builds for 2·kappa steps, at a precision
        # for twice that; the unions of its level grow the same pair
        (symmetric_map(F(6, 5)), ["--family", "symmetric", "--a", "6/5"], [8]),
        # the unions of 7 levels read 2·2^7 steps, past that horizon
        (
            symmetric_map(F(198, 197)),
            ["--family", "symmetric", "--a", "198/197"],
            [8, 512],
        ),
        # slope 3/2 > √2 leaves no pair: N(3/2) = 1 < kappa = 2, so neither
        # the (kappa, kappa) rule nor the search builds, and only the
        # minimal orbit does, for kappa steps
        (symmetric_map(F(3, 2)), ["--family", "symmetric", "--a", "3/2"], [4]),
        # minimal period capped: the search finds level 1 within N(23/20) = 10
        # steps, horizon 2·10, and the unions grow the same pair instead of
        # building another
        (
            beta_transformation(F(23, 20), F(7, 40)),
            ["--family", "beta", "--beta", "23/20", "--alpha", "7/40"]
            + ["--hit-cap", "1"],
            [20],
        ),
    ],
)
def test_analyze_builds_base_orbits_once_per_horizon(
    monkeypatch, capsys, base, flags, horizons
):
    built = _base_orbit_builds(monkeypatch, capsys, base, ["analyze", *flags])
    assert built == horizons


def test_grown_orbit_equals_one_built_at_its_length(ranking_corpus):
    for m in ranking_corpus[:40]:
        critical = CriticalOrbitPair(m)
        minus, plus = critical.grow(15)
        assert minus.horizon == 30
        for length in (15, 17, 30):
            assert critical.grow(length) == (minus, plus)
            fresh = critical_orbit_values(m, length)
            for grown, built in zip((minus, plus), fresh):
                # the same words, and enclosures of the same exact values
                assert grown.word == built.word
                for orbit in (grown, built):
                    scale = 2**orbit.precision
                    for i, (lo, hi) in enumerate(orbit.bounds):
                        assert lo <= orbit.exact(i) * scale <= hi
                if length == 15:
                    assert grown.precision == built.precision
                    assert grown.bounds == built.bounds
        with pytest.raises(AssertionError):
            minus.extend(31)


def test_pair_rebuilds_past_its_precision_horizon():
    critical = CriticalOrbitPair(symmetric_map(F(11, 10)))
    minus, _plus = critical.grow(4)
    assert (minus.horizon, len(minus.bounds)) == (8, 5)
    assert critical.grow(8)[0] is minus and len(minus.bounds) == 9
    assert critical.grow(3)[0] is minus and len(minus.bounds) == 9
    wider, _plus = critical.grow(9)
    assert wider is not minus and wider.horizon == 18
    assert wider.precision > minus.precision and len(wider.bounds) == 10
    # grown one step at a time, a pair is rebuilt at lengths 2^k - 1 only
    critical = CriticalOrbitPair(symmetric_map(F(11, 10)))
    horizons = []
    for length in range(1, 64):
        held = critical.minus
        critical.grow(length)
        if critical.minus is not held:
            horizons.append(critical.minus.horizon)
    assert horizons == [2, 6, 14, 30, 62, 126]


def test_search_rebuilds_a_lower_precision_pair_once(monkeypatch):
    m = symmetric_map(F(11, 10))
    critical = critical_pair(m)
    critical.grow(2)
    built = []
    original = orbits.critical_orbit_values

    def recording(m, length):
        built.append(length)
        return original(m, length)

    monkeypatch.setattr(orbits, "critical_orbit_values", recording)
    assert _search_pairs(m, 8) == _exact_search(m, 8)
    assert built == [8] and critical.minus.horizon == 16


def test_search_grows_orbits_only_as_far_as_record_times_need(ranking_corpus):
    past_bound = found_past_bound = 0
    for m in ranking_corpus:
        for bound in (3, 6, 12, 24):
            # a copy with an empty pair slot: the corpus maps are shared
            fresh = dataclasses.replace(m)
            step = _search_pairs(fresh, bound)
            assert step == _exact_search(m, bound)
            critical = critical_pair(fresh)
            # the search reads the orbits only up to N(λ) when that is shorter
            searched = _pair_bound(m, bound)
            if searched < 2:
                assert step is None and critical.minus is None
                continue
            c, minus_rank, plus_rank = ranked_orbits(
                m, *critical_orbit_values(m, searched)
            )
            left, right = _record_times(c, minus_rank, plus_rank, searched)
            need = left[-1] + right[-1] if left and right else 0
            assert len(critical.minus.bounds) == max(searched, need) + 1
            assert critical.minus.horizon == 2 * searched
            if need > searched:
                past_bound += 1
                found_past_bound += step is not None and step.ell + step.r > searched
    # 263 and 92 on this corpus
    assert past_bound >= 200 and found_past_bound >= 60


def _least_slope(m):
    return min(m.left.slopes + m.right.slopes)


def _lemma_maps():
    """The golden maps and 200 seeded near-unit draws."""
    rng = random.Random(22)
    draws = [piece_map(rng.randint, near_unit=True) for _ in range(200)]
    return golden_case_maps() + draws


def _covers(slope, n):
    """``λ^-2 + λ^-n >= 1``, in ``Fraction`` arithmetic."""
    return slope**-2 + slope**-n >= 1


def test_pair_bound_is_the_largest_n_of_the_lemma():
    maps = _lemma_maps()
    cut = below_two = 0
    for m in maps:
        slope, bound = _least_slope(m), 4096
        n = _pair_bound(m, bound)
        if slope**2 > 2:
            assert n < 2
            below_two += 1
            continue
        assert 2 <= n <= bound and _covers(slope, n)
        if n < bound:
            assert not _covers(slope, n + 1)
            cut += 1
        assert _pair_bound(m, n) == n and _pair_bound(m, n - 1) == n - 1
    # the golden maps of slope 3/2 and 2 have no pair, and most near-unit
    # draws stop before the default bound
    assert below_two >= 3 and cut >= 150
    assert sum(_pair_bound(m, 64) < 64 for m in maps) >= 100  # 106 of 226


def test_every_level_lies_within_the_expansion_bound():
    levels = 0
    for m in _lemma_maps() + [symmetric_map(F(198, 197))]:
        g = m
        for level in renorm_tower(m).levels:
            slope, ell, r = _least_slope(g), level.step.ell, level.step.r
            assert slope**-ell + slope**-r >= 1
            assert max(ell, r) <= _pair_bound(g, max(ell, r) + 1)
            g = level.step.inner_map
            levels += 1
    assert levels >= 100


def test_near_unit_draws_often_renormalize():
    # plain draws almost never have a tower level (1 of these 60 with the
    # same seed), so the random-map oracles also draw near-unit slopes
    rng = random.Random(1)
    maps = [piece_map(rng.randint, near_unit=True) for _ in range(60)]
    with_level = sum(bool(renorm_tower(m, level_cap=1, bound=24).levels) for m in maps)
    assert with_level == 17


@settings(max_examples=60, deadline=None)
@given(st.one_of(multi_piece_maps(), multi_piece_maps(near_unit=True)))
def test_enclosed_search_matches_exact_on_random_maps(m):
    _assert_enclosures_are_exact(m, 32)
    assert _search_pairs(m, 16) == _exact_search(m, 16)


def _straight_record_times(c, minus, plus, bound):
    """``_record_times`` read off its definition, one time at a time."""
    left = [
        ell
        for ell in range(2, bound + 1)
        if minus[ell] > c
        and all(minus[ell] <= minus[i] for i in range(1, ell) if minus[i] > c)
    ]
    right = [
        r
        for r in range(2, bound + 1)
        if plus[r] < c and all(plus[r] >= plus[j] for j in range(1, r) if plus[j] < c)
    ]
    return left, right


def test_record_times_keep_ties_and_skip_c():
    # c = 0; minus[1] is below the later minus[2], plus[4] = minus[4] = c
    minus, plus = [0, 2, 3, 2, 0, 1], [0, -2, -3, -1, 0, -1]
    assert _record_times(0, minus, plus, 5) == ([3, 5], [3, 5])
    assert _straight_record_times(0, minus, plus, 5) == ([3, 5], [3, 5])


def _assert_valid_pairs_are_record_times(m, bound):
    """Every pair up to ``bound`` that passes the straddle and window tests
    of ``_pair_failure`` is in L × R; returns the number of valid pairs."""
    minus, plus = critical_orbit_values(m, 2 * bound)
    c, minus_rank, plus_rank = ranked_orbits(m, minus, plus)
    left, right = _record_times(c, minus_rank, plus_rank, bound)
    assert (left, right) == _straight_record_times(c, minus_rank, plus_rank, bound)
    valid = 0
    for ell in range(2, bound + 1):
        for r in range(2, bound + 1):
            reason = _pair_failure(c, ell, r, minus_rank, plus_rank)
            # only the two containment tests ("f^ell/f^r does not map ...")
            # come after the window tests
            if reason is None or reason.startswith("f^"):
                assert ell in left and r in right, (m, ell, r, reason)
                valid += reason is None
    return valid


def test_valid_pairs_are_record_times(ranking_corpus):
    valid = [_assert_valid_pairs_are_record_times(m, 24) for m in ranking_corpus]
    assert sum(valid) >= 100


@settings(max_examples=60, deadline=None)
@given(multi_piece_maps())
def test_valid_pairs_are_record_times_on_random_maps(m):
    _assert_valid_pairs_are_record_times(m, 24)


def _ranks_at(values, precision):
    """``rank_values`` of values enclosed at ``precision`` bits, and the indices
    whose exact values it asked for."""
    asked = set()

    def exact(i):
        asked.add(i)
        return values[i]

    return rank_values([enclose(x, precision) for x in values], exact), asked


def test_ranks_of_equal_values_held_as_distinct_objects():
    x, y = F(1, 3), F(2, 6)
    assert x is not y
    assert _ranks_at([F(1, 2), x, y, F(1, 4)], 64) == ([2, 1, 1, 0], {1, 2})


def test_ranks_split_values_closer_than_float_resolution():
    third = F(1, 3)
    above = third + F(1, 10**40)
    below = third - F(1, 10**40)
    assert float(above) == float(third) == float(below)
    values = [above, third, below, third]
    assert _ranks_at(values, 64) == ([2, 1, 0, 1], {0, 1, 2, 3})
    # 10**-40 is about 2**-133: at 200 bits only the equal thirds overlap
    assert _ranks_at(values, 200) == ([2, 1, 0, 1], {1, 3})


def test_ranks_split_values_that_underflow_to_zero():
    tiny = [F(2, 10**400), F(1, 10**400), F(0), F(-1, 10**400)]
    assert {float(x) for x in tiny} == {0.0}
    assert _ranks_at(tiny, 64) == ([3, 2, 1, 0], {0, 1, 2, 3})


def test_ranks_split_values_beyond_the_float_range():
    huge = [F(10**400 + 1), F(10**400) + F(1, 10**40), F(10**400), F(1), F(-(10**400))]
    assert _ranks_at(huge, 64) == ([4, 3, 2, 1, 0], {1, 2})


def test_ranked_orbits_share_ranks_with_a_b_and_c():
    # slope 2: f(c+) = a is fixed and f(c-) = b is fixed, so the orbits
    # sit on a, b and c exactly
    m = symmetric_map(F(2))
    minus, plus = critical_orbit_values(m, 4)
    c, minus_rank, plus_rank = ranked_orbits(m, minus, plus)
    # a is the least value and b the greatest: f(c+) = a and f(c-) = b
    a, b = plus_rank[1], minus_rank[1]
    assert a == 0 and b == max(minus_rank + plus_rank)
    assert a < c < b
    assert minus_rank[0] == plus_rank[0] == c
    assert plus_rank[1:] == [a] * 4
    assert minus_rank[1:] == [b] * 4


def _straight_ranked_orbits(m, minus, plus):
    """``ranked_orbits`` as ``rank_values`` over all ``2L + 5`` values."""
    fixed = (m.a, m.b, m.c)
    split = 3 + len(minus.bounds)
    bounds = [enclose(x, minus.precision) for x in fixed] + minus.bounds + plus.bounds

    def exact(i):
        if i < 3:
            return fixed[i]
        return minus.exact(i - 3) if i < split else plus.exact(i - split)

    ranks = rank_values(bounds, exact)
    return ranks[2], ranks[3:split], ranks[split:]


def _assert_copied_ranks_are_straight(m, lengths):
    for length in lengths:
        minus, plus = critical_orbit_values(m, length)
        assert ranked_orbits(m, minus, plus) == _straight_ranked_orbits(m, minus, plus)


def test_copied_ranks_match_ranking_every_value(ranking_corpus):
    # f(0) = c: the c+ orbit is c, a, c, a, ...; f(1) = c: the c- orbit is
    # c, b, c, b, ...; at slope 2, f(c-) = b and f(c+) = a are fixed, so
    # the orbits land on b and a at every step
    landing = [
        beta_transformation(F(3, 2), F(2, 5)),
        beta_transformation(F(3, 2), F(1, 10)),
        symmetric_map(F(2)),
    ]
    plus = critical_orbit_values(landing[0], 8)[1]
    assert [plus.exact(i) for i in (2, 3, 5)] == [F(2, 5), F(0), F(0)]
    minus = critical_orbit_values(landing[1], 8)[0]
    assert [minus.exact(i) for i in (2, 3, 4)] == [F(3, 5), F(1), F(3, 5)]
    minus = critical_orbit_values(landing[2], 8)[0]
    assert [minus.exact(i) for i in (2, 8)] == [F(1)] * 2
    for m in landing + ranking_corpus:
        _assert_copied_ranks_are_straight(m, (1, 2, 3, 48))


@settings(max_examples=60, deadline=None)
@given(st.one_of(multi_piece_maps(), multi_piece_maps(near_unit=True)))
def test_copied_ranks_match_ranking_every_value_on_random_maps(m):
    _assert_copied_ranks_are_straight(m, (1, 5, 32))


def _straight_minimal_renormalization(m, bound=DEFAULT_PAIR_BOUND):
    """``minimal_renormalization`` ruling on ``(kappa, kappa)`` whatever ``N(λ)``.

    Returns the result and whether ``(kappa, kappa)`` was valid."""
    period = minimal_period(m)
    kappa = period.kappa
    if kappa == 1:
        return MinimalRenormResult(None, True, False, period), False
    if kappa is not None:
        check = is_valid_renormalization(m, kappa, kappa)
        if check.valid:
            return MinimalRenormResult(check.step, False, True, period), True
    return MinimalRenormResult(_search_pairs(m, bound), False, False, period), False


def _assert_gate_is_straight(m):
    """The gated decision equals the straight one; returns ``(gated, valid)``:
    whether ``kappa > N(λ)`` skipped the ruling, and whether ``(kappa, kappa)``
    was valid."""
    # copies with empty pair slots, so that neither side reads the other's pair
    gated = minimal_renormalization(dataclasses.replace(m))
    straight, valid = _straight_minimal_renormalization(dataclasses.replace(m))
    assert gated == straight
    kappa = gated.period.kappa
    skipped = kappa is not None and kappa > 1 and _pair_bound(m, kappa) < kappa
    if valid:
        # the expansion lemma: a valid (kappa, kappa) has kappa <= N(λ)
        assert _pair_bound(m, kappa) == kappa and not skipped
    return skipped, valid


def test_kappa_gate_matches_the_straight_decision(ranking_corpus):
    golden = [
        parse_map_text(path.read_text()) for path in sorted(GOLDEN_MAPS.glob("custom*.map"))
    ]
    maps = list(ranking_corpus)
    for m in golden:
        maps += [level.step.inner_map for level in renorm_tower(m).levels]
    outcomes = [_assert_gate_is_straight(m) for m in maps]
    skipped = sum(gated for gated, _valid in outcomes)
    valid = sum(valid for _gated, valid in outcomes)
    # 57 and 60 of these 135 maps
    assert skipped >= 50 and valid >= 50


@settings(max_examples=60, deadline=None)
@given(multi_piece_maps(near_unit=True))
def test_kappa_gate_matches_the_straight_decision_on_random_maps(m):
    _assert_gate_is_straight(m)


_near_ties = st.builds(
    lambda base, exponent, sign: base + sign * F(1, 10**exponent),
    st.fractions(min_value=-2, max_value=2, max_denominator=1000),
    st.integers(min_value=15, max_value=400),
    st.sampled_from([-1, 0, 1]),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_near_ties, min_size=1, max_size=40), st.integers(0, 160))
def test_ranks_order_exactly_like_sorted(values, precision):
    # rebuild every value as a new object so that equality, not identity,
    # is what ties them
    values = [F(x.numerator, x.denominator) for x in values]
    ranks, _asked = _ranks_at(values, precision)
    assert sorted(range(len(values)), key=lambda i: (ranks[i], i)) == sorted(
        range(len(values)), key=lambda i: (values[i], i)
    )
    for x, rx in zip(values, ranks):
        for y, ry in zip(values, ranks):
            assert (rx == ry) == (x == y)
    assert sorted(set(ranks)) == list(range(len(set(values))))
