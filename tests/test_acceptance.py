"""Acceptance suite: one test per criterion, all exact arithmetic.

Each test prints a PASS line on success (run with ``pytest -s`` to see
them); a failure shows up as an ordinary pytest failure for that
criterion.  Every comparison is exact (Fraction equality or certified
order); there are no tolerances to tune.
"""

import random
import time
from fractions import Fraction as F

from lorenzmap.maps import (
    beta_transformation,
    evaluate,
    symmetric_map,
    validate_map,
)
from lorenzmap.periods import minimal_period, minimal_periodic_orbit
from lorenzmap.renorm import (
    TowerTerminal,
    Trichotomy,
    minimal_renormalization,
    renorm_tower,
)
from lorenzmap.limits import (
    alpha_classify,
    alpha_limit_approx,
    omega_decomposition,
    orbit_unions,
)

from conftest import (
    classify_trichotomy,
    evaluate_orbit,
    map_piece_table,
    same_map,
    word_periodic_points,
)
from paper_checks import (
    covers,
    hitting_index,
    image_union,
    leo_evidence,
    preimage_open_intervals,
)

BAND_SAMPLES = (F(3, 2), F(6, 5), F(11, 10), F(107, 100))


def full_analysis(m):
    assert validate_map(m).valid
    period = minimal_period(m)
    orbit = (
        minimal_periodic_orbit(m, period.kappa)
        if period.kappa is not None and period.kappa > 1
        else None
    )
    trichotomy, _ = classify_trichotomy(m, period=period)
    tower = renorm_tower(m, period=period)
    omega = omega_decomposition(m, tower, orbit_unions(m, tower))
    return period, orbit, trichotomy, tower, omega


def test_criterion_01_parry_band_tower_lengths():
    expected = {F(3, 2): 0, F(6, 5): 1, F(11, 10): 2, F(107, 100): 3}
    for a, length in expected.items():
        start = time.perf_counter()
        _, _, _, tower, _ = full_analysis(symmetric_map(a))
        elapsed = time.perf_counter() - start
        assert len(tower.levels) == length, f"a={a}: tower {len(tower.levels)} != {length}"
        assert elapsed < 1.0, f"a={a}: analysis took {elapsed:.3f}s"
    print("ACCEPTANCE 1: PASS - tower lengths 0,1,2,3 across the bands, <1s each")


def test_criterion_02_minimal_periods():
    rng = random.Random(2026)
    for _ in range(20):
        a = F(rng.randint(101, 199), 100)
        m = symmetric_map(a)
        period = minimal_period(m)
        assert period.kappa == 2
        orbit = minimal_periodic_orbit(m, 2)
        assert orbit.flank_left == a / (2 * (a + 1))
    t = beta_transformation(F(6, 5), F(1, 10))
    period = minimal_period(t)
    assert period.kappa == 5
    assert period.backward_chain[-1] == F(193, 864)
    assert F(1, 10) <= period.backward_chain[-1] <= F(3, 10)
    print("ACCEPTANCE 2: PASS - kappa=2 with exact flank formula x20; kappa=5 chain exact")


def test_criterion_03_periodic_threshold():
    below = symmetric_map(F(141, 100))
    trichotomy, result = classify_trichotomy(below)
    assert trichotomy is Trichotomy.PERIODIC_MINIMAL_RENORM
    assert result.fast_path and result.step.periodic

    above = symmetric_map(F(142, 100))
    assert not minimal_renormalization(above, 64).found
    tower = renorm_tower(above, bound=64)
    assert tower.terminal is TowerTerminal.PRIME_UP_TO_BOUND and tower.bound == 64
    print("ACCEPTANCE 3: PASS - a=141/100 periodic, a=142/100 prime up to 64")


def test_criterion_04_oracle_equivalence(sample_maps):
    for _family, _p1, _p2, m in sample_maps:
        kappa = minimal_period(m).kappa
        table = map_piece_table(m)
        for n in range(1, kappa):
            assert word_periodic_points(table, n) == {}
        points = word_periodic_points(table, kappa)
        assert len(points) == kappa
        assert set(points.values()) == {kappa}
        assert set(evaluate_orbit(m, min(points), kappa - 1)) == set(points)
    print("ACCEPTANCE 4: PASS - no period below kappa, exactly one kappa-orbit, 50 maps")


def test_criterion_05_flanking_and_covering(sample_maps):
    for _family, _p1, _p2, m in sample_maps:
        kappa = minimal_period(m).kappa
        orbit = minimal_periodic_orbit(m, kappa)
        assert m.c not in orbit.points
        left = hitting_index(m, (orbit.flank_left, m.c))
        right = hitting_index(m, (m.c, orbit.flank_right))
        assert left.n == kappa and right.n == kappa
        flanked = (orbit.flank_left, orbit.flank_right)
        assert leo_evidence(m, flanked, kappa - 1).covered
    print("ACCEPTANCE 5: PASS - window indices equal kappa and kappa-1 steps cover, 50 maps")


def test_criterion_06_slope_law():
    for a in (F(6, 5), F(11, 10), F(107, 100)):
        tower = renorm_tower(symmetric_map(a))
        assert len(tower.levels) >= 1
        for k, level in enumerate(tower.levels, start=1):
            assert same_map(level.step.inner_map, symmetric_map(a ** (2**k)))
    print("ACCEPTANCE 6: PASS - inner maps equal the slope-a^(2^k) family exactly")


def test_criterion_07_roundtrip_exactness(sample_maps):
    steps = []
    for a in BAND_SAMPLES:
        m = symmetric_map(a)
        tower = renorm_tower(m)
        current = m
        for level in tower.levels:
            steps.append((current, level.step))
            current = level.step.inner_map
    for _family, _p1, _p2, m in sample_maps:
        result = minimal_renormalization(m, 16)
        if result.found:
            steps.append((m, result.step))
    assert steps
    for m, step in steps:
        minus_orbit = evaluate_orbit(m, step.e_minus, step.ell)
        assert minus_orbit[-1] == step.e_minus
        assert evaluate_orbit(m, step.e_plus, step.r)[-1] == step.e_plus
        assert validate_map(step.inner_map).valid
        if step.periodic:
            assert step.e_plus in minus_orbit
    print(f"ACCEPTANCE 7: PASS - {len(steps)} steps with exact repelling fixed points")


def test_criterion_08_alpha_classification():
    m = symmetric_map(F(6, 5))
    tower = renorm_tower(m)
    unions = orbit_unions(m, tower)
    assert alpha_classify(m, tower, F(1, 4), unions).label() == "E_1"
    assert alpha_classify(m, tower, F(9, 20), unions).label() == "I"
    assert alpha_classify(m, tower, F(23, 25), unions).label() == "I"
    m = symmetric_map(F(3, 2))
    tower = renorm_tower(m)
    unions = orbit_unions(m, tower)
    rng = random.Random(8)
    for _ in range(10):
        x = F(rng.randint(0, 10**6), 10**6)
        assert alpha_classify(m, tower, x, unions).label() == "I"
    print("ACCEPTANCE 8: PASS - backward-limit classes match on all pinned points")


def test_criterion_09_omega_decomposition():
    m = symmetric_map(F(6, 5))
    tower = renorm_tower(m)
    omega = omega_decomposition(m, tower, orbit_unions(m, tower))
    assert omega.parts[0].points == (F(3, 11), F(8, 11))
    assert omega.attractor.pairs() == [
        (F(0), F(3, 25)),
        (F(2, 5), F(3, 5)),
        (F(22, 25), F(1)),
    ]
    image = {evaluate(m, x) for x in omega.parts[0].points}
    assert image == set(omega.parts[0].points)
    assert covers(omega.attractor, image_union(m, omega.attractor))
    print("ACCEPTANCE 9: PASS - the periodic part and 3-component attractor are exact and invariant")


def test_criterion_10_beta_grid_periodic():
    grid = []
    for i in range(10):
        beta = F(11, 10) + F(i, 12)  # 11/10 .. 111/60 < 2
        for j in range(1, 6):
            alpha = (2 - beta) * F(j, 6)
            grid.append((beta, alpha))
    assert len(grid) == 50
    found = 0
    for beta, alpha in grid:
        m = beta_transformation(beta, alpha)
        assert validate_map(m).valid
        tower = renorm_tower(m)
        for level in tower.levels:
            assert level.step.periodic, f"non-periodic at beta={beta}, alpha={alpha}"
            found += 1
    assert found > 0
    print(f"ACCEPTANCE 10: PASS - {found} renormalizations on the grid, all periodic")


def test_criterion_11_complement_identity(sample_maps):
    renormalizable = [symmetric_map(a) for a in (F(6, 5), F(11, 10), F(107, 100), F(141, 100))]
    for _family, _p1, _p2, m in sample_maps:
        if minimal_renormalization(m, 16).found:
            renormalizable.append(m)
    checked = 0
    for m in renormalizable:
        tower = renorm_tower(m)
        if not tower.levels:
            continue
        gap_lo, gap_hi = tower.levels[0].interval
        holes = preimage_open_intervals(m, gap_lo, gap_hi, 6)
        points = alpha_limit_approx(m, tower.levels[0], 6)
        assert points
        for x in points:
            assert all(not lo < x < hi for lo, hi in holes)
        checked += 1
    assert checked >= 4
    print(
        f"ACCEPTANCE 11: PASS - depth-6 gap preimages avoid the repelling sets "
        f"({checked} maps)"
    )
