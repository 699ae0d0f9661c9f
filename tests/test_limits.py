import dataclasses
import gc
import random
import weakref
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorenzmap.maps import (
    BranchLabel,
    beta_transformation,
    evaluate,
    parse_map_text,
    symmetric_map,
    word_orbit,
)
from lorenzmap.orbits import critical_pair
from lorenzmap.periods import minimal_period, minimal_periodic_orbit
from lorenzmap.cli import _omega_dict
from lorenzmap.renorm import (
    RenormStep,
    Tower,
    TowerLevel,
    TowerTerminal,
    renorm_tower,
)
from lorenzmap.limits import (
    _level_orbit,
    Membership,
    alpha_classify,
    alpha_limit_approx,
    membership_E,
    omega_decomposition,
    orbit_unions,
)

from conftest import (
    LONG_ORBIT_MAP_TEXT,
    golden_case_maps,
    multi_piece_maps,
    piece_map,
)
from paper_checks import (
    StructureKind,
    covers,
    depth_report,
    image_union,
    interval_orbit,
    preimage_open_intervals,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_MAPS = ROOT / "tests" / "golden" / "maps"

ATTRACTOR_6_5 = [(F(0), F(3, 25)), (F(2, 5), F(3, 5)), (F(22, 25), F(1))]
# the attractor of the slope-11/10 map: eight return intervals, merged once at c
ATTRACTOR_11_10 = [
    (F(0), F(231, 20000)),
    (F(82049, 2000000), F(11, 200)),
    (F(9, 20), F(92541, 200000)),
    (F(979, 2000), F(1021, 2000)),
    (F(107459, 200000), F(11, 20)),
    (F(189, 200), F(1917951, 2000000)),
    (F(19769, 20000), F(1)),
]
OMEGA2_11_10 = (F(11, 442), F(211, 442), F(231, 442), F(431, 442))


def test_alpha_classify_examples():
    m = symmetric_map(F(6, 5))
    tower = renorm_tower(m)
    unions = orbit_unions(m, tower)
    assert alpha_classify(m, tower, F(1, 4), unions).label() == "E_1"
    assert alpha_classify(m, tower, F(9, 20), unions).label() == "I"
    assert alpha_classify(m, tower, F(23, 25), unions).label() == "I"
    # c, read as c- or as c+, lies in every level interval
    assert alpha_classify(m, tower, m.c, unions).index is None


def test_alpha_classify_prime_map_is_all_full():
    m = symmetric_map(F(3, 2))
    tower = renorm_tower(m)
    unions = orbit_unions(m, tower)
    rng = random.Random(31)
    for _ in range(10):
        x = F(rng.randint(0, 10**6), 10**6)
        assert alpha_classify(m, tower, x, unions).index is None


def _tower_and_unions(m) -> tuple:
    tower = renorm_tower(m)
    return tower, orbit_unions(m, tower)


def _assert_unions_match_interval_orbit(m, tower):
    """The ranked unions equal ``interval_orbit``'s, component for component."""
    unions = orbit_unions(m, tower)
    assert len(unions) == len(tower.levels)
    for level, union in zip(tower.levels, unions):
        times = (level.return_left, level.return_right)
        reference = interval_orbit(m, level.interval, times)
        assert union.components == reference.components, (m, level.index)
    return len(unions)


def test_orbit_unions_match_interval_orbit(sample_maps):
    maps = [
        symmetric_map(F(6, 5)),
        symmetric_map(F(198, 197)),
        beta_transformation(F(23, 20), F(7, 40)),
    ]
    maps += [parse_map_text(p.read_text()) for p in sorted(GOLDEN_MAPS.glob("custom*.map"))]
    maps += [m for _family, _p1, _p2, m in sample_maps]
    levels = sum(_assert_unions_match_interval_orbit(m, renorm_tower(m)) for m in maps)
    assert levels >= 40


@settings(max_examples=60, deadline=None)
@given(multi_piece_maps(near_unit=True))
@example(parse_map_text(LONG_ORBIT_MAP_TEXT))
def test_orbit_unions_match_interval_orbit_on_random_maps(m):
    _assert_unions_match_interval_orbit(m, renorm_tower(m, level_cap=4, bound=24))


def test_orbit_unions_grow_the_towers_critical_orbits():
    m = symmetric_map(F(11, 10))
    tower = renorm_tower(m)
    # the (kappa, kappa) rule built the base pair for 2·kappa = 4 steps, at a
    # precision for 8; the two levels' unions need RL + RR = 4 + 4 and grow
    # it in place
    returns = [(level.return_left, level.return_right) for level in tower.levels]
    assert returns == [(2, 2), (4, 4)]
    minus = critical_pair(m).minus
    assert (len(minus.bounds), minus.horizon) == (5, 8)
    unions = orbit_unions(m, tower)
    assert critical_pair(m).minus is minus and len(minus.bounds) == 9
    assert orbit_unions(m, tower) == unions and critical_pair(m).minus is minus
    # an equal map that was not analysed builds its own pair
    fresh = dataclasses.replace(m)
    assert orbit_unions(fresh, tower) == unions
    assert critical_pair(fresh) is not critical_pair(m)


def test_analysed_map_is_freed_without_the_cycle_collector():
    # a map holds its critical-orbit pair and the pair holds a copy of the
    # map, not the map: reference counting alone frees the map, its
    # tower's inner maps and their pairs.  The prime tower end, of least
    # slope (11/10)^4 > √2, holds no pair: nothing was ruled on there
    enabled = gc.isenabled()
    gc.disable()
    try:
        m = symmetric_map(F(11, 10))
        tower = renorm_tower(m)
        orbit_unions(m, tower)
        minimal_periodic_orbit(m, minimal_period(m).kappa)
        analysed = [m] + [level.step.inner_map for level in tower.levels]
        assert [x._critical is not None for x in analysed] == [True, True, False]
        refs = [weakref.ref(x) for x in analysed]
        del m, tower, analysed
        assert [ref() for ref in refs] == [None] * 3
    finally:
        if enabled:
            gc.enable()


def test_orbit_unions_of_a_prime_map_are_empty():
    m = symmetric_map(F(3, 2))
    assert orbit_unions(m, renorm_tower(m)) == []


def test_alpha_classify_partitions_by_orbit_unions():
    m = symmetric_map(F(11, 10))
    tower = renorm_tower(m)
    unions = orbit_unions(m, tower)
    rng = random.Random(32)
    for _ in range(200):
        x = F(rng.randint(0, 10**6), 10**6)
        klass = alpha_classify(m, tower, x, unions)
        if klass.index is None:
            assert all(u.contains(x) for u in unions)
        else:
            i = klass.index
            assert not unions[i - 1].contains(x)
            assert all(unions[j].contains(x) for j in range(i - 1))


def _witness_by_lookup(m, unions, klass, x):
    """The witness looked up after the class is known: in the domain for
    ``E_1``, in level ``i - 1``'s union for ``E_i`` and in the deepest
    union (the domain on a prime map) for the full interval."""
    i = len(unions) + 1 if klass.index is None else klass.index
    if i == 1:
        return (m.a, m.b)
    return unions[i - 2].component_containing(x)


@settings(max_examples=40, deadline=None)
@given(multi_piece_maps(near_unit=True), st.integers(0, 2**32))
@example(parse_map_text((GOLDEN_MAPS / "custom_periodic_cantor.map").read_text()), 0)
@example(symmetric_map(F(11, 10)), 1)
def test_alpha_witness_is_the_component_the_union_walk_ends_in(m, seed):
    tower = renorm_tower(m, level_cap=4, bound=24)
    unions = orbit_unions(m, tower)
    # seeded points, plus c and every union end, where the bisection of a
    # union's components turns
    rng = random.Random(seed)
    width = m.b - m.a
    points = [m.a + width * F(rng.randint(0, 10**6), 10**6) for _ in range(30)]
    points += [m.a, m.c, m.b]
    points += [end for union in unions for pair in union.components for end in pair]
    for x in points:
        klass = alpha_classify(m, tower, x, unions)
        lo, hi = klass.witness
        assert lo <= x <= hi
        assert klass.witness == _witness_by_lookup(m, unions, klass, x)


def test_alpha_limit_approx_periodic_level_is_stable():
    m = symmetric_map(F(6, 5))
    tower = renorm_tower(m)
    assert alpha_limit_approx(m, tower.levels[0], 0) == (F(3, 11), F(8, 11))
    assert alpha_limit_approx(m, tower.levels[0], 5) == (F(3, 11), F(8, 11))


def test_alpha_limit_approx_level_two_grows():
    m = symmetric_map(F(11, 10))
    tower = renorm_tower(m)
    approx = alpha_limit_approx(m, tower.levels[1], 2)
    assert set(OMEGA2_11_10) < set(approx)
    gap_lo, gap_hi = tower.levels[1].interval
    assert all(not gap_lo < x < gap_hi for x in approx)


def test_membership_examples():
    m = symmetric_map(F(6, 5))
    tower = renorm_tower(m)
    assert membership_E(m, tower, 1, F(3, 11)).status is Membership.IN
    out = membership_E(m, tower, 1, F(9, 20))
    assert out.status is Membership.OUT and out.steps == 0
    assert membership_E(m, tower, 1, F(1, 4)).status is Membership.OUT
    tight = membership_E(m, tower, 1, F(1, 4), cap=0)
    assert tight.status is Membership.UNDETERMINED


def test_omega_decomposition_slope_6_5():
    m = symmetric_map(F(6, 5))
    omega = omega_decomposition(m, *_tower_and_unions(m))
    assert len(omega.parts) == 1
    part = omega.parts[0]
    assert part.periodic
    assert part.points == (F(3, 11), F(8, 11))
    assert omega.attractor.pairs() == ATTRACTOR_6_5
    report = _omega_dict(omega)
    assert report["parts"][0]["exact"] is True and report["flags"] == [True]


def test_omega_decomposition_prime_map():
    m = symmetric_map(F(3, 2))
    omega = omega_decomposition(m, *_tower_and_unions(m))
    assert omega.parts == ()
    assert omega.attractor.pairs() == [(F(0), F(1))]


def test_omega_decomposition_slope_11_10():
    m = symmetric_map(F(11, 10))
    omega = omega_decomposition(m, *_tower_and_unions(m))
    assert [part.points for part in omega.parts] == [
        (F(11, 42), F(31, 42)),
        OMEGA2_11_10,
    ]
    assert omega.attractor.pairs() == ATTRACTOR_11_10


def test_omega_parts_are_exactly_invariant():
    for a in (F(6, 5), F(11, 10)):
        m = symmetric_map(a)
        omega = omega_decomposition(m, *_tower_and_unions(m))
        for part in omega.parts:
            image = {evaluate(m, x) for x in part.points}
            assert image == set(part.points)


def test_attractor_absorbs():
    for a, starts, transient in ((F(6, 5), 100, 1000), (F(11, 10), 20, 200)):
        m = symmetric_map(a)
        omega = omega_decomposition(m, *_tower_and_unions(m))
        attractor = omega.attractor
        assert covers(attractor, image_union(m, attractor))
        rng = random.Random(33)
        for _ in range(starts):
            x = F(rng.randint(0, 10**6), 10**6)
            for _ in range(transient):
                x = _step_reading_c_as_minus(m, x)
            assert attractor.contains(x)
            for _ in range(50):
                x = _step_reading_c_as_minus(m, x)
                assert attractor.contains(x)


def _step_reading_c_as_minus(m, x):
    """``f(x)``, with ``c`` walked under ``L``, as ``c-``."""
    label = BranchLabel.LEFT if x <= m.c else BranchLabel.RIGHT
    return word_orbit(m, (label,), x)[1]


def test_depth_report_all_periodic():
    tower = renorm_tower(symmetric_map(F(107, 100)))
    tags = depth_report(tower)
    assert [(t.kind, t.depth) for t in tags] == [
        (StructureKind.COUNTABLE, 1),
        (StructureKind.COUNTABLE, 2),
        (StructureKind.COUNTABLE, 3),
    ]
    assert depth_report(renorm_tower(symmetric_map(F(3, 2)))) == ()


def _synthetic_tower_with_nonperiodic_level():
    """Tower data with a non-periodic second level, for tag/report paths.

    No piecewise-affine expanding map produces one (they are all
    conjugate to beta-transformations, which renormalize periodically),
    so the reporting logic is exercised with hand-built levels.
    """
    m = symmetric_map(F(11, 10))
    real = renorm_tower(m)
    first, second = real.levels
    fake_step = RenormStep(
        second.step.ell,
        second.step.r,
        second.step.u,
        second.step.v,
        second.step.e_minus,
        second.step.e_plus,
        False,
        second.step.inner_map,
        second.step.left_word,
        second.step.right_word,
    )
    fake_level = TowerLevel(
        2,
        fake_step,
        second.interval,
        second.e_minus,
        second.e_plus,
        second.return_left,
        second.return_right,
    )
    third = TowerLevel(
        3,
        first.step,
        second.interval,
        second.e_minus,
        second.e_plus,
        second.return_left,
        second.return_right,
    )
    return m, Tower((first, fake_level, third), TowerTerminal.PRIME_UP_TO_BOUND, 64, 16)


def test_depth_report_cantor_and_mixed_tags():
    _m, tower = _synthetic_tower_with_nonperiodic_level()
    tags = depth_report(tower)
    assert [t.kind for t in tags] == [
        StructureKind.COUNTABLE,
        StructureKind.CANTOR,
        StructureKind.ISOLATED_OVER_CANTOR,
    ]
    assert tags[1].depth is None and tags[2].depth is None


@pytest.mark.parametrize(
    "name, sizes, kinds",
    [
        ("custom_cantor.map", [15], [(StructureKind.CANTOR, None)]),
        (
            "custom_periodic_cantor.map",
            [2, 32],
            [(StructureKind.COUNTABLE, 1), (StructureKind.CANTOR, None)],
        ),
    ],
)
def test_real_cantor_levels_agree_across_omega_alpha_and_membership(
    name, sizes, kinds
):
    # the two golden maps with a non-periodic level, on the default tower:
    # every point of a level's ω part is a certified member of that level's
    # repelling set and has that level's α-class
    m = parse_map_text((GOLDEN_MAPS / name).read_text())
    tower = renorm_tower(m)
    unions = orbit_unions(m, tower)
    omega = omega_decomposition(m, tower, unions)
    assert [len(part.points) for part in omega.parts] == sizes
    for part in omega.parts:
        for x in part.points:
            assert membership_E(m, tower, part.level, x).status is Membership.IN
            assert alpha_classify(m, tower, x, unions).label() == f"E_{part.level}"
    assert [(tag.kind, tag.depth) for tag in depth_report(tower)] == kinds


def test_omega_cantor_part_reports_approximation():
    m, tower = _synthetic_tower_with_nonperiodic_level()
    omega = omega_decomposition(m, *_tower_and_unions(m))  # the real tower
    fake_tower = Tower(tower.levels[:2], tower.terminal, 64, 16)
    fake = omega_decomposition(m, fake_tower, orbit_unions(m, fake_tower))
    part = fake.parts[1]
    assert not part.periodic and _omega_dict(fake)["parts"][1]["exact"] is False
    assert set(OMEGA2_11_10) <= set(part.points)
    assert _omega_dict(omega)["parts"][1]["exact"] is True  # the real level stays exact


def test_preimage_intervals_avoid_repelling_points():
    m = symmetric_map(F(6, 5))
    tower = renorm_tower(m)
    gap_lo, gap_hi = tower.levels[0].interval
    holes = preimage_open_intervals(m, gap_lo, gap_hi, 6)
    points = alpha_limit_approx(m, tower.levels[0], 6)
    for x in points:
        assert all(not lo < x < hi for lo, hi in holes)


def test_membership_agrees_with_classification():
    # certified members of a level set that sit in the previous level's
    # orbit union but not the level's own get classified at that level
    m = symmetric_map(F(11, 10))
    tower = renorm_tower(m)
    unions = orbit_unions(m, tower)
    omega = omega_decomposition(m, tower, unions)
    for part in omega.parts:
        i = part.level
        for x in part.points:
            assert membership_E(m, tower, i, x).status is Membership.IN
            if i >= 2:
                assert unions[i - 2].contains(x)
            assert not unions[i - 1].contains(x)
            klass = alpha_classify(m, tower, x, unions)
            assert klass.index == i


def test_membership_requires_rational():
    m = symmetric_map(F(6, 5))
    tower = renorm_tower(m)
    with pytest.raises(TypeError):
        membership_E(m, tower, 1, 0.25)


def test_level_index_outside_the_tower_is_refused():
    m = symmetric_map(F(6, 5))
    tower = renorm_tower(m)
    for i in (0, len(tower.levels) + 1):
        with pytest.raises(ValueError, match="level index outside the tower"):
            membership_E(m, tower, i, F(1, 4))


def test_alpha_limit_approx_skips_c_when_a_critical_value_is_kept():
    # beta 6/5 with alpha 139/330 has the (2, 2) level with e+ = v, the
    # degenerate periodic case: b = f(c-) reaches e+ in one step without
    # entering the gap, so b lies in E_1, and its one-sided preimage c lies
    # in the gap and is left out
    m = beta_transformation(F(6, 5), F(139, 330))
    tower = renorm_tower(m)
    level = tower.levels[0]
    step = level.step
    assert (step.ell, step.r, step.periodic) == (2, 2, True)
    assert step.e_plus == step.v == evaluate(m, m.b)
    points = alpha_limit_approx(m, level, 2)
    assert m.b in points and m.c not in points
    gap_lo, gap_hi = level.interval
    assert all(not gap_lo < x < gap_hi for x in points)
    assert all(membership_E(m, tower, 1, x).status is Membership.IN for x in points)


def _evaluate_walk(m, x) -> list:
    orbit, y = [x], evaluate(m, x)
    while y != x:
        orbit.append(y)
        y = evaluate(m, y)
    return orbit


def test_level_orbit_is_the_sorted_evaluate_walk():
    # the word walk of each level's e- against the walk that picks each
    # branch by position
    def checked_levels(maps) -> int:
        count = 0
        for m in maps:
            for level in renorm_tower(m).levels:
                x = level.e_minus
                assert _level_orbit(m, level) == sorted(_evaluate_walk(m, x))
                count += 1
        return count

    maps = golden_case_maps() + [symmetric_map(F(198, 197))]
    assert len(maps) >= 25 and checked_levels(maps) >= 40
    rng = random.Random(34)
    near_unit = [piece_map(rng.randint, near_unit=True) for _ in range(200)]
    assert checked_levels(near_unit) >= 40


def test_repelling_orbits_avoid_their_level_intervals():
    # in the coordinates of the map each step was cut from and in base
    # coordinates, the orbit of e-, walked with evaluate (which refuses c),
    # stays off the open return interval; the beta maps touch its boundary
    # (e+ = v), the degenerate periodic case
    maps = golden_case_maps() + [symmetric_map(F(198, 197))]
    maps += [
        beta_transformation(F(6, 5), F(139, 330)),
        beta_transformation(F(27, 20), F(8497, 25380)),
        beta_transformation(F(11, 10), F(22769, 36410)),
    ]
    rng = random.Random(35)
    maps += [piece_map(rng.randint, near_unit=True) for _ in range(100)]
    levels = touching = 0
    for m in maps:
        g = m
        for level in renorm_tower(m).levels:
            step = level.step
            assert not any(step.u < y < step.v for y in _evaluate_walk(g, step.e_minus))
            gap_lo, gap_hi = level.interval
            assert not any(gap_lo < y < gap_hi for y in _evaluate_walk(m, level.e_minus))
            touching += step.e_minus == step.u or step.e_plus == step.v
            levels += 1
            g = step.inner_map
    assert levels >= 60 and touching >= 3


def test_alpha_limit_approx_on_real_cantor_levels_is_ascending():
    for name in ("custom_cantor.map", "custom_periodic_cantor.map"):
        m = parse_map_text((GOLDEN_MAPS / name).read_text())
        tower = renorm_tower(m)
        for level in tower.levels:
            points = alpha_limit_approx(m, level, 3)
            assert list(points) == sorted(set(points)) and len(points) >= 2
