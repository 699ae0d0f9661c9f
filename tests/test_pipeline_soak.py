"""End-to-end consistency over the shared random sample set.

Every map gets the full pipeline; the assertions here are the exact
structural invariants that tie the modules together, independent of any
frozen expected values.
"""

from fractions import Fraction as F

from lorenzmap.maps import evaluate, validate_map
from lorenzmap.periods import minimal_period, minimal_periodic_orbit
from lorenzmap.renorm import renorm_tower
from lorenzmap.limits import (
    alpha_classify,
    omega_decomposition,
    orbit_unions,
)

from conftest import evaluate_orbit, same_map
from paper_checks import (
    StructureKind,
    covers,
    depth_report,
    hitting_index,
    image_union,
    leo_evidence,
)


def test_full_pipeline_invariants(sample_maps):
    import random

    rng = random.Random(99)
    for _family, _p1, _p2, m in sample_maps:
        assert validate_map(m).valid
        period = minimal_period(m)
        orbit = minimal_periodic_orbit(m, period.kappa)
        assert len(orbit.points) == period.kappa
        assert orbit.flank_left < m.c < orbit.flank_right

        tower = renorm_tower(m, bound=16, period=period)
        unions = orbit_unions(m, tower)

        # nested orbit unions, each forward invariant
        for outer, inner in zip(unions, unions[1:]):
            assert covers(outer, inner)
        for union in unions:
            assert covers(union, image_union(m, union))

        omega = omega_decomposition(m, tower, unions)
        if unions:
            assert omega.attractor.pairs() == unions[-1].pairs()
        for part in omega.parts:
            image = {evaluate(m, x) for x in part.points}
            assert image == set(part.points)

        # these families renormalize periodically or not at all, so every
        # tag is countable with depth equal to its level
        for tag in depth_report(tower):
            assert tag.kind is StructureKind.COUNTABLE and tag.depth == tag.level

        # classification is consistent with the nested unions
        for _ in range(20):
            x = F(rng.randint(0, 10**6), 10**6)
            klass = alpha_classify(m, tower, x, unions)
            if klass.index is None:
                assert all(u.contains(x) for u in unions)
            else:
                assert not unions[klass.index - 1].contains(x)
                assert all(unions[j].contains(x) for j in range(klass.index - 1))


def test_pipeline_is_conjugation_equivariant():
    # the slope-6/5 map carried onto [2, 7] by x -> 2 + 5x: every computed
    # quantity must be the affine image of the unit-domain one
    from lorenzmap.maps import BranchFn, LorenzMap
    from lorenzmap.renorm import renorm_tower as tower_of

    a = F(6, 5)
    h = lambda x: 2 + 5 * x
    left = BranchFn.affine(F(2), F(9, 2), a, 7 - 2 * a - 5 * a / 2)
    right = BranchFn.affine(F(9, 2), F(7), a, 2 - 2 * a - 5 * a / 2)
    m = LorenzMap(F(2), F(7), F(9, 2), left, right)
    assert validate_map(m).valid

    period = minimal_period(m)
    assert period.kappa == 2
    orbit = minimal_periodic_orbit(m, 2)
    assert orbit.points == (h(F(3, 11)), h(F(8, 11)))

    tower = tower_of(m, period=period)
    assert len(tower.levels) == 1
    assert tower.levels[0].interval == (h(F(2, 5)), h(F(3, 5)))
    # rescaling lands on the same unit-domain inner map as the original
    from lorenzmap.maps import symmetric_map

    assert same_map(tower.levels[0].step.inner_map, symmetric_map(F(36, 25)))

    unions = orbit_unions(m, tower)
    omega = omega_decomposition(m, tower, unions)
    assert omega.attractor.pairs() == [
        (h(F(0)), h(F(3, 25))),
        (h(F(2, 5)), h(F(3, 5))),
        (h(F(22, 25)), h(F(1))),
    ]
    assert alpha_classify(m, tower, h(F(1, 4)), unions).label() == "E_1"
    assert alpha_classify(m, tower, h(F(9, 20)), unions).label() == "I"
    assert hitting_index(m, (orbit.flank_left, m.c)).n == 2
    flanked = (orbit.flank_left, orbit.flank_right)
    assert leo_evidence(m, flanked, 1).covered


def test_asymmetric_two_piece_maps():
    # asymmetric slopes and off-center discontinuities, with larger minimal
    # periods than the symmetric family ever shows
    from lorenzmap.maps import BranchFn, LorenzMap
    from lorenzmap.renorm import minimal_renormalization

    cases = [
        (F(1, 5), F(51, 50), F(11, 10), 6),
        (F(1, 5), F(13, 10), F(51, 50), 5),
        (F(1, 4), F(51, 50), F(11, 10), 9),
    ]
    for c, s1, s2, kappa in cases:
        left = BranchFn.affine(F(0), c, s1, 1 - s1 * c)
        right = BranchFn.affine(c, F(1), s2, -s2 * c)
        m = LorenzMap(F(0), F(1), c, left, right)
        assert validate_map(m).valid
        period = minimal_period(m)
        assert period.kappa == kappa
        orbit = minimal_periodic_orbit(m, kappa)
        assert hitting_index(m, (orbit.flank_left, m.c)).n == kappa
        assert hitting_index(m, (m.c, orbit.flank_right)).n == kappa
        flanked = (orbit.flank_left, orbit.flank_right)
        assert leo_evidence(m, flanked, kappa - 1).covered
        result = minimal_renormalization(m, 20, period=period)
        if result.found:
            step = result.step
            assert step.periodic  # piecewise-linear maps renormalize periodically
            assert evaluate_orbit(m, step.e_minus, step.ell)[-1] == step.e_minus
            assert evaluate_orbit(m, step.e_plus, step.r)[-1] == step.e_plus
