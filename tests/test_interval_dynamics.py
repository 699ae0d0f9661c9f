import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzmap.maps import beta_transformation, symmetric_map
from lorenzmap.interval_dynamics import IntervalUnion

from conftest import evaluate_orbit, raw_cover_steps, sym_params
from paper_checks import (
    CapExceeded,
    covers,
    hitting_index,
    image_union,
    interval_orbit,
    leo_evidence,
)


# values on a coarse grid, so that drawn pairs often touch or share ends
_grid = st.integers(0, 12).map(lambda n: F(n, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_grid, _grid), max_size=8), st.lists(_grid, max_size=8))
def test_union_lookup_matches_linear_scan(pairs, probes):
    union = IntervalUnion.from_pairs([(min(p), max(p)) for p in pairs])
    ends = [x for comp in union.components for x in comp]
    for x in probes + ends + [F(-1), F(5)]:
        scan = next((comp for comp in union.components if comp[0] <= x <= comp[1]), None)
        assert union.component_containing(x) is scan
        assert union.contains(x) is (scan is not None)


def test_union_lookup_at_merged_touching_ends():
    union = IntervalUnion.from_pairs([(F(0), F(1)), (F(1), F(2)), (F(3), F(3))])
    assert union.pairs() == [(F(0), F(2)), (F(3), F(3))]
    for x, held in ((F(0), 0), (F(1), 0), (F(2), 0), (F(5, 2), None), (F(3), 1)):
        expected = None if held is None else union.components[held]
        assert union.component_containing(x) is expected
        assert union.contains(x) is (held is not None)
    assert not IntervalUnion.from_pairs([]).contains(F(0))


def test_interval_union_normalization():
    u = IntervalUnion.from_pairs([(F(1, 2), F(3, 4)), (F(0), F(1, 2)), (F(9, 10), F(1))])
    assert u.pairs() == [(F(0), F(3, 4)), (F(9, 10), F(1))]
    assert u.contains(F(1, 2))
    assert not u.contains(F(4, 5))
    assert u.component_containing(F(19, 20)) == (F(9, 10), F(1))


def test_hitting_index_flanked_window():
    m = symmetric_map(F(3, 2))
    res = hitting_index(m, (F(3, 10), F(1, 2)))
    assert res.n == 2
    assert res.z == F(7, 18)
    assert evaluate_orbit(m, res.z, res.n)[-1] == m.c


def test_hitting_index_zero_when_straddling():
    m = symmetric_map(F(6, 5))
    res = hitting_index(m, (F(2, 5), F(3, 5)))
    assert res.n == 0 and res.z == m.c


def test_hitting_index_deeper_window():
    m = symmetric_map(F(3, 2))
    res = hitting_index(m, (F(2, 5), F(9, 20)))
    assert res.n == 4
    assert evaluate_orbit(m, res.z, 4)[-1] == m.c
    assert F(2, 5) < res.z < F(9, 20)


def test_hitting_index_cap():
    m = symmetric_map(F(6, 5))
    with pytest.raises(CapExceeded):
        # window inside the trapped region never reaches c in 3 steps
        hitting_index(m, (F(1, 100), F(2, 100)), cap=3)


def test_hitting_index_decrements_under_image():
    rng = random.Random(11)
    m = symmetric_map(F(7, 5))
    checked = 0
    while checked < 40:
        lo = F(rng.randint(0, 10**4 - 10), 10**4)
        hi = lo + F(rng.randint(1, 50), 10**4)
        if hi > 1:
            continue
        U = (lo, hi)
        n = hitting_index(m, U).n
        if n == 0:
            continue
        # one branch image (U avoids c because n >= 1)
        branch = m.left if hi <= m.c else m.right
        V = (branch.value(lo), branch.value(hi))
        assert hitting_index(m, V).n == n - 1
        checked += 1


def test_hitting_index_monotone_in_inclusion():
    rng = random.Random(12)
    m = symmetric_map(F(8, 5))
    for _ in range(40):
        lo = F(rng.randint(0, 10**4 - 100), 10**4)
        hi = lo + F(rng.randint(40, 100), 10**4)
        lo2 = lo + F(rng.randint(1, 10), 10**4)
        hi2 = hi - F(rng.randint(1, 10), 10**4)
        if not lo2 < hi2:
            continue
        big = hitting_index(m, (lo, hi)).n
        small = hitting_index(m, (lo2, hi2)).n
        assert small >= big


def test_interval_orbit_examples():
    m = symmetric_map(F(6, 5))
    orbit = interval_orbit(m, (F(2, 5), F(3, 5)), (2, 2))
    assert orbit.pairs() == [
        (F(0), F(3, 25)),
        (F(2, 5), F(3, 5)),
        (F(22, 25), F(1)),
    ]
    whole = interval_orbit(m, (F(0), F(1)), (1, 1))
    assert whole.pairs() == [(F(0), F(1))]
    m = symmetric_map(F(11, 10))
    orbit = interval_orbit(m, (F(9, 20), F(11, 20)), (2, 2))
    assert orbit.pairs() == [
        (F(0), F(11, 200)),
        (F(9, 20), F(11, 20)),
        (F(189, 200), F(1)),
    ]


def test_interval_orbit_refuses_bad_arguments():
    m = symmetric_map(F(6, 5))
    with pytest.raises(ValueError, match="does not straddle c"):
        interval_orbit(m, (F(1, 5), F(2, 5)), (2, 2))
    with pytest.raises(ValueError, match="return times must be positive"):
        interval_orbit(m, (F(2, 5), F(3, 5)), (0, 2))
    # [2/5, 3/5] returns after (2, 2) steps; the third image of [2/5, 1/2]
    # and of [1/2, 3/5] straddles c
    for times in ((4, 2), (2, 4)):
        with pytest.raises(ValueError, match="crossed the discontinuity"):
            interval_orbit(m, (F(2, 5), F(3, 5)), times)


def test_interval_orbit_forward_invariant():
    for a, times in ((F(6, 5), (2, 2)), (F(11, 10), (2, 2))):
        m = symmetric_map(a)
        u = F(1) - a / 2
        v = a / 2
        orbit = interval_orbit(m, (u, v), times)
        assert covers(orbit, image_union(m, orbit))


def test_covering_check_examples():
    m = symmetric_map(F(3, 2))
    assert leo_evidence(m, (F(3, 10), F(7, 10)), 1).covered
    assert leo_evidence(m, (F(0), F(1)), 0).covered
    m = symmetric_map(F(6, 5))
    assert not leo_evidence(m, (F(2, 5), F(3, 5)), 50).covered


def test_leo_evidence_matches_raw_oracle():
    m = symmetric_map(F(3, 2))
    res = leo_evidence(m, (F(2, 5), F(9, 20)), cap=100)
    assert res.covered and res.steps <= 16
    assert res.steps == raw_cover_steps(sym_params(F(3, 2)), F(2, 5), F(9, 20), 100)


def test_leo_evidence_trapped_window():
    m = symmetric_map(F(6, 5))
    res = leo_evidence(m, (F(9, 20), F(11, 20)), cap=100)
    assert not res.covered and res.steps is None and res.cap == 100


def test_leo_evidence_whole_domain():
    m = beta_transformation(F(6, 5), F(1, 10))
    res = leo_evidence(m, (F(0), F(1)), cap=10)
    assert res.covered and res.steps == 0
