import dataclasses
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings

from lorenzmap import orbits, periods
from lorenzmap.maps import (
    Side,
    SidedPoint,
    SideRequired,
    beta_transformation,
    evaluate,
    iterate,
    parse_map_text,
    symmetric_map,
)
from lorenzmap.periods import (
    PeriodicOrbit,
    UniquenessViolated,
    fixed_points,
    minimal_period,
    minimal_periodic_orbit,
)
from lorenzmap.orbits import critical_pair
from lorenzmap.renorm import renorm_tower

from conftest import (
    beta_params,
    cylinder_pieces,
    map_piece_table,
    multi_piece_maps,
    piece_fixed_points,
    pinned_piece_maps,
    sym_params,
    two_piece_table,
    word_periodic_points,
)

GOLDEN_MAPS = Path(__file__).parent / "golden" / "maps"


def test_fixed_points_examples():
    assert fixed_points(symmetric_map(F(3, 2))) == []
    assert fixed_points(symmetric_map(F(2))) == [F(0), F(1)]
    assert fixed_points(beta_transformation(F(6, 5), F(1, 10))) == []


@settings(max_examples=150, deadline=None)
@given(pinned_piece_maps())
@example(symmetric_map(F(2)))
@example(beta_transformation(F(3, 2), F(0)))
@example(beta_transformation(F(3, 2), F(1, 2)))
@example(beta_transformation(F(6, 5), F(1, 10)))
def test_fixed_points_match_the_per_piece_solve(m):
    fixed = fixed_points(m)
    assert fixed == piece_fixed_points(m)
    assert set(fixed) <= {m.a, m.b}
    assert (minimal_period(m, 50).kappa == 1) == bool(fixed)


def test_minimal_period_symmetric_family():
    rng = random.Random(21)
    for _ in range(10):
        a = F(rng.randint(101, 199), 100)
        res = minimal_period(symmetric_map(a))
        assert (res.kappa, res.m) == (2, 0)
        assert res.backward_chain == (F(1, 2),)


def test_minimal_period_fixed_point_short_circuit():
    res = minimal_period(symmetric_map(F(2)))
    assert res.kappa == 1 and res.m is None and res.backward_chain == ()


def test_minimal_period_beta_chain():
    res = minimal_period(beta_transformation(F(6, 5), F(1, 10)))
    assert res.kappa == 5 and res.m == 3
    assert res.backward_chain == (F(3, 4), F(13, 24), F(53, 144), F(193, 864))
    assert F(1, 10) <= F(193, 864) <= F(3, 10)


def test_minimal_period_undetermined_at_cap():
    res = minimal_period(beta_transformation(F(6, 5), F(1, 10)), cap=1)
    assert res.undetermined and res.kappa is None


def test_minimal_orbit_symmetric_closed_form():
    for a in (F(3, 2), F(6, 5), F(7, 4), F(119, 100)):
        orbit = minimal_periodic_orbit(symmetric_map(a), 2)
        assert orbit.flank_left == a / (2 * (a + 1))
        assert orbit.period == 2 and orbit.itinerary == "LR"
        assert len(orbit.points) == 2
    orbit = minimal_periodic_orbit(symmetric_map(F(3, 2)), 2)
    assert orbit.values() == (F(3, 10), F(7, 10))
    orbit = minimal_periodic_orbit(symmetric_map(F(6, 5)), 2)
    assert orbit.values() == (F(3, 11), F(8, 11))


def test_minimal_orbit_walks_each_orbit_once(monkeypatch):
    walks = []
    original = periods.orbit_values

    def recording(m, p, length):
        walks.append(p)
        return original(m, p, length)

    monkeypatch.setattr(periods, "orbit_values", recording)
    # two candidates, 3/11 and 8/11, on one orbit
    orbit = minimal_periodic_orbit(symmetric_map(F(6, 5)), 2)
    assert orbit.values() == (F(3, 11), F(8, 11)) and len(walks) == 1
    walks.clear()
    orbit = minimal_periodic_orbit(beta_transformation(F(6, 5), F(1, 10)), 5)
    assert len(orbit.points) == 5 and len(walks) == 1


def test_minimal_orbit_beta_five_cycle():
    m = beta_transformation(F(6, 5), F(1, 10))
    orbit = minimal_periodic_orbit(m, 5)
    assert orbit.values() == (
        F(1599, 9302),
        F(2849, 9302),
        F(4349, 9302),
        F(6149, 9302),
        F(8309, 9302),
    )
    assert orbit.itinerary == "LLLLR"
    assert orbit.flank_left == F(6149, 9302) and orbit.flank_right == F(8309, 9302)
    for p in orbit.points:
        assert iterate(m, p, 5).x == p.x


def test_minimal_orbit_through_discontinuity():
    # f(1) = c exactly: the 2-orbit is {c-, 1}, a one-sided periodic point
    m = beta_transformation(F(6, 5), F(19, 55))
    res = minimal_period(m)
    assert res.kappa == 2 and res.m == 0
    orbit = minimal_periodic_orbit(m, 2)
    assert orbit.values() == (F(6, 11), F(1))
    assert orbit.points[0].side is Side.MINUS
    assert orbit.itinerary == "LR"
    assert iterate(m, SidedPoint(m.c, Side.MINUS), 2).x == m.c


def _assert_minimal_orbit_matches_word_oracle(m, table):
    """The oracle lists no point of period below kappa, and the minimal
    orbit holds exactly its points of least period kappa."""
    kappa = minimal_period(m).kappa
    for n in range(1, kappa):
        assert word_periodic_points(table, n) == {}
    orbit = minimal_periodic_orbit(m, kappa)
    assert all(p.side is None for p in orbit.points)
    expect = word_periodic_points(table, kappa)
    assert orbit.values() == tuple(sorted(x for x, n in expect.items() if n == kappa))
    return orbit


def test_periodic_points_examples():
    orbit = _assert_minimal_orbit_matches_word_oracle(
        symmetric_map(F(3, 2)), two_piece_table(sym_params(F(3, 2)))
    )
    assert orbit.values() == (F(3, 10), F(7, 10))
    orbit = _assert_minimal_orbit_matches_word_oracle(
        symmetric_map(F(6, 5)), two_piece_table(sym_params(F(6, 5)))
    )
    assert orbit.values() == (F(3, 11), F(8, 11))


def test_periodic_points_against_word_oracle():
    cases = [
        (sym_params(F(8, 5)), symmetric_map(F(8, 5))),
        (beta_params(F(6, 5), F(1, 10)), beta_transformation(F(6, 5), F(1, 10))),
        (beta_params(F(3, 2), F(1, 5)), beta_transformation(F(3, 2), F(1, 5))),
    ]
    for params, m in cases:
        _assert_minimal_orbit_matches_word_oracle(m, two_piece_table(params))


@pytest.mark.parametrize("stem", ["custom15", "custom16", "custom19", "custom27",
                                  "custom29", "custom33"])
def test_multi_piece_periodic_points_against_word_oracle(stem):
    m = parse_map_text((GOLDEN_MAPS / f"{stem}.map").read_text(encoding="utf-8"))
    # custom33 cuts each branch of a beta map into three collinear pieces;
    # merged, the oracle composes 2^7 words for its period 7, not 6^7
    _assert_minimal_orbit_matches_word_oracle(m, map_piece_table(m.canonical()))


def test_minimal_orbit_rejects_wrong_period():
    with pytest.raises(ValueError):
        minimal_periodic_orbit(symmetric_map(F(3, 2)), 4)  # least period 2 exists
    with pytest.raises(ValueError):
        minimal_periodic_orbit(symmetric_map(F(2)), 1)  # fixed points: no orbit


def _straight_minimal_orbit(m, kappa):
    """``minimal_periodic_orbit`` step by step, or the exception type it raises.

    Every affine solution of ``f^kappa`` is checked with ``iterate``, its
    least period is the least divisor ``d`` with ``iterate(m, p, d)`` back
    at ``p``, and its orbit is walked with ``evaluate``.
    """
    found = {}
    for lo, hi, s, t, _word in cylinder_pieces(m, m.a, m.b, kappa):
        if s == 1 or not lo <= (x := t / (1 - s)) <= hi:
            continue
        p = SidedPoint(x)
        try:
            iterate(m, p, kappa)
        except SideRequired:
            assert x in (lo, hi)
            p = SidedPoint(x, Side.PLUS if x == lo else Side.MINUS)
        if iterate(m, p, kappa).x != x:
            continue
        divisors = [d for d in range(1, kappa + 1) if kappa % d == 0]
        least = next(d for d in divisors if iterate(m, p, d).x == x)
        found.setdefault((p.x, p.side), (p, least))
    if any(least < kappa for _p, least in found.values()):
        return ValueError
    orbits = set()
    for p, _least in found.values():
        orbit = [p]
        while len(orbit) < kappa:
            orbit.append(SidedPoint(evaluate(m, orbit[-1]), p.side))
        orbits.add(tuple(sorted(orbit, key=lambda q: q.x)))
    if len(orbits) != 1:
        return UniquenessViolated
    (points,) = orbits
    left = [q.x < m.c or (q.x == m.c and q.side is Side.MINUS) for q in points]
    if all(left) or not any(left):
        return UniquenessViolated
    itinerary = "".join("L" if is_left else "R" for is_left in left)
    flank_left = max(q.x for q, is_left in zip(points, left) if is_left)
    flank_right = min(q.x for q, is_left in zip(points, left) if not is_left)
    return PeriodicOrbit(points, kappa, itinerary, flank_left, flank_right)


def _assert_minimal_orbit_is_straight(m, kappa):
    expected = _straight_minimal_orbit(m, kappa)
    if isinstance(expected, PeriodicOrbit):
        assert minimal_periodic_orbit(m, kappa) == expected
    else:
        with pytest.raises(expected):
            minimal_periodic_orbit(m, kappa)
    return expected


def test_minimal_orbit_matches_straight_reference(sample_maps):
    maps = [m for _family, _p1, _p2, m in sample_maps]
    maps += [
        parse_map_text(path.read_text(encoding="utf-8"))
        for path in sorted(GOLDEN_MAPS.glob("custom*.map"))
    ]
    maps.append(beta_transformation(F(6, 5), F(19, 55)))  # 2-orbit through c-
    maps.append(beta_transformation(F(6, 5), F(5, 11)))  # its mirror, through c+
    orbits = []
    for m in maps:
        kappa = minimal_period(m).kappa
        assert kappa is not None and kappa > 1
        orbits.append(_assert_minimal_orbit_is_straight(m, kappa))
        if kappa <= 5:  # any other period is refused
            for n in (kappa + 1, 2 * kappa):
                with pytest.raises(ValueError):
                    minimal_periodic_orbit(m, n)
    assert all(isinstance(o, PeriodicOrbit) for o in orbits)
    assert {p.side for o in orbits for p in o.points} == {None, Side.MINUS, Side.PLUS}


def test_minimal_orbit_reads_a_shared_critical_pair(sample_maps, monkeypatch):
    built = []
    original = orbits.critical_orbit_values

    def recording(m, length):
        built.append(length)
        return original(m, length)

    monkeypatch.setattr(orbits, "critical_orbit_values", recording)
    for _family, _p1, _p2, shared in sample_maps:
        # copies with empty pair slots: the fixture's maps are shared
        m, alone_map, short_map = (dataclasses.replace(shared) for _ in range(3))
        kappa = minimal_period(m).kappa
        alone = minimal_periodic_orbit(alone_map, kappa)
        # the (kappa, kappa) rule grew the map's pair to 2·kappa steps
        renorm_tower(m, level_cap=1, bound=4)
        critical = critical_pair(m)
        held = critical.minus
        built.clear()
        assert minimal_periodic_orbit(m, kappa) == alone
        assert critical.minus is held and built == []
        # a shorter pair is grown to kappa steps in place
        short = critical_pair(short_map)
        held, _plus = short.grow((kappa + 1) // 2)
        built.clear()
        assert minimal_periodic_orbit(short_map, kappa) == alone
        assert short.minus is held and len(held.bounds) == kappa + 1
        assert built == []


@settings(max_examples=40, deadline=None)
@given(multi_piece_maps(near_unit=True))
def test_minimal_orbit_matches_straight_reference_on_random_maps(m):
    kappa = minimal_period(m, 200).kappa
    assume(kappa is not None and 1 < kappa <= 40)
    _assert_minimal_orbit_is_straight(m, kappa)
