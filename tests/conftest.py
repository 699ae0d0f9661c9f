"""Shared test fixtures and straight-line oracles.

The oracles here deliberately avoid the library's branch/piece
machinery: maps are evaluated from explicit affine formulas, periodic
points are found by composing words over the affine pieces, interval
images are iterated endpoint by endpoint, and ``cylinder_pieces``
enumerates every cylinder of ``f^n`` on an interval.
``reference_word_pieces``, ``reference_fixed_point`` and
``reference_rescale`` compose along one word in ``Fraction``
arithmetic, the reference of the library's integer composition.  Expected values
frozen in the tests were computed with these.  ``reference_value``
evaluates a branch in ``Fraction`` arithmetic, the oracle of the
library's integer step, and ``reference_validate_map`` checks a map
with it, the reference of the integer ``validate_map``.  ``piece_map`` builds
random valid maps, and ``multi_piece_maps`` draws them for
``hypothesis`` properties; ``pinned_piece_maps`` draws them with fixed
points, for ``fixed_points`` and its per-piece oracle
``piece_fixed_points``.  ``classify_trichotomy`` runs the library's
minimal renormalization on one map and decides its trichotomy with
``decide_trichotomy``, the straight reference of ``Tower.trichotomy``.
``same_map`` compares two maps exactly after ``canonical_map`` merges
the adjacent pieces that share an affine map.
``ranking_corpus`` holds 119 maps, from shallow families to the deep
inner maps of their towers, for the checks of the ordered critical
orbit and the exact integer step.
"""

from __future__ import annotations

import bisect
import itertools
import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import strategies as st

from lorenzmap.cli import build_map, parse_argv
from lorenzmap.maps import (
    BranchFn,
    BranchLabel,
    LorenzMap,
    beta_transformation,
    evaluate,
    parse_map_text,
    symmetric_map,
    validate_map,
)
from lorenzmap.numerics import format_scalar
from lorenzmap.renorm import (
    DEFAULT_PAIR_BOUND,
    Trichotomy,
    minimal_renormalization,
    renorm_tower,
)

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_MAPS = GOLDEN / "maps"

# params = (c, slope_left, intercept_left, slope_right, intercept_right) on [0, 1]


def sym_params(a: F):
    return (F(1, 2), a, 1 - a / 2, a, -a / 2)


def beta_params(beta: F, alpha: F):
    c = (1 - alpha) / beta
    return (c, beta, alpha, beta, alpha - 1)


def raw_eval(params, x, side=None):
    c, sL, tL, sR, tR = params
    if x < c:
        return sL * x + tL
    if x > c:
        return sR * x + tR
    if side == "-":
        return sL * c + tL
    if side == "+":
        return sR * c + tR
    raise ValueError("side needed at the discontinuity")


def raw_orbit(params, x, n, side=None):
    values = [x]
    for _ in range(n):
        values.append(raw_eval(params, values[-1], side))
    return values


def two_piece_table(params):
    """Two-branch ``params`` as a piece table ``(c, pieces)`` on [0, 1].

    Each piece is ``(lo, hi, s, t)``: the formula ``x -> s*x + t`` on the
    closed interval ``[lo, hi]`` with ``c`` left out.
    """
    c, sL, tL, sR, tR = params
    return c, [(F(0), c, sL, tL), (c, F(1), sR, tR)]


def map_piece_table(m):
    """A map's pieces read off its breakpoint, slope and intercept fields."""
    pieces = []
    for branch in (m.left, m.right):
        bps = branch.breakpoints
        pieces += zip(bps, bps[1:], branch.slopes, branch.intercepts)
    return m.c, pieces


def canonical_branch(branch):
    """Merge adjacent pieces that share the same affine map."""
    bps = [branch.breakpoints[0]]
    slopes: list = []
    intercepts: list = []
    for i, (s, t) in enumerate(zip(branch.slopes, branch.intercepts)):
        if slopes and s == slopes[-1] and t == intercepts[-1]:
            bps[-1] = branch.breakpoints[i + 1]
            continue
        slopes.append(s)
        intercepts.append(t)
        bps.append(branch.breakpoints[i + 1])
    return BranchFn(tuple(bps), tuple(slopes), tuple(intercepts))


def canonical_map(m):
    """``m`` with the pieces of each branch merged by :func:`canonical_branch`."""
    return LorenzMap(m.a, m.b, m.c, canonical_branch(m.left), canonical_branch(m.right))


def same_map(m, other):
    """Exact semantic equality (after merging collinear pieces)."""
    s, o = canonical_map(m), canonical_map(other)
    return (s.a, s.b, s.c) == (o.a, o.b, o.c) and s.left == o.left and s.right == o.right


def reference_value(branch, x):
    """A branch at ``x`` in ``Fraction`` arithmetic, without its integer pieces.

    The first piece whose right end is ``>= x`` gives ``s*x + t``: at an
    internal breakpoint the left piece, at the end next to ``c`` the
    one-sided limit.  ``x`` must not lie above the branch domain.
    """
    for hi, s, t in zip(branch.breakpoints[1:], branch.slopes, branch.intercepts):
        if x <= hi:
            return s * x + t
    raise ValueError("point above the branch domain")


def reference_validate_map(m):
    """The violations of ``m`` that :func:`lorenzmap.maps.validate_map`
    reports, found in ``Fraction`` arithmetic: its straight-line
    reference, with each branch evaluated by :func:`reference_value`."""
    bad = []
    if not (m.a < m.c < m.b):
        return ("domain order violated: need a < c < b",)
    structural = False
    for name, br, lo, hi in (("left", m.left, m.a, m.c), ("right", m.right, m.c, m.b)):
        bps = br.breakpoints
        if bps[0] != lo or bps[-1] != hi:
            bad.append(f"{name} branch domain does not tile its side of the domain")
            structural = True
            continue
        if not all(bps[i] < bps[i + 1] for i in range(len(bps) - 1)):
            bad.append(f"{name} branch breakpoints are not strictly increasing")
            structural = True
            continue
        for i, s in enumerate(br.slopes):
            if s <= 0:
                bad.append(f"{name} branch piece {i} is not strictly increasing")
                structural = True
            elif s <= 1:
                bad.append(
                    f"expanding violated: {name} branch piece {i} has slope "
                    f"{format_scalar(s)} <= 1"
                )
        for i in range(len(br.slopes) - 1):
            x = bps[i + 1]
            lhs = br.slopes[i] * x + br.intercepts[i]
            rhs = br.slopes[i + 1] * x + br.intercepts[i + 1]
            if lhs != rhs:
                bad.append(f"{name} branch discontinuous at breakpoint {format_scalar(x)}")
    if structural:
        return tuple(bad)
    left_limit = reference_value(m.left, m.c)
    if left_limit != m.b:
        bad.append(
            f"left limit at c is {format_scalar(left_limit)}, expected b = "
            f"{format_scalar(m.b)}"
        )
    right_limit = reference_value(m.right, m.c)
    if right_limit != m.a:
        bad.append(
            f"right limit at c is {format_scalar(right_limit)}, expected a = "
            f"{format_scalar(m.a)}"
        )
    fa = reference_value(m.left, m.a)
    if not (m.a <= fa <= m.b):
        bad.append(f"f(a) = {format_scalar(fa)} escapes the domain")
    fb = reference_value(m.right, m.b)
    if not (m.a <= fb <= m.b):
        bad.append(f"f(b) = {format_scalar(fb)} escapes the domain")
    return tuple(bad)


def table_eval(table, x):
    c, pieces = table
    for lo, hi, s, t in pieces:
        if lo <= x <= hi and x != c:
            return s * x + t
    raise ValueError("point outside the pieces or at the discontinuity")


def word_periodic_points(table, n):
    """All fixed points of the n-th iterate, via words over the pieces.

    Every word of ``n`` pieces is composed from the explicit formulas and
    its fixed point kept when the orbit really visits those pieces.
    Returns {point: least_period}.  Orbits passing exactly through the
    discontinuity are not representable by such a word and are not
    reported; callers assert none occur in their samples.
    """
    c, pieces = table
    out = {}
    for word in itertools.product(pieces, repeat=n):
        s, t = F(1), F(0)
        for _, _, bs, bt in word:
            s, t = bs * s, bs * t + bt
        if s == 1:
            continue
        x0 = t / (1 - s)
        x, ok = x0, True
        for lo, hi, bs, bt in word:
            if not (lo <= x <= hi and x != c):
                ok = False
                break
            x = bs * x + bt
        if not ok or x != x0 or x0 in out:
            continue
        y, least = table_eval(table, x0), 1
        while y != x0:
            y = table_eval(table, y)
            least += 1
        out[x0] = least
    return out


def evaluate_walk(m, word, x):
    """``[x, f(x), ..., f^len(word)(x)]`` by ``evaluate``, the oracle of ``word_orbit``.

    Off ``c`` each step is :func:`~lorenzmap.maps.evaluate`, and the point
    must lie on the side of ``c`` its letter names; at ``c`` the letter
    decides, ``f(c-) = b`` under ``L`` and ``f(c+) = a`` under ``R``.
    """
    values = [x]
    for label in word:
        y = values[-1]
        if y == m.c:
            values.append(m.b if label is BranchLabel.LEFT else m.a)
        else:
            assert (y < m.c) == (label is BranchLabel.LEFT)
            values.append(evaluate(m, y))
    return values


def evaluate_orbit(m, x, n):
    """``[x, f(x), ..., f^n(x)]`` by ``evaluate``, for an orbit that misses ``c``."""
    values = [x]
    for _ in range(n):
        values.append(evaluate(m, values[-1]))
    return values


def label_word(m, x, n):
    """The labels of ``x``'s first ``n`` steps, for an orbit that misses ``c``."""
    orbit = evaluate_orbit(m, x, n)[:-1]
    return tuple(BranchLabel.LEFT if y < m.c else BranchLabel.RIGHT for y in orbit)


def interior_cuts(m):
    """Breakpoints of the assembled map inside ``(a, b)``, including ``c``."""
    return m.left.breakpoints[1:-1] + (m.c,) + m.right.breakpoints[1:-1]


def cylinder_pieces(m, lo, hi, steps):
    """The affine pieces of ``f^steps`` on ``[lo, hi]``, ascending.

    Each piece is ``(x0, x1, s, t, word)``: ``f^steps(x) = s*x + t`` on
    ``[x0, x1]``, and ``word[k]`` is the :class:`BranchLabel` that step
    ``k`` applies there.  A piece is cut where an earlier image reaches an
    internal breakpoint or ``c``.  An endpoint whose image is ``c`` takes
    the one-sided limit of the piece it bounds, so the affine form holds
    on the closed piece.  The map must be valid.
    """
    cuts = interior_cuts(m)
    # map piece k runs from cuts[k - 1] to cuts[k] (from a, to b at the ends)
    forms = [
        (label, s, t)
        for label, branch in ((BranchLabel.LEFT, m.left), (BranchLabel.RIGHT, m.right))
        for s, t in zip(branch.slopes, branch.intercepts)
    ]
    pieces = [(lo, hi, F(1), F(0), ())]
    for _step in range(1, steps + 1):
        out = []
        for x0, x1, s, t, word in pieces:
            y0, y1 = s * x0 + t, s * x1 + t
            # cuts[first:last] lie strictly inside (y0, y1); a one-point
            # image takes the lower piece, so c itself goes left
            last = bisect.bisect_left(cuts, y1)
            first = min(bisect.bisect_right(cuts, y0), last)
            xs = [x0] + [(y - t) / s for y in cuts[first:last]] + [x1]
            for k in range(len(xs) - 1):
                label, bs, bt = forms[first + k]
                out.append((xs[k], xs[k + 1], bs * s, bs * t + bt, word + (label,)))
        pieces = out
    return pieces


def reference_word_pieces(m, word, lo, hi):
    """:func:`~lorenzmap.maps.word_pieces` in ``Fraction`` arithmetic.

    The straight-line reference of the integer composition: each piece
    is ``(x0, x1, s, t)`` with ``f^len(word)(x) = s*x + t`` on
    ``[x0, x1]``, clipped at each branch domain and cut at its internal
    breakpoints with ``Fraction`` operators.
    """
    pieces = [(lo, hi, F(1), F(0))]
    for label in word:
        branch = m.left if label is BranchLabel.LEFT else m.right
        bps, slopes, intercepts = branch.breakpoints, branch.slopes, branch.intercepts
        out = []
        for x0, x1, s, t in pieces:
            y0, y1 = s * x0 + t, s * x1 + t
            if y0 < bps[0]:
                y0, x0 = bps[0], (bps[0] - t) / s
            if y1 > bps[-1]:
                y1, x1 = bps[-1], (bps[-1] - t) / s
            if y0 >= y1:
                continue
            # bps[first:last] lie strictly inside (y0, y1); y0 is on piece first - 1
            first, last = bisect.bisect_right(bps, y0), bisect.bisect_left(bps, y1)
            xs = [x0] + [(y - t) / s for y in bps[first:last]] + [x1]
            for k in range(len(xs) - 1):
                bs, bt = slopes[first - 1 + k], intercepts[first - 1 + k]
                out.append((xs[k], xs[k + 1], bs * s, bs * t + bt))
        pieces = out
    return pieces


def fraction_pieces(pieces):
    """Integer :func:`~lorenzmap.maps.word_pieces` as ``Fraction`` ``(x0, x1, s, t)``."""
    return [
        (F(n0, d0), F(n1, d1), F(a, e), F(b, e))
        for n0, d0, n1, d1, a, b, e in pieces
    ]


def reference_fixed_point(pieces, lo, hi):
    """The solution of ``s*x + t = x`` in ``[lo, hi]`` on ``(x0, x1, s, t)`` pieces, or None."""
    for x0, x1, s, t in pieces:
        x = t / (1 - s)
        if max(x0, lo) <= x <= min(x1, hi):
            return x
    return None


def reference_rescale(m, J, pieces):
    """:func:`~lorenzmap.maps.rescale_to_unit` on :func:`reference_word_pieces`.

    Clips the ``(x0, x1, s, t)`` pieces at ``u`` and ``v`` and conjugates
    them onto ``[0, 1]`` with ``Fraction`` operators; the pieces must
    cover ``[u, c]`` and ``[c, v]``.
    """
    u, v = J
    width = v - u

    def compose(pieces, lo, hi):
        assert pieces and pieces[0][0] <= lo and pieces[-1][1] >= hi
        pieces = [p for p in pieces if p[1] > lo and p[0] < hi]
        bps = [(max(p[0], lo) - u) / width for p in pieces] + [(hi - u) / width]
        slopes = tuple(p[2] for p in pieces)
        intercepts = tuple((p[2] * u + p[3] - u) / width for p in pieces)
        return canonical_branch(BranchFn(tuple(bps), slopes, intercepts))

    left_pieces, right_pieces = pieces
    return LorenzMap(
        F(0), F(1), (m.c - u) / width,
        compose(left_pieces, u, m.c), compose(right_pieces, m.c, v),
    )


def raw_closed_image(params, lo, hi):
    """Doubled-point image of a closed interval, split at c."""
    c = params[0]
    top = raw_eval(params, c, "-")
    bottom = raw_eval(params, c, "+")
    if lo < c < hi:
        return [(raw_eval(params, lo), top), (bottom, raw_eval(params, hi))]
    if hi <= c:
        return [(raw_eval(params, lo), top if hi == c else raw_eval(params, hi))]
    return [(bottom if lo == c else raw_eval(params, lo), raw_eval(params, hi))]


def normalize_pairs(pairs):
    pairs = sorted(pairs)
    out = [list(pairs[0])]
    for lo, hi in pairs[1:]:
        if lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [tuple(p) for p in out]


def raw_cover_steps(params, lo, hi, cap):
    """Least n whose cumulative closed images tile [0, 1]; None if > cap."""
    frontier = normalize_pairs([(lo, hi)])
    total = frontier
    if total == [(F(0), F(1))]:
        return 0
    for n in range(1, cap + 1):
        nxt = []
        for p, q in frontier:
            nxt += raw_closed_image(params, p, q)
        frontier = normalize_pairs(nxt)
        total = normalize_pairs(total + frontier)
        if total == [(F(0), F(1))]:
            return n
    return None


def golden_case_maps() -> list:
    """The map of every golden ``analyze`` or ``classify`` case that exits 0."""
    cases = json.loads((GOLDEN / "cases.json").read_text())
    maps = []
    for case in cases:
        if case["argv"][0] in ("analyze", "classify") and case["exit"] == 0:
            args = parse_argv(case["argv"])
            if args.map_file:
                args.map_file = str(GOLDEN.parent.parent / args.map_file)
            maps.append(build_map(args)[0])
    return maps


def piece_map(integer, near_unit=False):
    """A valid map on [0, 1] with one to three affine pieces per branch.

    ``integer(lo, hi)`` draws an integer in ``[lo, hi]``; it is a
    ``hypothesis`` draw in :func:`multi_piece_maps` or ``rng.randint``
    for a seeded sample.  With ``near_unit`` the discontinuity lies in
    ``[9/20, 11/20]`` and each branch rises at most ``1/10`` more than
    its width, so the slopes are near 1, ``f(a)`` and ``f(b)`` land near
    ``c``, and about a third of the maps renormalize; the plain draws
    almost never do.
    """

    def fraction_in_unit(d):
        return F(integer(1, d - 1), d)

    def denominator():
        return integer(2, 60)

    c = fraction_in_unit(denominator())
    if near_unit:
        c = F(9, 20) + c / 10

    def branch(lo, hi, start, room):
        # pieces of slope 1 + e with sum(e * width) <= room keep the rise <= 1
        cuts = sorted({lo + (hi - lo) * fraction_in_unit(denominator())
                       for _ in range(integer(0, 2))})
        bps = [lo, *cuts, hi]
        scale = room / (hi - lo)
        slopes = [1 + scale * fraction_in_unit(denominator()) for _ in bps[1:]]
        intercepts, y = [], start
        for x0, x1, s in zip(bps, bps[1:], slopes):
            intercepts.append(y - s * x0)
            y += s * (x1 - x0)
        return BranchFn(tuple(bps), tuple(slopes), tuple(intercepts)), y

    right_room, left_room = (F(1, 10), F(1, 10)) if near_unit else (c, 1 - c)
    right, _top = branch(c, F(1), F(0), right_room)
    trial, rise_end = branch(F(0), c, F(0), left_room)
    # shift the left branch so that it ends at f(c-) = 1
    shift = 1 - rise_end
    left = BranchFn(
        trial.breakpoints, trial.slopes, tuple(t + shift for t in trial.intercepts)
    )
    m = LorenzMap(F(0), F(1), c, left, right)
    assert validate_map(m).valid, validate_map(m).violations
    return m


# A near-unit draw of minimal period 662.  The cylinders of f^662 number
# more than 200,000; its minimal periodic orbit is solved along the one
# branch word of c- instead.
LONG_ORBIT_MAP_TEXT = """family = custom
domain = 0 1
c = 103/228
left_breakpoints = 0 103/228
left_slopes = 517/515
left_intercepts = 623/1140
right_breakpoints = 103/228 1
right_slopes = 627/625
right_intercepts = -1133/2500
"""


@st.composite
def multi_piece_maps(draw, near_unit=False):
    """``hypothesis`` strategy of :func:`piece_map` draws."""
    return piece_map(lambda lo, hi: draw(st.integers(lo, hi)), near_unit)


def fixed_points(m):
    """All solutions of ``f(x) = x`` on a valid map: ``a`` and ``b`` at
    most (see :func:`lorenzmap.periods.minimal_period`)."""
    return [x for x in (m.a, m.b) if evaluate(m, x) == x]


def decide_trichotomy(period, step):
    """The trichotomy from the minimal period and the minimal renormalization.

    The straight reference of ``Tower.trichotomy``: fixed-point maps are
    prime outright, a found minimal renormalization is classified by its
    periodicity flag, and with nothing found the answer is "prime up to
    the search bound".
    """
    if period.kappa == 1:
        return Trichotomy.PRIME
    if step is None:
        return Trichotomy.UNKNOWN
    if step.periodic:
        return Trichotomy.PERIODIC_MINIMAL_RENORM
    return Trichotomy.CANTOR_MINIMAL_RENORM


def classify_trichotomy(m, bound=DEFAULT_PAIR_BOUND, period=None):
    """``(trichotomy, minimal renormalization result)`` of ``m``, decided
    straight from the period and the step by :func:`decide_trichotomy`."""
    result = minimal_renormalization(m, bound, period)
    return decide_trichotomy(result.period, result.step), result


def piece_fixed_points(m):
    """All solutions of ``f(x) = x``, solved piece by piece.

    Each piece ``s*x + t`` with ``s != 1`` has one candidate
    ``t / (1 - s)``, kept when it lies on the piece and is not ``c``.
    """
    c, pieces = map_piece_table(m)
    out = set()
    for lo, hi, s, t in pieces:
        if s != 1:
            x = t / (1 - s)
            if lo <= x <= hi and x != c:
                out.add(x)
    return sorted(out)


def pinned(m, left, right):
    """``m`` with the chosen branches stretched affinely onto ``[a, b]``.

    A stretched left branch has ``f(a) = a`` and a stretched right one
    ``f(b) = b``.  Each keeps its end at ``c`` and its slopes only grow,
    so the map stays valid.
    """

    def stretch(branch, y0, y1):
        k = (m.b - m.a) / (y1 - y0)
        return BranchFn(
            branch.breakpoints,
            tuple(k * s for s in branch.slopes),
            tuple(k * (t - y0) + m.a for t in branch.intercepts),
        )

    new_left, new_right = m.left, m.right
    if left:
        new_left = stretch(m.left, reference_value(m.left, m.a), m.b)
    if right:
        new_right = stretch(m.right, m.a, reference_value(m.right, m.b))
    out = LorenzMap(m.a, m.b, m.c, new_left, new_right)
    assert validate_map(out).valid, validate_map(out).violations
    return out


@st.composite
def pinned_piece_maps(draw):
    """Plain or near-unit :func:`piece_map` draws, with none, one or both
    ends made fixed by :func:`pinned`."""
    m = draw(multi_piece_maps(near_unit=draw(st.booleans())))
    return pinned(m, draw(st.booleans()), draw(st.booleans()))


@pytest.fixture(scope="session")
def sample_maps():
    """Seeded rational parameter samples for both families, no fixed points.

    Symmetric slopes lie in (1, 2); beta pairs satisfy 0 < alpha < 2 - beta
    so the two-branch form is a valid expanding Lorenz map without fixed
    points.  Minimal periods are kept small enough for cylinder
    enumeration to stay cheap.
    """
    import random

    import lorenzmap as lz

    rng = random.Random(20260810)
    maps = []
    while len(maps) < 25:
        a = F(rng.randint(101, 199), 100)
        maps.append(("symmetric", a, None, lz.symmetric_map(a)))
    while len(maps) < 50:
        beta = F(rng.randint(105, 195), 100)
        hi = 2 - beta
        alpha = hi * F(rng.randint(1, 99), 100)
        if alpha <= 0 or alpha >= hi:
            continue
        m = lz.beta_transformation(beta, alpha)
        if not lz.validate_map(m).valid:
            continue
        per = lz.minimal_period(m, 500)
        if per.kappa is None or per.kappa > 12:
            continue
        maps.append(("beta", beta, alpha, m))
    return maps


def moved_to_minus_3_5(m: LorenzMap) -> LorenzMap:
    """A map on ``[0, 1]`` conjugated by ``x -> 8x - 3`` onto ``[-3, 5]``."""

    def branch(br):
        return BranchFn(
            tuple(8 * x - 3 for x in br.breakpoints),
            br.slopes,
            tuple(3 * s + 8 * t - 3 for s, t in zip(br.slopes, br.intercepts)),
        )

    return LorenzMap(8 * m.a - 3, 8 * m.b - 3, 8 * m.c - 3, branch(m.left), branch(m.right))


@pytest.fixture(scope="session")
def ranking_corpus(sample_maps):
    """Symmetric, beta and multi-piece maps with the inner maps of their towers."""
    c, s1, s2 = F(1, 4), F(51, 50), F(11, 10)
    non_first_return = LorenzMap(
        F(0),
        F(1),
        c,
        BranchFn.affine(F(0), c, s1, 1 - s1 * c),
        BranchFn.affine(c, F(1), s2, -s2 * c),
    )
    shifted = moved_to_minus_3_5(symmetric_map(F(11, 10)))
    bases = [
        symmetric_map(F(11, 10)),
        symmetric_map(F(107, 100)),
        symmetric_map(F(3, 2)),
        beta_transformation(F(6, 5), F(1, 10)),
        beta_transformation(F(23, 20), F(7, 40)),
        beta_transformation(F(3, 2), F(2, 5)),
        non_first_return,
        shifted,
    ]
    bases += [
        parse_map_text(path.read_text())
        for path in sorted(GOLDEN_MAPS.glob("custom*.map"))
    ]
    bases += [m for _family, _p1, _p2, m in sample_maps]
    maps = []
    for m in bases:
        assert validate_map(m).valid
        maps.append(m)
        maps += [level.step.inner_map for level in renorm_tower(m, bound=24).levels]
    return maps
