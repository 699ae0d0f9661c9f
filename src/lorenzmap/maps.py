"""Expanding Lorenz maps with piecewise-affine branches.

A Lorenz map on ``[a, b]`` has one discontinuity ``c``: it is strictly
increasing on ``[a, c)`` and on ``(c, b]``, with one-sided limits
``f(c-) = b`` and ``f(c+) = a``.  Points are plain scalars; which
side of ``c`` is meant is said by a :class:`BranchLabel`: a point at
``c`` is ``c-`` under :attr:`BranchLabel.LEFT` and ``c+`` under
:attr:`BranchLabel.RIGHT`.

Branches are piecewise affine with every slope > 1, which certifies the
expanding property (dense preimages of ``c``); maps that fail the slope
test are rejected by :func:`validate_map` rather than analyzed unsoundly.

Iterates on an interval are composed in one place, along one branch
word: :func:`word_pieces` gives the affine pieces of ``f^n`` on the
points of ``[lo, hi]`` that follow an ``n``-letter word.  The rescaled
first-return map (:func:`rescale_to_unit`), the minimal periodic orbit
of :mod:`~lorenzmap.periods` and the repelling fixed points ``e±`` of
:mod:`~lorenzmap.renorm` are all read off these pieces, each along the
word of ``c-`` or ``c+``.

Every scalar is an exact :class:`fractions.Fraction` and every order
decision is exact, but neither the validation (:func:`validate_map`),
the evaluation nor the composition runs on ``Fraction`` arithmetic.
Every exact point evaluation is one integer step on a reduced pair
(:meth:`BranchFn.step`): :meth:`BranchFn.value`, :func:`validate_map`'s
limits at ``c`` and ``f(a)``, ``f(b)``, :func:`evaluate` and
:func:`word_orbit`.  Every iterate on an interval is composed from
integer affine maps ``(A·x + B)/E`` on reduced end pairs
(:func:`word_pieces`), and :func:`rescale_to_unit` and the
fixed-point solve of :mod:`~lorenzmap.periods` turn only the values
they return into ``Fraction`` values.  Every exact orbit the
analysis walks (the critical orbits of :mod:`~lorenzmap.orbits`, the
minimal periodic orbit, the orbit of ``e-`` and the periodic ω-orbits
of :mod:`~lorenzmap.limits`) has a known branch word, and
:func:`word_orbit` walks it along that word, so no walk compares with
``c``.  Each branch holds one integer piece table
(:attr:`BranchFn.integer_pieces`), which the composition and the dyadic
enclosures of the critical orbits read too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Optional

from .numerics import (
    InvalidInput,
    Scalar,
    format_interval,
    format_scalar,
    parse_scalar,
    reduced_fraction,
)

HALF = Fraction(1, 2)
ONE = Fraction(1)
ZERO = Fraction(0)


class BranchLabel(enum.Enum):
    LEFT = "L"
    RIGHT = "R"


@dataclass(frozen=True)
class BranchFn:
    """One monotone branch assembled from affine pieces.

    ``breakpoints`` are strictly increasing and tile the closed branch
    domain; piece ``i`` is ``x -> slopes[i]*x + intercepts[i]`` on
    ``[breakpoints[i], breakpoints[i+1]]``.  Adjacent pieces agree at the
    shared breakpoint, so evaluation anywhere on the closed domain is
    unambiguous; the value at the domain end adjacent to ``c`` is the
    one-sided limit there.

    ``integer_pieces`` is ``(cuts, pieces)``, the branch's pieces on
    integers, built with the branch, since every branch is evaluated.
    ``cuts`` are the internal breakpoints as ``(numerator,
    denominator)``; piece ``s·x + t`` is ``(A, B, E, E·A)`` with
    ``E = lcm(den s, den t)``, ``A = E·s`` and ``B = E·t``.  Every exact
    evaluation (:meth:`step`), every composition (:func:`word_pieces`)
    and every dyadic enclosure of :mod:`~lorenzmap.orbits` reads this
    one table.
    """

    breakpoints: tuple
    slopes: tuple
    intercepts: tuple

    def __post_init__(self):
        if len(self.breakpoints) != len(self.slopes) + 1:
            raise InvalidInput("need one more breakpoint than pieces")
        if len(self.slopes) != len(self.intercepts):
            raise InvalidInput("slopes and intercepts must pair up")
        if not self.slopes:
            raise InvalidInput("branch needs at least one piece")
        cuts = tuple((x.numerator, x.denominator) for x in self.breakpoints[1:-1])
        pieces = []
        for s, t in zip(self.slopes, self.intercepts):
            e = math.lcm(s.denominator, t.denominator)
            a = s.numerator * (e // s.denominator)
            pieces.append((a, t.numerator * (e // t.denominator), e, e * a))
        object.__setattr__(self, "integer_pieces", (cuts, tuple(pieces)))

    @classmethod
    def affine(cls, lo: Scalar, hi: Scalar, slope: Scalar, intercept: Scalar):
        return cls((lo, hi), (slope,), (intercept,))

    def value(self, x: Scalar) -> Scalar:
        """The branch at ``x`` on its closed domain: :meth:`step` on ``x``'s pair."""
        if x < self.breakpoints[0]:
            raise ValueError(f"{format_scalar(x)} below branch domain")
        if x > self.breakpoints[-1]:
            raise ValueError(f"{format_scalar(x)} above branch domain")
        return reduced_fraction(*self.step(x.numerator, x.denominator))

    def step(self, n: int, d: int) -> tuple:
        """The branch at ``n/d`` as a reduced pair, for ``gcd(n, d) == 1``, ``d > 0``.

        Piece ``s·x + t`` maps ``n/d`` to ``N / (E·d)`` with
        ``N = A·n + B·d`` (see :attr:`integer_pieces`).  A common factor
        ``g`` of ``N`` and ``E·d`` divides ``E·N - B·(E·d) = E·A·n``, so it
        divides ``gcd(E·A·n, E·d) = E·gcd(A, d)`` (``n`` and ``d`` are
        coprime), and that divides ``E·A``.  So ``gcd(N, E·d)`` is
        ``gcd(gcd(N, E·A), E·d)``: two gcds that each have one small
        argument, ``E·A`` and then their result.  The quotients are
        coprime with a positive denominator, as a ``Fraction`` holds them.
        The piece is picked by cross-multiplying against the internal
        breakpoints, the left one at a breakpoint (adjacent pieces agree
        there); past the domain ends the end pieces continue, so callers
        check the domain, as :meth:`value` does.
        """
        cuts, pieces = self.integer_pieces
        i = 0
        for cut_n, cut_d in cuts:
            if n * cut_d <= cut_n * d:
                break
            i += 1
        a, b, e, ea = pieces[i]
        n, d = a * n + b * d, e * d
        g = math.gcd(math.gcd(n, ea), d)
        if g == 1:
            return n, d
        return n // g, d // g

    def solve(self, y: Scalar) -> Optional[Scalar]:
        """The unique ``x`` in the closed domain with ``value(x) == y``, if any."""
        for i, (s, t) in enumerate(zip(self.slopes, self.intercepts)):
            x = (y - t) / s
            if self.breakpoints[i] <= x <= self.breakpoints[i + 1]:
                return x
        return None


@dataclass(frozen=True)
class LorenzMap:
    """Two increasing piecewise-affine branches glued at the discontinuity.

    Immutable after construction; all operations are pure.  Every field
    is an exact rational.
    """

    a: Scalar
    b: Scalar
    c: Scalar
    left: BranchFn
    right: BranchFn
    # the map's critical-orbit pair, filled by orbits.critical_pair
    _critical: object = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def valid(self) -> bool:
        return not self.violations


def validate_map(m: LorenzMap) -> ValidationReport:
    """Check the Lorenz-map invariants; violations become report entries.

    Expanding is certified via min slope > 1, which is sufficient for
    dense preimages of the discontinuity.  A structural fault (a branch
    that does not tile its side, breakpoints that do not increase
    strictly, a slope at or below 0) skips the checks of the limits at
    ``c`` and of ``f(a)``, ``f(b)``.

    Every check is decided on integer pairs: a scalar is the reduced
    pair ``(n, d)`` of its ``Fraction``, so two scalars are equal when
    their pairs are and ordered by cross-multiplying.  Piece ``i`` of
    :attr:`BranchFn.integer_pieces` has slope ``A/E``, so it increases
    when ``A > 0`` and expands when ``A > E``, and at a breakpoint
    ``n/d`` it and piece ``i + 1`` agree when ``(A·n + B·d)·E'`` equals
    ``(A'·n + B'·d)·E`` (both values have the factor ``1/d`` and
    ``E, E', d > 0``).  The limits at ``c`` and ``f(a)``, ``f(b)`` are
    one :meth:`BranchFn.step` each, on a domain that the structural
    checks have confirmed.
    """
    bad: list[str] = []
    a, b, c = ((x.numerator, x.denominator) for x in (m.a, m.b, m.c))

    if not (a[0] * c[1] < c[0] * a[1] and c[0] * b[1] < b[0] * c[1]):
        bad.append("domain order violated: need a < c < b")
        return ValidationReport(tuple(bad))

    structural = False
    for name, br, lo, hi in (("left", m.left, a, c), ("right", m.right, c, b)):
        bps = [(x.numerator, x.denominator) for x in br.breakpoints]
        if bps[0] != lo or bps[-1] != hi:
            bad.append(f"{name} branch domain does not tile its side of the domain")
            structural = True
            continue
        if any(n0 * d1 >= n1 * d0 for (n0, d0), (n1, d1) in zip(bps, bps[1:])):
            bad.append(f"{name} branch breakpoints are not strictly increasing")
            structural = True
            continue
        cuts, pieces = br.integer_pieces
        for i, (A, _B, E, _EA) in enumerate(pieces):
            if A <= 0:
                bad.append(f"{name} branch piece {i} is not strictly increasing")
                structural = True
            elif A <= E:
                bad.append(
                    f"expanding violated: {name} branch piece {i} has slope "
                    f"{format_scalar(br.slopes[i])} <= 1"
                )
        for (n, d), (A, B, E, _EA), (A1, B1, E1, _EA1) in zip(cuts, pieces, pieces[1:]):
            if (A * n + B * d) * E1 != (A1 * n + B1 * d) * E:
                bad.append(f"{name} branch discontinuous at breakpoint {n}/{d}")

    if structural:
        return ValidationReport(tuple(bad))

    n, d = m.left.step(*c)
    if (n, d) != b:
        bad.append(f"left limit at c is {n}/{d}, expected b = {format_scalar(m.b)}")
    n, d = m.right.step(*c)
    if (n, d) != a:
        bad.append(f"right limit at c is {n}/{d}, expected a = {format_scalar(m.a)}")

    for label, (n, d) in (("f(a)", m.left.step(*a)), ("f(b)", m.right.step(*b))):
        if not (a[0] * d <= n * a[1] and n * b[1] <= b[0] * d):
            bad.append(f"{label} = {n}/{d} escapes the domain")

    return ValidationReport(tuple(bad))


def evaluate(m: LorenzMap, x: Scalar) -> Scalar:
    """``f(x)`` for ``x`` in ``[a, b]`` other than ``c``.

    The branch is picked by cross-multiplying ``x``'s pair against ``c``
    and applied with :meth:`BranchFn.step`.  At ``c`` the map has two
    one-sided values, and which one is meant is a branch label's to say
    (:func:`word_orbit`), so ``c`` raises :class:`ValueError`, as a
    point outside the domain does.  No analysis path evaluates at ``c``:
    :func:`~lorenzmap.periods.minimal_period` evaluates only at ``a`` and
    ``b``, and :func:`~lorenzmap.limits.membership_E` returns OUT at
    ``y = c`` before it evaluates, because ``c`` lies inside every level
    interval.
    """
    if not (m.a <= x <= m.b):
        raise ValueError(f"{format_scalar(x)} outside the domain")
    n, d, c = x.numerator, x.denominator, m.c
    cross = n * c.denominator - c.numerator * d
    if cross < 0:
        return reduced_fraction(*m.left.step(n, d))
    if cross > 0:
        return reduced_fraction(*m.right.step(n, d))
    raise ValueError("f has two one-sided values at c: f(c-) = b, f(c+) = a")


def word_orbit(m: LorenzMap, word, x: Scalar) -> list:
    """``[x, f(x), ..., f^len(word)(x)]`` for a point ``x`` that follows ``word``.

    Step ``k`` applies branch ``word[k]`` with :meth:`BranchFn.step`, so
    a point at ``c`` continues as ``c-`` under :attr:`BranchLabel.LEFT`
    and as ``c+`` under :attr:`BranchLabel.RIGHT`, as in
    :func:`word_pieces`.  No domain is checked: each caller passes a
    point that it has proved follows ``word``.  Every exact orbit of the
    analysis is walked here.
    """
    left, right, left_label = m.left.step, m.right.step, BranchLabel.LEFT
    n, d = x.numerator, x.denominator
    values = [x]
    for label in word:
        n, d = (left if label is left_label else right)(n, d)
        values.append(reduced_fraction(n, d))
    return values


def inverse_images(m: LorenzMap, y: Scalar) -> list:
    """All preimages of ``y`` as ``(x, label)``: 0, 1, or 2 results, ascending.

    A point has two preimages exactly when it lies in ``[f(a), f(b)]``.
    The boundary values are reached only as one-sided limits, so
    ``y = b`` yields ``(c, L)``, read as ``c-``, and ``y = a`` yields
    ``(c, R)``, read as ``c+``.
    """
    if not (m.a <= y <= m.b):
        raise ValueError(f"{format_scalar(y)} outside the domain")
    results = []
    for branch, label in ((m.left, BranchLabel.LEFT), (m.right, BranchLabel.RIGHT)):
        x = branch.solve(y)
        if x is not None:
            results.append((x, label))
    return results


def word_pieces(m: LorenzMap, word, lo: Scalar, hi: Scalar) -> list:
    """Pieces of ``f^len(word)`` on the points of ``[lo, hi]`` that follow ``word``.

    A point follows ``word`` when its ``k``-th image lies in the closed
    domain of branch ``word[k]`` for every ``k``: ``[a, c]`` for
    :attr:`BranchLabel.LEFT`, read with ``c-``, and ``[c, b]`` for
    :attr:`BranchLabel.RIGHT`, read with ``c+``.  Each piece is
    ``(n0, d0, n1, d1, A, B, E)``: ``f^len(word)(x) = (A·x + B)/E`` on
    ``[n0/d0, n1/d1]``, with ``E > 0``, ``gcd(A, B, E) == 1`` and both
    ends reduced pairs with positive denominators.  The pieces are
    ascending and tile those points, and an unrealized word gives
    ``[]``.  A word followed by a single point only counts as
    unrealized, so every piece has ``n0/d0 < n1/d1``.  Needs
    ``lo < hi`` and a valid map.

    The points that follow a word form one closed interval: each step
    keeps the part of an interval whose image lies in one branch domain,
    and that branch is increasing.  So the image at every step is one
    interval, and it crosses at most ``k - 1`` internal breakpoints of a
    branch with ``k`` pieces; those are the only cuts.  Every slope is
    > 1, so no image of a non-degenerate piece is a single point, and
    ``f^n`` has at most ``1 + n·(k - 1)`` pieces, with ``k`` the larger
    piece count of the two branches.

    The arithmetic is on integers, in the form of
    :attr:`BranchFn.integer_pieces`, whose pieces ``(a, b, e)`` are
    composed pieces of length one: ``gcd(a, b, e) == 1``, because
    ``e / g`` would be a common denominator of ``a/e`` and ``b/e`` for
    any common factor ``g``.  The image of ``n/d`` is
    ``(A·n + B·d) / (E·d)``, a pair with a positive denominator, so
    every order decision is one cross-multiplication.  The preimage of
    a breakpoint ``cn/cd`` is ``(E·cn - B·cd) / (A·cd)`` (``A > 0``),
    divided by its gcd.  Applying ``(a, b, e)`` after ``(A, B, E)``
    gives ``(a·A, a·B + b·E, e·E)``, divided by the gcd of the three.
    A reduced pair with a positive denominator is the unique lowest-terms
    form of its value, and so is a reduced triple with ``E > 0`` of its
    affine map, so each end and each map is the one the ``Fraction``
    arithmetic gives; :func:`rescale_to_unit` and the fixed-point solve
    of :mod:`~lorenzmap.periods` turn the values that leave the
    composition into ``Fraction`` values, one gcd each.
    """
    left_label = BranchLabel.LEFT
    pieces = [(lo.numerator, lo.denominator, hi.numerator, hi.denominator, 1, 0, 1)]
    for label in word:
        branch = m.left if label is left_label else m.right
        cuts, branch_pieces = branch.integer_pieces
        first, last = branch.breakpoints[0], branch.breakpoints[-1]
        lo_n, lo_d, hi_n, hi_d = (
            first.numerator, first.denominator, last.numerator, last.denominator
        )
        out = []
        for n0, d0, n1, d1, A, B, E in pieces:
            # the images of the ends, unreduced, with positive denominators
            y0n, y0d = A * n0 + B * d0, E * d0
            y1n, y1d = A * n1 + B * d1, E * d1
            if y0n * hi_d >= hi_n * y0d or y1n * lo_d <= lo_n * y1d:
                continue
            if y0n * lo_d < lo_n * y0d:
                n0, d0 = _preimage(A, B, E, lo_n, lo_d)
            if y1n * hi_d > hi_n * y1d:
                n1, d1 = _preimage(A, B, E, hi_n, hi_d)
            # the image from y0 on starts on branch piece i, and the cuts
            # from there up to y1 split it
            i = 0
            for cut_n, cut_d in cuts:
                if cut_n * y0d > y0n * cut_d:
                    break
                i += 1
            for cut_n, cut_d in cuts[i:]:
                if cut_n * y1d >= y1n * cut_d:
                    break
                xn, xd = _preimage(A, B, E, cut_n, cut_d)
                out.append((n0, d0, xn, xd) + _then(branch_pieces[i], A, B, E))
                n0, d0 = xn, xd
                i += 1
            out.append((n0, d0, n1, d1) + _then(branch_pieces[i], A, B, E))
        pieces = out
    return pieces


def _preimage(A: int, B: int, E: int, n: int, d: int) -> tuple:
    """The reduced pair of ``x`` with ``(A·x + B)/E = n/d``, for ``A, d > 0``."""
    n, d = E * n - B * d, A * d
    g = math.gcd(n, d)
    return n // g, d // g


def _then(piece: tuple, A: int, B: int, E: int) -> tuple:
    """The branch piece ``(a, b, e, e·a)`` applied after ``(A·x + B)/E``, reduced."""
    a, b, e, _ea = piece
    A, B, E = a * A, a * B + b * E, e * E
    g = math.gcd(A, B, E)
    return A // g, B // g, E // g


def rescale_to_unit(m: LorenzMap, J: tuple, pieces: tuple) -> LorenzMap:
    """Return map on ``J = [u, v]``, affinely conjugated onto ``[0, 1]``.

    ``pieces = (left_pieces, right_pieces)`` are the :func:`word_pieces`
    of the return words, of lengths ``(ell, r)``, on ``[a, c]`` and
    ``[c, b]``, clipped here at ``u`` and ``v``.  Slopes are preserved by
    the conjugation, so each rescaled piece slope is the product of the
    composed piece slopes.  Pieces that do not cover ``[u, c]`` or
    ``[c, v]`` (an image of it crosses ``c`` before its return time, or
    the word is not that side's) raise :class:`ValueError`.

    The clip and the conjugation stay on integers.  With
    ``W = vn·ud - un·vd > 0`` for ``u = un/ud`` and ``v = vn/vd``, a point
    ``n/d`` goes to ``(n·ud - un·d)·vd / (d·W)``, and the piece
    ``(A·x + B)/E`` to slope ``A/E`` and intercept
    ``((A - E)·un + B·ud)·vd / (E·W)``; each becomes a ``Fraction``
    after one gcd.  Adjacent pieces with equal triples ``(A, B, E)`` are
    one affine map (the triples are reduced with ``E > 0``), and are
    merged before they are rescaled, so no two adjacent pieces of the
    inner map share their slope and intercept.
    """
    u, v = J
    if not (u < m.c < v):
        raise ValueError(f"{format_interval(u, v)} does not straddle c")
    if u < m.a or v > m.b:
        raise ValueError(f"{format_interval(u, v)} is not inside the domain")
    left_pieces, right_pieces = pieces
    un, ud, vn, vd = u.numerator, u.denominator, v.numerator, v.denominator
    w = vn * ud - un * vd

    def lowest(n, d):
        g = math.gcd(n, d)
        return reduced_fraction(n // g, d // g)

    def unit(n, d):
        return lowest((n * ud - un * d) * vd, d * w)

    def compose(pieces, lo, hi, lo_unit, hi_unit):
        lo_n, lo_d, hi_n, hi_d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        if (
            not pieces
            or pieces[0][0] * lo_d > lo_n * pieces[0][1]
            or pieces[-1][2] * hi_d < hi_n * pieces[-1][3]
        ):
            raise ValueError(
                f"{format_interval(lo, hi)} does not follow its return word"
            )
        bps, maps = [lo_unit], []
        for n0, d0, n1, d1, A, B, E in pieces:
            if n1 * lo_d <= lo_n * d1 or n0 * hi_d >= hi_n * d0:
                continue  # the piece lies outside [lo, hi]
            if maps:
                if maps[-1] == (A, B, E):
                    continue
                bps.append(unit(n0, d0))
            maps.append((A, B, E))
        bps.append(hi_unit)
        slopes = tuple(lowest(A, E) for A, B, E in maps)
        intercepts = tuple(lowest(((A - E) * un + B * ud) * vd, E * w) for A, B, E in maps)
        return BranchFn(tuple(bps), slopes, intercepts)

    c_new = unit(m.c.numerator, m.c.denominator)
    left = compose(left_pieces, u, m.c, ZERO, c_new)
    right = compose(right_pieces, m.c, v, c_new, ONE)
    return LorenzMap(ZERO, ONE, c_new, left, right)


# --- map families -----------------------------------------------------------


def symmetric_map(a: Scalar) -> LorenzMap:
    """The symmetric piecewise-linear family on ``[0, 1]`` with slope ``a``.

    Left branch ``a*x + 1 - a/2`` on ``[0, 1/2)``, right branch
    ``a*(x - 1/2)`` on ``(1/2, 1]``; Lorenz for ``1 < a <= 2``.
    """
    left = BranchFn.affine(ZERO, HALF, a, 1 - a / 2)
    right = BranchFn.affine(HALF, ONE, a, -a / 2)
    return LorenzMap(ZERO, ONE, HALF, left, right)


def beta_transformation(beta: Scalar, alpha: Scalar) -> LorenzMap:
    """``x -> beta*x + alpha mod 1`` as a Lorenz map on ``[0, 1]``.

    The discontinuity is ``c = (1 - alpha)/beta``; the construction
    requires ``0 < c < 1`` (otherwise there is no two-branch form), and
    :func:`validate_map` rejects parameter pairs whose branch images
    escape ``[0, 1]``.
    """
    c = (1 - alpha) / beta if beta else ZERO  # beta = 0 has no discontinuity
    if not (ZERO < c < ONE):
        raise InvalidInput("beta/alpha give no discontinuity inside (0, 1)")
    left = BranchFn.affine(ZERO, c, beta, alpha)
    right = BranchFn.affine(c, ONE, beta, alpha - 1)
    return LorenzMap(ZERO, ONE, c, left, right)


# each family's constructor and its parameters, in the order it takes
# them: the keys of its map files and its flags; a sweep varies the first
FAMILIES = {
    "symmetric": (symmetric_map, ("a",)),
    "beta": (beta_transformation, ("beta", "alpha")),
}


# --- plain-text map descriptions --------------------------------------------

# the branches of a map and the parts of a branch, in field order: a
# custom map file has a ``<side>_<part>`` line for each, and the echo a
# ``<side>`` entry of ``<part>`` lists
SIDES = ("left", "right")
PARTS = tuple(part.name for part in fields(BranchFn))


def parse_map_text(text: str) -> LorenzMap:
    """Build a map from a key-value description.

    Keys: ``family`` (symmetric | beta | custom); for symmetric and
    beta, the parameters :data:`FAMILIES` names; for custom: ``domain``
    (two endpoints), ``c``, and a ``<side>_<part>`` list for each of the
    :data:`SIDES` and :data:`PARTS`, read in that order.  Keys are read in
    lower case.  Scalars are ``p/q`` or decimal strings, read as exact
    rationals; a missing key, a malformed value (``p/0`` included) or a
    ``domain`` without two values raises ``InvalidInput``, and so does a
    repeated key or a key the family does not read.  No family reads a
    ``precision`` line: a value known only to finite precision decides
    no order of the analysis.
    """
    entries: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInput(f"expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in entries:
            raise InvalidInput(f"map file repeats the {key!r} line")
        entries[key] = value.strip()
    read = {"family"}

    def entry(key: str) -> str:
        read.add(key)
        if key not in entries:
            raise InvalidInput(f"map file has no {key!r} line")
        return entries[key]

    def scalar(key: str) -> Scalar:
        return parse_scalar(entry(key))

    def scalar_list(key: str) -> tuple:
        return tuple(parse_scalar(tok) for tok in entry(key).replace(",", " ").split())

    family = entries.get("family", "").lower()
    if family in FAMILIES:
        make, names = FAMILIES[family]
        m = make(*map(scalar, names))
    elif family == "custom":
        domain = scalar_list("domain")
        if len(domain) != 2:
            raise InvalidInput(f"'domain' needs two values, got {len(domain)}")
        c = scalar("c")
        branches = [BranchFn(*[scalar_list(f"{side}_{part}") for part in PARTS]) for side in SIDES]
        m = LorenzMap(*domain, c, *branches)
    else:
        raise InvalidInput(f"unknown family {family!r}")
    unread = sorted(entries.keys() - read)
    if unread:
        raise InvalidInput(f"family {family!r} reads no {unread[0]!r} line")
    return m


def describe_map(m: LorenzMap) -> dict:
    """JSON-ready echo of the map data (scalars as ``p/q`` strings): a
    custom map file's values, in the order :func:`parse_map_text` reads them."""
    echo = {"domain": [format_scalar(m.a), format_scalar(m.b)], "c": format_scalar(m.c)}
    for side in SIDES:
        branch = getattr(m, side)
        echo[side] = {part: list(map(format_scalar, getattr(branch, part))) for part in PARTS}
    return echo
