"""Expanding Lorenz maps with piecewise-affine branches.

A Lorenz map on ``[a, b]`` has one discontinuity ``c``: it is strictly
increasing on ``[a, c)`` and on ``(c, b]``, with one-sided limits
``f(c-) = b`` and ``f(c+) = a``.  The discontinuity is treated as the
point pair ``c-`` / ``c+`` throughout: an orbit that lands exactly on
``c`` continues as the one-sided limit it was carried with.

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
decision is exact.  Every exact point evaluation is one integer step on
a reduced pair (:meth:`BranchFn.step`): :meth:`BranchFn.value`,
:func:`evaluate` and :func:`sided_step`, and through them the exact
orbits of :mod:`~lorenzmap.orbits` and :mod:`~lorenzmap.limits`.  Each
branch holds one integer piece table (:meth:`BranchFn.integer_pieces`),
which the dyadic enclosures of the critical orbits read too.
:func:`parse_map_text` is where finite-precision input is refused: a
map file with a ``precision`` line raises
:class:`~lorenzmap.numerics.PrecisionExhausted` once the file has parsed.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .numerics import (
    PrecisionExhausted,
    Scalar,
    format_interval,
    format_scalar,
    parse_scalar,
    reduced_fraction,
)

HALF = Fraction(1, 2)
ONE = Fraction(1)
ZERO = Fraction(0)


class SideRequired(Exception):
    """Evaluation at the discontinuity needs an explicit side."""


class IntervalDoesNotStraddleC(Exception):
    """The interval must contain the discontinuity in its interior."""


class CapExceeded(Exception):
    """An iteration guard was hit before the sought event occurred."""


class Side(enum.Enum):
    MINUS = "-"
    PLUS = "+"


class BranchLabel(enum.Enum):
    LEFT = "L"
    RIGHT = "R"


@dataclass(frozen=True)
class SidedPoint:
    """A point plus the side it is approached from.

    The side matters only when ``x`` equals the discontinuity; it is
    carried along orbits so that landing exactly on ``c`` continues as
    ``c-`` or ``c+``.
    """

    x: Scalar
    side: Optional[Side] = None

    def __str__(self) -> str:
        tag = self.side.value if self.side else ""
        return f"{format_scalar(self.x)}{tag}"


def as_sided(p) -> SidedPoint:
    if isinstance(p, SidedPoint):
        return p
    return SidedPoint(p)


@dataclass(frozen=True)
class BranchFn:
    """One monotone branch assembled from affine pieces.

    ``breakpoints`` are strictly increasing and tile the closed branch
    domain; piece ``i`` is ``x -> slopes[i]*x + intercepts[i]`` on
    ``[breakpoints[i], breakpoints[i+1]]``.  Adjacent pieces agree at the
    shared breakpoint, so evaluation anywhere on the closed domain is
    unambiguous; the value at the domain end adjacent to ``c`` is the
    one-sided limit there.
    """

    breakpoints: tuple
    slopes: tuple
    intercepts: tuple

    def __post_init__(self):
        if len(self.breakpoints) != len(self.slopes) + 1:
            raise ValueError("need one more breakpoint than pieces")
        if len(self.slopes) != len(self.intercepts):
            raise ValueError("slopes and intercepts must pair up")
        if not self.slopes:
            raise ValueError("branch needs at least one piece")
        # set here, not on first use, so that every branch holds the same
        # attributes in the same order and attribute loads stay fast
        object.__setattr__(self, "_integer_pieces", None)

    @classmethod
    def affine(cls, lo: Scalar, hi: Scalar, slope: Scalar, intercept: Scalar):
        return cls((lo, hi), (slope,), (intercept,))

    @property
    def lo(self) -> Scalar:
        return self.breakpoints[0]

    @property
    def hi(self) -> Scalar:
        return self.breakpoints[-1]

    def value(self, x: Scalar) -> Scalar:
        """The branch at ``x`` on its closed domain: :meth:`step` on ``x``'s pair."""
        if x < self.breakpoints[0]:
            raise ValueError(f"{format_scalar(x)} below branch domain")
        if x > self.breakpoints[-1]:
            raise ValueError(f"{format_scalar(x)} above branch domain")
        return reduced_fraction(*self.step(x.numerator, x.denominator))

    def integer_pieces(self) -> tuple:
        """``(cuts, pieces)``: the branch's pieces on integers, computed once.

        ``cuts`` are the internal breakpoints as ``(numerator,
        denominator)``; piece ``s·x + t`` is ``(A, B, E, E·A)`` with
        ``E = lcm(den s, den t)``, ``A = E·s`` and ``B = E·t``.  Every
        exact evaluation (:meth:`step`) and every dyadic enclosure of
        :mod:`~lorenzmap.orbits` reads this one table.
        """
        if self._integer_pieces is None:
            cuts = tuple((x.numerator, x.denominator) for x in self.breakpoints[1:-1])
            pieces = []
            for s, t in zip(self.slopes, self.intercepts):
                e = math.lcm(s.denominator, t.denominator)
                a = s.numerator * (e // s.denominator)
                pieces.append((a, t.numerator * (e // t.denominator), e, e * a))
            object.__setattr__(self, "_integer_pieces", (cuts, tuple(pieces)))
        return self._integer_pieces

    def step(self, n: int, d: int) -> tuple:
        """The branch at ``n/d`` as a reduced pair, for ``gcd(n, d) == 1``, ``d > 0``.

        Piece ``s·x + t`` maps ``n/d`` to ``N / (E·d)`` with
        ``N = A·n + B·d`` (see :meth:`integer_pieces`).  A common factor
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
        cuts, pieces = self._integer_pieces or self.integer_pieces()
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

    def canonical(self) -> "BranchFn":
        """Merge adjacent pieces that share the same affine map."""
        bps = [self.breakpoints[0]]
        slopes: list = []
        intercepts: list = []
        for i, (s, t) in enumerate(zip(self.slopes, self.intercepts)):
            if slopes and s == slopes[-1] and t == intercepts[-1]:
                bps[-1] = self.breakpoints[i + 1]
                continue
            slopes.append(s)
            intercepts.append(t)
            bps.append(self.breakpoints[i + 1])
        return BranchFn(tuple(bps), tuple(slopes), tuple(intercepts))


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

    def __post_init__(self):
        # the map's critical-orbit pair, filled by orbits.critical_pair
        object.__setattr__(self, "_critical", None)

    def canonical(self) -> "LorenzMap":
        return LorenzMap(
            self.a, self.b, self.c, self.left.canonical(), self.right.canonical()
        )

    def same_map(self, other: "LorenzMap") -> bool:
        """Exact semantic equality (after merging collinear pieces)."""
        s, o = self.canonical(), other.canonical()
        return (
            (s.a, s.b, s.c) == (o.a, o.b, o.c)
            and s.left == o.left
            and s.right == o.right
        )

    def __str__(self) -> str:
        return (
            f"LorenzMap on [{format_scalar(self.a)}, {format_scalar(self.b)}], "
            f"c = {format_scalar(self.c)}"
        )


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def valid(self) -> bool:
        return not self.violations


def validate_map(m: LorenzMap) -> ValidationReport:
    """Check the Lorenz-map invariants; violations become report entries.

    Expanding is certified via min slope > 1, which is sufficient for
    dense preimages of the discontinuity.
    """
    bad: list[str] = []

    if not (m.a < m.c < m.b):
        bad.append("domain order violated: need a < c < b")
        return ValidationReport(tuple(bad))

    for name, br, lo, hi in (
        ("left", m.left, m.a, m.c),
        ("right", m.right, m.c, m.b),
    ):
        if br.lo != lo or br.hi != hi:
            bad.append(f"{name} branch domain does not tile its side of the domain")
            continue
        bps = br.breakpoints
        monotone_domain = all(bps[i] < bps[i + 1] for i in range(len(bps) - 1))
        if not monotone_domain:
            bad.append(f"{name} branch breakpoints are not strictly increasing")
            continue
        for i, s in enumerate(br.slopes):
            if s <= ZERO:
                bad.append(f"{name} branch piece {i} is not strictly increasing")
            elif s <= ONE:
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

    if any("domain" in v or "increasing" in v for v in bad):
        return ValidationReport(tuple(bad))

    left_limit = m.left.value(m.c)
    if left_limit != m.b:
        bad.append(
            f"left limit at c is {format_scalar(left_limit)}, expected b = "
            f"{format_scalar(m.b)}"
        )
    right_limit = m.right.value(m.c)
    if right_limit != m.a:
        bad.append(
            f"right limit at c is {format_scalar(right_limit)}, expected a = "
            f"{format_scalar(m.a)}"
        )

    fa = m.left.value(m.a)
    if not (m.a <= fa <= m.b):
        bad.append(f"f(a) = {format_scalar(fa)} escapes the domain")
    fb = m.right.value(m.b)
    if not (m.a <= fb <= m.b):
        bad.append(f"f(b) = {format_scalar(fb)} escapes the domain")

    return ValidationReport(tuple(bad))


def sided_step(m: LorenzMap, n: int, d: int, side: Optional[Side] = None) -> tuple:
    """``f(n/d)`` as a reduced pair, for a reduced pair ``n/d`` in ``[a, b]``.

    The branch is picked by cross-multiplying against ``c`` and applied
    with :meth:`BranchFn.step`; at ``c`` the side decides, ``f(c-) = b``
    and ``f(c+) = a``, and without one :class:`SideRequired` is raised.
    The branches map ``[a, b]`` into itself, so an orbit checked against
    the domain once stays in it.
    """
    c = m.c
    cross = n * c.denominator - c.numerator * d
    if cross < 0:
        return m.left.step(n, d)
    if cross > 0:
        return m.right.step(n, d)
    if side is Side.MINUS:
        return m.b.numerator, m.b.denominator
    if side is Side.PLUS:
        return m.a.numerator, m.a.denominator
    raise SideRequired("evaluation at c needs an explicit side")


def evaluate(m: LorenzMap, p) -> Scalar:
    """Sided evaluation: ``f(c-) = b`` and ``f(c+) = a`` exactly."""
    p = as_sided(p)
    x = p.x
    if not (m.a <= x <= m.b):
        raise ValueError(f"{format_scalar(x)} outside the domain")
    return reduced_fraction(*sided_step(m, x.numerator, x.denominator, p.side))


def iterate(m: LorenzMap, p, n: int) -> SidedPoint:
    """Apply the map ``n`` times, carrying the side through exact hits of ``c``."""
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    p = as_sided(p)
    return SidedPoint(orbit_values(m, p, n)[-1], p.side)


def orbit_values(m: LorenzMap, p, length: int) -> list:
    """Values ``[x, f(x), ..., f^length(x)]`` along a sided orbit."""
    p = as_sided(p)
    x, side = p.x, p.side
    values = [x]
    for _ in range(length):
        x = evaluate(m, SidedPoint(x, side))
        values.append(x)
    return values


def inverse_images(m: LorenzMap, y: Scalar) -> list:
    """All preimages of ``y``: 0, 1, or 2 results, ascending.

    A point has two preimages exactly when it lies in ``[f(a), f(b)]``.
    The boundary values are reached only as one-sided limits, so
    ``y = b`` yields ``c-`` on the left branch and ``y = a`` yields
    ``c+`` on the right branch.
    """
    if not (m.a <= y <= m.b):
        raise ValueError(f"{format_scalar(y)} outside the domain")
    results = []
    x = m.left.solve(y)
    if x is not None:
        if x == m.c:
            results.append((SidedPoint(m.c, Side.MINUS), BranchLabel.LEFT))
        else:
            results.append((SidedPoint(x), BranchLabel.LEFT))
    x = m.right.solve(y)
    if x is not None:
        if x == m.c:
            results.append((SidedPoint(m.c, Side.PLUS), BranchLabel.RIGHT))
        else:
            results.append((SidedPoint(x), BranchLabel.RIGHT))
    return results


def word_pieces(m: LorenzMap, word, lo: Scalar, hi: Scalar) -> list:
    """Pieces of ``f^len(word)`` on the points of ``[lo, hi]`` that follow ``word``.

    A point follows ``word`` when its ``k``-th image lies in the closed
    domain of branch ``word[k]`` for every ``k``: ``[a, c]`` for
    :attr:`BranchLabel.LEFT`, read with ``c-``, and ``[c, b]`` for
    :attr:`BranchLabel.RIGHT`, read with ``c+``.  Each piece is
    ``(x0, x1, s, t)`` with ``f^len(word)(x) = s*x + t`` on ``[x0, x1]``;
    the pieces are ascending and tile those points, and an unrealized
    word gives ``[]``.  A word followed by a single point only counts as
    unrealized, so every piece has ``x0 < x1``.  Needs ``lo < hi`` and a
    valid map.

    The points that follow a word form one closed interval: each step
    keeps the part of an interval whose image lies in one branch domain,
    and that branch is increasing.  So the image at every step is one
    interval, and it crosses at most ``k - 1`` internal breakpoints of a
    branch with ``k`` pieces; those are the only cuts.  Every slope is
    > 1, so no image of a non-degenerate piece is a single point, and
    ``f^n`` has at most ``1 + n·(k - 1)`` pieces, with ``k`` the larger
    piece count of the two branches.
    """
    pieces = [(lo, hi, ONE, ZERO)]
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


def rescale_to_unit(m: LorenzMap, J: tuple, pieces: tuple) -> LorenzMap:
    """Return map on ``J = [u, v]``, affinely conjugated onto ``[0, 1]``.

    ``pieces = (left_pieces, right_pieces)`` are the :func:`word_pieces`
    of the return words, of lengths ``(ell, r)``, on ``[a, c]`` and
    ``[c, b]``, clipped here at ``u`` and ``v``.  Slopes are preserved by
    the conjugation, so each rescaled piece slope is the product of the
    composed piece slopes.  Pieces that do not cover ``[u, c]`` or
    ``[c, v]`` (an image of it crosses ``c`` before its return time, or
    the word is not that side's) raise :class:`IntervalDoesNotStraddleC`.
    """
    u, v = J
    if not (u < m.c < v):
        raise IntervalDoesNotStraddleC(f"{format_interval(u, v)} does not straddle c")
    if u < m.a or v > m.b:
        raise ValueError(f"{format_interval(u, v)} is not inside the domain")
    left_pieces, right_pieces = pieces

    width = v - u

    def compose(pieces, lo, hi):
        if not pieces or pieces[0][0] > lo or pieces[-1][1] < hi:
            raise IntervalDoesNotStraddleC(
                f"{format_interval(lo, hi)} does not follow its return word"
            )
        pieces = [p for p in pieces if p[1] > lo and p[0] < hi]
        bps = [(max(p[0], lo) - u) / width for p in pieces] + [(hi - u) / width]
        slopes = tuple(p[2] for p in pieces)
        intercepts = tuple((p[2] * u + p[3] - u) / width for p in pieces)
        return BranchFn(tuple(bps), slopes, intercepts).canonical()

    left = compose(left_pieces, u, m.c)
    right = compose(right_pieces, m.c, v)
    c_new = (m.c - u) / width
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
        raise ValueError("beta/alpha give no discontinuity inside (0, 1)")
    left = BranchFn.affine(ZERO, c, beta, alpha)
    right = BranchFn.affine(c, ONE, beta, alpha - 1)
    return LorenzMap(ZERO, ONE, c, left, right)


# --- plain-text map descriptions --------------------------------------------


def parse_map_text(text: str) -> LorenzMap:
    """Build a map from a key-value description.

    Keys: ``family`` (symmetric | beta | custom); ``a`` for symmetric;
    ``beta``/``alpha`` for beta; for custom: ``domain`` (two endpoints),
    ``c``, and per-branch ``<side>_breakpoints``, ``<side>_slopes``,
    ``<side>_intercepts`` lists.  Scalars are ``p/q`` or decimal strings,
    read as exact rationals; a missing key or a malformed value (``p/0``
    included) raises :class:`ValueError`.

    A ``precision = N`` line says the values are known only to ``N``
    significant digits.  No order relation of the analysis can be
    certified for such a map, so once the file has parsed
    :class:`~lorenzmap.numerics.PrecisionExhausted` is raised instead of
    returning it, whatever the family.
    """
    entries: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip().lower()] = value.strip()

    def entry(key: str) -> str:
        if key not in entries:
            raise ValueError(f"map file has no {key!r} line")
        return entries[key]

    def scalar(key: str) -> Scalar:
        return parse_scalar(entry(key))

    def scalar_list(key: str) -> tuple:
        return tuple(parse_scalar(tok) for tok in entry(key).replace(",", " ").split())

    family = entries.get("family", "").lower()
    if family == "symmetric":
        m = symmetric_map(scalar("a"))
    elif family == "beta":
        m = beta_transformation(scalar("beta"), scalar("alpha"))
    elif family == "custom":
        lo, hi = scalar_list("domain")
        c = scalar("c")
        left = BranchFn(
            scalar_list("left_breakpoints"),
            scalar_list("left_slopes"),
            scalar_list("left_intercepts"),
        )
        right = BranchFn(
            scalar_list("right_breakpoints"),
            scalar_list("right_slopes"),
            scalar_list("right_intercepts"),
        )
        m = LorenzMap(lo, hi, c, left, right)
    else:
        raise ValueError(f"unknown family {family!r}")
    if "precision" in entries:
        digits = int(entries["precision"])
        raise PrecisionExhausted(
            f"map values are known to {digits} significant digits only; "
            "the analysis needs exact rationals to certify its order relations"
        )
    return m


def describe_map(m: LorenzMap) -> dict:
    """JSON-ready echo of the map data (scalars as ``p/q`` strings)."""

    def branch(br: BranchFn) -> dict:
        return {
            "breakpoints": [format_scalar(x) for x in br.breakpoints],
            "slopes": [format_scalar(x) for x in br.slopes],
            "intercepts": [format_scalar(x) for x in br.intercepts],
        }

    return {
        "domain": [format_scalar(m.a), format_scalar(m.b)],
        "c": format_scalar(m.c),
        "left": branch(m.left),
        "right": branch(m.right),
    }
