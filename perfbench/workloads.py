"""The four benchmark workloads: seeded inputs, set-up, items and checks.

Every workload turns a seed into inputs; the program only ever sees the
generated inputs.  ``setup`` builds what the timed pass needs and is
timed on its own.  An item is one unit of user-visible work (an
analysed map, a CSV row, a classification query) whose output text is
checked afterwards by invariants that need no oracle.

Why these four:

* ``ladder``: the deep-tower stress axis.  Symmetric slopes ``(q+1)/q``
  with 1 to 7 tower levels; exact-rational growth dominates, and the
  deepest rung writes a report of about 0.7 MB.
* ``sweep``: many shallow maps with small rationals, so per-call
  overhead and the prime-level pair walk dominate.
* ``classify``: towers are built in set-up; the timed queries read them
  through ``limits``, ``interval_dynamics`` and ``maps.evaluate``, and
  renormalization does no timed work.
* ``multipiece``: custom maps with several affine pieces per branch,
  the only inputs that reach internal breakpoints in composition,
  cylinders and fixed-point words.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import lorenzmap
from lorenzmap import cli
from lorenzmap.limits import DEFAULT_MEMBERSHIP_CAP

HALF = Fraction(1, 2)


@dataclass
class Item:
    """One unit of work: ``run`` returns the output text to be checked."""

    key: str
    group: str
    run: Callable[[], str]
    check: Callable[[str], list]


def run_cli(argv: list) -> str:
    """Run the CLI in-process and return its stdout; a non-zero exit raises."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {code}")
    return buf.getvalue()


def fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# --- checks shared by the analyze workloads -------------------------------


def check_report(output: str, c: Fraction, depth=None) -> list:
    """Invariants of one ``analyze`` report that need no oracle.

    Level intervals are nested in base coordinates; in every level's own
    frame ``e- <= u < c < v <= e+``, and the same order holds in base
    coordinates around the base ``c``.
    """
    report = json.loads(output)
    problems = []
    if report.get("status") != "ok" or not report["validation"]["valid"]:
        problems.append(f"status {report.get('status')}")
        return problems
    levels = report["tower"]["levels"]
    if depth is not None and len(levels) != depth:
        problems.append(f"tower has {len(levels)} levels, expected {depth}")
    frame_c, outer = c, None
    for level in levels:
        u, v = Fraction(level["u"]), Fraction(level["v"])
        em, ep = Fraction(level["e_minus"]), Fraction(level["e_plus"])
        if not (em <= u < frame_c < v <= ep):
            problems.append(f"level {level['index']}: e- <= u < c < v <= e+ fails")
        lo, hi = (Fraction(x) for x in level["interval_base"])
        emb, epb = Fraction(level["e_minus_base"]), Fraction(level["e_plus_base"])
        if not (emb <= lo < c < hi <= epb):
            problems.append(f"level {level['index']}: base-frame order fails")
        if outer is not None and not (
            outer[0] <= lo and hi <= outer[1] and (lo, hi) != outer
        ):
            problems.append(f"level {level['index']}: interval not nested")
        outer = (lo, hi)
        frame_c = (frame_c - u) / (v - u)
    return problems


# --- ladder ---------------------------------------------------------------

# Windows of slope denominators q for the rungs (q+1)/q.  All q in one
# window give the same tower depth (see ``symmetric_depth``): 1, 2, 3, 4,
# 6 and 7 levels.  Only primes are offered, because the cost of a rung
# follows the factorisation of q (powers of two reduce better), and the
# workload should cost the same whatever the seed.
LADDER_WINDOWS = (
    (3, 5),
    (7, 11),
    (13, 17, 19),
    (29, 31, 37, 41, 43),
    (97, 101, 103, 107, 109),
    (193, 197, 199),
)


def symmetric_depth(a: Fraction) -> int:
    """Tower depth of the symmetric map: least n with a**(2**(n+1)) > 2."""
    n, power = 0, a * a
    while power <= 2:
        n, power = n + 1, power * power
    return n


class Ladder:
    name = "ladder"
    tail = None  # too few items for a percentile beyond the median
    block = None  # rates are taken per whole pass, which keeps the item mix
    via_cli = True

    def __init__(self, seed: int, small: bool, workdir: Path):
        rng = random.Random(f"ladder:{seed}")
        windows = LADDER_WINDOWS[:2] if small else LADDER_WINDOWS
        self.slopes = [Fraction(q + 1, q) for q in map(rng.choice, windows)]

    def setup(self):
        for a in self.slopes:
            if not lorenzmap.validate_map(lorenzmap.symmetric_map(a)).valid:
                raise ValueError(f"ladder slope {fmt(a)} gives no valid map")
        return None

    def items(self, state) -> list:
        out = []
        for a in self.slopes:
            argv = ["analyze", "--family", "symmetric", "--a", fmt(a)]
            depth = symmetric_depth(a)
            out.append(
                Item(
                    f"a={fmt(a)}",
                    f"depth{depth}",
                    lambda argv=argv: run_cli(argv),
                    lambda o, d=depth: check_report(o, HALF, d),
                )
            )
        return out

    trace_items = items


# --- sweep ----------------------------------------------------------------

# beta + alpha must stay <= 2 up to the last beta row, 1909/1000
BETA_ALPHAS = (Fraction(1, 12), Fraction(1, 14), Fraction(1, 16), Fraction(1, 18))
SWEEP_STEP = Fraction(1, 100)
SWEEP_CSV_HEADER = "parameter,kappa,tower_length,periodic_flags,trichotomy,status"


def check_sweep_row(output: str, param: Fraction, family: str) -> list:
    """One-row sweep: header, status, and self-consistent tower columns."""
    lines = output.splitlines()
    if len(lines) != 2 or lines[0] != SWEEP_CSV_HEADER:
        return ["sweep output is not a header plus one row"]
    row = next(csv.DictReader(io.StringIO(output)))
    problems = []
    if row["status"] != "ok":
        problems.append(f"row status {row['status']}")
    if Fraction(row["parameter"]) != param:
        problems.append("parameter column does not echo the input")
    if not row["kappa"].isdigit() or int(row["kappa"]) < 1:
        problems.append("kappa is not a positive integer")
    length = int(row["tower_length"])
    flags = row["periodic_flags"].split(";") if row["periodic_flags"] else []
    if len(flags) != length or any(f not in ("P", "C") for f in flags):
        problems.append("periodic flags do not match the tower length")
    expected = {
        "P": "periodic-minimal-renorm",
        "C": "cantor-minimal-renorm",
    }.get(flags[0] if flags else "", None)
    if expected is not None and row["trichotomy"] != expected:
        problems.append("trichotomy does not match the first level")
    if expected is None and row["trichotomy"] not in ("prime", "prime-up-to-bound"):
        problems.append("empty tower with a renormalizable trichotomy")
    if family == "symmetric" and length != symmetric_depth(param):
        problems.append(f"tower length {length}, expected {symmetric_depth(param)}")
    return problems


class Sweep:
    name = "sweep"
    tail = 90
    block = None  # rates are taken per whole pass, which keeps the item mix
    via_cli = True

    def __init__(self, seed: int, small: bool, workdir: Path):
        rng = random.Random(f"sweep:{seed}")
        # a last digit coprime to 10 keeps every slope's denominator at
        # 1000, so the rationals, and the cost, are alike for every seed
        offset = Fraction(rng.choice((1, 3, 7, 9)), 1000)
        self.alpha = rng.choice(BETA_ALPHAS)
        sym = [Fraction(105, 100) + offset + i * SWEEP_STEP for i in range(95)]
        beta = [Fraction(110, 100) + offset + i * SWEEP_STEP for i in range(81)]
        if small:
            sym, beta = sym[:4], beta[:4]
        self.rows = [("symmetric", p) for p in sym] + [("beta", p) for p in beta]

    def setup(self):
        for family, p in self.rows:
            m = (
                lorenzmap.symmetric_map(p)
                if family == "symmetric"
                else lorenzmap.beta_transformation(p, self.alpha)
            )
            if not lorenzmap.validate_map(m).valid:
                raise ValueError(f"sweep row {family} {fmt(p)} gives no valid map")
        return None

    def items(self, state) -> list:
        out = []
        for family, p in self.rows:
            argv = ["sweep", "--family", family, "--start", fmt(p), "--end", fmt(p)]
            argv += ["--step", fmt(SWEEP_STEP)]
            if family == "beta":
                argv += ["--alpha", fmt(self.alpha)]
            out.append(
                Item(
                    f"{family}:{fmt(p)}",
                    family,
                    lambda argv=argv: run_cli(argv),
                    lambda o, p=p, f=family: check_sweep_row(o, p, f),
                )
            )
        return out

    trace_items = items


# --- classify -------------------------------------------------------------

CLASSIFY_SLOPES = (Fraction(21, 20), Fraction(101, 100))
CLASSIFY_QUERIES = 6000
CLASSIFY_TRACE_QUERIES = 400
QUERY_DENOMINATOR = 10**6


def raw_symmetric_orbit_check(a: Fraction, x: Fraction, gap: tuple, status: str, steps, cap: int) -> list:
    """Re-run a membership query with the bare affine formula.

    ``f(y) = a*y + 1 - a/2`` left of ``1/2`` and ``a*y - a/2`` right of
    it, on unreduced integer fractions ``n/d``, so that nothing of the
    library's evaluation path is reused.
    """
    p, q = a.numerator, a.denominator
    n, d = x.numerator, x.denominator
    lo, hi = gap
    seen = set()
    limit = steps if status in ("out", "in") else cap
    for step in range(limit + 1):
        inside = lo.numerator * d < n * lo.denominator and n * hi.denominator < hi.numerator * d
        if inside:
            if status == "out" and step == steps:
                return []
            return [f"orbit enters the gap at step {step}, reported {status} {steps}"]
        if status == "in":
            y = Fraction(n, d)
            if y in seen:
                return [] if step == steps else [f"cycle closes at {step}, reported {steps}"]
            seen.add(y)
        if 2 * n == d:
            return ["orbit hit the discontinuity outside the gap"]
        if 2 * n < d:
            n, d = 2 * p * n + (2 * q - p) * d, 2 * q * d
        else:
            n, d = 2 * p * n - p * d, 2 * q * d
    if status == "undetermined":
        return []
    return [f"reported {status} at step {steps}, not confirmed"]


def check_classify(output: str, a: Fraction, x: Fraction, tower, unions) -> list:
    label, status, steps = output.split()
    expected = "I"
    for i, union in enumerate(unions, start=1):
        if not any(lo <= x <= hi for lo, hi in union.pairs()):
            expected = f"E_{i}"
            break
    problems = []
    if label != expected:
        problems.append(f"class {label}, unions say {expected}")
    level = int(expected[2:]) if expected != "I" else len(tower.levels)
    gap = tower.levels[level - 1].interval
    steps = None if steps == "None" else int(steps)
    problems += raw_symmetric_orbit_check(a, x, gap, status, steps, DEFAULT_MEMBERSHIP_CAP)
    return problems


class Classify:
    name = "classify"
    tail = 99
    block = 500  # queries are independent and alike: rates per 500 queries
    via_cli = False

    def __init__(self, seed: int, small: bool, workdir: Path):
        # One point from each of CLASSIFY_QUERIES equal strata of (0, 1),
        # in seeded order: a run that gets through only part of the list
        # still samples the whole interval, and the tail latency depends
        # little on the seed.
        rng = random.Random(f"classify:{seed}")
        width = QUERY_DENOMINATOR // CLASSIFY_QUERIES
        strata = list(range(CLASSIFY_QUERIES))
        rng.shuffle(strata)
        self.queries = [
            (k % len(CLASSIFY_SLOPES), Fraction(s * width + rng.randrange(1, width), QUERY_DENOMINATOR))
            for k, s in enumerate(strata[:40] if small else strata)
        ]

    def setup(self):
        state = []
        for a in CLASSIFY_SLOPES:
            m = lorenzmap.symmetric_map(a)
            if not lorenzmap.validate_map(m).valid:
                raise ValueError(f"classify slope {fmt(a)} gives no valid map")
            tower = lorenzmap.renorm_tower(m)
            state.append((a, m, tower, lorenzmap.orbit_unions(m, tower)))
        return state

    def _items(self, state, queries) -> list:
        out = []
        for k, (which, x) in enumerate(queries):
            a, m, tower, unions = state[which]
            out.append(
                Item(
                    f"q{k}",
                    fmt(a),
                    lambda m=m, tower=tower, unions=unions, x=x: query(m, tower, unions, x),
                    lambda o, a=a, x=x, t=tower, u=unions: check_classify(o, a, x, t, u),
                )
            )
        return out

    def items(self, state) -> list:
        return self._items(state, self.queries)

    def trace_items(self, state) -> list:
        return self._items(state, self.queries[:CLASSIFY_TRACE_QUERIES])


def query(m, tower, unions, x) -> str:
    """``alpha_classify`` then ``membership_E`` for the class's level."""
    klass = lorenzmap.alpha_classify(m, tower, x, unions)
    level = klass.index if klass.index is not None else len(tower.levels)
    result = lorenzmap.membership_E(m, tower, level, x)
    return f"{klass.label()} {result.status.value} {result.steps}"


# --- multipiece -----------------------------------------------------------

MULTIPIECE_MAPS = 72
# Base slopes run from prime (8/5) to two or three tower levels (16/15).
# Maps in even groups of six keep c = 1/2 and the branch end values of
# the symmetric map, so that they renormalize and their fixed-point
# words cross internal breakpoints.  Maps in odd groups move c, except
# on the flattest base, where a moved c gives periods of 20 and more
# whose cost swings widely with the seed; the largest shift raises the
# minimal period to 7 or 9 and with it the cylinder work in ``periods``.
# Base, c and piece counts are fixed per corpus entry and the seed draws
# only breakpoints and slope perturbations, so the corpus costs about
# the same for every seed.
MULTIPIECE_BASES = (
    Fraction(8, 5), Fraction(13, 10), Fraction(5, 4),
    Fraction(23, 20), Fraction(9, 8), Fraction(16, 15),
)
MULTIPIECE_C_SHIFTS = (Fraction(-1, 40), Fraction(1, 40), Fraction(-1, 20))
MULTIPIECE_SHIFT_MIN_BASE = Fraction(11, 10)


def _branch(rng, lo: Fraction, hi: Fraction, pieces: int, base: Fraction, y_lo: Fraction):
    """Continuous increasing branch from ``(lo, y_lo)`` rising by ``base*(hi-lo)``.

    Slopes are ``1 + (base - 1)*(1 + d)`` with ``|d| <= 1/16``; the last
    piece takes up the rest of the rise and must stay steeper than 1.
    Larger perturbations change the tower depth from seed to seed.
    """
    width = hi - lo
    while True:
        cuts = sorted(rng.sample(range(1, 8), pieces - 1))
        bps = [lo] + [lo + width * Fraction(i, 8) for i in cuts] + [hi]
        slopes = [1 + (base - 1) * (1 + Fraction(rng.randint(-1, 1), 16)) for _ in range(pieces - 1)]
        rest = base * width - sum(s * (bps[i + 1] - bps[i]) for i, s in enumerate(slopes))
        last = rest / (bps[-1] - bps[-2])
        if last > 1:
            break
    slopes.append(last)
    y, intercepts = y_lo, []
    for i, s in enumerate(slopes):
        intercepts.append(y - s * bps[i])
        y += s * (bps[i + 1] - bps[i])
    return bps, slopes, intercepts


def multipiece_map_text(rng, k: int) -> str:
    """Map file of corpus entry ``k``; see ``MULTIPIECE_BASES`` for the mix."""
    base = MULTIPIECE_BASES[k % len(MULTIPIECE_BASES)]
    shifted = (k // 6) % 2 and base > MULTIPIECE_SHIFT_MIN_BASE
    c = HALF + (MULTIPIECE_C_SHIFTS[(k // 12) % 3] if shifted else 0)
    left_pieces = 1 + (k // 12) % 3
    right_pieces = 1 + (k + k // 12) % 3
    left = _branch(rng, Fraction(0), c, left_pieces, base, 1 - base * c)
    right = _branch(rng, c, Fraction(1), right_pieces, base, Fraction(0))
    lines = ["family = custom", "domain = 0 1", f"c = {fmt(c)}"]
    for side, (bps, slopes, intercepts) in (("left", left), ("right", right)):
        lines.append(f"{side}_breakpoints = " + " ".join(map(fmt, bps)))
        lines.append(f"{side}_slopes = " + " ".join(map(fmt, slopes)))
        lines.append(f"{side}_intercepts = " + " ".join(map(fmt, intercepts)))
    return "\n".join(lines) + "\n"


def check_multipiece(output: str, text: str) -> list:
    m = lorenzmap.parse_map_text(text)
    problems = check_report(output, m.c)
    if problems:
        return problems
    report = json.loads(output)
    echo = report["map"]
    for side, branch in (("left", m.left), ("right", m.right)):
        if [Fraction(x) for x in echo[side]["slopes"]] != list(branch.slopes):
            problems.append(f"{side} slopes not echoed")
    return problems


class Multipiece:
    name = "multipiece"
    tail = 90
    block = None  # rates are taken per whole pass, which keeps the item mix
    via_cli = True

    def __init__(self, seed: int, small: bool, workdir: Path):
        rng = random.Random(f"multipiece:{seed}")
        count = 4 if small else MULTIPIECE_MAPS
        self.texts = [multipiece_map_text(rng, k) for k in range(count)]
        # the map files are inputs, written once and outside the timed set-up
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = [workdir / f"map{k:02d}.txt" for k in range(count)]
        for path, text in zip(self.paths, self.texts):
            path.write_text(text, encoding="utf-8")

    def setup(self):
        for k, path in enumerate(self.paths):
            m = lorenzmap.parse_map_text(path.read_text(encoding="utf-8"))
            if not lorenzmap.validate_map(m).valid:
                raise ValueError(f"multipiece map {k} is not valid")
        return self.paths

    def items(self, paths) -> list:
        out = []
        for k, (path, text) in enumerate(zip(paths, self.texts)):
            argv = ["analyze", "--map-file", path.as_posix()]
            out.append(
                Item(
                    f"map{k:02d}",
                    "custom",
                    lambda argv=argv: run_cli(argv),
                    lambda o, text=text: check_multipiece(o, text),
                )
            )
        return out

    trace_items = items


WORKLOADS = {w.name: w for w in (Ladder, Sweep, Classify, Multipiece)}
