"""Command-line front end: analyze one map, classify a point, sweep a family.

Single-map reports are JSON (nested), sweeps are CSV (tabular); every
scalar is emitted as an exact ``p/q`` string, so identical inputs and
configuration reproduce reports byte for byte.  The sections of an
``analyze`` report hold the analysis's ``Fraction`` values themselves;
:func:`write_json` formats each of them once, as it streams the report
to stdout with the bytes of ``json.dumps(report, indent=2)``, so the
report is never held as one string.  Exit codes: 0 success,
2 invalid map or input, 3 precision exhausted, 4 cap exceeded.  A
failed validation or a period cap is a result, whose report carries
the ``status``; :func:`main` maps the input errors of every command to
exit codes through :data:`EXIT_FOR_ERROR`, in one place, and any other
exception is a traceback.  ``precision_bits`` is only echoed in the
configuration: every scalar is exact.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from .numerics import (
    MAX_DIGITS,
    InvalidInput,
    PrecisionExhausted,
    format_scalar,
    parse_int,
    parse_scalar,
)
from .maps import (
    LorenzMap,
    beta_transformation,
    describe_map,
    parse_map_text,
    symmetric_map,
    validate_map,
)
from .periods import DEFAULT_BACKWARD_CAP, minimal_period, minimal_periodic_orbit
from .renorm import (
    DEFAULT_LEVEL_CAP,
    DEFAULT_PAIR_BOUND,
    Tower,
    TowerTerminal,
    decide_trichotomy,
    renorm_tower,
)
from .limits import alpha_classify, omega_decomposition, orbit_unions, outer_union

DEFAULTS = {
    "l_max": DEFAULT_PAIR_BOUND,
    "level_cap": DEFAULT_LEVEL_CAP,
    "hit_cap": DEFAULT_BACKWARD_CAP,
    "precision_bits": 4096,
}

# below these, the pair search or the tower searches nothing and would
# still report "prime-up-to-bound", and the backward chain checks no point
MINIMA = {"l_max": 2, "level_cap": 1, "hit_cap": 0}

SWEEP_COLUMNS = [
    "parameter",
    "kappa",
    "tower_length",
    "periodic_flags",
    "trichotomy",
    "status",
]

EXIT_OK = 0
EXIT_INVALID_MAP = 2
EXIT_PRECISION = 3
EXIT_CAP = 4

STATUS_FOR_EXIT = {
    EXIT_OK: "ok",
    EXIT_INVALID_MAP: "invalid-map",
    EXIT_PRECISION: "precision-exhausted",
    EXIT_CAP: "cap-exceeded",
}

# the errors main maps: the package's two types and an unreadable map file
EXIT_FOR_ERROR = {
    PrecisionExhausted: EXIT_PRECISION,
    InvalidInput: EXIT_INVALID_MAP,
    OSError: EXIT_INVALID_MAP,
}


@dataclass(frozen=True)
class Config:
    l_max: int
    level_cap: int
    hit_cap: int
    precision_bits: int

    def echo(self) -> dict:
        return asdict(self)


def resolve_config(args: argparse.Namespace) -> Config:
    """The settings of the flags (their defaults are :data:`DEFAULTS`), checked."""
    config = Config(**{key: getattr(args, key) for key in DEFAULTS})
    for key, least in MINIMA.items():
        value = getattr(config, key)
        if value < least:
            raise InvalidInput(f"{key} must be at least {least}, got {value}")
    return config


def build_map(args: argparse.Namespace) -> tuple:
    """Construct the map from flags or a map file; returns (map, echo)."""
    if getattr(args, "map_file", None):
        with open(args.map_file, "r", encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as err:  # a file that is not UTF-8
                raise InvalidInput(str(err)) from None
        m = parse_map_text(text)
        return m, {"source": args.map_file, **describe_map(m)}
    family = getattr(args, "family", None)
    if family == "symmetric":
        if args.a is None:
            raise InvalidInput("--family symmetric needs --a")
        a = parse_scalar(args.a)
        m = symmetric_map(a)
        return m, {"family": "symmetric", "a": format_scalar(a), **describe_map(m)}
    if family == "beta":
        if args.beta is None or args.alpha is None:
            raise InvalidInput("--family beta needs --beta and --alpha")
        beta, alpha = parse_scalar(args.beta), parse_scalar(args.alpha)
        m = beta_transformation(beta, alpha)
        return m, {
            "family": "beta",
            "beta": format_scalar(beta),
            "alpha": format_scalar(alpha),
            **describe_map(m),
        }
    raise InvalidInput("need --family symmetric|beta with parameters, or --map-file")


def _orbit_dict(orbit) -> dict:
    return {
        "points": orbit.points,
        "period": orbit.period,
        "itinerary": orbit.itinerary,
        "flank_left": orbit.flank_left,
        "flank_right": orbit.flank_right,
    }


def _tower_dict(tower: Tower) -> dict:
    levels = []
    for level in tower.levels:
        step = level.step
        levels.append(
            {
                "index": level.index,
                "ell": step.ell,
                "r": step.r,
                "u": step.u,
                "v": step.v,
                "e_minus": step.e_minus,
                "e_plus": step.e_plus,
                "periodic": step.periodic,
                "interval_base": level.interval,
                "e_minus_base": level.e_minus,
                "e_plus_base": level.e_plus,
                "return_left": level.return_left,
                "return_right": level.return_right,
                "inner_slopes": {
                    "left": step.inner_map.left.slopes,
                    "right": step.inner_map.right.slopes,
                },
            }
        )
    return {
        "levels": levels,
        "terminal": tower.terminal.value,
        "bound": tower.bound,
        "level_cap": tower.level_cap,
    }


def _omega_dict(omega) -> dict:
    return {
        "parts": [
            {
                "level": part.level,
                "periodic": part.periodic,
                "exact": part.exact,
                "points": part.points,
            }
            for part in omega.parts
        ],
        "attractor": omega.attractor.components,
        "flags": list(omega.flags),
    }


def analyze_map(m: LorenzMap, echo: dict, config: Config, full: bool = True) -> tuple:
    """The report, or only its summary stages; returns (report, exit_code).

    The summary stages (validation, minimal period, tower, trichotomy)
    decide every column of a CSV row.  Only a ``full`` report runs the
    report stages, the minimal orbit, the orbit unions and the
    ω-decomposition, and echoes the configuration.  The analysis
    sections hold ``Fraction``s, which :func:`write_json` writes as
    ``p/q`` strings; the map echo holds those strings already.
    """
    report: dict = {"status": "ok", "map": echo}
    validation = validate_map(m)
    report["validation"] = {
        "valid": validation.valid,
        "violations": list(validation.violations),
    }
    exit_code = EXIT_INVALID_MAP
    if validation.valid:
        period = minimal_period(m, config.hit_cap)
        report["kappa"] = period.kappa
        report["backward_steps"] = period.m
        report["backward_chain"] = period.backward_chain
        report["orbit"] = None  # keeps its slot in the key order; filled below

        tower = renorm_tower(m, config.level_cap, config.l_max, period)
        # the tower's first level is the map's minimal renormalization
        minimal = tower.levels[0].step if tower.levels else None
        report["trichotomy"] = decide_trichotomy(period, minimal).value
        report["tower"] = _tower_dict(tower)

        if full:
            if period.kappa is not None and period.kappa > 1:
                orbit = minimal_periodic_orbit(m, period.kappa)
                report["orbit"] = _orbit_dict(orbit)
            unions = orbit_unions(m, tower)
            omega = omega_decomposition(m, tower, unions)
            report["omega"] = _omega_dict(omega)
            report["attractor"] = report["omega"]["attractor"]

        exit_code = EXIT_OK
        if period.undetermined or tower.terminal is TowerTerminal.PERIOD_CAP_REACHED:
            exit_code = EXIT_CAP
    report["status"] = STATUS_FOR_EXIT[exit_code]
    if full:
        report["config"] = config.echo()
    return report, exit_code


def summary_row(report: dict) -> dict:
    tower = report.get("tower", {"levels": []})
    flags = ";".join(
        "P" if level["periodic"] else "C" for level in tower.get("levels", [])
    )
    parameter = report.get("map", {}).get("a") or report.get("map", {}).get("beta", "")
    return {
        "parameter": parameter,
        "kappa": "" if report.get("kappa") is None else report["kappa"],
        "tower_length": len(tower.get("levels", [])),
        "periodic_flags": flags,
        "trichotomy": report.get("trichotomy", ""),
        "status": report.get("status", ""),
    }


_escape = json.encoder.encode_basestring_ascii
# pieces of text gathered before one call of ``write``
_CHUNK_PIECES = 1024


def write_json(obj, write) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline, chunk by chunk.

    ``obj`` is a tree of dicts with ``str`` keys, lists, tuples, ``str``,
    ``int``, ``bool``, ``None`` and ``Fraction``, of exactly these types
    (any other type raises ``TypeError``).  A ``Fraction`` is written as
    the string ``"p/q"`` of :func:`format_scalar`: digits, ``-`` and
    ``/`` need no escaping, so it skips the escaping pass that every
    other string and key takes.  Each ``Fraction`` object is formatted
    once however often the tree holds it (the attractor is printed
    twice); the memo is keyed by ``id()``, which is safe because ``obj``
    keeps every value alive while it is written.  The pieces go to
    ``write`` in chunks, so the whole text is never held as one string.
    """
    memo: dict = {}
    pieces: list = []
    put = pieces.append

    def emit(value, indent: str) -> None:
        kind = type(value)
        if kind is Fraction:
            text = memo.get(id(value))
            if text is None:
                text = memo[id(value)] = f'"{format_scalar(value)}"'
            put(text)
        elif kind is list or kind is tuple:
            if not value:
                put("[]")
                return
            inner = indent + "  "
            opening = "[\n" + inner
            separator = ",\n" + inner
            for item in value:
                put(opening)
                opening = separator
                emit(item, inner)
            put("\n" + indent + "]")
        elif kind is dict:
            if not value:
                put("{}")
                return
            inner = indent + "  "
            opening = "{\n" + inner
            separator = ",\n" + inner
            for key, item in value.items():
                put(opening + _escape(key) + ": ")
                opening = separator
                emit(item, inner)
            put("\n" + indent + "}")
        elif kind is str:
            put(_escape(value))
        elif kind is bool:
            put("true" if value else "false")
        elif value is None:
            put("null")
        elif kind is int:
            put(int.__repr__(value))
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        if len(pieces) >= _CHUNK_PIECES:
            write("".join(pieces))
            pieces.clear()

    emit(obj, "")
    put("\n")
    write("".join(pieces))


def cmd_analyze(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    # no local keeps the map, so its critical orbits are freed before printing
    report, code = analyze_map(*build_map(args), config, full=args.format != "csv")
    if args.format == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerow(summary_row(report))
    else:
        write_json(report, sys.stdout.write)
    return code


def cmd_classify(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    m, _echo = build_map(args)
    x = parse_scalar(args.x)
    validation = validate_map(m)
    if not validation.valid:
        print(
            json.dumps(
                {"status": "invalid-map", "violations": list(validation.violations)}
            )
        )
        return EXIT_INVALID_MAP
    period = minimal_period(m, config.hit_cap)
    tower = renorm_tower(m, config.level_cap, config.l_max, period)
    unions = orbit_unions(m, tower)
    klass = alpha_classify(m, tower, x, unions)
    # class E_i: first union missed is i, so x lies in union i - 1 (the
    # domain for i = 1); class I: x lies in the deepest union; so x is
    # always inside the outer union and a witness component exists
    outer = outer_union(m, unions, klass.index or len(unions) + 1)
    witness = outer.component_containing(x)
    result = {
        "status": "ok",
        "x": format_scalar(x),
        "class": klass.label(),
        "witness_component": [format_scalar(end) for end in witness],
        "config": config.echo(),
    }
    print(json.dumps(result))
    return EXIT_OK


def sweep_rows(args: argparse.Namespace, config: Config):
    start = parse_scalar(args.start)
    end = parse_scalar(args.end)
    step = parse_scalar(args.step)
    if step <= 0:
        raise InvalidInput("--step must be positive")
    # the parser allows only symmetric and beta
    alpha = parse_scalar(args.alpha) if args.family == "beta" else None
    param = start
    while param <= end:
        try:
            if alpha is None:
                m = symmetric_map(param)
            else:
                m = beta_transformation(param, alpha)
        except InvalidInput:
            # the row of a map that fails validation: no kappa, no tower
            row = summary_row({"status": STATUS_FOR_EXIT[EXIT_INVALID_MAP]})
        else:
            # the row's parameter is set below, so the report needs no map echo
            row = summary_row(analyze_map(m, {}, config, full=False)[0])
        row["parameter"] = format_scalar(param)
        yield row
        param += step


def cmd_sweep(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if args.family == "beta" and not args.alpha:
        raise InvalidInput("beta sweeps need --alpha")
    rows = list(sweep_rows(args, config))
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return EXIT_OK


def _add_map_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=["symmetric", "beta"])
    parser.add_argument("--a", help="slope for the symmetric family, p/q")
    parser.add_argument("--beta", help="slope for the beta family, p/q")
    parser.add_argument("--alpha", help="offset for the beta family, p/q")
    parser.add_argument("--map-file", help="plain-text map description")


def _int_flag(text: str) -> int:
    """The ``type`` of the integer flags: :func:`~lorenzmap.numerics.parse_int`.

    argparse echoes the text of a ``ValueError``, so the refusal of more
    than ``MAX_DIGITS`` digits, which gives the length only, is raised
    as an ``ArgumentTypeError`` (exit 2).
    """
    if len(text) <= MAX_DIGITS:
        return int(text)
    try:
        return parse_int(text)
    except InvalidInput as err:
        raise argparse.ArgumentTypeError(str(err)) from None


# argparse names the type in its "invalid int value" message
_int_flag.__name__ = "int"


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--l-max", dest="l_max", type=_int_flag, default=DEFAULTS["l_max"]
    )
    parser.add_argument(
        "--level-cap", dest="level_cap", type=_int_flag, default=DEFAULTS["level_cap"]
    )
    parser.add_argument(
        "--hit-cap",
        dest="hit_cap",
        type=_int_flag,
        default=DEFAULTS["hit_cap"],
        help="backward steps of c that the base map's minimal period may take",
    )
    parser.add_argument(
        "--precision-bits",
        dest="precision_bits",
        type=_int_flag,
        default=DEFAULTS["precision_bits"],
        help="echoed in the report only: every scalar is exact",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves it unchanged, and it names no command function:
    :func:`main` looks the ``cmd_*`` function up when it is called.
    """
    parser = argparse.ArgumentParser(
        prog="lorenzmap",
        description="Exact analysis of expanding Lorenz maps: minimal period, "
        "renormalization towers, backward-limit classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full analysis report (JSON)")
    _add_map_flags(p_analyze)
    _add_config_flags(p_analyze)
    p_analyze.add_argument("--format", choices=["json", "csv"], default="json")

    p_classify = sub.add_parser("classify", help="backward-limit class of a point")
    _add_map_flags(p_classify)
    _add_config_flags(p_classify)
    p_classify.add_argument("--x", required=True, help="point to classify, p/q")
    p_classify.add_argument("--format", choices=["json"], default="json")

    p_sweep = sub.add_parser("sweep", help="parameter sweep (CSV)")
    p_sweep.add_argument("--family", choices=["symmetric", "beta"], required=True)
    p_sweep.add_argument("--alpha", help="fixed offset for beta sweeps, p/q")
    p_sweep.add_argument("--start", required=True)
    p_sweep.add_argument("--end", required=True)
    p_sweep.add_argument("--step", required=True)
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")

    return parser


def main(argv=None) -> int:
    # deep towers carry integers of more than the default 4,300 digits,
    # and every scalar is printed exactly (the limit exists from 3.11 on);
    # the caller's limit is restored on the way out
    limit = None
    if hasattr(sys, "get_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        command = {"analyze": cmd_analyze, "classify": cmd_classify, "sweep": cmd_sweep}
        return command[args.command](args)
    except tuple(EXIT_FOR_ERROR) as err:
        code = next(c for kind, c in EXIT_FOR_ERROR.items() if isinstance(err, kind))
        print(json.dumps({"status": STATUS_FOR_EXIT[code], "error": str(err)}))
        return code
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
