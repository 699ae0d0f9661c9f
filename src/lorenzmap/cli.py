"""Command-line front end: analyze one map, classify a point, sweep a family.

Single-map reports are JSON (nested), sweeps are CSV (tabular); every
scalar is emitted as an exact ``p/q`` string, so identical inputs and
configuration reproduce reports byte for byte.  Exit codes: 0 success,
2 invalid map or input, 3 precision exhausted, 4 cap exceeded; partial
reports carry a ``status`` field.  :func:`main` maps the exceptions of
every command to exit codes through :data:`EXIT_FOR_ERROR`, in one
place.  ``precision_bits`` is only
echoed in the configuration: every scalar is exact.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import asdict, dataclass

from .numerics import PrecisionExhausted, format_scalar, parse_scalar
from .maps import (
    CapExceeded,
    LorenzMap,
    beta_transformation,
    describe_map,
    parse_map_text,
    symmetric_map,
    validate_map,
)
from .interval_dynamics import format_union
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

# Exceptions that end a command with a status instead of a traceback.
EXIT_FOR_ERROR = {
    PrecisionExhausted: EXIT_PRECISION,
    CapExceeded: EXIT_CAP,
    ValueError: EXIT_INVALID_MAP,
    OSError: EXIT_INVALID_MAP,
}
HANDLED_ERRORS = tuple(EXIT_FOR_ERROR)


def exit_code_for(err: Exception) -> int:
    return next(code for kind, code in EXIT_FOR_ERROR.items() if isinstance(err, kind))


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
            raise ValueError(f"{key} must be at least {least}, got {value}")
    return config


def build_map(args: argparse.Namespace) -> tuple:
    """Construct the map from flags or a map file; returns (map, echo)."""
    if getattr(args, "map_file", None):
        with open(args.map_file, "r", encoding="utf-8") as handle:
            text = handle.read()
        m = parse_map_text(text)
        return m, {"source": args.map_file, **describe_map(m)}
    family = getattr(args, "family", None)
    if family == "symmetric":
        if args.a is None:
            raise ValueError("--family symmetric needs --a")
        a = parse_scalar(args.a)
        m = symmetric_map(a)
        return m, {"family": "symmetric", "a": format_scalar(a), **describe_map(m)}
    if family == "beta":
        if args.beta is None or args.alpha is None:
            raise ValueError("--family beta needs --beta and --alpha")
        beta, alpha = parse_scalar(args.beta), parse_scalar(args.alpha)
        m = beta_transformation(beta, alpha)
        return m, {
            "family": "beta",
            "beta": format_scalar(beta),
            "alpha": format_scalar(alpha),
            **describe_map(m),
        }
    raise ValueError("need --family symmetric|beta with parameters, or --map-file")


def _orbit_dict(orbit) -> dict:
    return {
        "points": [format_scalar(p.x) for p in orbit.points],
        "period": orbit.period,
        "itinerary": orbit.itinerary,
        "flank_left": format_scalar(orbit.flank_left),
        "flank_right": format_scalar(orbit.flank_right),
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
                "u": format_scalar(step.u),
                "v": format_scalar(step.v),
                "e_minus": format_scalar(step.e_minus),
                "e_plus": format_scalar(step.e_plus),
                "periodic": step.periodic,
                "interval_base": [
                    format_scalar(level.interval[0]),
                    format_scalar(level.interval[1]),
                ],
                "e_minus_base": format_scalar(level.e_minus),
                "e_plus_base": format_scalar(level.e_plus),
                "return_left": level.return_left,
                "return_right": level.return_right,
                "inner_slopes": {
                    "left": [format_scalar(s) for s in step.inner_map.left.slopes],
                    "right": [format_scalar(s) for s in step.inner_map.right.slopes],
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
                "points": [format_scalar(x) for x in part.points],
            }
            for part in omega.parts
        ],
        "attractor": format_union(omega.attractor),
        "flags": list(omega.flags),
    }


def _fill_report(report: dict, m: LorenzMap, config: Config, full: bool) -> int:
    """Add the analysis sections to ``report``; returns the exit code.

    The summary stages (validation, minimal period, tower, trichotomy)
    decide every column of a CSV row.  Only a ``full`` report runs the
    report stages: the minimal orbit, the orbit unions and the
    ω-decomposition.
    """
    validation = validate_map(m)
    report["validation"] = {
        "valid": validation.valid,
        "violations": list(validation.violations),
    }
    if not validation.valid:
        return EXIT_INVALID_MAP

    period = minimal_period(m, config.hit_cap)
    report["kappa"] = period.kappa
    report["backward_steps"] = period.m
    report["backward_chain"] = [format_scalar(x) for x in period.backward_chain]
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

    if period.undetermined or tower.terminal is TowerTerminal.PERIOD_CAP_REACHED:
        return EXIT_CAP
    return EXIT_OK


def analyze_map(m: LorenzMap, echo: dict, config: Config, full: bool = True) -> tuple:
    """The report, or only its summary stages; returns (report, exit_code)."""
    report: dict = {"status": "ok", "map": echo}
    try:
        exit_code = _fill_report(report, m, config, full)
    except HANDLED_ERRORS as err:
        report["error"] = str(err)
        exit_code = exit_code_for(err)
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


def cmd_analyze(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    # no local keeps the map, so its critical orbits are freed before printing
    report, code = analyze_map(*build_map(args), config, full=args.format != "csv")
    if args.format == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerow(summary_row(report))
    else:
        print(json.dumps(report, indent=2))
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
        raise ValueError("--step must be positive")
    param = start
    while param <= end:
        try:
            if args.family == "symmetric":
                m = symmetric_map(param)
            else:  # the parser allows only symmetric and beta
                m = beta_transformation(param, parse_scalar(args.alpha))
        except HANDLED_ERRORS as err:
            row = dict.fromkeys(SWEEP_COLUMNS, "")
            row["tower_length"] = 0
            row["status"] = STATUS_FOR_EXIT[exit_code_for(err)]
        else:
            # the row's parameter is set below, so the report needs no map echo
            row = summary_row(analyze_map(m, {}, config, full=False)[0])
        row["parameter"] = format_scalar(param)
        yield row
        param += step


def cmd_sweep(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if args.family == "beta" and not args.alpha:
        raise ValueError("beta sweeps need --alpha")
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


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--l-max", dest="l_max", type=int, default=DEFAULTS["l_max"])
    parser.add_argument(
        "--level-cap", dest="level_cap", type=int, default=DEFAULTS["level_cap"]
    )
    parser.add_argument(
        "--hit-cap",
        dest="hit_cap",
        type=int,
        default=DEFAULTS["hit_cap"],
        help="backward steps of c that the base map's minimal period may take",
    )
    parser.add_argument(
        "--precision-bits",
        dest="precision_bits",
        type=int,
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
    except HANDLED_ERRORS as err:
        code = exit_code_for(err)
        print(json.dumps({"status": STATUS_FOR_EXIT[code], "error": str(err)}))
        return code
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
