"""Command-line front end: analyze one map, classify a point, sweep a family.

Single-map reports are JSON (nested), sweeps are CSV (tabular); every
scalar is emitted as an exact ``p/q`` string, so identical inputs and
configuration reproduce reports byte for byte.  The sections of an
``analyze`` report hold the analysis's ``Fraction`` values themselves;
:func:`write_json` formats each of them once, as it streams the report
to stdout with the bytes of ``json.dumps(report, indent=2)``, so the
report is never held as one string.  Exit codes: 0 success,
2 invalid map or input, 4 cap exceeded (:data:`STATUS_FOR_EXIT`).  A
failed validation or a period cap is a result, whose report carries
the ``status``; :func:`main` turns the refused input of every command
(:class:`~lorenzmap.numerics.InvalidInput`) into exit 2, in one place,
and any other exception is a traceback.  ``precision_bits`` is only
echoed in the configuration: every scalar is exact.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from fractions import Fraction

from .numerics import MAX_DIGITS, InvalidInput, format_scalar, parse_scalar
from .maps import FAMILIES, LorenzMap, describe_map, parse_map_text, validate_map
from .periods import DEFAULT_BACKWARD_CAP, minimal_period, minimal_periodic_orbit
from .renorm import (
    DEFAULT_LEVEL_CAP,
    DEFAULT_PAIR_BOUND,
    Tower,
    TowerTerminal,
    renorm_tower,
)
from .limits import alpha_classify, omega_decomposition, orbit_unions, outer_union

# each configuration flag: (default, least value, help); below its least
# value the pair search or the tower searches nothing and would still
# report "prime-up-to-bound", or the backward chain checks no point;
# precision_bits is only echoed and has none
CONFIG_FLAGS = {
    "l_max": (DEFAULT_PAIR_BOUND, 2, None),
    "level_cap": (DEFAULT_LEVEL_CAP, 1, None),
    "hit_cap": (
        DEFAULT_BACKWARD_CAP,
        0,
        "backward steps of c that the base map's minimal period may take",
    ),
    "precision_bits": (4096, None, "echoed in the report only: every scalar is exact"),
}

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
EXIT_CAP = 4

STATUS_FOR_EXIT = {
    EXIT_OK: "ok",
    EXIT_INVALID_MAP: "invalid-map",
    EXIT_CAP: "cap-exceeded",
}

# the flags that choose a family or set a family's parameter
MAP_FLAGS = ["family", *(name for _, names in FAMILIES.values() for name in names)]


def resolve_config(args: argparse.Namespace) -> dict:
    """The settings of the :data:`CONFIG_FLAGS`, checked against their least values."""
    config = {key: getattr(args, key) for key in CONFIG_FLAGS}
    for key, (_default, least, _help) in CONFIG_FLAGS.items():
        if least is not None and config[key] < least:
            raise InvalidInput(f"{key} must be at least {least}, got {config[key]}")
    return config


def _refuse_unread_flags(args: argparse.Namespace, read: tuple, reader: str) -> None:
    """Refuse each of the :data:`MAP_FLAGS` given that is not in ``read``."""
    for name in MAP_FLAGS:
        if name not in read and getattr(args, name, None) is not None:
            raise InvalidInput(f"{reader} reads no --{name} flag")


def build_map(args: argparse.Namespace) -> tuple:
    """Construct the map from flags or a map file; returns (map, echo)."""
    if args.map_file:
        _refuse_unread_flags(args, (), "--map-file")
        try:
            with open(args.map_file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as err:  # unreadable, or not UTF-8
            raise InvalidInput(str(err)) from None
        m = parse_map_text(text)
        return m, {"source": args.map_file, **describe_map(m)}
    if args.family is None:
        raise InvalidInput(
            f"need --family {'|'.join(FAMILIES)} with parameters, or --map-file"
        )
    make, names = FAMILIES[args.family]
    _refuse_unread_flags(args, ("family", *names), f"--family {args.family}")
    texts = [getattr(args, name) for name in names]
    if None in texts:
        flags = " and ".join(f"--{name}" for name in names)
        raise InvalidInput(f"--family {args.family} needs {flags}")
    values = [parse_scalar(text) for text in texts]
    m = make(*values)
    echo = {"family": args.family, **dict(zip(names, map(format_scalar, values)))}
    return m, {**echo, **describe_map(m)}


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


def _period_and_tower(m: LorenzMap, config: dict) -> tuple:
    """``(period, tower, exit_code)``: 4 when a minimal period is undetermined
    at its cap, the map's at ``hit_cap`` or an inner map's, which ends the tower."""
    period = minimal_period(m, config["hit_cap"])
    tower = renorm_tower(m, config["level_cap"], config["l_max"], period)
    capped = period.undetermined or tower.terminal is TowerTerminal.PERIOD_CAP_REACHED
    return period, tower, EXIT_CAP if capped else EXIT_OK


def analyze_map(m: LorenzMap, echo: dict, config: dict, full: bool = True) -> tuple:
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
        period, tower, exit_code = _period_and_tower(m, config)
        report["kappa"] = period.kappa
        report["backward_steps"] = period.m
        report["backward_chain"] = period.backward_chain
        report["orbit"] = None  # keeps its slot in the key order; filled below
        report["trichotomy"] = tower.trichotomy.value
        report["tower"] = _tower_dict(tower)

        if full:
            if period.kappa is not None and period.kappa > 1:
                orbit = minimal_periodic_orbit(m, period.kappa)
                # shallow: dataclasses.asdict would deep-copy every point
                report["orbit"] = dict(vars(orbit))
            unions = orbit_unions(m, tower)
            omega = omega_decomposition(m, tower, unions)
            report["omega"] = _omega_dict(omega)
            report["attractor"] = report["omega"]["attractor"]
    report["status"] = STATUS_FOR_EXIT[exit_code]
    if full:
        report["config"] = config
    return report, exit_code


def summary_row(report: dict) -> dict:
    tower = report.get("tower", {"levels": []})
    flags = ";".join(
        "P" if level["periodic"] else "C" for level in tower.get("levels", [])
    )
    echo = report.get("map", {})
    family = FAMILIES.get(echo.get("family"))
    return {
        "parameter": echo[family[1][0]] if family else "",
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


def _write_rows(rows: list, fmt: str) -> None:
    """Print summary rows as CSV with a header, or as one indented JSON list."""
    if fmt == "json":
        print(json.dumps(rows, indent=2))
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def cmd_analyze(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    # no local keeps the map, so its critical orbits are freed before printing
    report, code = analyze_map(*build_map(args), config, full=args.format != "csv")
    if args.format == "csv":
        _write_rows([summary_row(report)], "csv")
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
    _period, tower, code = _period_and_tower(m, config)
    unions = orbit_unions(m, tower)
    klass = alpha_classify(m, tower, x, unions)
    # class E_i: first union missed is i, so x lies in union i - 1 (the
    # domain for i = 1); class I: x lies in the deepest union; so x is
    # always inside the outer union and a witness component exists
    outer = outer_union(m, unions, klass.index or len(unions) + 1)
    witness = outer.component_containing(x)
    result = {
        "status": STATUS_FOR_EXIT[code],
        "x": format_scalar(x),
        "class": klass.label(),
        "witness_component": [format_scalar(end) for end in witness],
        "config": config,
    }
    print(json.dumps(result))
    return code


def sweep_rows(args: argparse.Namespace, config: dict):
    """The summary row of each map of the family as its first parameter
    steps from ``--start`` to ``--end``; the others are fixed by flags."""
    make, names = FAMILIES[args.family]
    _refuse_unread_flags(args, ("family", *names[1:]), f"a {args.family} sweep")
    if not all(getattr(args, name) for name in names[1:]):
        flags = " and ".join(f"--{name}" for name in names[1:])
        raise InvalidInput(f"{args.family} sweeps need {flags}")
    start = parse_scalar(args.start)
    end = parse_scalar(args.end)
    step = parse_scalar(args.step)
    if step <= 0:
        raise InvalidInput("--step must be positive")
    fixed = [parse_scalar(getattr(args, name)) for name in names[1:]]
    param = start
    while param <= end:
        try:
            m = make(param, *fixed)
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
    _write_rows(list(sweep_rows(args, resolve_config(args))), args.format)
    return EXIT_OK


def _add_map_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=list(FAMILIES))
    parser.add_argument("--a", help="slope for the symmetric family, p/q")
    parser.add_argument("--beta", help="slope for the beta family, p/q")
    parser.add_argument("--alpha", help="offset for the beta family, p/q")
    parser.add_argument("--map-file", help="plain-text map description")


def _int_flag(text: str) -> int:
    """The ``type`` of the integer flags: ``int(text)``, with more than
    :data:`~lorenzmap.numerics.MAX_DIGITS` digits refused unread.

    ``int`` reads a digit string in time quadratic in its length once
    the int-digit limit is lifted, and argparse's message for a
    ``ValueError`` echoes the whole text.  So a text with more digits is
    refused with an ``ArgumentTypeError`` (exit 2) that gives its
    length, not the text.
    """
    if len(text) > MAX_DIGITS and sum(map(str.isdigit, text)) > MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"an integer of {len(text)} characters has more than {MAX_DIGITS} digits"
        )
    return int(text)


# argparse names the type in its "invalid int value" message
_int_flag.__name__ = "int"


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for key, (default, _least, text) in CONFIG_FLAGS.items():
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, type=_int_flag, default=default, help=text)


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

    p_sweep = sub.add_parser("sweep", help="parameter sweep (CSV)")
    p_sweep.add_argument("--family", choices=list(FAMILIES), required=True)
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
    except InvalidInput as err:
        status = STATUS_FOR_EXIT[EXIT_INVALID_MAP]
        print(json.dumps({"status": status, "error": str(err)}))
        return EXIT_INVALID_MAP
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
