import ast
import contextlib
import csv
import gc
import importlib
import inspect
import io
import json
import pkgutil
import random
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorenzmap
from lorenzmap import cli
from lorenzmap.cli import build_parser, main
from lorenzmap.maps import FAMILIES, beta_transformation, parse_map_text, symmetric_map
from lorenzmap.numerics import InvalidInput, format_scalar, parse_scalar

from conftest import (
    GOLDEN_MAPS,
    LONG_ORBIT_MAP_TEXT,
    evaluate_orbit,
    moved_to_minus_3_5,
    multi_piece_maps,
    piece_map,
    same_map,
)

PRIME_BAND_LOW = F(2) ** F(1, 2)  # tower length drops to 0 past sqrt(2)
# the configuration that the default flags give
DEFAULT_CONFIG = {key: flag[0] for key, flag in cli.CONFIG_FLAGS.items()}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_symmetric_6_5(capsys):
    code, out = run_cli(capsys, "analyze", "--family", "symmetric", "--a", "6/5")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["kappa"] == 2
    assert len(report["tower"]["levels"]) == 1
    assert report["omega"]["parts"][0]["points"] == ["3/11", "8/11"]
    assert report["attractor"] == [["0/1", "3/25"], ["2/5", "3/5"], ["22/25", "1/1"]]
    assert report["trichotomy"] == "periodic-minimal-renorm"


def test_analyze_symmetric_3_2_prime(capsys):
    code, out = run_cli(capsys, "analyze", "--family", "symmetric", "--a", "3/2")
    assert code == 0
    report = json.loads(out)
    assert report["tower"]["levels"] == []
    assert report["trichotomy"] == "prime-up-to-bound"
    assert report["tower"]["bound"] == 64


def test_analyze_beta_map(capsys):
    code, out = run_cli(
        capsys, "analyze", "--family", "beta", "--beta", "6/5", "--alpha", "1/10"
    )
    assert code == 0
    report = json.loads(out)
    assert report["kappa"] == 5
    assert report["backward_chain"][-1] == "193/864"


def test_analyze_is_deterministic(capsys):
    argv = ["analyze", "--family", "symmetric", "--a", "11/10"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert (code1, out1) == (code2, out2)


def test_classify_points(capsys):
    base = ["classify", "--family", "symmetric", "--a", "6/5"]
    code, out = run_cli(capsys, *base, "--x", "1/4")
    assert code == 0 and json.loads(out)["class"] == "E_1"
    code, out = run_cli(capsys, *base, "--x", "9/20")
    payload = json.loads(out)
    assert payload["class"] == "I"
    assert payload["witness_component"] == ["2/5", "3/5"]
    code, out = run_cli(capsys, "classify", "--family", "symmetric", "--a", "3/2", "--x", "1/3")
    assert json.loads(out)["class"] == "I"


def test_sweep_band_transitions(capsys):
    code, out = run_cli(
        capsys,
        "sweep",
        "--family",
        "symmetric",
        "--start",
        "105/100",
        "--end",
        "199/100",
        "--step",
        "2/100",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "parameter,kappa,tower_length,periodic_flags,trichotomy,status"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 48
    for row in rows:
        a = F(row[0])
        length = int(row[2])
        if a > PRIME_BAND_LOW:
            assert length == 0
        elif a > F(2) ** F(1, 4):
            assert length == 1
        elif a > F(2) ** F(1, 8):
            assert length == 2
        else:
            assert length == 3
        assert row[3] == ";".join("P" * length)
        assert row[5] == "ok"
    # the sampled band transitions
    lengths = [int(r[2]) for r in rows]
    assert lengths == sorted(lengths, reverse=True)
    assert {0, 1, 2, 3} == set(lengths)


def test_single_point_sweep_matches_analyze_summary(capsys):
    _, sweep_out = run_cli(
        capsys,
        "sweep",
        "--family",
        "symmetric",
        "--start",
        "6/5",
        "--end",
        "6/5",
        "--step",
        "1",
    )
    _, analyze_out = run_cli(
        capsys, "analyze", "--family", "symmetric", "--a", "6/5", "--format", "csv"
    )
    assert sweep_out == analyze_out


def test_beta_sweep_kappa_column(capsys):
    code, out = run_cli(
        capsys,
        "sweep",
        "--family",
        "beta",
        "--alpha",
        "1/10",
        "--start",
        "11/10",
        "--end",
        "19/10",
        "--step",
        "2/10",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    from lorenzmap.maps import beta_transformation
    from lorenzmap.periods import minimal_period

    for row in rows:
        if row[5] != "ok":
            continue
        expect = minimal_period(beta_transformation(F(row[0]), F(1, 10))).kappa
        assert int(row[1]) == expect


def test_invalid_map_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.map"
    bad.write_text(
        "family = custom\n"
        "domain = 0 1\n"
        "c = 1/2\n"
        "left_breakpoints = 0 1/2\n"
        "left_slopes = 9/10\n"
        "left_intercepts = 11/20\n"
        "right_breakpoints = 1/2 1\n"
        "right_slopes = 3/2\n"
        "right_intercepts = -3/4\n"
    )
    code, out = run_cli(capsys, "analyze", "--map-file", str(bad))
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "invalid-map"
    assert any("expanding" in v for v in report["validation"]["violations"])


def test_unparseable_map_exit_code(capsys):
    code, out = run_cli(capsys, "analyze", "--family", "symmetric")
    assert code == 2
    assert json.loads(out)["status"] == "invalid-map"


@pytest.mark.parametrize("source", ["flag", "map-file"])
def test_huge_decimal_exponent_is_refused_at_once(capsys, tmp_path, source):
    # multiplied out, 1.5e100000 alone took 1.4 s and echoed 700 kB
    if source == "flag":
        argv = ["analyze", "--family", "symmetric", "--a", "1.5e100000"]
    else:
        text = (GOLDEN_MAPS / "custom15.map").read_text()
        huge = tmp_path / "huge.map"
        huge.write_text(text.replace("5/16", "3125e-10000000"))
        argv = ["analyze", "--map-file", str(huge)]
    start = time.perf_counter()
    code = main(argv)
    seconds = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "invalid-map"
    assert "decimal exponent out of range" in report["error"]
    assert seconds < 0.5


@pytest.mark.parametrize("source", ["flag", "map-file"])
def test_long_digit_run_is_refused_at_once(capsys, tmp_path, source):
    # read under the lifted int-digit limit, a 400,000-digit numerator
    # took 1.6 s, and an 800 kB map file spelling 3/2 2.25 s
    numerator = "15" + "0" * 99_998
    if source == "flag":
        argv = ["analyze", "--family", "symmetric", "--a", f"{numerator}/10"]
    else:
        text = (GOLDEN_MAPS / "custom15.map").read_text()
        huge = tmp_path / "huge.map"
        huge.write_text(text.replace("5/16", f"{numerator}/16"))
        argv = ["analyze", "--map-file", str(huge)]
    start = time.perf_counter()
    code = main(argv)
    seconds = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "invalid-map"
    assert report["error"] == (
        "a scalar of 100003 characters has a run of more than 4300 digits"
    )
    assert seconds < 0.5


@pytest.mark.parametrize(
    "flag", ["--l-max", "--level-cap", "--hit-cap", "--precision-bits", "precision"]
)
def test_long_integer_is_refused_at_once(capsys, tmp_path, flag):
    # read under the lifted int-digit limit, 100,000 digits of --l-max
    # exited 0 and echoed a 201 kB l_max, and 400,000 digits took 8 s
    digits = "1" + "0" * 99_999
    if flag == "precision":
        text = (GOLDEN_MAPS / "custom15.map").read_text()
        huge = tmp_path / "huge.map"
        huge.write_text(f"{text}precision = {digits}\n")
        argv = ["analyze", "--map-file", str(huge)]
    else:
        argv = ["analyze", "--family", "symmetric", "--a", "3/2", flag, digits]
    message = "an integer of 100000 characters has more than 4300 digits"
    if flag == "precision":  # unread, so its digits are never counted
        message = "family 'custom' reads no 'precision' line"
    start = time.perf_counter()
    if flag == "precision":
        code = main(argv)
    else:
        with pytest.raises(SystemExit) as exited:
            main(argv)
        code = exited.value.code
    seconds = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    if flag == "precision":
        assert captured.err == ""
        assert json.loads(captured.out) == {"status": "invalid-map", "error": message}
    else:
        # argparse's usage and the length, not the digits
        assert captured.out == "" and len(captured.err) < 1000
        assert captured.err.endswith(f"argument {flag}: {message}\n")
    assert seconds < 0.5


def test_integer_flags_keep_their_messages(capsys):
    # a long value with few digits, or with MAX_DIGITS digits, is read by
    # int as before, and a malformed short one keeps argparse's own
    # message; one digit more is refused unread, by its length
    for value, expected in (
        ("abc", "argument --l-max: invalid int value: 'abc'"),
        (" " * 4300 + "12", 12),
        ("+" + "0" * 4299 + "7", 7),
        ("1_" * 2150 + "1", int("1" * 2151)),
        ("7" * 4301, None),
        ("-" + "7" * 4301, None),
        ("1_" * 4300 + "1", None),
    ):
        argv = ["analyze", "--family", "symmetric", "--a", "3/2", "--l-max", value]
        if isinstance(expected, int):
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["config"]["l_max"] == expected
            continue
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        if expected is None:
            assert value not in err
            expected = (
                f"argument --l-max: an integer of {len(value)} characters "
                "has more than 4300 digits"
            )
        assert err.endswith(expected + "\n")


def test_precision_line_exit_code(capsys, tmp_path):
    # no family reads a precision line, so it is refused as any unread key
    fuzzy = tmp_path / "fuzzy.map"
    fuzzy.write_text("family = symmetric\na = 1.4142135624\nprecision = 10\n")
    code, out = run_cli(capsys, "analyze", "--map-file", str(fuzzy))
    assert code == 2
    assert json.loads(out) == {
        "status": "invalid-map", "error": "family 'symmetric' reads no 'precision' line"
    }


def test_cap_exceeded_exit_code(capsys):
    code, out = run_cli(
        capsys,
        "analyze",
        "--family",
        "beta",
        "--beta",
        "6/5",
        "--alpha",
        "1/10",
        "--hit-cap",
        "1",
    )
    assert code == 4
    report = json.loads(out)
    assert report["status"] == "cap-exceeded"
    assert report["kappa"] is None


def test_classify_reports_a_capped_tower_as_analyze_does(capsys):
    argv = ["--family", "beta", "--beta", "105/100", "--alpha", "1/40", "--hit-cap", "0"]
    code, out = run_cli(capsys, "analyze", *argv)
    assert code == 4 and json.loads(out)["status"] == "cap-exceeded"
    code, out = run_cli(capsys, "classify", *argv, "--x", "1/2")
    assert code == 4
    result = json.loads(out)
    assert list(result) == ["status", "x", "class", "witness_component", "config"]
    assert result["status"] == "cap-exceeded" and result["class"] == "I"


def test_long_minimal_orbit_is_classified_and_reported(capsys, tmp_path):
    path = tmp_path / "long_orbit.map"
    path.write_text(LONG_ORBIT_MAP_TEXT)
    code, out = run_cli(capsys, "classify", "--map-file", str(path), "--x", "1/4")
    assert code == 0
    assert json.loads(out)["class"] == "I"
    # the report's period-662 orbit comes from one solve on the word of c-
    code, out = run_cli(capsys, "analyze", "--map-file", str(path))
    assert code == 0
    report = json.loads(out)
    assert (report["status"], report["kappa"]) == ("ok", 662)
    orbit = report["orbit"]
    assert orbit["period"] == 662 and len(orbit["points"]) == 662
    m = parse_map_text(LONG_ORBIT_MAP_TEXT)
    flank_left = parse_scalar(orbit["flank_left"])
    assert evaluate_orbit(m, flank_left, 662)[-1] == flank_left


def test_partial_reports_come_from_results_only(monkeypatch):
    config = DEFAULT_CONFIG
    # a map that fails validation is a result: its report stops there
    report, code = cli.analyze_map(symmetric_map(F(1)), {}, config)
    assert (code, list(report)) == (2, ["status", "map", "validation", "config"])

    # an error raised by a stage is not made into a report
    def reached(*_args, **_kwargs):
        raise InvalidInput("omega stage reached")

    monkeypatch.setattr(cli, "omega_decomposition", reached)
    with pytest.raises(InvalidInput, match="^omega stage reached$"):
        cli.analyze_map(symmetric_map(F(6, 5)), {}, config)


@pytest.mark.parametrize("command", ["analyze", "classify", "sweep"])
def test_a_value_error_of_the_analysis_is_not_an_invalid_map(
    capsys, monkeypatch, command
):
    # only InvalidInput, raised where input is read, maps to exit 2: a
    # plain ValueError from the analysis is an internal fault
    def broken(*_args, **_kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "renorm_tower", broken)
    argv = {
        "analyze": ["analyze", "--family", "symmetric", "--a", "6/5"],
        "classify": ["classify", "--family", "symmetric", "--a", "6/5", "--x", "1/4"],
        "sweep": ["sweep", "--family", "symmetric", "--start", "6/5", "--end", "6/5",
                  "--step", "1/10"],
    }[command]
    with pytest.raises(ValueError, match="^internal fault$"):
        main(argv)
    assert capsys.readouterr().out == ""  # no invalid-map status line


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_map_file_that_is_not_utf8_is_an_invalid_map(capsys, tmp_path, command):
    data = b"family = symmetric\na = 6/5 \xff\n"
    with pytest.raises(UnicodeDecodeError) as codec:
        data.decode("utf-8")
    path = tmp_path / "latin.map"
    path.write_bytes(data)
    argv = [command, "--map-file", str(path)]
    if command == "classify":
        argv += ["--x", "1/4"]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"status": "invalid-map", "error": str(codec.value)}


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_missing_map_file_is_an_invalid_map(capsys, tmp_path, command):
    path = tmp_path / "absent.map"
    argv = [command, "--map-file", str(path)]
    if command == "classify":
        argv += ["--x", "1/4"]
    code, out = run_cli(capsys, *argv)
    assert code == 2
    error = f"[Errno 2] No such file or directory: '{path}'"
    assert out == json.dumps({"status": "invalid-map", "error": error}) + "\n"


class _ClosedPipe:
    """A stdout whose first write raises ``BrokenPipeError``, as a pipe
    closed by its reader does; every later write is recorded."""

    def __init__(self):
        self.writes = 0
        self.recorded = []

    def write(self, text):
        self.writes += 1
        if self.writes == 1:
            raise BrokenPipeError(32, "Broken pipe")
        self.recorded.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--family", "symmetric", "--a", "101/100"],
        ["analyze", "--family", "symmetric", "--a", "6/5", "--format", "csv"],
        ["classify", "--family", "symmetric", "--a", "6/5", "--x", "1/4"],
        ["sweep", "--family", "symmetric", "--start", "6/5", "--end", "6/5",
         "--step", "1/10"],
    ],
    ids=["analyze", "analyze-csv", "classify", "sweep"],
)
def test_a_closed_stdout_is_not_an_invalid_map(monkeypatch, argv):
    # `lorenzmap analyze ... | head -c 20`: the reader is gone, so no
    # status line can reach it, and the error is not the map's fault
    pipe = _ClosedPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    with pytest.raises(BrokenPipeError):
        main(argv)
    assert not any("invalid-map" in text for text in pipe.recorded)


def test_csv_output_runs_no_report_stage(capsys, monkeypatch):
    sweep = ["sweep", "--family", "symmetric", "--start", "11/10", "--end", "2",
             "--step", "1/10"]
    analyze = ["analyze", "--family", "symmetric", "--a", "6/5"]
    before = [run_cli(capsys, *sweep), run_cli(capsys, *analyze, "--format", "csv")]

    def reached(*_args, **_kwargs):
        raise InvalidInput("report stage reached")

    for stage in ("minimal_periodic_orbit", "orbit_unions", "omega_decomposition"):
        monkeypatch.setattr(cli, stage, reached)
    after = [run_cli(capsys, *sweep), run_cli(capsys, *analyze, "--format", "csv")]
    assert after == before
    assert [code for code, _out in after] == [0, 0]
    assert len(after[0][1].splitlines()) == 11
    # the JSON report still runs them: the error reaches main, which
    # prints its status line in place of the report
    code, out = run_cli(capsys, *analyze)
    assert code == 2
    assert json.loads(out) == {"status": "invalid-map", "error": "report stage reached"}


def test_summary_stages_give_the_rows_of_full_reports():
    # symmetric and beta grids (invalid, fixed-point and capped maps among
    # them) and seeded piece maps, half of them near-unit, under the
    # default configuration and a tight one
    rng = random.Random(13)
    maps = [symmetric_map(F(100 + k, 100)) for k in range(0, 101, 4)]
    maps += [
        beta_transformation(F(beta, 20), F(alpha, 40))
        for beta in range(21, 40, 3)
        for alpha in (1, 5, 9, 15)
    ]
    maps += [piece_map(rng.randint, near_unit=i % 2 == 1) for i in range(100)]
    default = DEFAULT_CONFIG
    configs = [default, {**default, "l_max": 8, "level_cap": 2, "hit_cap": 1}]
    statuses = set()
    for m in maps:
        for config in configs:
            summary, code = cli.analyze_map(m, {}, config, full=False)
            report, full_code = cli.analyze_map(m, {}, config)
            assert (cli.summary_row(summary), code) == (
                cli.summary_row(report), full_code
            )
            # the summary is the full report without the report stages' keys
            # and the config echo, in the same order
            assert "config" not in summary
            del report["config"]
            for key in ("omega", "attractor"):
                report.pop(key, None)
            if "orbit" in report:
                report["orbit"] = None
            assert list(summary.items()) == list(report.items())
            statuses.add((summary["status"], summary.get("trichotomy")))
    assert {
        ("invalid-map", None),
        ("ok", "prime"),
        ("ok", "prime-up-to-bound"),
        ("ok", "periodic-minimal-renorm"),
        ("cap-exceeded", "prime-up-to-bound"),
    } <= statuses


def test_analyze_map_keeps_no_reference_to_its_map():
    # per-map data, such as the integer pieces of the exact orbit step, is
    # held by the map's own objects, not by a table that outlives them
    default = DEFAULT_CONFIG
    cantor = Path(__file__).parent / "golden" / "maps" / "custom_periodic_cantor.map"
    for make in (lambda: symmetric_map(F(41, 40)), lambda: parse_map_text(cantor.read_text())):
        m = make()
        report, code = cli.analyze_map(m, {}, default)
        assert code == 0 and report["omega"]["parts"]
        ref = weakref.ref(m)
        del m, report
        gc.collect()
        assert ref() is None

    # nor data keyed by it: fresh maps leave the traced memory as it was
    def analyze(k):
        report, code = cli.analyze_map(symmetric_map(F(41, 40) + F(1, k)), {}, default)
        assert code == 0 and len(report["omega"]["parts"]) >= 3

    analyze(10**6)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for k in range(1, 6):
            analyze(10**6 + k)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2_000


def test_analyze_frees_the_map_before_printing(capsys, monkeypatch):
    # the map holds its critical orbits, which would otherwise stay alive
    # while a deep report is encoded
    maps, alive = [], []
    build, write_json = cli.build_map, cli.write_json

    def recording(args):
        m, echo = build(args)
        maps.append(weakref.ref(m))
        return m, echo

    def checking(obj, write):
        alive.append(maps[0]() is not None)
        return write_json(obj, write)

    monkeypatch.setattr(cli, "build_map", recording)
    monkeypatch.setattr(cli, "write_json", checking)
    enabled = gc.isenabled()
    gc.disable()
    try:
        code, _out = run_cli(capsys, "analyze", "--family", "symmetric", "--a", "6/5")
    finally:
        if enabled:
            gc.enable()
    assert code == 0 and alive == [False]


def _formatted(tree):
    """``tree`` with every ``Fraction`` replaced by its ``p/q`` string."""
    if isinstance(tree, F):
        return format_scalar(tree)
    if isinstance(tree, dict):
        return {key: _formatted(value) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_formatted(value) for value in tree]
    return tree


def _written(tree) -> list:
    chunks: list = []
    cli.write_json(tree, chunks.append)
    return chunks


# quotes, backslashes, control characters, DEL, non-ASCII and astral
# characters, beside whatever else hypothesis draws
JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x08\x1f\n\t\x7f\xe9 \U0001f600'), st.characters())
)
JSON_FRACTIONS = st.one_of(
    st.fractions(),
    st.integers(-(10**60), 10**60).map(F),  # integer-valued: "2/1"
    st.builds(F, st.integers(-(10**300), 10**300), st.integers(1, 10**300)),
)
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**1000), 10**1000),
    JSON_TEXT,
    JSON_FRACTIONS,
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(JSON_TEXT, children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=120, deadline=None)
@given(JSON_TREES, JSON_FRACTIONS)
def test_write_json_prints_what_json_dumps_prints(tree, shared):
    # one Fraction object in two places, the way the attractor is printed
    for tree in (tree, {"attractor": [shared, tree], "omega": {"attractor": [shared]}}):
        expected = json.dumps(_formatted(tree), indent=2) + "\n"
        assert "".join(_written(tree)) == expected


def test_write_json_streams_in_chunks_and_refuses_other_types():
    tree = {"attractor": [(F(k, 7), F(-k, 3)) for k in range(2_000)], "empty": [{}, [], ()]}
    chunks = _written(tree)
    text = "".join(chunks)
    assert text == json.dumps(_formatted(tree), indent=2) + "\n"
    assert len(chunks) > 1 and max(map(len, chunks)) < len(text) / 2
    for value in (1.5, {1: "x"}, {"x"}, b"x"):
        with pytest.raises(TypeError):
            _written({"value": value})


def test_sweep_reports_per_row_status(capsys):
    # beta + alpha = 1 gives a fixed point at 0... use alpha producing an
    # invalid two-branch form: alpha large enough that f(1) escapes
    code, out = run_cli(
        capsys,
        "sweep",
        "--family",
        "beta",
        "--alpha",
        "3/4",
        "--start",
        "11/10",
        "--end",
        "14/10",
        "--step",
        "3/10",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert any(row[5] == "invalid-map" for row in rows)


def test_classify_point_outside_domain(capsys):
    code, out = run_cli(
        capsys, "classify", "--family", "symmetric", "--a", "6/5", "--x", "3/2"
    )
    assert code == 2
    assert json.loads(out)["status"] == "invalid-map"


def test_sweep_missing_alpha_for_beta(capsys):
    code, out = run_cli(
        capsys, "sweep", "--family", "beta", "--start", "11/10", "--end", "12/10",
        "--step", "1/10",
    )
    assert code == 2
    assert json.loads(out)["status"] == "invalid-map"


def test_sweep_bad_step(capsys):
    code, out = run_cli(
        capsys, "sweep", "--family", "symmetric", "--start", "11/10", "--end",
        "12/10", "--step", "0",
    )
    assert code == 2


def test_sweep_is_deterministic(capsys):
    argv = [
        "sweep", "--family", "symmetric", "--start", "11/10", "--end", "13/10",
        "--step", "1/10",
    ]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert (code1, out1) == (code2, out2)


PRECISION_MAP = "family = symmetric\na = 1.4142135624\nprecision = 10\n"
MISSING_KEY_MAP = "family = custom\ndomain = 0 1\nc = 1/2\nleft_breakpoints = 0 1/2\n"
MALFORMED_PRECISION_MAP = "family = symmetric\na = 3/2\nprecision = ten\n"
CUSTOM_PRECISION_MAP = (
    "family = custom\ndomain = 0 1\nc = 1/2\n"
    "left_breakpoints = 0 1/2\nleft_slopes = 3/2\nleft_intercepts = 1/4\n"
    "right_breakpoints = 1/2 1\nright_slopes = 3/2\nright_intercepts = -3/4\n"
    "precision = 10\n"
)


@pytest.mark.parametrize(
    "argv, map_text, code, status",
    [
        (["classify", "--x", "1/3"], PRECISION_MAP, 2, "invalid-map"),
        (["analyze"], CUSTOM_PRECISION_MAP, 2, "invalid-map"),
        (["analyze"], MISSING_KEY_MAP, 2, "invalid-map"),
        (["analyze"], MALFORMED_PRECISION_MAP, 2, "invalid-map"),
        (["analyze", "--family", "symmetric", "--a", "1/0"], None, 2, "invalid-map"),
        (["analyze", "--family", "beta", "--beta", "0", "--alpha", "1/10"], None, 2,
         "invalid-map"),
        (["analyze", "--family", "symmetric", "--a", "6/5", "--l-max", "-3"], None, 2,
         "invalid-map"),
        (["classify", "--family", "symmetric", "--a", "6/5", "--x", "1/4", "--level-cap",
          "0"], None, 2, "invalid-map"),
        (["classify", "--family", "symmetric", "--a", "6/5", "--x", "1/4", "--hit-cap",
          "-3"], None, 2, "invalid-map"),
        (["analyze", "--family", "beta", "--beta", "6/5"], None, 2, "invalid-map"),
        (["analyze"], None, 2, "invalid-map"),
        (["sweep", "--family", "beta", "--alpha", "1/0", "--start", "11/10", "--end",
          "13/10", "--step", "1/10"], None, 2, "invalid-map"),
    ],
    ids=[
        "classify-precision-map",
        "custom-precision-map",
        "missing-key",
        "malformed-precision",
        "zero-denominator",
        "beta-zero",
        "l-max-below-2",
        "level-cap-below-1",
        "hit-cap-below-0",
        "beta-without-alpha",
        "no-map",
        "sweep-beta-zero-denominator-alpha",
    ],
)
def test_input_boundary_exit_codes(capsys, tmp_path, argv, map_text, code, status):
    if map_text is not None:
        path = tmp_path / "input.map"
        path.write_text(map_text)
        argv = argv + ["--map-file", str(path)]
    got, out = run_cli(capsys, *argv)
    assert got == code
    payload = json.loads(out)
    assert payload["status"] == status
    assert payload["error"]


def _raised_names() -> set:
    """The names that a ``raise`` statement of the package raises, read
    from the source with ``ast``: ``X`` of ``raise X``, ``raise X(...)``
    and ``raise module.X(...)``."""
    names = set()
    for path in Path(lorenzmap.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(exc.attr if isinstance(exc, ast.Attribute) else exc.id)
    return names


def test_every_exception_class_of_the_package_is_raised():
    defined = set()
    for info in pkgutil.iter_modules(lorenzmap.__path__):
        module = importlib.import_module(f"lorenzmap.{info.name}")
        defined |= {
            name
            for name, obj in vars(module).items()
            if isinstance(obj, type)
            and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        }
    assert defined and defined <= _raised_names()
    # the package's one exception type, the one the CLI catches
    assert defined == {"InvalidInput"}


def test_every_mapped_exception_is_raised_or_is_the_input_boundary():
    # main has one handler, for InvalidInput, which build_map raises for
    # an unreadable map file too; a plain ValueError, which the analysis
    # raises too, and an OSError, such as a closed stdout, are not
    # caught, so they end in a traceback
    tree = ast.parse(inspect.getsource(cli.main))
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]
    assert [ast.unparse(handler.type) for handler in handlers] == ["InvalidInput"]
    assert "InvalidInput" in _raised_names()


def test_readme_exit_status_table_is_the_cli_table():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    table = {}
    for row in lines[lines.index("| exit | status |") + 2:]:
        if not row.startswith("|"):
            break
        code, status = row.strip("|").split("|")
        table[int(code)] = status.strip().strip("`")
    assert table == cli.STATUS_FOR_EXIT


def test_only_main_and_sweep_rows_turn_an_error_into_a_status():
    # every other handler of the package raises again, so an error that
    # main does not map ends in a traceback
    for path in Path(lorenzmap.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            if path.name == "cli.py" and function.name in ("main", "sweep_rows"):
                continue
            for handler in ast.walk(function):
                if isinstance(handler, ast.ExceptHandler):
                    where = f"{path.name}:{handler.lineno}"
                    assert isinstance(handler.body[-1], ast.Raise), where


def _definitions(tree) -> list:
    """``(name, node)`` of every function and class at module level, and
    of every non-dunder method and class defined in a class body."""
    found, bodies = [], [tree.body]
    while bodies:
        for node in bodies.pop():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    found.append((node.name, node))
                if isinstance(node, ast.ClassDef):
                    bodies.append(node.body)
    return found


def _identifiers(tree) -> list:
    """``(name, line)`` of every name and attribute in code. Imports do
    not count, so a re-export of ``__init__`` is no use; nor do strings
    and docstrings."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
    return found


def test_every_definition_of_the_package_is_named_outside_the_tests():
    # a name used only by tests/ belongs in tests/: each function, class
    # and method of src/ must be named outside its own definition, in the
    # code of src/ or perfbench/
    root = Path(__file__).resolve().parents[1]
    sources = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(lorenzmap.__file__).parent.glob("*.py"))
    }
    named = {
        name
        for path in (root / "perfbench").glob("*.py")
        for name, _line in _identifiers(ast.parse(path.read_text(encoding="utf-8")))
    }
    uses = {path: _identifiers(tree) for path, tree in sources.items()}
    unnamed = []
    for path, tree in sources.items():
        for name, node in _definitions(tree):
            if name in named:
                continue
            if not any(
                use == name and (other is not path or not node.lineno <= line <= node.end_lineno)
                for other, found in uses.items()
                for use, line in found
            ):
                unnamed.append((name, f"{path.name}:{node.lineno}"))
    assert unnamed == []


def test_sweep_row_with_zero_beta_does_not_stop_the_sweep(capsys):
    code, out = run_cli(
        capsys, "sweep", "--family", "beta", "--alpha", "1/10", "--start", "0",
        "--end", "11/10", "--step", "11/10",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["parameter"] for row in rows] == ["0/1", "11/10"]
    assert [row["status"] for row in rows] == ["invalid-map", "ok"]
    # a row whose map cannot be built has the shape of a row that fails
    # validation: no kappa, no tower, no trichotomy label
    assert rows[0] == {
        "parameter": "0/1",
        "kappa": "",
        "tower_length": "0",
        "periodic_flags": "",
        "trichotomy": "",
        "status": "invalid-map",
    }



# -- the command-line surface -------------------------------------------------

_HELP_ACTION = (("-h", "--help"), "help", "==SUPPRESS==", None, None, False)
_MAP_ACTIONS = [
    (("--family",), "family", None, ["symmetric", "beta"], None, False),
    (("--a",), "a", None, None, None, False),
    (("--beta",), "beta", None, None, None, False),
    (("--alpha",), "alpha", None, None, None, False),
    (("--map-file",), "map_file", None, None, None, False),
]
_CONFIG_ACTIONS = [
    (("--l-max",), "l_max", 64, None, "int", False),
    (("--level-cap",), "level_cap", 16, None, "int", False),
    (("--hit-cap",), "hit_cap", 10000, None, "int", False),
    (("--precision-bits",), "precision_bits", 4096, None, "int", False),
]
# (option strings, dest, default, choices, type name, required) per action
_ACTIONS = {
    "analyze": [
        _HELP_ACTION,
        *_MAP_ACTIONS,
        *_CONFIG_ACTIONS,
        (("--format",), "format", "json", ["json", "csv"], None, False),
    ],
    "classify": [
        _HELP_ACTION,
        *_MAP_ACTIONS,
        *_CONFIG_ACTIONS,
        (("--x",), "x", None, None, None, True),
    ],
    "sweep": [
        _HELP_ACTION,
        (("--family",), "family", None, ["symmetric", "beta"], None, True),
        (("--alpha",), "alpha", None, None, None, False),
        (("--start",), "start", None, None, None, True),
        (("--end",), "end", None, None, None, True),
        (("--step",), "step", None, None, None, True),
        *_CONFIG_ACTIONS,
        (("--format",), "format", "csv", ["csv", "json"], None, False),
    ],
}
_MAP_HELP = """\
  --family {symmetric,beta}
  --a A                 slope for the symmetric family, p/q
  --beta BETA           slope for the beta family, p/q
  --alpha ALPHA         offset for the beta family, p/q
  --map-file MAP_FILE   plain-text map description
"""
_CONFIG_HELP = """\
  --l-max L_MAX
  --level-cap LEVEL_CAP
  --hit-cap HIT_CAP     backward steps of c that the base map's minimal period
                        may take
  --precision-bits PRECISION_BITS
                        echoed in the report only: every scalar is exact
"""
_OPTIONS_HEAD = """
options:
  -h, --help            show this help message and exit
"""
# format_help() of each command at 80 columns
_HELP = {
    "analyze": """\
usage: lorenzmap analyze [-h] [--family {symmetric,beta}] [--a A]
                         [--beta BETA] [--alpha ALPHA] [--map-file MAP_FILE]
                         [--l-max L_MAX] [--level-cap LEVEL_CAP]
                         [--hit-cap HIT_CAP] [--precision-bits PRECISION_BITS]
                         [--format {json,csv}]
""" + _OPTIONS_HEAD + _MAP_HELP + _CONFIG_HELP + "  --format {json,csv}\n",
    "classify": """\
usage: lorenzmap classify [-h] [--family {symmetric,beta}] [--a A]
                          [--beta BETA] [--alpha ALPHA] [--map-file MAP_FILE]
                          [--l-max L_MAX] [--level-cap LEVEL_CAP]
                          [--hit-cap HIT_CAP]
                          [--precision-bits PRECISION_BITS] --x X
""" + _OPTIONS_HEAD + _MAP_HELP + _CONFIG_HELP + """\
  --x X                 point to classify, p/q
""",
    "sweep": """\
usage: lorenzmap sweep [-h] --family {symmetric,beta} [--alpha ALPHA] --start
                       START --end END --step STEP [--l-max L_MAX]
                       [--level-cap LEVEL_CAP] [--hit-cap HIT_CAP]
                       [--precision-bits PRECISION_BITS] [--format {csv,json}]
""" + _OPTIONS_HEAD + """\
  --family {symmetric,beta}
  --alpha ALPHA         fixed offset for beta sweeps, p/q
  --start START
  --end END
  --step STEP
""" + _CONFIG_HELP + "  --format {csv,json}\n",
}


def _command_parsers() -> dict:
    (commands,) = (
        action for action in build_parser()._actions if action.choices is not None
    )
    return commands.choices


@pytest.mark.parametrize("command", sorted(_ACTIONS))
def test_each_command_has_its_options_and_help(monkeypatch, command):
    parser = _command_parsers()[command]
    actions = [
        (
            tuple(action.option_strings),
            action.dest,
            action.default,
            action.choices,
            getattr(action.type, "__name__", None),
            action.required,
        )
        for action in parser._actions
    ]
    assert actions == _ACTIONS[command]
    monkeypatch.setenv("COLUMNS", "80")
    assert parser.format_help() == _HELP[command]


# -- the family and flag tables -----------------------------------------------

# one valid map of each family: its parameter values, in table order
_FAMILY_VALUES = {"symmetric": ["1.2"], "beta": ["23/20", "0.175"]}


def _family_flags(pairs) -> list:
    return [text for name, value in pairs for text in (f"--{name}", value)]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_flags_and_map_file_build_the_same_family_map(family):
    _make, names = FAMILIES[family]
    values = _FAMILY_VALUES[family]
    pairs = list(zip(names, values))
    for order in (1, -1):  # flags and lines in table order, then reversed
        argv = ["analyze", "--family", family, *_family_flags(pairs[::order])]
        m, echo = cli.build_map(build_parser().parse_args(argv))
        lines = [f"{name} = {value}" for name, value in pairs[::order]]
        assert same_map(m, parse_map_text("\n".join([f"family = {family}", *lines])))
        # the echo: the family, its parameters in table order, then the map
        assert list(echo) == ["family", *names, "domain", "c", "left", "right"]
        assert [echo[name] for name in names] == [
            format_scalar(parse_scalar(value)) for value in values
        ]
    # a missing parameter gives one message that names all of them
    needs = " and ".join(f"--{name}" for name in names)
    for dropped in range(len(pairs)):
        kept = pairs[:dropped] + pairs[dropped + 1:]
        argv = ["analyze", "--family", family, *_family_flags(kept)]
        with pytest.raises(cli.InvalidInput) as refused:
            cli.build_map(build_parser().parse_args(argv))
        assert str(refused.value) == f"--family {family} needs {needs}"


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_sweep_varies_the_first_parameter(capsys, family):
    _make, names = FAMILIES[family]
    pairs = list(zip(names, _FAMILY_VALUES[family]))
    code, out = run_cli(
        capsys, "analyze", "--family", family, *_family_flags(pairs), "--format", "csv"
    )
    assert code == 0
    first = pairs[0][1]
    code, swept = run_cli(
        capsys, "sweep", "--family", family, *_family_flags(pairs[1:]),
        "--start", first, "--end", first, "--step", "1",
    )
    assert code == 0 and swept == out and out.count("\n") == 2


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_map_flags_a_run_does_not_read_are_refused(capsys, command):
    # a map file reads none of the map flags, and a family only its own
    point = ["--x", "1/4"] if command == "classify" else []
    custom = (GOLDEN_MAPS / "custom16.map").as_posix()
    runs = [
        (["--map-file", custom, f"--{name}", "beta" if name == "family" else "1/10"],
         f"--map-file reads no --{name} flag")
        for name in cli.MAP_FLAGS
    ]
    for family, (_make, names) in FAMILIES.items():
        given = ["--family", family, *_family_flags(zip(names, _FAMILY_VALUES[family]))]
        runs += [
            ([*given, f"--{name}", "1/10"], f"--family {family} reads no --{name} flag")
            for name in cli.MAP_FLAGS
            if name not in ("family", *names)
        ]
    assert len(runs) == 4 + 3
    for flags, message in runs:
        code, out = run_cli(capsys, command, *flags, *point)
        assert code == 2
        assert json.loads(out) == {"status": "invalid-map", "error": message}


# the least value of each configuration flag, and the refusal of one less
_LEAST = {
    "l_max": (2, "l_max must be at least 2, got 1"),
    "level_cap": (1, "level_cap must be at least 1, got 0"),
    "hit_cap": (0, "hit_cap must be at least 0, got -1"),
}


@pytest.mark.parametrize("key", list(cli.CONFIG_FLAGS))
def test_resolve_config_refuses_a_value_below_its_least(key):
    flag = "--" + key.replace("_", "-")
    map_flags = ["analyze", "--family", "symmetric", "--a", "6/5"]
    if key not in _LEAST:  # precision_bits is only echoed: any value goes
        args = build_parser().parse_args([*map_flags, flag, "-5"])
        assert cli.resolve_config(args)[key] == -5
        return
    least, message = _LEAST[key]
    args = build_parser().parse_args([*map_flags, flag, str(least)])
    assert cli.resolve_config(args) == {**DEFAULT_CONFIG, key: least}
    args = build_parser().parse_args([*map_flags, flag, str(least - 1)])
    with pytest.raises(cli.InvalidInput) as refused:
        cli.resolve_config(args)
    assert str(refused.value) == message


def test_cached_parser_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    map_flags = ["analyze", "--family", "symmetric", "--a", "3/2"]
    code, out = run_cli(capsys, *map_flags, "--l-max", "8")
    assert code == 0 and json.loads(out)["config"]["l_max"] == 8
    code, out = run_cli(capsys, *map_flags)
    assert code == 0 and json.loads(out)["config"]["l_max"] == 64
    code, out = run_cli(capsys, *map_flags, "--format", "csv")
    assert code == 0 and out.splitlines()[0] == ",".join(cli.SWEEP_COLUMNS)
    code, out = run_cli(capsys, *map_flags)
    assert code == 0 and json.loads(out)["tower"]["bound"] == 64


def test_command_is_looked_up_when_main_runs(capsys, monkeypatch):
    # wrappers installed on cli.cmd_* after the parser was first built are
    # the ones dispatched
    run_cli(capsys, "analyze", "--family", "symmetric", "--a", "6/5")
    seen = []

    def replacement(args):
        seen.append((args.command, args.a))
        return 7

    monkeypatch.setattr(cli, "cmd_analyze", replacement)
    code, out = run_cli(capsys, "analyze", "--family", "symmetric", "--a", "6/5")
    assert (code, out, seen) == (7, "", [("analyze", "6/5")])


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit before 3.11"
)
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--family", "symmetric", "--a", "6/5"],
        ["analyze", "--family", "symmetric"],  # exit 2 inside the command
        ["analyze", "--no-such-flag"],  # argparse exits
    ],
)
def test_main_restores_the_int_digit_limit(capsys, argv):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        try:
            main(argv)
        except SystemExit:
            pass
        capsys.readouterr()
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(saved)


# -- mutated map texts ---------------------------------------------------------

MAP_TEXT_MUTATIONS = (
    "drop-key",
    "unbalance",
    "reorder",
    "non-positive-slope",
    "jump",
    "limit-at-c",
    "escape",
    "c-outside",
    "malformed-scalar",
    "precision",
    "no-equals",
    "domain-arity",
    "repeat-key",
    "unread-key",
)
BRANCH_SHAPE_ERRORS = (
    "need one more breakpoint than pieces",
    "slopes and intercepts must pair up",
    "branch needs at least one piece",
)
MALFORMED_SCALARS = ("1/0", "abc", "1//2", "0x10", "--1", "1/2/3", "3/-", "1e", ".")


def _map_fields(m) -> dict:
    """A ``family = custom`` map text as mutable lists of values, by key."""
    fields = {"family": ["custom"], "domain": [m.a, m.b], "c": [m.c]}
    for side, branch in (("left", m.left), ("right", m.right)):
        for name in ("breakpoints", "slopes", "intercepts"):
            fields[f"{side}_{name}"] = list(getattr(branch, name))
    return fields


def _split_first_piece(bps: list, slopes: list, intercepts: list) -> None:
    """Cut the first piece of a branch in two collinear halves: the same map."""
    bps.insert(1, (bps[0] + bps[1]) / 2)
    slopes.insert(0, slopes[0])
    intercepts.insert(0, intercepts[0])


def _mutate(fields: dict, mutation: str, data) -> tuple:
    """Plant one fault in ``fields``; returns ``(kind, expected)``.

    ``kind`` is ``"error"`` for a text that cannot be built into a map,
    with ``expected`` a tuple of messages one of which the error holds,
    and ``"violation"`` for a map that validation refuses, with
    ``expected`` a part of the planted violation.  Every mutant is an
    invalid map.
    """
    a, b = fields["domain"]
    side = data.draw(st.sampled_from(("left", "right")))
    bps = fields[f"{side}_breakpoints"]
    slopes, intercepts = fields[f"{side}_slopes"], fields[f"{side}_intercepts"]
    if mutation == "drop-key":
        key = data.draw(st.sampled_from(sorted(fields)))
        del fields[key]
        if key == "family":
            return "error", ("unknown family",)
        return "error", (f"no {key!r} line",)
    if mutation == "unbalance":
        name = data.draw(st.sampled_from(("breakpoints", "slopes", "intercepts")))
        values = fields[f"{side}_{name}"]
        how = data.draw(st.sampled_from(("append", "pop", "no-pieces")))
        if how == "append":
            values.append(values[-1])
        elif how == "pop":
            values.pop()
        else:  # counts that agree, but no piece at all
            del bps[1:], slopes[:], intercepts[:]
        return "error", BRANCH_SHAPE_ERRORS
    if mutation == "reorder":
        while len(bps) < 4:  # two internal breakpoints at least
            _split_first_piece(bps, slopes, intercepts)
        i = data.draw(st.integers(0, len(bps) - 2))
        bps[i], bps[i + 1] = bps[i + 1], bps[i]
        if 0 < i < len(bps) - 2:  # both ends kept
            return "violation", f"{side} branch breakpoints are not strictly increasing"
        return "violation", f"{side} branch domain does not tile its side of the domain"
    if mutation == "non-positive-slope":
        i = data.draw(st.integers(0, len(slopes) - 1))
        slopes[i] = data.draw(st.sampled_from((F(0), F(-1, 3), -slopes[i])))
        return "violation", f"{side} branch piece {i} is not strictly increasing"
    shift = data.draw(st.sampled_from((F(-1, 7), F(1, 100), F(3))))
    if mutation == "jump":
        if len(slopes) == 1:
            _split_first_piece(bps, slopes, intercepts)
        i = data.draw(st.integers(1, len(slopes) - 1))
        intercepts[i] += shift
        at = format_scalar(bps[i])
        return "violation", f"{side} branch discontinuous at breakpoint {at}"
    if mutation == "limit-at-c":
        # the whole branch moves, so it stays continuous but misses its
        # one-sided value at c
        intercepts[:] = [t + shift for t in intercepts]
        if side == "left":
            return "violation", "left limit at c is"
        return "violation", "right limit at c is"
    if mutation == "escape":
        # the end piece is turned about its inner end until f(a) or f(b)
        # lies one domain width outside; its slope stays above 1
        i, end, inner = (0, a, bps[1]) if side == "left" else (-1, b, bps[-2])
        target = a - (b - a) if side == "left" else b + (b - a)
        y = slopes[i] * inner + intercepts[i]
        slopes[i] = (target - y) / (end - inner)
        intercepts[i] = y - slopes[i] * inner
        name = "f(a)" if side == "left" else "f(b)"
        return "violation", f"{name} = {format_scalar(target)} escapes the domain"
    if mutation == "c-outside":
        fields["c"] = [data.draw(st.sampled_from((a, b, a - 1, b + F(1, 3))))]
        return "violation", "domain order violated: need a < c < b"
    if mutation == "precision":
        digits = data.draw(st.integers(1, 40))
        fields["precision"] = [str(digits)]
        return "error", ("family 'custom' reads no 'precision' line",)
    if mutation == "domain-arity":
        count = data.draw(st.sampled_from((0, 1, 3)))
        fields["domain"] = [a, b, a][:count]
        return "error", (f"'domain' needs two values, got {count}",)
    if mutation == "repeat-key":
        # the repeated line comes last, with the key in upper case
        key = data.draw(st.sampled_from(sorted(fields)))
        values = " ".join(_value_texts(fields[key]))
        fields["repeated"] = f"{key.upper()} = {values}"
        return "error", (f"map file repeats the {key!r} line",)
    if mutation == "unread-key":
        # a key of another family, or a misspelt one
        key = data.draw(st.sampled_from(("a", "beta", "alpha", "precison", "left_slope")))
        fields[key] = ["10"]
        return "error", (f"family 'custom' reads no {key!r} line",)
    if mutation == "no-equals":
        key = data.draw(st.sampled_from(sorted(fields)))
        fields[key] = " ".join([key, *_value_texts(fields[key])])
        return "error", ("expected 'key = value'",)
    assert mutation == "malformed-scalar"
    values = fields[data.draw(st.sampled_from(sorted(set(fields) - {"family"})))]
    bad = data.draw(st.sampled_from(MALFORMED_SCALARS))
    values[data.draw(st.integers(0, len(values) - 1))] = bad
    return "error", (repr(bad),)


def _value_texts(values) -> list:
    return [v if isinstance(v, str) else format_scalar(v) for v in values]


def _map_text(fields: dict) -> str:
    # a field that is already one string is a whole line, planted as it is
    lines = [
        values if isinstance(values, str) else f"{key} = {' '.join(_value_texts(values))}"
        for key, values in fields.items()
    ]
    return "\n".join(lines) + "\n"


def _run_mutant(tmp_path_factory, text: str, command: str) -> tuple:
    """``main`` on a map file holding ``text``: ``(exit code, stdout, stderr)``."""
    path = tmp_path_factory.getbasetemp() / "mutant.map"
    path.write_text(text, encoding="utf-8")
    argv = [command, "--map-file", str(path)]
    if command == "classify":
        argv += ["--x", "1/4"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # a traceback would fail the test here
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(multi_piece_maps(), st.booleans(), st.data())
def test_mutated_map_texts_exit_with_the_planted_fault(
    tmp_path_factory, m, moved, data
):
    # every mutation is planted in its own copy of each drawn map
    m = moved_to_minus_3_5(m) if moved else m
    for mutation in MAP_TEXT_MUTATIONS:
        fields = _map_fields(m)
        kind, expected = _mutate(fields, mutation, data)
        command = data.draw(st.sampled_from(("analyze", "classify")))
        code, out, err = _run_mutant(tmp_path_factory, _map_text(fields), command)
        assert code == cli.EXIT_INVALID_MAP and err == ""
        report = json.loads(out)
        assert report["status"] == "invalid-map"
        if kind == "error":
            assert any(message in report["error"] for message in expected), report
            continue
        if command == "analyze":
            report = report["validation"]
        assert any(expected in v for v in report["violations"]), report
