import csv
import gc
import io
import json
import random
import sys
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from lorenzmap import cli
from lorenzmap.cli import build_parser, main
from lorenzmap.maps import (
    SidedPoint,
    beta_transformation,
    iterate,
    parse_map_text,
    symmetric_map,
)
from lorenzmap.numerics import parse_scalar

from conftest import LONG_ORBIT_MAP_TEXT, piece_map

PRIME_BAND_LOW = F(2) ** F(1, 2)  # tower length drops to 0 past sqrt(2)


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


def test_precision_exhausted_exit_code(capsys, tmp_path):
    fuzzy = tmp_path / "fuzzy.map"
    fuzzy.write_text("family = symmetric\na = 1.4142135624\nprecision = 10\n")
    code, out = run_cli(capsys, "analyze", "--map-file", str(fuzzy))
    assert code == 3
    assert json.loads(out)["status"] == "precision-exhausted"


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
    assert iterate(m, flank_left, 662) == SidedPoint(flank_left)


def test_partial_report_when_an_analysis_stage_raises(capsys, monkeypatch):
    # an exception past the tower keeps the sections already filled in
    def exhausted(*_args, **_kwargs):
        raise cli.CapExceeded("omega cap reached")

    monkeypatch.setattr(cli, "omega_decomposition", exhausted)
    code, out = run_cli(capsys, "analyze", "--family", "symmetric", "--a", "6/5")
    assert code == 4
    report = json.loads(out)
    assert report["status"] == "cap-exceeded"
    assert report["error"] == "omega cap reached"
    assert list(report) == [
        "status",
        "map",
        "validation",
        "kappa",
        "backward_steps",
        "backward_chain",
        "orbit",
        "trichotomy",
        "tower",
        "error",
        "config",
    ]


def test_csv_output_runs_no_report_stage(capsys, monkeypatch):
    sweep = ["sweep", "--family", "symmetric", "--start", "11/10", "--end", "2",
             "--step", "1/10"]
    analyze = ["analyze", "--family", "symmetric", "--a", "6/5"]
    before = [run_cli(capsys, *sweep), run_cli(capsys, *analyze, "--format", "csv")]

    def exhausted(*_args, **_kwargs):
        raise cli.CapExceeded("report stage reached")

    for stage in ("minimal_periodic_orbit", "orbit_unions", "omega_decomposition"):
        monkeypatch.setattr(cli, stage, exhausted)
    after = [run_cli(capsys, *sweep), run_cli(capsys, *analyze, "--format", "csv")]
    assert after == before
    assert [code for code, _out in after] == [0, 0]
    assert len(after[0][1].splitlines()) == 11
    # the JSON report still runs them, and keeps what the summary stages filled in
    code, out = run_cli(capsys, *analyze)
    report = json.loads(out)
    assert (code, report["status"], report["error"]) == (
        4, "cap-exceeded", "report stage reached"
    )
    assert report["orbit"] is None and len(report["tower"]["levels"]) == 1
    assert "omega" not in report


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
    default = cli.Config(**cli.DEFAULTS)
    configs = [default, replace(default, l_max=8, level_cap=2, hit_cap=1)]
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
    default = cli.Config(**cli.DEFAULTS)
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
    build, dumps = cli.build_map, json.dumps

    def recording(args):
        m, echo = build(args)
        maps.append(weakref.ref(m))
        return m, echo

    def checking(obj, **kwargs):
        alive.append(maps[0]() is not None)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(cli, "build_map", recording)
    monkeypatch.setattr(json, "dumps", checking)
    enabled = gc.isenabled()
    gc.disable()
    try:
        code, _out = run_cli(capsys, "analyze", "--family", "symmetric", "--a", "6/5")
    finally:
        if enabled:
            gc.enable()
    assert code == 0 and alive == [False]


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
CUSTOM_PRECISION_MAP = (
    "family = custom\ndomain = 0 1\nc = 1/2\n"
    "left_breakpoints = 0 1/2\nleft_slopes = 3/2\nleft_intercepts = 1/4\n"
    "right_breakpoints = 1/2 1\nright_slopes = 3/2\nright_intercepts = -3/4\n"
    "precision = 10\n"
)


@pytest.mark.parametrize(
    "argv, map_text, code, status",
    [
        (["classify", "--x", "1/3"], PRECISION_MAP, 3, "precision-exhausted"),
        (["analyze"], CUSTOM_PRECISION_MAP, 3, "precision-exhausted"),
        (["analyze"], MISSING_KEY_MAP, 2, "invalid-map"),
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
    ],
    ids=[
        "classify-precision-map",
        "custom-precision-map",
        "missing-key",
        "zero-denominator",
        "beta-zero",
        "l-max-below-2",
        "level-cap-below-1",
        "hit-cap-below-0",
        "beta-without-alpha",
        "no-map",
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
