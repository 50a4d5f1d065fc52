"""Command-line flows: build, decode, attack, experiment, sweep, bounds.

Everything runs through main(argv) in-process; stdout is parsed back as
JSON and compared across runs for byte-level determinism.
"""

import base64
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ecds
from ecds.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_bounds_ip_exact_value(capsys):
    body = run_json(
        capsys, "bounds", "ip", "--n", "4", "--r", "2", "--eps", "0.25", "--p", "1"
    )
    assert body["exact"] == "11/16"
    assert body["structure_length_table"] == 11
    assert body["inputs"]["ball"] == 11
    assert body["config"]["formula"] == "ip"


def test_bounds_one_probe(capsys):
    body = run_json(
        capsys, "bounds", "one-probe", "--delta", "0.01", "--eps", "0.25"
    )
    assert body["value"] == pytest.approx(529.88028, abs=1e-4)


def test_bounds_membership(capsys):
    body = run_json(capsys, "bounds", "membership", "--n", "3", "--s", "3")
    assert body["value"] == 3.0 and body["exact"] == "3"


def test_bounds_ip_comm(capsys):
    body = run_json(
        capsys, "bounds", "ip-comm", "--n", "10", "--r", "10", "--beta", "0.5"
    )
    assert body["value"] == pytest.approx(10.0)


def test_bounds_discrepancy(capsys):
    body = run_json(
        capsys, "bounds", "discrepancy", "--n", "2", "--r", "2", "--samples", "50"
    )
    assert body["mode"] == "exhaustive"
    assert body["violations"] == 0


@pytest.mark.parametrize("argv", [("ip", "--n", "200000", "--r", "100000"), ("membership", "--n", "200000", "--s", "100000")])
def test_bounds_ball_past_desk_time_exits_4_at_once(capsys, argv):
    """A ball of 10^5 binomials of up to 2*10^5 bits is refused before
    it is summed, where the sum ran for over 20 s."""
    t0 = time.perf_counter()
    code, out, err = run(capsys, "bounds", *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "InfeasibleSizeError"


@pytest.mark.parametrize("argv", ["--n 200000 --r 300", "--n 4095 --r 4095 --p 2"])
def test_bounds_ip_past_float_range_exits_4(capsys, argv):
    code, out, err = run(capsys, "bounds", "ip", *argv.split())
    assert code == 4 and out == ""
    body = json.loads(err)
    assert body["error"] == "InfeasibleSizeError" and "float range" in body["message"]


def test_bounds_ip_negative_length_names_n(capsys):
    code, out, err = run(capsys, "bounds", "ip", "--n", "-1", "--r", "0")
    assert code == 3 and out == ""
    assert json.loads(err)["message"] == "need n >= 0, got -1"


def test_bounds_discrepancy_echoes_its_seed(capsys, monkeypatch):
    monkeypatch.setenv("ECDS_SEED", "5")
    body = run_json(capsys, "bounds", "discrepancy", "--n", "3", "--r", "1", "--samples", "50")
    assert body["inputs"]["seed"] == body["config"]["seed"] == 5


def test_bounds_missing_flag_exits_3(capsys):
    code, out, err = run(capsys, "bounds", "one-probe", "--eps", "0.25")
    assert code == 3
    assert json.loads(err)["error"] == "ParameterError"


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("ip --r 2", "--n"),
        ("ip --n 4", "--r"),
        ("ip-comm --beta 0.5", "--n"),
        ("membership --n 4", "--s"),
        ("discrepancy --n 4", "--r"),
    ],
)
def test_bounds_formula_flags_are_required(capsys, argv, flag):
    code, out, err = run(capsys, "bounds", *argv.split())
    assert code == 3 and out == ""
    body = json.loads(err)
    assert body["error"] == "ParameterError"
    assert body["message"].startswith(flag + " is required")


@pytest.mark.parametrize(
    "argv",
    [
        "ip --n 4 --r 2 --eps 0.25 --p 0",
        "ip --n 4 --r 9 --eps 0.25",
        "ip --n 4 --r -1 --eps 0.25",
        "ip-comm --n 4 --r 9 --beta 0.25",
        "ip-comm --n 4 --r -1 --beta 0.25",
        "discrepancy --n 3 --r 9",
        "discrepancy --n 4 --r 2 --samples 0",
        "discrepancy --n 4 --r 2 --samples -5",
    ],
)
def test_bounds_degenerate_value_is_refused(capsys, argv):
    code, out, err = run(capsys, "bounds", *argv.split())
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParameterError"


def test_build_decode_attack_cycle(tmp_path, capsys):
    st = str(tmp_path / "had.ecds")
    body = run_json(
        capsys,
        "build",
        "--scheme",
        "had-ip",
        "--n",
        "4",
        "--x",
        "1011",
        "--out-file",
        st,
    )
    assert body["length"] == 16
    assert body["params"]["x"] == "1011"

    body = run_json(capsys, "decode", "--structure", st, "--query", "1000", "--seed", "5")
    assert body["answer"] == 1
    assert body["probes_used"] == 2 and body["budget"] == 2

    pat = str(tmp_path / "flips.json")
    body = run_json(
        capsys,
        "attack",
        "--structure",
        st,
        "--kind",
        "random_flips",
        "--budget",
        "3",
        "--out-file",
        pat,
        "--seed",
        "1",
    )
    assert body["weight"] == 3

    body = run_json(
        capsys,
        "decode",
        "--structure",
        st,
        "--query",
        "0000",
        "--pattern",
        pat,
        "--seed",
        "2",
    )
    assert body["pattern_weight"] == 3
    assert body["answer"] in (0, 1)


def test_attack_budget_from_delta(tmp_path, capsys):
    st = str(tmp_path / "sub.ecds")
    run_json(
        capsys,
        "build",
        "--scheme",
        "substring",
        "--n",
        "8",
        "--r",
        "4",
        "--x",
        "10110100",
        "--out-file",
        st,
    )
    pat = str(tmp_path / "flips.json")
    body = run_json(
        capsys,
        "attack",
        "--structure",
        st,
        "--kind",
        "piece_killer",
        "--delta",
        "0.125",
        "--target",
        "10000000",
        "--out-file",
        pat,
    )
    # floor(0.125 * 16) = 2 flips allowed, quarter of a 4-bit piece is 1
    assert body["config"]["budget"] == 2
    assert body["weight"] == 1


@pytest.mark.parametrize(
    "flags", [[], ["--delta", "0.1", "--budget", "3"]], ids=["neither", "both"]
)
def test_attack_needs_exactly_one_of_delta_and_budget(tmp_path, capsys, flags):
    """Without a budget the attack would write an empty pattern, and with
    both one would silently win: each exits 3 and writes no pattern."""
    st, pat = str(tmp_path / "had.ecds"), tmp_path / "p.json"
    run_json(capsys, "build", "--scheme", "had-ip", "--n", "4", "--x", "1011", "--out-file", st)
    code, out, err = run(
        capsys, "attack", "--structure", st, "--kind", "random_flips", *flags,
        "--out-file", str(pat),
    )
    assert code == 3 and out == "" and not pat.exists()
    assert json.loads(err)["error"] == "ParameterError"


def test_build_membership_and_decode(tmp_path, capsys):
    st = str(tmp_path / "mem.ecds")
    body = run_json(
        capsys,
        "build",
        "--scheme",
        "mem-1p",
        "--n",
        "8",
        "--s",
        "1",
        "--eps",
        "0.3",
        "--seed",
        "4",
        "--out-file",
        st,
    )
    assert body["build"]["attempts"] >= 1
    assert body["build"]["verification_violations"] == 0
    body = run_json(capsys, "decode", "--structure", st, "--query", "3", "--seed", "0")
    assert body["probes_used"] == 1


def test_build_composed_small(tmp_path, capsys):
    st = str(tmp_path / "comp.ecds")
    body = run_json(
        capsys,
        "build",
        "--scheme",
        "mem-composed",
        "--n",
        "16",
        "--s",
        "1",
        "--eps",
        "0.4",
        "--a",
        "5",
        "--b",
        "40",
        "--seed",
        "3",
        "--out-file",
        st,
    )
    assert body["build"]["good_count"] >= 1
    assert body["length"] == 40 * 32
    q = str(body["build"]["good_count"] and 1)
    body = run_json(capsys, "decode", "--structure", st, "--query", q)
    assert body["budget"] == 2


def test_experiment_exact_json(capsys):
    body = run_json(
        capsys,
        "experiment",
        "--scheme",
        "had-ip",
        "--n",
        "6",
        "--x",
        "101101",
        "--queries",
        "all",
        "--trials",
        "10",
        "--seed",
        "0",
    )
    assert body["worst_error"] == 0.0
    assert len(body["results"]) == 64
    assert all(r["mode"] == "exact" for r in body["results"])


def test_experiment_is_deterministic(capsys):
    argv = (
        "experiment",
        "--scheme",
        "equality",
        "--n",
        "5",
        "--x",
        "10110",
        "--adversary",
        "random_flips",
        "--delta",
        "0.05",
        "--queries",
        "sample:4",
        "--trials",
        "50",
        "--seed",
        "9",
    )
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    body = json.loads(out1)
    assert body["budget"] == 1  # floor(0.05 * 32)


def test_experiment_csv(capsys):
    code, out, err = run(
        capsys,
        "experiment",
        "--scheme",
        "ip-table",
        "--n",
        "5",
        "--r",
        "2",
        "--x",
        "10110",
        "--queries",
        "01000,00011",
        "--trials",
        "10",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("scheme,")


def test_experiment_from_stored_structure(tmp_path, capsys):
    st = str(tmp_path / "poly.ecds")
    run_json(
        capsys,
        "build",
        "--scheme",
        "ip-poly",
        "--n",
        "2",
        "--r",
        "1",
        "--p",
        "2",
        "--x",
        "11",
        "--out-file",
        st,
    )
    body = run_json(
        capsys,
        "experiment",
        "--structure",
        st,
        "--queries",
        "all",
        "--trials",
        "10",
    )
    assert body["scheme"] == "ip-poly"
    assert body["worst_error"] == 0.0


def test_experiment_query_cap(capsys):
    code, out, err = run(
        capsys,
        "experiment",
        "--scheme",
        "had-ip",
        "--n",
        "13",
        "--queries",
        "all",
        "--trials",
        "10",
    )
    assert code == 3
    assert "too many" in json.loads(err)["message"]


def test_sweep_grid(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(
        json.dumps(
            [
                {
                    "scheme": "had-ip",
                    "n": 4,
                    "x": "1010",
                    "queries": "all",
                    "trials": 10,
                },
                {"scheme": "had-ip"},  # missing n: recorded as an error
            ]
        )
    )
    out_path = tmp_path / "sweep.json"
    code, _, err = run(capsys, "sweep", "--grid", str(grid), "--out", str(out_path))
    assert code == 0, err
    cells = json.loads(out_path.read_text())
    assert "report" in cells[0]
    assert cells[0]["report"]["worst_error"] == 0.0
    assert cells[1]["error"].startswith("ParameterError")


@pytest.mark.parametrize(
    "field, value, rule",
    [("trials", 10.5, "trials >= 1"), ("trials", True, "trials >= 1"), ("trials", 0, "trials >= 1"),
     ("budget", 1.5, "budget >= 0"), ("budget", True, "budget >= 0"), ("budget", -1, "budget >= 0")],
)
def test_sweep_records_non_integer_trials_and_budget(tmp_path, capsys, field, value, rule):
    """A cell whose trials or flip budget is not an integer in range
    records a ParameterError; the other cells still report."""
    cell = {"scheme": "had-ip", "n": 4, "x": "1010", "queries": "all", "trials": 10, "adversary": "random_flips", "budget": 1}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([dict(cell, **{field: value}), cell]))
    cells = run_json(capsys, "sweep", "--grid", str(grid))
    assert cells[0]["error"] == "ParameterError: need %s, got %r" % (rule, value)
    assert "report" in cells[1]


@pytest.mark.parametrize(
    "bad, error",
    [({"seed": 1.5}, "need an integer seed, got 1.5"), ({"seed": True}, "need an integer seed, got True"),
     ({"seed": "abc"}, "need an integer seed, got 'abc'"), (5, "a sweep cell must be a JSON object, got 5")],
)
def test_sweep_records_bad_seed_and_non_object_cell(tmp_path, capsys, bad, error):
    """A cell whose seed is not an integer, or that is not an object,
    records a ParameterError; the cell beside it still reports, with its
    own seed."""
    cell = {"scheme": "had-ip", "n": 4, "x": "1010", "queries": "all", "trials": 10, "seed": -3}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([dict(cell, **bad) if isinstance(bad, dict) else bad, cell]))
    cells = run_json(capsys, "sweep", "--grid", str(grid))
    assert cells[0]["error"] == "ParameterError: " + error
    assert cells[1]["report"]["seed"] == -3


@pytest.mark.parametrize(
    "bad, error",
    [({"structure": 1}, "need a structure file name, got 1"), ({"structure": 0}, "need a structure file name, got 0"),
     ({"delta": True}, "noise rate True is not a number in [0, 1]"), ({"queries": 7}, "need a query selector string, got 7"),
     ({"n": True}, "need an integer n, got True")],
    ids=["structure-1", "structure-0", "delta-true", "queries-7", "n-true"],
)
def test_sweep_records_cells_of_the_wrong_type(tmp_path, capsys, bad, error):
    """A cell whose structure or queries is not a string, whose delta is
    a bool, or whose n is not an int records a ParameterError, and the
    cell beside it still reports: structure 1 once read and closed
    stdout and ended the sweep with exit 6, delta true was the rate 1,
    queries 7 an AttributeError and n true a had-ip of length 2."""
    cell = {"scheme": "had-ip", "n": 3, "x": "101", "queries": "all", "trials": 10, "adversary": "random_flips"}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([dict(cell, **bad), cell]))
    cells = run_json(capsys, "sweep", "--grid", str(grid))
    assert cells[0]["error"] == "ParameterError: " + error
    assert cells[1]["report"]["length"] == 8


@pytest.mark.parametrize("flags", [("--trials", "0"), ("--budget", "-1"), ("--trials", "-5", "--budget", "2")])
def test_experiment_trials_and_budget_out_of_range_exit_3(capsys, flags):
    code, out, err = run(capsys, "experiment", "--scheme", "had-ip", "--n", "4", "--adversary", "random_flips", *flags)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParameterError"


@pytest.mark.parametrize("flags", [("--trials", "10.5"), ("--trials", "true"), ("--budget", "1.5")])
def test_experiment_non_integer_trials_and_budget_are_refused(capsys, flags):
    """The flags are integers to the parser, which refuses anything else
    (its usage error, exit 2) before a scheme is built."""
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--scheme", "had-ip", "--n", "4", "--adversary", "random_flips", *flags])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


def test_exit_code_infeasible(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "build",
        "--scheme",
        "had-ip",
        "--n",
        "30",
        "--out-file",
        str(tmp_path / "x.ecds"),
    )
    assert code == 4
    assert json.loads(err)["error"] == "InfeasibleSizeError"


def test_exit_code_missing_file(capsys):
    code, out, err = run(
        capsys, "decode", "--structure", "/nonexistent/file", "--query", "1"
    )
    assert code == 6


def test_exit_code_unknown_scheme(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "experiment",
        "--scheme",
        "ip-table",
        "--n",
        "4",
        "--trials",
        "10",
    )
    assert code == 3  # missing --r


def test_seed_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ECDS_SEED", "123")
    a = str(tmp_path / "a.ecds")
    b = str(tmp_path / "b.ecds")
    run_json(capsys, "build", "--scheme", "mem-1p", "--n", "8", "--s", "1",
             "--eps", "0.3", "--out-file", a)
    run_json(capsys, "build", "--scheme", "mem-1p", "--n", "8", "--s", "1",
             "--eps", "0.3", "--out-file", b)
    assert open(a, "rb").read() == open(b, "rb").read()
    c = str(tmp_path / "c.ecds")
    run_json(capsys, "build", "--scheme", "mem-1p", "--n", "8", "--s", "1",
             "--eps", "0.3", "--seed", "7", "--out-file", c)
    assert open(c, "rb").read() != open(a, "rb").read()


def test_bad_environment_seed(capsys, monkeypatch):
    monkeypatch.setenv("ECDS_SEED", "xyz")
    code, out, err = run(
        capsys, "experiment", "--scheme", "had-ip", "--n", "4", "--trials", "10"
    )
    assert code == 3


def test_equality_linear_code_build(tmp_path, capsys):
    st = str(tmp_path / "eq.ecds")
    body = run_json(
        capsys,
        "build",
        "--scheme",
        "equality",
        "--n",
        "4",
        "--x",
        "1100",
        "--code",
        "linear",
        "--code-length",
        "24",
        "--seed",
        "2",
        "--out-file",
        st,
    )
    assert body["length"] == 24
    body = run_json(capsys, "decode", "--structure", st, "--query", "1100")
    assert body["probes_used"] == 1


def test_output_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys,
        "bounds",
        "membership",
        "--n",
        "4",
        "--s",
        "2",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert stdout == ""
    assert json.loads(out_path.read_text())["inputs"]["ball"] == 11


@pytest.mark.parametrize("delta", ["inf", "nan", "2"])
def test_noise_rate_outside_the_unit_interval_is_refused(tmp_path, capsys, delta):
    """A noise rate is a fraction of the word: experiment, attack and the
    one-probe bound each exit 3 with a JSON error line on inf, nan and 2,
    where inf raised OverflowError (exit 1), 2 flipped the whole word and
    nan printed a NaN bound."""
    st, pat = str(tmp_path / "had.ecds"), tmp_path / "p.json"
    run_json(capsys, "build", "--scheme", "had-ip", "--n", "6", "--x", "101101", "--out-file", st)
    for argv in (
        ["experiment", "--structure", st, "--adversary", "random_flips", "--delta", delta],
        ["attack", "--structure", st, "--kind", "random_flips", "--delta", delta, "--out-file", str(pat)],
        ["bounds", "one-probe", "--delta", delta, "--eps", "0.1"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and not pat.exists()
        assert json.loads(err)["error"] == "ParameterError"


@pytest.mark.parametrize("scheme, query", [("had-ip", "11"), ("equality", "101100")])
def test_decode_refuses_wrong_length_query(tmp_path, capsys, scheme, query):
    st = str(tmp_path / "s.ecds")
    run_json(capsys, "build", "--scheme", scheme, "--n", "4", "--x", "1011", "--out-file", st)
    code, out, err = run(capsys, "decode", "--structure", st, "--query", query)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParameterError"


@pytest.mark.parametrize("selector", ["sample:0", "sample:-1", ","])
def test_empty_query_selection_is_refused(capsys, selector):
    code, out, err = run(
        capsys, "experiment", "--scheme", "had-ip", "--n", "4", "--x", "1011",
        "--queries", selector, "--trials", "10",
    )
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParameterError"


@pytest.mark.parametrize(
    "argv",
    [
        ["attack", "--kind", "greedy_local", "--delta", "0.05", "--out-file", "p.json"],
        ["experiment", "--queries", "all", "--trials", "10"],
    ],
    ids=["attack", "experiment"],
)
def test_equality_query_enumeration_is_refused(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    run_json(capsys, "build", "--scheme", "equality", "--n", "4", "--x", "1011", "--out-file", "eq.ecds")
    code, out, err = run(capsys, argv[0], "--structure", "eq.ecds", *argv[1:])
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParameterError"


def test_cli_import_leaves_out_scipy_stats():
    """scipy.stats would be most of every ecds process's import time and
    memory, and the CLI needs none of it; scipy.special is loaded only
    when a Monte Carlo interval is computed, and numpy.random (8-10 ms)
    only when a random flip pattern is drawn."""
    src = str(Path(ecds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ecds.cli; "
         "print([m in sys.modules for m in ('scipy.stats', 'scipy.special', 'numpy.random')])"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout == "[False, False, False]\n"


SCHEME_FLAGS = {
    "ip-table": ["--n", "4", "--r", "2"],
    "ip-poly": ["--n", "4", "--r", "2"],
    "substring": ["--n", "4", "--r", "2"],
    "mem-1p": ["--n", "8", "--s", "1", "--eps", "0.3"],
    "mem-composed": ["--n", "16", "--s", "1", "--eps", "0.4", "--a", "5", "--b", "40"],
}


@pytest.mark.parametrize(
    "scheme, flag",
    [
        ("ip-table", "p"),
        ("ip-poly", "p"),
        ("substring", "t"),
        ("mem-1p", "eps"),
        ("mem-composed", "eps"),
        ("mem-composed", "a"),
        ("mem-composed", "b"),
    ],
)
def test_zero_flag_is_refused_not_defaulted(tmp_path, capsys, scheme, flag):
    code, out, err = run(
        capsys,
        "build",
        "--scheme",
        scheme,
        *SCHEME_FLAGS[scheme],
        "--" + flag,
        "0",
        "--out-file",
        str(tmp_path / "x.ecds"),
    )
    assert code == 3, out
    assert json.loads(err)["error"] == "ParameterError"


@pytest.mark.parametrize("r, p", [("9", "3"), ("5", "1")])
def test_table_r_beyond_n_is_refused_before_saving(tmp_path, capsys, r, p):
    """r past n once saved a file that every later call refused."""
    path = tmp_path / "x.ecds"
    code, out, err = run(
        capsys, "build", "--scheme", "ip-table", "--n", "4", "--r", r, "--p", p,
        "--x", "1011", "--out-file", str(path),
    )
    assert code == 3, out
    assert json.loads(err)["error"] == "ParameterError"
    assert not path.exists()


def readme_cli_commands():
    """Each `ecds ...` line of the README's CLI section, as an argv."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = section.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("ecds ")]


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_commands()
    assert {argv[0] for argv in commands} == {
        "build", "decode", "attack", "experiment", "bounds", "sweep"
    }
    for argv in commands:
        if argv[0] == "sweep":
            cell = {"scheme": "had-ip", "n": 4, "x": "1011", "trials": 10}
            (tmp_path / "grid.json").write_text(json.dumps([cell]))
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


@pytest.mark.parametrize(
    "scheme, field, cast",
    [
        ("mem-1p", "probe_sets", float),
        ("mem-1p", "probe_sets", str),
        ("mem-composed", "probe_sets", float),
        ("mem-composed", "probe_sets", str),
        ("mem-composed", "perm", float),
        ("mem-composed", "perm", str),
    ],
)
def test_non_integer_membership_header_is_refused(tmp_path, capsys, scheme, field, cast):
    """Positions written as 118.0 or "118" in a version-1 header (JSON
    lists) are refused, not cast to int."""
    path = tmp_path / "m.ecds"
    run_json(capsys, "build", "--scheme", scheme, *SCHEME_FLAGS[scheme], "--out-file", str(path))
    line, payload = path.read_bytes().split(b"\n", 1)
    head = json.loads(line)
    values = unpacked(head[field]).tolist()
    head[field] = [[cast(v) for v in row] for row in values] if field == "probe_sets" else [cast(v) for v in values]
    head["version"] = 1
    path.write_bytes(json.dumps(head).encode() + b"\n" + payload)
    code, out, err = run(capsys, "decode", "--structure", str(path), "--query", "1")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParameterError"


@pytest.mark.parametrize(
    "position, packed",
    [("wrap", False), (0, False), (-1, False), ("wrap", True)],
    ids=["wraps-onto-itself", "zero", "negative", "packed-u4"],
)
def test_probe_set_range_is_checked_before_narrowing(tmp_path, capsys, position, packed):
    """A mem-composed file (n' = 4032, probe sets held as uint16) with a
    position outside [1, n'] exits 3, also when narrowing to uint16
    would have wrapped it back onto its own value (which keeps the row
    duplicate-free), and whether the header lists it (version 1) or
    packs it as <u4."""
    path = tmp_path / "m.ecds"
    run_json(capsys, "build", "--scheme", "mem-composed", "--n", "8", "--s", "1", "--out-file", str(path))
    line, payload = path.read_bytes().split(b"\n", 1)
    head = json.loads(line)
    assert head["n_prime"] == 4032
    sets = unpacked(head["probe_sets"]).astype(np.int64)
    sets[0, 0] = sets[0, 0] + 65536 if position == "wrap" else position
    if packed:
        data = base64.b64encode(sets.astype("<u4").tobytes()).decode()
        head["probe_sets"] = dict(head["probe_sets"], array="<u4", data=data)
    else:
        head["probe_sets"] = sets.tolist()
        head["perm"] = unpacked(head["perm"]).tolist()
        head["version"] = 1
    path.write_bytes(json.dumps(head).encode() + b"\n" + payload)
    code, out, err = run(capsys, "decode", "--structure", str(path), "--query", "1")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParameterError"
    assert "probe-set positions out of range" in json.loads(err)["message"]


@pytest.mark.parametrize(
    "weight, positions",
    [(1, [2, 5, 7]), (2, [2, 2])],
    ids=["wrong-weight", "repeats"],
)
def test_inconsistent_pattern_file_exits_3(tmp_path, capsys, weight, positions):
    """A pattern file whose weight is not its number of positions, or that
    repeats a position, is refused, not decoded as the set of its
    positions."""
    st, pat = str(tmp_path / "h.ecds"), tmp_path / "p.json"
    run_json(capsys, "build", "--scheme", "had-ip", "--n", "4", "--x", "1011", "--out-file", st)
    pat.write_text(json.dumps({"format": "ecds-pattern", "n": 16, "weight": weight, "positions": positions}))
    code, out, err = run(capsys, "decode", "--structure", st, "--query", "1000", "--pattern", str(pat))
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParameterError"


def unpacked(packed):
    """A packed header array, decoded independently of `ecds.storage`."""
    raw = base64.b64decode(packed["data"])
    return np.frombuffer(raw, np.dtype(packed["array"])).reshape(packed["shape"])


@pytest.mark.parametrize(
    "tamper",
    [
        "float-dtype",
        "unknown-dtype",
        "not-base64",
        "short-data",
        "wrong-shape",
        "shape-not-list",
        "negative-shape",
    ],
)
@pytest.mark.parametrize(
    "scheme, field",
    [("mem-1p", "probe_sets"), ("mem-composed", "probe_sets"), ("mem-composed", "perm")],
)
def test_malformed_packed_array_is_refused(tmp_path, capsys, scheme, field, tamper):
    """A packed header array with a non-integer or unknown dtype, data
    that is not base64, or a byte count that does not match its shape
    exits 3, never with a bare TypeError or binascii.Error."""
    path = tmp_path / "m.ecds"
    run_json(capsys, "build", "--scheme", scheme, *SCHEME_FLAGS[scheme], "--out-file", str(path))
    line, payload = path.read_bytes().split(b"\n", 1)
    head = json.loads(line)
    packed = head[field]
    raw = base64.b64decode(packed["data"])
    head[field] = {
        "float-dtype": dict(
            packed,
            array="<f8",
            data=base64.b64encode(unpacked(packed).astype("<f8").tobytes()).decode(),
        ),
        "unknown-dtype": dict(packed, array="junk"),
        "not-base64": dict(packed, data="!" + packed["data"]),
        "short-data": dict(packed, data=base64.b64encode(raw[:-1]).decode()),
        "wrong-shape": dict(packed, shape=[packed["shape"][0] + 1, *packed["shape"][1:]]),
        "shape-not-list": dict(packed, shape="%dx1" % len(raw)),
        "negative-shape": dict(packed, shape=[-1, -unpacked(packed).size]),
    }[tamper]
    path.write_bytes(json.dumps(head).encode() + b"\n" + payload)
    code, out, err = run(capsys, "decode", "--structure", str(path), "--query", "1")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ParameterError"
    assert "packed array" in json.loads(err)["message"]


def rewrite_header(path, **fields):
    line, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(dict(json.loads(line), **fields)).encode() + b"\n" + payload)


def assert_refused(capsys, code, argv, error):
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("t", [1.5, True])
def test_substring_header_repetition_must_be_an_integer(tmp_path, capsys, alarm, t):
    """A substring file whose t is 1.5 or true exits 3, not with a
    TypeError from the vote."""
    path = tmp_path / "s.ecds"
    run_json(capsys, "build", "--scheme", "substring", *SCHEME_FLAGS["substring"], "--out-file", str(path))
    rewrite_header(path, t=t)
    assert_refused(capsys, 3, ["decode", "--structure", str(path), "--query", "1100"], "ParameterError")


def test_composed_header_with_zero_block_bits_is_refused(tmp_path, capsys, alarm):
    """A mem-composed file whose a is 0 exits 3, not with a
    ZeroDivisionError cutting its vector into blocks."""
    path = tmp_path / "m.ecds"
    run_json(capsys, "build", "--scheme", "mem-composed", *SCHEME_FLAGS["mem-composed"], "--out-file", str(path))
    rewrite_header(path, a=0)
    assert_refused(capsys, 3, ["decode", "--structure", str(path), "--query", "1"], "ParameterError")


def test_table_probes_past_desk_scale_are_refused(tmp_path, capsys, alarm):
    """ip-table with p = 2^70 exits 4 at build, saving nothing, and when
    a file's header says so, instead of splitting each query in a loop
    over p."""
    path = tmp_path / "t.ecds"
    argv = ["build", "--scheme", "ip-table", "--n", "6", "--r", "2", "--out-file", str(path)]
    assert_refused(capsys, 4, [*argv, "--p", str(2**70)], "InfeasibleSizeError")
    assert not path.exists()
    run_json(capsys, *argv, "--p", "2")
    rewrite_header(path, p=2**70)
    assert_refused(capsys, 4, ["decode", "--structure", str(path), "--query", "110000"], "InfeasibleSizeError")


def test_poly_probes_past_desk_scale_are_refused_before_the_geometry(tmp_path, capsys, alarm):
    """ip-poly with p = 2^70 exits 4 before computing (p - 1)^(p - 1)."""
    path = tmp_path / "p.ecds"
    argv = ["build", "--scheme", "ip-poly", "--n", "4", "--r", "1", "--out-file", str(path)]
    assert_refused(capsys, 4, [*argv, "--p", str(2**70)], "InfeasibleSizeError")
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--scheme", "had-ip", "--n", str(10**11)],
        ["--scheme", "mem-1p", "--n", str(10**9), "--s", "1"],
        ["--scheme", "mem-composed", "--n", "64", "--s", "2", "--b", str(10**8)],
        ["--scheme", "mem-composed", "--n", "16", "--s", "1", "--eps", "0.4", "--a", "26", "--b", "400"],
        ["--scheme", "substring", "--n", str(2 * 10**8), "--r", str(2 * 10**8)],
        ["--scheme", "equality", "--n", "4", "--code", "linear", "--code-length", str(4 * 10**9)],
    ],
    ids=["had-ip-data", "mem-1p-table", "mem-composed-blocks", "mem-composed-block-bits",
         "substring-pieces", "equality-code-length"],
)
def test_build_past_desk_scale_is_refused_before_the_data(tmp_path, capsys, alarm, argv):
    """Each kind's length function runs before its data is drawn or
    anything is allocated: these builds once drew 10^11 bits, filled a
    23.8 GiB probe-set table, ran past 20 s or overflowed, and now exit
    4 with nothing saved."""
    path = tmp_path / "x.ecds"
    assert_refused(capsys, 4, ["build", *argv, "--out-file", str(path)], "InfeasibleSizeError")
    assert not path.exists()


@pytest.mark.parametrize("query", [" 3", "1_0", "+3"])
def test_index_queries_are_decimal_digits_only(tmp_path, capsys, query):
    """An index query is ASCII decimal digits: a space, an underscore or
    a sign, which int() takes, exits 3 where it once answered."""
    path = str(tmp_path / "m.ecds")
    run_json(capsys, "build", "--scheme", "mem-1p", *SCHEME_FLAGS["mem-1p"], "--out-file", path)
    assert run_json(capsys, "decode", "--structure", path, "--query", "3")["query"] == "3"
    assert_refused(capsys, 3, ["decode", "--structure", path, "--query", query], "ParameterError")


def test_failed_build_exits_5(tmp_path, capsys):
    """A composed build that finds no verifying probe-set family exits 5
    with its error object and writes no file."""
    path = tmp_path / "c.ecds"
    code, out, err = run(capsys, "build", "--scheme", "mem-composed", "--n", "8", "--s", "4", "--out-file", str(path))
    assert (code, out) == (5, "")
    body = json.loads(err)
    assert (body["error"], body["code"]) == ("ConstructionError", 5)
    assert body["message"].startswith("no verifying probe-set family")
    assert not path.exists()


@pytest.mark.parametrize("scheme", ["mem-1p", "mem-composed"])
def test_sampled_index_queries_are_in_range_and_repeat(tmp_path, capsys, scheme):
    """sample:K on a membership file draws indices in 1..n (good indices
    for composed), with repeats, and the same bytes for the same seed."""
    path = str(tmp_path / "m.ecds")
    run_json(capsys, "build", "--scheme", scheme, *SCHEME_FLAGS[scheme], "--out-file", path)
    argv = ["experiment", "--structure", path, "--queries", "sample:40", "--seed", "4"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    allowed = ecds.load_structure(path).queries() if scheme == "mem-composed" else range(1, 9)
    queries = [int(r["query"]) for r in json.loads(out)["results"]]
    assert len(queries) == 40 and set(queries) <= set(allowed)
    assert len(set(queries)) < 40
    assert run(capsys, *argv)[1] == out


def test_sampled_queries_are_capped_like_all(capsys, alarm):
    """sample:K past MAX_QUERIES exits 3 before drawing, as 'all' does."""
    argv = ["experiment", "--scheme", "had-ip", "--n", "4", "--trials", "10", "--queries"]
    assert_refused(capsys, 3, [*argv, "sample:100000000"], "ParameterError")
    assert len(run_json(capsys, *argv, "sample:4096")["results"]) == 4096


def test_bounds_discrepancy_reads_the_seed_from_the_environment(capsys, monkeypatch):
    """Without --seed, bounds discrepancy takes ECDS_SEED, like every
    other subcommand."""
    argv = ["bounds", "discrepancy", "--n", "4", "--r", "2", "--samples", "400"]
    monkeypatch.setenv("ECDS_SEED", "5")
    from_env = run_json(capsys, *argv)
    assert from_env["inputs"]["seed"] == 5
    monkeypatch.delenv("ECDS_SEED")
    assert from_env["max_ratio"] == run_json(capsys, *argv, "--seed", "5")["max_ratio"]
    assert from_env["max_ratio"] != run_json(capsys, *argv)["max_ratio"]


def test_bounds_discrepancy_samples_past_desk_scale_are_refused(capsys, alarm):
    """--samples 10^10 exits 4 before drawing 21 TiB of rectangles."""
    argv = ["bounds", "discrepancy", "--n", "8", "--r", "2", "--samples", str(10**10)]
    assert_refused(capsys, 4, argv, "InfeasibleSizeError")
