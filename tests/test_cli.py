import gc
import json
import os
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from stavskaya import cli
from stavskaya.cli import main
from stavskaya.errors import ResourceLimitError
from stavskaya.statespace import StateSpace

SCHEMA_KEYS = {"level", "p", "q", "alpha_lower_bound", "certificate",
               "iterations", "states", "forbidden_patterns",
               "elapsed_seconds", "version"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_loops_counts(capsys):
    code, out = run(capsys, "loops", "--n", "3")
    assert code == 0
    report = json.loads(out)
    assert report["total"] == 12
    assert report["orders"][-1] == {"order": 3, "count": 6, "cumulative": 12}


def test_loops_counts_through_order_eight(capsys):
    code, out = run(capsys, "loops", "--n", "8")
    assert code == 0
    report = json.loads(out)
    assert [row["count"] for row in report["orders"]] == [
        2, 2, 2, 6, 24, 110, 548, 2890, 15882]
    assert report["total"] == 19466


def test_loops_level_zero(capsys):
    code, out = run(capsys, "loops", "--n", "0")
    assert code == 0
    assert json.loads(out)["total"] == 2


def test_loops_dump_lists_patterns(capsys):
    code, out = run(capsys, "loops", "--n", "1", "--dump")
    assert code == 0
    assert json.loads(out)["patterns"] == ["13", "31", "123", "321"]


def test_loops_bad_level(capsys):
    assert run(capsys, "loops", "--n", "99")[0] == 3


def test_bound_schema_and_value(capsys):
    code, out = run(capsys, "bound", "--n", "2", "--p", "1.44")
    assert code == 0
    report = json.loads(out)
    assert SCHEMA_KEYS <= set(report)
    assert report["power_iterations"] > 0
    assert report["certified"] is True
    assert report["certificate"] < 1.0
    assert report["alpha_lower_bound"] == pytest.approx(0.13101966, abs=1e-6)
    assert report["states"] == 73
    assert report["forbidden_patterns"] == 6


def test_commands_write_no_files(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "bound", "--n", "1", "--p", "1.45")[0] == 0
    assert run(capsys, "table", "--n-max", "1")[0] == 0
    assert list(tmp_path.iterdir()) == []


def test_bound_degenerate_exits_two(capsys):
    code, out = run(capsys, "bound", "--n", "1", "--p", "1.0")
    assert code == 2
    report = json.loads(out)
    assert report["certified"] is False
    assert report["alpha_lower_bound"] == 0.0


def _no_build(monkeypatch):
    def no_build(n):
        raise AssertionError(f"level {n} built")
    monkeypatch.setattr(cli, "_build_level", no_build)
    monkeypatch.setattr(cli, "build_forbidden_set", no_build)


@pytest.mark.parametrize("n", ["8", "13", "14", "99"])
def test_bound_above_history_cap_refused_before_build(capsys, monkeypatch, n):
    _no_build(monkeypatch)
    assert main(["bound", "--n", n, "--p", "1.413"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"level {n} is above 7" in captured.err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_bound_below_level_one_exits_one(capsys, monkeypatch, n):
    _no_build(monkeypatch)
    assert main(["bound", "--n", n, "--p", "1.413"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n must be in 1..7" in captured.err


def test_bound_level_seven_runs_without_a_flag(capsys, monkeypatch):
    built = []

    class Reached(Exception):
        pass

    def stub(n):
        built.append(n)
        raise Reached
    monkeypatch.setattr(cli, "_build_level", stub)
    with pytest.raises(Reached):
        main(["bound", "--n", "7", "--p", "1.415"])
    assert built == [7]


@pytest.mark.parametrize("solver,argv", [
    ("alpha_sup", ["bound", "--n", "2", "--p", "1.44"]),
    ("optimize_p", ["table", "--n-max", "2", "--p-min", "1.43",
                    "--p-max", "1.47"]),
], ids=["bound", "table"])
def test_no_state_space_alive_through_the_solve(capsys, monkeypatch, solver,
                                                argv):
    # the report needs only the state count; the codes (66 MiB at
    # level 7) must be gone before the solve sets the peak
    def states():
        return [id(o) for o in gc.get_objects() if isinstance(o, StateSpace)]
    before = set(states())
    alive = []
    solve = getattr(cli, solver)

    def wrapped(*args, **kwargs):
        alive.extend(i for i in states() if i not in before)
        return solve(*args, **kwargs)
    monkeypatch.setattr(cli, solver, wrapped)
    assert main(argv) == 0
    capsys.readouterr()
    assert alive == []


def test_bound_csv_format(capsys):
    code, out = run(capsys, "bound", "--n", "1", "--p", "1.46",
                    "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[0] == "level"
    assert row.split(",")[0] == "1"


def test_table_small(capsys):
    code, out = run(capsys, "table", "--n-max", "2", "--p-min", "1.43",
                    "--p-max", "1.47")
    assert code == 0
    rows = json.loads(out)
    assert [r["level"] for r in rows] == [1, 2]
    assert rows[0]["forbidden_patterns"] == 4
    assert rows[0]["states"] == 7
    assert rows[0]["bound"] == pytest.approx(0.125, abs=5e-4)
    assert rows[1]["forbidden_patterns"] == 6
    assert rows[1]["states"] == 73
    assert rows[1]["bound"] == pytest.approx(0.13101966, abs=1e-4)


def test_table_above_history_cap_exits_one(capsys, monkeypatch):
    _no_build(monkeypatch)
    assert main(["table", "--n-max", "8"]) == 1
    assert "1..7" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("bound", "--n", "2", "--p", "1.44"),
                                  ("table", "--n-max", "2")])
def test_build_refusal_exits_three(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise ResourceLimitError("budget")
    monkeypatch.setattr(cli, "build_state_space", refuse)
    assert main(list(argv)) == 3
    captured = capsys.readouterr()
    assert captured.err.strip() == "error: budget"
    assert captured.out == ""


# q and the solver settings are constants, not flags (q = 1 is optimal,
# see `stavskaya.search`): argparse refuses each such flag with exit 1,
# before any level is built.
RETIRED = "unrecognized arguments"
BAD_SETTINGS = [
    (("bound", "--n", "7", "--p", "1.415", "--alpha-tol", "nan"), RETIRED),
    (("bound", "--n", "7", "--p", "1.415", "--max-iter", "0"), RETIRED),
    (("table", "--n-max", "7", "--alpha-tol", "0"), RETIRED),
    (("table", "--n-max", "7", "--max-iter", "-1"), RETIRED),
    (("bound", "--n", "7", "--p", "0.9"), "p must be"),
    (("bound", "--n", "7", "--p", "1.415", "--q", "0.5"), RETIRED),
    (("table", "--n-max", "7", "--p-min", "0.9"), "p must be"),
    (("table", "--n-max", "7", "--p-max", "inf"), "p must be"),
    (("table", "--n-max", "7", "--q", "0.5"), RETIRED),
    (("table", "--n-max", "7", "--p-min", "1.5", "--p-max", "1.4"),
     "p_min < p_max")]


@pytest.mark.parametrize("argv,named", BAD_SETTINGS,
                         ids=[f"argv{i}" for i in range(len(BAD_SETTINGS))])
def test_bad_solver_settings_refused_before_the_build(capsys, monkeypatch,
                                                       argv, named):
    _no_build(monkeypatch)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    assert named in capsys.readouterr().err


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--n", "2"])  # missing --p
    assert exc.value.code == 1
    retired = (["--cache-dir", "x"], ["--deep"], ["--q", "1"],
               ["--alpha-tol", "1e-10"], ["--max-iter", "100"])
    for argv in (["bound", "--n", "1", "--p", "1.45"], ["table", "--n-max", "1"]):
        for flag in retired:
            with pytest.raises(SystemExit) as exc:
                main([*argv, *flag])
            assert exc.value.code == 1


def test_readme_cli_lines_parse():
    # every `stavskaya ...` line of the README's CLI block parses, so a
    # retired flag left in the docs fails here as a usage error
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines()
             if line.startswith("stavskaya ")]
    assert len(lines) >= 5
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])


def test_closed_stdout_ends_quietly():
    # `loops --n 8 --dump --format text | head -1`: the reader leaves
    # after one line, long before the 470 kB of patterns are written
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "stavskaya", "loops", "--n", "8", "--dump",
         "--format", "text"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().split() == [b"order", b"count", b"cumulative"]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
