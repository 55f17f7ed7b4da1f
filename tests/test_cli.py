import json
import os
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import LEVELS, LOOPS

from stavskaya import automaton, cli, patterns, statespace
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
    assert report["total"] == LEVELS[3].patterns
    assert report["orders"][-1] == {"order": 3, "count": LOOPS[3],
                                    "cumulative": LEVELS[3].patterns}


def test_loops_counts_through_order_eight(capsys):
    code, out = run(capsys, "loops", "--n", "8")
    assert code == 0
    report = json.loads(out)
    assert [row["count"] for row in report["orders"]] == [
        LOOPS[k] for k in range(9)]
    assert report["total"] == LEVELS[8].patterns


def test_loops_level_zero(capsys):
    code, out = run(capsys, "loops", "--n", "0")
    assert code == 0
    assert json.loads(out)["total"] == LOOPS[0]


def test_loops_dump_lists_patterns(capsys):
    code, out = run(capsys, "loops", "--n", "1", "--dump")
    assert code == 0
    assert json.loads(out)["patterns"] == ["13", "31", "123", "321"]


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_streamed_dump_matches_the_json_list(capsys, fmt):
    # the table's header and rows for orders 0..5, then one pattern a line
    code, out = run(capsys, "loops", "--n", "5", "--dump", "--format", fmt)
    assert code == 0 and out.endswith("\n")
    streamed = out.splitlines()[7:]
    code, out = run(capsys, "loops", "--n", "5", "--dump")
    report = json.loads(out)
    assert streamed == report["patterns"]
    assert len(streamed) == report["total"] == LEVELS[5].patterns


def test_bound_schema_and_value(capsys):
    row = LEVELS[2]
    code, out = run(capsys, "bound", "--n", "2", "--p", str(row.p_opt))
    assert code == 0
    report = json.loads(out)
    assert SCHEMA_KEYS <= set(report)
    assert report["power_iterations"] > 0
    assert report["certified"] is True
    assert report["certificate"] < 1.0
    assert report["alpha_lower_bound"] == pytest.approx(row.bound, abs=1e-6)
    assert report["states"] == row.states
    assert report["forbidden_patterns"] == row.patterns


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
    def no_build(*args):
        raise AssertionError(f"built, chained or listed from {args}")
    monkeypatch.setattr(cli, "build_level", no_build)
    for module in (patterns, statespace):
        monkeypatch.setattr(module, "chain", no_build)
    monkeypatch.setattr(patterns, "list_loops", no_build)


# no history table caps the CLI: every command stops at MAX_LEVEL = 11
# with exit 3, and below its lowest level with exit 1; `loops` is refused
# by `build_forbidden_set` itself, before any level is chained or loop
# listed
LEVEL_REFUSALS = [
    (("bound", "--n", "12", "--p", "1.413"), 3, "1..11, got 12"),
    (("bound", "--n", "13", "--p", "1.413"), 3, "1..11, got 13"),
    (("bound", "--n", "14", "--p", "1.413"), 3, "1..11, got 14"),
    (("bound", "--n", "99", "--p", "1.413"), 3, "1..11, got 99"),
    (("bound", "--n", "0", "--p", "1.413"), 1, "1..11, got 0"),
    (("bound", "--n", "-1", "--p", "1.413"), 1, "1..11, got -1"),
    (("table", "--n-max", "12"), 3, "1..11, got 12"),
    (("table", "--n-max", "0"), 1, "1..11, got 0"),
    (("loops", "--n", "12"), 3, "0..11, got 12"),
    (("loops", "--n", "13"), 3, "0..11, got 13"),
    (("loops", "--n", "99"), 3, "0..11, got 99"),
    (("loops", "--n", "-1"), 1, "0..11, got -1")]


@pytest.mark.parametrize("argv,code,message", LEVEL_REFUSALS,
                         ids=[f"{argv[0]}{argv[2]}" for argv, *_ in LEVEL_REFUSALS])
def test_level_outside_the_range_refused_before_the_build(
        capsys, monkeypatch, argv, code, message):
    _no_build(monkeypatch)
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"level must be in {message}" in captured.err


@pytest.mark.parametrize("argv,builder", [
    (["bound", "--n", "11", "--p", "1.41"], "build_level"),
    (["loops", "--n", "11"], "build_forbidden_set"),
    (["bound", "--n", "7", "--p", "1.415"], "build_level"),
], ids=["bound", "loops", "bound-7"])
def test_level_eleven_reaches_the_build(monkeypatch, argv, builder):
    # MAX_LEVEL itself, and level 7 with no flag, pass the CLI's level check
    built = []

    class Reached(Exception):
        pass

    def stub(n):
        built.append(n)
        raise Reached
    monkeypatch.setattr(cli, builder, stub)
    with pytest.raises(Reached):
        main(argv)
    assert built == [int(argv[2])]


@pytest.mark.parametrize("argv", [
    ["bound", "--n", "7", "--p", "1.415"],
    ["table", "--n-max", "3"],
], ids=["bound", "table"])
def test_no_state_space_built(capsys, monkeypatch, argv):
    # the levels are solved and their states and patterns counted on the
    # chain's minimal automaton: no pattern is listed, and no StateSpace,
    # from which every history table is built, is made
    built = []
    init = StateSpace.__init__

    def record(self, *args, **kwargs):
        built.append(kwargs.get("n"))
        init(self, *args, **kwargs)

    def no_pattern(*args):
        raise AssertionError(f"a pattern was listed from {args}")
    monkeypatch.setattr(StateSpace, "__init__", record)
    for module in (patterns, cli):
        monkeypatch.setattr(module, "build_forbidden_set", no_pattern)
    monkeypatch.setattr(patterns, "list_loops", no_pattern)
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert built == []
    if argv[0] == "bound":
        assert (report["alpha_lower_bound"], report["certificate"]) == (
            0.1370721062994562, 0.9999999999573704)
        report = [report]
    for row in report:
        want = LEVELS[row["level"]]
        assert (row["forbidden_patterns"], row["states"]) == (want.patterns,
                                                              want.states)


@pytest.mark.parametrize("argv", [
    ["table", "--n-max", "3"],
    ["bound", "--n", "3", "--p", "1.43"],
], ids=["table", "bound"])
def test_one_chain_step_per_level(capsys, monkeypatch, argv):
    # `table` chains once up to its highest level, each row one step on
    # the row before, as `bound` chains once up to its level
    steps = []
    next_level = automaton.next_level

    def count(*args):
        steps.append(args[-1])
        return next_level(*args)
    monkeypatch.setattr(automaton, "next_level", count)
    assert main(argv) == 0
    capsys.readouterr()
    assert steps == [1, 2, 3]


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
    for got, want, tol in zip(rows, (LEVELS[1], LEVELS[2]), (5e-4, 1e-4)):
        assert got["forbidden_patterns"] == want.patterns
        assert got["states"] == want.states
        assert got["bound"] == pytest.approx(want.bound, abs=tol)


@pytest.mark.parametrize("argv", [("bound", "--n", "2", "--p", "1.44"),
                                  ("table", "--n-max", "2")])
def test_build_refusal_exits_three(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise ResourceLimitError("budget")
    monkeypatch.setattr(statespace, "chain", refuse)
    assert main(list(argv)) == 3
    captured = capsys.readouterr()
    assert captured.err.strip() == "error: budget"
    assert captured.out == ""


# q and the solver settings are constants, not flags (q = 1 is optimal,
# see `stavskaya.search`), and `--cache-dir` and `--deep` are gone:
# argparse refuses each such flag with exit 1, before any level is built.
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
     "p_min < p_max"),
    (("bound", "--n", "7", "--p", "1.415", "--cache-dir", "x"), RETIRED),
    (("bound", "--n", "7", "--p", "1.415", "--deep"), RETIRED),
    (("table", "--n-max", "7", "--cache-dir", "x"), RETIRED),
    (("table", "--n-max", "7", "--deep"), RETIRED),
    # p^2 would overflow in the step weights
    (("bound", "--n", "1", "--p", "1e308"), "p must be"),
    (("table", "--n-max", "1", "--p-max", "1e200"), "p must be")]


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
