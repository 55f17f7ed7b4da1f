import json
import os

import pytest

from stavskaya.cli import main

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


def test_bound_schema_and_value(capsys, tmp_path):
    code, out = run(capsys, "bound", "--n", "2", "--p", "1.44",
                    "--cache-dir", str(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert SCHEMA_KEYS <= set(report)
    assert report["power_iterations"] > 0
    assert report["certified"] is True
    assert report["certificate"] < 1.0
    assert report["alpha_lower_bound"] == pytest.approx(0.13101966, abs=1e-6)
    assert report["states"] == 73
    assert report["forbidden_patterns"] == 6


def test_bound_uses_cache_on_second_run(capsys, tmp_path):
    run(capsys, "bound", "--n", "1", "--p", "1.45", "--cache-dir", str(tmp_path))
    assert os.path.exists(tmp_path / "level01.stvk")
    code, out = run(capsys, "bound", "--n", "1", "--p", "1.45",
                    "--cache-dir", str(tmp_path))
    assert code == 0


def test_bound_degenerate_exits_two(capsys, tmp_path):
    code, out = run(capsys, "bound", "--n", "1", "--p", "1.0",
                    "--cache-dir", str(tmp_path))
    assert code == 2
    report = json.loads(out)
    assert report["certified"] is False
    assert report["alpha_lower_bound"] == 0.0


def test_bound_deep_refusal(capsys, tmp_path):
    code, _ = run(capsys, "bound", "--n", "7", "--p", "1.415",
                  "--cache-dir", str(tmp_path))
    assert code == 3


def test_bound_csv_format(capsys, tmp_path):
    code, out = run(capsys, "bound", "--n", "1", "--p", "1.46",
                    "--cache-dir", str(tmp_path), "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[0] == "level"
    assert row.split(",")[0] == "1"


def test_table_small(capsys, tmp_path):
    code, out = run(capsys, "table", "--n-max", "2", "--cache-dir",
                    str(tmp_path), "--p-min", "1.43", "--p-max", "1.47",
                    "--p-step", "0.005", "--p-refine", "0.002")
    assert code == 0
    rows = json.loads(out)
    assert [r["level"] for r in rows] == [1, 2]
    assert rows[0]["forbidden_patterns"] == 4
    assert rows[0]["states"] == 7
    assert rows[0]["bound"] == pytest.approx(0.125, abs=5e-4)
    assert rows[1]["forbidden_patterns"] == 6
    assert rows[1]["states"] == 73
    assert rows[1]["bound"] == pytest.approx(0.13101966, abs=1e-4)


def test_table_deep_refusal(capsys, tmp_path):
    code, _ = run(capsys, "table", "--n-max", "6", "--cache-dir", str(tmp_path))
    assert code == 3


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--n", "2"])  # missing --p
    assert exc.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
