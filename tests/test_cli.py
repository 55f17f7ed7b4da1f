import json

import pytest

from stavskaya.cli import _GROWTH, _projected_bytes, main

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


def test_bound_deep_refusal(capsys):
    code, _ = run(capsys, "bound", "--n", "7", "--p", "1.415")
    assert code == 3


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


def test_table_deep_refusal(capsys):
    assert main(["table", "--n-max", "7"]) == 3
    err = capsys.readouterr().err
    assert "--deep" in err and "GiB" in err
    assert "hours" not in err


def test_projected_bytes_counts_full_work_vectors_off_q_one():
    # at q != 1 the three work vectors span every state, not half of them
    states = 7 * _GROWTH ** 6
    extra = _projected_bytes(7, 1.1) - _projected_bytes(7, 1.0)
    assert extra == pytest.approx(states * 1.25 * 3 * 4, abs=1)


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--n", "2"])  # missing --p
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--n", "1", "--p", "1.45", "--cache-dir", "x"])
    assert exc.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
