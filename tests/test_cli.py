import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pgrid.cli as cli
import pgrid.render as render
from pgrid import CheckRow, SuiteReport, parse_instance


@pytest.fixture
def board(tmp_path):
    """Extremal witness board for an 8x5 grid with 24 polluted cells."""
    path = tmp_path / "board.pgrid"
    assert cli.run(["construct", "-m", "8", "-n", "5", "-k", "24", "-o", str(path)]) == 0
    return path


def test_formula_grid_value(capsys):
    assert cli.run(["formula", "grid", "-m", "8", "-n", "5"]) == 0
    assert capsys.readouterr().out == "7\n"


def test_formula_mkmin_value_and_json(capsys):
    assert cli.run(["formula", "mkmin", "-m", "8", "-n", "5", "-k", "8"]) == 0
    assert capsys.readouterr().out == "6\n"
    assert cli.run(["formula", "mkmin", "-m", "8", "-n", "5", "-k", "8", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "k": 8,
        "m": 8,
        "n": 5,
        "name": "mkmin",
        "value": 6,
    }


def test_formula_usage_errors(capsys):
    assert cli.run(["formula", "grid", "-m", "8", "-n", "5", "-k", "1"]) == 2
    assert "usage error" in capsys.readouterr().err
    assert cli.run(["formula", "mkmin", "-m", "8", "-n", "5"]) == 2
    assert "requires -k" in capsys.readouterr().err
    assert cli.run(["formula", "nope", "-m", "8", "-n", "5"]) == 2


def test_formula_domain_error(capsys):
    assert cli.run(["formula", "mkmin", "-m", "5", "-n", "8", "-k", "1"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (["mkmin", "-m", "8", "-n", "5", "-k", "8"], 0, "6\n", ""),
        (["mkmin", "-m", "8", "-n", "5", "-k", "41"], 1, "", "error: need 0 <= k <= 40, got k=41\n"),
        (["mkmin-lower", "-m", "8", "-n", "5", "-k", "22"], 0, "5\n", ""),
        (["mkmin-lower", "-m", "8", "-n", "5", "-k", "40"], 1, "", "error: need 1 <= k < 40, got k=40\n"),
        (["mkmin-remark", "-m", "8", "-n", "5", "-k", "8"], 0, "6\n", ""),
        (
            ["mkmin-remark", "-m", "8", "-n", "5", "-k", "16"],
            1,
            "",
            "error: need 1 <= k <= (m-n)n = 15, got k=16\n",
        ),
        (["mkmax-lower", "-m", "8", "-n", "5", "-k", "9"], 0, "16\n", ""),
        (
            ["mkmax-lower", "-m", "8", "-n", "5", "-k", "10"],
            1,
            "",
            "error: k=10 exceeds the independent interior capacity 9 of the 8x5 grid\n",
        ),
        (["grid", "-m", "8", "-n", "5"], 0, "7\n", ""),
        (["grid", "-m", "1", "-n", "5"], 1, "", "error: need m, n >= 2, got m=1, n=5\n"),
        (["torus", "-m", "8", "-n", "5"], 0, "6\n", ""),
        (["torus", "-m", "2", "-n", "4"], 1, "", "error: need m, n >= 3, got m=2, n=4\n"),
    ],
)
def test_formula_every_name_in_and_out_of_range(capsys, argv, code, out, err):
    assert cli.run(["formula", *argv]) == code
    assert capsys.readouterr() == (out, err)


def test_construct_stdout_round_trips(capsys):
    assert cli.run(["construct", "-m", "8", "-n", "5", "-k", "8"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pgrid v1\n")
    instance, seeds = parse_instance(out)
    assert instance.k == 8
    assert len(seeds) == 6


def test_construct_json_summary(capsys):
    assert cli.run(["construct", "-m", "8", "-n", "5", "-k", "24", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["claimed_size"] == 4
    assert payload["seeds"] == [[1, 4], [1, 2], [2, 1], [4, 1]]
    assert len(payload["polluted"]) == 24
    assert payload["written_to"] is None


def test_construct_is_deterministic(capsys):
    assert cli.run(["construct", "-m", "20", "-n", "13", "-k", "100"]) == 0
    first = capsys.readouterr().out
    assert cli.run(["construct", "-m", "20", "-n", "13", "-k", "100"]) == 0
    assert capsys.readouterr().out == first


def test_construct_writes_file(board, capsys):
    text = board.read_text()
    assert text.startswith("pgrid v1\n")
    instance, seeds = parse_instance(text)
    assert instance.k == 24 and len(seeds) == 4
    assert capsys.readouterr().out == ""


def test_percolate_summary(board, capsys):
    assert cli.run(["percolate", str(board)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "percolated: true"
    assert lines[1] == "rounds: 5"
    assert lines[2] == "seeds: 4"
    assert lines[3] == "infected: 16 of 16 residual cells"


def test_percolate_json(board, capsys):
    assert cli.run(["percolate", str(board), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["percolated"] is True
    assert payload["round_count"] == 5
    assert payload["seeds"] == 4
    assert payload["final"] == payload["residual"] == 16
    assert len(payload["rounds"]) == 6
    assert payload["rounds"][0] == [[1, 4], [1, 2], [2, 1], [4, 1]]


def test_search_json(board, capsys):
    assert cli.run(["search", str(board), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "nodes_explored": 19,
        "size": 4,
        "witness": [[1, 4], [3, 4], [4, 3], [1, 1]],
        "start_bound": 4,
        "forced": 0,
        "level_nodes": [19],
        "suffix_prunes": 0,
        "perimeter_prunes": 5,
        "symmetry_prunes": 0,
    }


def test_search_json_counts_symmetry_prunes(tmp_path, capsys):
    path = tmp_path / "torus.pgrid"
    path.write_text("pgrid v1\nm=5 n=5 topology=torus\n" + ".....\n" * 5)
    assert cli.run(["search", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "nodes_explored": 344,
        "size": 4,
        "witness": [[1, 5], [3, 5], [4, 4], [1, 2]],
        "start_bound": 1,
        "forced": 0,
        "level_nodes": [1, 5, 60, 278],
        "suffix_prunes": 0,
        "perimeter_prunes": 0,
        "symmetry_prunes": 201,
    }


def test_search_human_output(board, capsys):
    assert cli.run(["search", str(board)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "size: 4"
    assert lines[1] == "witness: (1,4) (3,4) (4,3) (1,1)"
    assert lines[2].startswith("nodes explored: ")


def test_search_budget_exhaustion(board, capsys):
    assert cli.run(["search", str(board), "--budget", "1"]) == 1
    assert "budget" in capsys.readouterr().err


def test_search_budget_exhaustion_shows_what_it_proved(board, capsys):
    assert cli.run(["search", str(board), "--budget", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: budget of 3 closure evaluations exhausted at seed size 4",
        "lower bound: 4",
        "upper bound: 16",
        "nodes explored: 4",
        "start bound: 4",
        "forced: 0",
        "level nodes: 4",
        "suffix prunes: 0",
        "perimeter prunes: 1",
        "symmetry prunes: 0",
    ]


def test_search_budget_exhaustion_json_is_one_document(board, capsys):
    assert cli.run(["search", str(board), "--budget", "3", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: budget of 3 closure evaluations exhausted at seed size 4\n"
    assert json.loads(captured.out) == {
        "error": "budget of 3 closure evaluations exhausted at seed size 4",
        "lower_bound": 4,
        "upper_bound": 16,
        "nodes_explored": 4,
        "start_bound": 4,
        "forced": 0,
        "level_nodes": [4],
        "suffix_prunes": 0,
        "perimeter_prunes": 1,
        "symmetry_prunes": 0,
    }


def test_missing_file_is_a_domain_error(tmp_path, capsys):
    assert cli.run(["percolate", str(tmp_path / "absent.pgrid")]) == 1
    assert "error:" in capsys.readouterr().err


def test_search_budget_zero_is_refused_even_with_nothing_to_search(tmp_path, capsys):
    path = tmp_path / "polluted.pgrid"
    assert cli.run(["construct", "-m", "2", "-n", "2", "-k", "4", "-o", str(path)]) == 0
    assert cli.run(["search", str(path), "--budget", "1"]) == 0
    assert capsys.readouterr().out.startswith("size: 0\n")
    assert cli.run(["search", str(path), "--budget", "0"]) == 1
    assert capsys.readouterr().err == "error: node budget must be >= 1, got 0\n"


@pytest.mark.parametrize("verb", ["percolate", "search", "render"])
def test_a_board_file_that_is_not_utf8_is_a_domain_error(verb, tmp_path, capsys):
    # the head of a binary, and a bad byte inside the second board row
    binary = tmp_path / "binary.pgrid"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00\n\xd0\x00\x00")
    row = tmp_path / "row.pgrid"
    row.write_bytes(b"pgrid v1\nm=3 n=2 topology=grid\n...\n.\xff.\n")
    assert cli.run([verb, str(binary)]) == 1
    assert capsys.readouterr().err == "error: line 2, column 1: invalid UTF-8 byte 0xd0\n"
    assert cli.run([verb, str(row)]) == 1
    assert capsys.readouterr().err == "error: line 4, column 2: invalid UTF-8 byte 0xff\n"


def test_verify_summary_and_exit_zero(capsys):
    rc = cli.run(["verify", "perimeter", "--max-t", "3", "--trace-samples", "2", "--seed", "7"])
    assert rc == 0
    assert capsys.readouterr().out == "suite perimeter: 6 checks, 6 passed, 0 failed\n"


def test_verify_csv_stdout(capsys):
    rc = cli.run(["verify", "perimeter", "--max-t", "2", "--trace-samples", "0", "--csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "suite,m,n,k,expected,actual,pass,elapsed_ms"
    assert len(lines) == 4  # 2 formula rows + the identity row


def test_verify_json_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.run(
        ["verify", "monotonicity", "--max-mn", "4", "--json", "-o", str(out)]
    )
    assert rc == 0
    assert capsys.readouterr().out == "suite monotonicity: 7 checks, 7 passed, 0 failed\n"
    doc = json.loads(out.read_text())
    assert doc["suite"] == "monotonicity" and doc["passed"] is True


class _CountingStream:
    """A text stream that counts the writes made to it."""

    def __init__(self, stream):
        self.stream = stream
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return self.stream.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stream.close()


@pytest.mark.parametrize("flag,style", [("--csv", "to_csv"), ("--json", "to_json")])
def test_verify_reports_stream_row_by_row(flag, style, tmp_path, monkeypatch, capsys):
    reports = []
    run_suite = cli._run_suite
    monkeypatch.setattr(cli, "_run_suite", lambda args: reports.append(run_suite(args)) or reports[-1])
    argv = ["verify", "monotonicity", "--max-mn", "6", flag]
    stdout = _CountingStream(io.StringIO())
    with monkeypatch.context() as mp:
        mp.setattr(sys, "stdout", stdout)
        assert cli.run(argv) == 0
    assert stdout.stream.getvalue() == getattr(reports[-1], style)()
    assert stdout.writes > 1
    files = []

    def counting_open(*args, **kwargs):
        files.append(_CountingStream(open(*args, **kwargs)))
        return files[-1]

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    out = tmp_path / "report"
    assert cli.run(argv + ["-o", str(out)]) == 0
    assert capsys.readouterr().out.startswith("suite monotonicity: ")
    assert out.read_text() == getattr(reports[-1], style)()
    assert len(files) == 1 and files[0].writes > 1


def test_hostile_board_side_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "hostile.pgrid"
    path.write_text("pgrid v1\nm=" + "9" * 5000 + " n=3 topology=grid\n")
    assert cli.run(["percolate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 2, ")


def test_verify_csv_json_flags_conflict():
    assert cli.run(["verify", "perimeter", "--csv", "--json"]) == 2


def test_verify_failure_exits_three(monkeypatch, capsys):
    fake = SuiteReport(
        "perimeter",
        {},
        0,
        [CheckRow("perimeter.formula", None, None, 3, 8, 9, False, 0.1)],
    )
    monkeypatch.setattr(cli, "verify_perimeter", lambda *a, **kw: fake)
    assert cli.run(["verify", "perimeter"]) == 3
    out = capsys.readouterr().out
    assert "1 failed" in out
    assert "FAIL perimeter.formula" in out


def test_verify_bad_limit_is_domain_error(capsys):
    assert cli.run(["verify", "perimeter", "--max-t", "30"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "monotonicity", "--max-mn", "3"],
        ["verify", "monotonicity", "--max-mn", "-3"],
        ["verify", "torus-max", "--max-mn", "0"],
        ["verify", "torus-max", "--max-mn", "8"],
    ],
)
def test_verify_limit_that_certifies_nothing_exits_one(argv, capsys):
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "smallest" in captured.err
    assert captured.out == ""


def test_verify_theorem1_beyond_oracle_reach_exits_one_at_once(capsys):
    start = time.perf_counter()
    assert cli.run(["verify", "theorem1", "--max-exhaustive", "401"]) == 1
    assert time.perf_counter() - start < 1.0
    assert "out of oracle reach" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "theorem1", "--max-construction", "401"], "beyond mn = 400"),
        (["verify", "theorem1", "--max-construction", "1000"], "beyond mn = 400"),
        (["verify", "perimeter", "--trace-samples", "10001"], "trace_samples <= 10000"),
    ],
)
def test_verify_sweep_beyond_its_cap_exits_one_at_once(argv, message, capsys):
    start = time.perf_counter()
    assert cli.run(argv) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert "error:" in captured.err and message in captured.err
    assert captured.out == ""


def test_render_stdout_and_file(board, tmp_path, capsys):
    assert cli.run(["render", str(board)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("grid 8x5\n")
    target = tmp_path / "trace.svg"
    assert cli.run(["render", str(board), "--style", "svg", "-o", str(target)]) == 0
    assert target.read_text().startswith("<svg ")
    assert capsys.readouterr().out == ""


def test_render_refuses_an_ascii_trace_above_the_cap(board, tmp_path, monkeypatch, capsys):
    # the 8x5 board's trace has 6 frames of 40 cells
    monkeypatch.setattr(render, "_MAX_ASCII_CELLS", 6 * 40 - 1)
    assert cli.run(["render", str(board)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: an ascii trace of 8x5 in 6 frames draws 240 cells, above 239; use --style svg\n"
    )
    target = tmp_path / "trace.svg"
    assert cli.run(["render", str(board), "--style", "svg", "-o", str(target)]) == 0


def test_oversized_board_is_a_prompt_domain_error(capsys):
    start = time.perf_counter()
    code = cli.run(["construct", "-m", "100000", "-n", "100000", "-k", "0"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "MAX_CELLS" in capsys.readouterr().err


def test_no_subcommand_is_usage_error():
    assert cli.run([]) == 2


@pytest.mark.parametrize("module", ["pgrid", "pgrid.cli"])
@pytest.mark.parametrize(
    "argv", [[], ["verify", "perimeter", "--max-t", "3", "--trace-samples", "0"]]
)
def test_python_dash_m_matches_console_script(module, argv, capsys, monkeypatch):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    # the console script's entry point, ``pgrid = pgrid.cli:main``
    monkeypatch.setattr(sys, "argv", ["pgrid", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == (2 if not argv else 0)
    assert (proc.returncode, proc.stdout) == (exc.value.code, capsys.readouterr().out)
