import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from batchfront import verify
from batchfront.cli import main
from batchfront.fileio import save_instance
from batchfront.generate import gen_random

GOLDEN = Path(__file__).parent / "golden"

TWO_JOBS_JSON = """{
  "setup": 2,
  "capacity": 2,
  "jobs": [
    {"id": 1, "p": 1, "cost": {"type": "lateness", "due": 3}},
    {"id": 2, "p": 3, "cost": {"type": "lateness", "due": 20}}
  ]
}
"""

FORK_JSON = """{
  "setup": 1,
  "capacity": "unbounded",
  "jobs": [
    {"id": 1, "p": 2, "cost": {"type": "lateness", "due": 3}},
    {"id": 2, "p": 1, "cost": {"type": "lateness", "due": 10}},
    {"id": 3, "p": 1, "cost": {"type": "lateness", "due": 10}}
  ],
  "precedence": [[1, 2], [1, 3]]
}
"""


def test_pareto_two_jobs(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(TWO_JOBS_JSON, encoding="utf-8")
    assert main(["pareto", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "c_max,f_max,batches\n6,3,1.2\n8,0,1;2\n"


def test_pareto_fork(tmp_path, capsys):
    path = tmp_path / "fork.json"
    path.write_text(FORK_JSON, encoding="utf-8")
    assert main(["pareto", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "6,0,1;2.3"


def test_trace_goes_to_stderr(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(TWO_JOBS_JSON, encoding="utf-8")
    assert main(["pareto", str(path), "--trace"]) == 0
    err = capsys.readouterr().err
    assert "move job=1 from=2 to=1 case=1" in err
    assert "step threshold=inf feasible=True" in err
    assert "1: [1(1)]" in err  # admissibility dump after the tightening step


@pytest.mark.parametrize("case", ["small-n8-seed3", "prec-n7-seed2"])
def test_trace_matches_golden(case, capsys):
    # complete stdout and stderr of `pareto --trace`, captured from the CLI;
    # pins step order, move order and the admissibility dump byte for byte
    assert main(["pareto", str(GOLDEN / f"{case}.json"), "--trace"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{case}.csv").read_text(encoding="utf-8")
    assert captured.err == (GOLDEN / f"{case}.trace").read_text(encoding="utf-8")


# (profile, n, capacity) drawn for seeds 1-5, beyond the oracle's n <= 8:
# long carry chains at b=2, hoists, and batch openings at b=n-1
LONG_CARRY_CORPUS = [("small", 60, 2), ("small", 60, 7), ("small", 120, 2), ("small", 40, 39), ("paper", 100, None)]
LONG_CARRY_DIGEST = "b7965e0bc0508d21dfdbf4ed1093ddafe0d2300b9a687ef9b4c57de4b7f64c00"


def test_trace_beyond_the_oracle_matches_golden_digest(tmp_path, capsys):
    # one digest over the complete stdout and stderr of `pareto --trace` on
    # every instance of the corpus, in corpus and seed order
    digest = hashlib.sha256()
    moves = hoists = 0
    for profile, n, capacity in LONG_CARRY_CORPUS:
        for seed in range(1, 6):
            path = tmp_path / f"{profile}-n{n}-seed{seed}.json"
            save_instance(gen_random(n, seed, profile, capacity=capacity), path)
            assert main(["pareto", str(path), "--trace"]) == 0
            captured = capsys.readouterr()
            for text in (captured.out, captured.err):
                digest.update(text.encode("utf-8") + b"\0")
            moves += captured.err.count("\nmove ")
            hoists += captured.err.count(" case=2\n")
    assert (moves, hoists) == (5426, 4781)
    assert digest.hexdigest() == LONG_CARRY_DIGEST


# main2 beyond the precedence oracle's n <= 7: `prec` instances at these
# sizes, seeds 1-5, with hundreds of moves and bound propagations each
PRECEDENCE_SIZES = (20, 60, 120, 250)
PRECEDENCE_DIGEST = "45e6a609a2322442122f42cad0d9f46ca7c2bb87f046c0597ef7c00ca70d2131"


def test_precedence_trace_beyond_the_oracle_matches_golden_digest(tmp_path, capsys):
    # one digest over the complete stdout and stderr of `pareto --trace` on
    # every instance, in size and seed order
    digest = hashlib.sha256()
    moves = bounds = 0
    for n in PRECEDENCE_SIZES:
        for seed in range(1, 6):
            path = tmp_path / f"prec-n{n}-seed{seed}.json"
            save_instance(gen_random(n, seed, "prec"), path)
            assert main(["pareto", str(path), "--trace"]) == 0
            captured = capsys.readouterr()
            for text in (captured.out, captured.err):
                digest.update(text.encode("utf-8") + b"\0")
            moves += captured.err.count("\nmove ")
            bounds += captured.err.count("\nbound ")
    assert (moves, bounds) == (3983, 3885)
    assert digest.hexdigest() == PRECEDENCE_DIGEST


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    assert main(["pareto", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bounded_with_precedence_exits_2(tmp_path, capsys):
    doc = json.loads(TWO_JOBS_JSON)
    doc["precedence"] = [[1, 2]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["pareto", str(path)]) == 2
    assert "not supported with bounded capacity" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["pareto", "nope.json"]) == 2


@pytest.mark.parametrize("command", ["pareto", "oracle"])
def test_directory_exits_2(command, tmp_path, capsys):
    # used to end in an IsADirectoryError traceback and exit 1
    assert main([command, str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


@pytest.mark.parametrize("command", ["pareto", "oracle"])
def test_non_utf8_file_exits_2_naming_the_file(command, tmp_path, capsys):
    # used to print only the codec's message, without the file
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"setup": 1, "note": "caf\xe9"}')
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9")


def _stdin_bytes(monkeypatch, data: bytes) -> None:
    # the text layer's own codec accepts every byte: only a UTF-8 decode of
    # the raw bytes underneath can refuse them
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="latin-1"))


def test_stdin_is_parsed_like_a_file(monkeypatch, tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(TWO_JOBS_JSON, encoding="utf-8")
    assert main(["pareto", str(path)]) == 0
    from_file = capsys.readouterr().out
    _stdin_bytes(monkeypatch, TWO_JOBS_JSON.encode("utf-8"))
    assert main(["pareto", "-"]) == 0
    assert capsys.readouterr().out == from_file


def test_non_utf8_stdin_exits_2_naming_stdin(monkeypatch, capsys):
    # used to be decoded with the locale's codec and reported as a JSON
    # syntax error: "<stdin>:1:1: Expecting value"
    _stdin_bytes(monkeypatch, b"\xff{}")
    assert main(["pareto", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: <stdin>: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("command", ["pareto", "oracle"])
def test_deeply_nested_file_exits_2_naming_the_file(command, tmp_path, capsys):
    # used to end in a RecursionError traceback and exit 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: arrays or objects nested too deeply to decode\n"


def test_gen_pareto_pipeline(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "--n", "6", "--seed", "3", "--profile", "small", "--out", str(inst_path)]) == 0
    assert main(["pareto", str(inst_path)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "c_max,f_max,batches"
    assert len(rows) >= 2


def test_gen_is_deterministic(capsys):
    assert main(["gen", "--n", "5", "--seed", "9", "--profile", "prec"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--n", "5", "--seed", "9", "--profile", "prec"]) == 0
    assert capsys.readouterr().out == first


def test_oracle_agrees_with_pareto(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(TWO_JOBS_JSON, encoding="utf-8")
    assert main(["oracle", str(path)]) == 0
    oracle_rows = capsys.readouterr().out.strip().splitlines()
    assert main(["pareto", str(path)]) == 0
    pareto_rows = capsys.readouterr().out.strip().splitlines()
    assert [r.split(",")[:2] for r in oracle_rows] == [r.split(",")[:2] for r in pareto_rows]


def test_verify_zero_count_passes(capsys):
    assert main(["verify", "--count", "0", "--sizes", "2-6", "--seed", "1"]) == 0
    assert "0/0" in capsys.readouterr().out


def test_verify_negative_count_exits_2(capsys):
    # used to print "bounded: 0/0 instances passed" and exit 0
    assert main(["verify", "--count", "-3", "--sizes", "2-6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: count must be >= 0, got -3\n"


def test_verify_small_batch(capsys):
    assert main(["verify", "--count", "25", "--sizes", "2-6", "--seed", "11"]) == 0
    assert "25/25" in capsys.readouterr().out
    assert main(["verify", "--count", "15", "--sizes", "2-6", "--seed", "11", "--variant", "prec"]) == 0
    assert "15/15" in capsys.readouterr().out


def test_verify_without_sizes_stops_at_the_variant_oracle_cap(capsys):
    assert main(["verify", "--count", "5", "--variant", "prec"]) == 0
    assert capsys.readouterr().out.startswith("prec: 5/5 instances passed")


@pytest.mark.parametrize("variant, check", [("bounded", "check_bounded"), ("prec", "check_precedence")])
def test_verify_checks_the_sizes_it_reports(variant, check, monkeypatch, capsys):
    # `--sizes 1-1` used to check 2-job bounded instances
    checked = []
    real = getattr(verify, check)
    monkeypatch.setattr(verify, check, lambda instance: checked.append(instance.n) or real(instance))
    assert main(["verify", "--count", "6", "--sizes", "1-1", "--seed", "4", "--variant", variant]) == 0
    assert capsys.readouterr().out.startswith(f"{variant}: 6/6 instances passed")
    assert checked == [1] * 6


def test_bench_csv_to_stdout_summary_to_stderr(capsys):
    assert main(["bench", "--sizes", "10,20", "--reps", "1", "--seed", "2", "--algorithms", "main1"]) == 0
    captured = capsys.readouterr()
    rows = captured.out.strip().splitlines()
    assert rows[0] == "algorithm,n,avg_seconds,max_seconds,points,moves"
    assert [r.split(",")[1] for r in rows[1:]] == ["10", "20"]
    assert "fitted log-log slope" in captured.err


def test_bench_rejects_unknown_algorithm(capsys):
    assert main(["bench", "--sizes", "10", "--algorithms", "main9"]) == 2


def test_bench_checks_every_algorithm_before_running_any(capsys, monkeypatch):
    monkeypatch.setattr("batchfront.bench.gen_random", lambda *args, **kwargs: pytest.fail("main1 ran"))
    assert main(["bench", "--sizes", "10", "--reps", "1", "--algorithms", "main1,main9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown algorithm 'main9', expected one of ('main1', 'main1_naive', 'main2')\n"


@pytest.mark.parametrize("text", ["", ","])
def test_bench_refuses_an_empty_algorithm_list_naming_the_flag(text, capsys):
    # used to print a header-only CSV and exit 0
    assert main(["bench", "--sizes", "10", "--reps", "1", "--algorithms", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --algorithms must be a comma list from main1,main1_naive,main2, got {text!r}\n"


def test_bench_runs_each_distinct_algorithm_and_size_once(capsys):
    # a repeated name or size used to give duplicate rows, and one size
    # listed twice a fitted slope of 0.00
    argv = ["bench", "--sizes", "10,10", "--reps", "1", "--seed", "2", "--algorithms", "main1,main1"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    rows = captured.out.strip().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["main1", "10"]]
    assert captured.err == "main1: slope needs at least two sizes\n"


def test_out_flag_writes_file(tmp_path):
    inst_path = tmp_path / "inst.json"
    csv_path = tmp_path / "front.csv"
    inst_path.write_text(TWO_JOBS_JSON, encoding="utf-8")
    assert main(["pareto", str(inst_path), "--out", str(csv_path)]) == 0
    assert csv_path.read_text(encoding="utf-8").startswith("c_max,f_max,batches\n6,3,")


def test_bench_profile_and_capacity_give_warm_and_naive_equal_points(capsys):
    argv = ["bench", "--sizes", "10,16", "--reps", "2", "--seed", "4", "--profile", "small", "--capacity", "2"]
    assert main(argv + ["--algorithms", "main1,main1_naive"]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.strip().splitlines()[1:]]
    points = {(algorithm, n): int(pts) for algorithm, n, _, _, pts, _ in rows}
    assert len(points) == 4
    assert all(points["main1", n] == points["main1_naive", n] for n in ("10", "16"))


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["gen", "--n", "3", "--profile", "prec", "--capacity", "2"], id="gen"),
        pytest.param(["bench", "--sizes", "10", "--reps", "1", "--profile", "prec", "--capacity", "2"], id="bench"),
    ],
)
def test_capacity_on_an_unbounded_profile_exits_2(argv, capsys):
    # both used to exit 0 with an unbounded instance
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: profile 'prec' is unbounded and takes no capacity, got 2\n"


def test_bench_precedence_algorithm_on_a_bounded_profile_exits_2(capsys):
    assert main(["bench", "--sizes", "10", "--reps", "1", "--algorithms", "main2", "--profile", "small"]) == 2
    assert capsys.readouterr().err == "error: precedence frontier requires unbounded capacity\n"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["bench", "--sizes", "-5"], id="bench-no-lower-end"),
        pytest.param(["bench", "--sizes", "10,x"], id="bench-list-word"),
        pytest.param(["bench", "--sizes", "8-2"], id="bench-empty-range"),
        pytest.param(["verify", "--sizes", "3-x"], id="verify-range-word"),
        pytest.param(["verify", "--sizes", "2-8-9"], id="verify-three-ends"),
        pytest.param(["bench", "--sizes", ""], id="bench-empty"),
        pytest.param(["bench", "--sizes", ","], id="bench-only-commas"),
        pytest.param(["verify", "--sizes", ""], id="verify-empty"),
    ],
)
def test_bad_sizes_exit_2_naming_the_flag_and_its_forms(argv, capsys):
    # used to print "invalid literal for int() with base 10: ''"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --sizes must be a list such as 10,20,30 or a range such as 2-8, got {argv[-1]!r}\n"
    )
