"""scripts/bench_pairs.py, the alternating fresh-directory pair runner,
driven with a stub command in place of a perfbench run."""

import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPT = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "bench_pairs.py"))

# Prints a perfbench-shaped result whose values are the run's position in
# the log, after appending the side it found in its working directory, that
# directory, and whether the checkout's bytecode cache came along.
STUB = """
import json, os, sys
log = sys.argv[1]
with open(log, encoding="utf-8") as f:
    k = sum(1 for _ in f)
side = open("side.txt", encoding="utf-8").read().strip()
with open(log, "a", encoding="utf-8") as f:
    f.write(json.dumps([side, os.getcwd(), os.path.exists("__pycache__")]) + "\\n")
metrics = {name: {"value": float(k), "unit": "s"} for name in ("latency_p50_s", "throughput_ips")}
print("workload stub")
print(json.dumps({"correct": True, "attempted": 10 + k, "failed": 0, "metrics": metrics}))
"""


def _checkout(root, side):
    checkout = root / side
    (checkout / "__pycache__").mkdir(parents=True)
    (checkout / "side.txt").write_text(side, encoding="utf-8")
    return checkout


@pytest.fixture
def pairs(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text("", encoding="utf-8")
    checkouts = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")

    def command(workload, seed, seconds):
        return [sys.executable, "-c", STUB, str(log)]

    run = SCRIPT["run_pairs"](*checkouts, "stub", 7, 3, 1, command=command)
    runs = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    return run, runs, checkouts


def test_sides_alternate_which_runs_first(pairs):
    run, runs, _ = pairs
    assert run["first_side"] == ["parent", "change", "parent"]
    assert [side for side, _, _ in runs] == ["parent", "change", "change", "parent", "parent", "change"]
    # each side's values are its own runs, in pair order
    assert run["metrics"]["latency_p50_s"]["parent"] == [0.0, 3.0, 4.0]
    assert run["metrics"]["latency_p50_s"]["change"] == [1.0, 2.0, 5.0]
    assert run["attempted"] == {"parent": [10, 13, 14], "change": [11, 12, 15]}


def test_every_run_gets_a_fresh_copy_without_caches(pairs):
    _, runs, checkouts = pairs
    directories = [cwd for _, cwd, _ in runs]
    assert len(set(directories)) == len(runs)
    assert not set(directories) & {str(checkout) for checkout in checkouts}
    assert not any(cache for _, _, cache in runs)
    assert not any(Path(cwd).exists() for cwd in directories)


def test_the_output_has_the_bench_file_shape(pairs):
    run, _, _ = pairs
    assert set(run) == {"seconds", "seed", "pairs", "first_side", "failed", "attempted", "correct", "metrics"}
    assert (run["seconds"], run["seed"], run["pairs"], run["correct"]) == (1, 7, 3, True)
    assert run["failed"] == {"parent": [0, 0, 0], "change": [0, 0, 0]}
    for summary in run["metrics"].values():
        assert set(summary) == {
            "parent", "change", "parent_median", "change_median", "relative", "change_better_pairs", "parent_iqr",
            "bound", "regression",
        }
        assert 0 <= summary["change_better_pairs"] <= 3
    p50 = run["metrics"]["latency_p50_s"]
    assert (p50["parent_median"], p50["change_median"], p50["parent_iqr"]) == (3.0, 2.0, 2.0)
    verdict = SCRIPT["claim_result"](run, "stub")
    assert verdict.startswith(("met. Seed 7: stub latency_p50_s 3.0 -> 2.0", "not met. Seed 7: stub latency_p50_s 3.0 -> 2.0"))


def test_each_metric_is_judged_against_its_bound(pairs):
    # latency_p50_s (better lower, bound 25%) reads 3.0 -> 2.0, better, but
    # the parent's IQR of 2.0 is 67% of its median; throughput_ips (better
    # higher, bound 25%) reads 3.0 -> 2.0, 33% worse
    run, _, _ = pairs
    assert run["metrics"]["latency_p50_s"]["regression"] == "unresolved"
    assert run["metrics"]["throughput_ips"]["regression"] == "regressed"
    assert SCRIPT["regression_result"](run, "stub") == (
        "regressed. Seed 7: stub, 2 end-to-end metrics; regressed: throughput_ips 3.0 -> 2.0 (bound 25.0%); "
        "unresolved: latency_p50_s 3.0 -> 2.0 (bound 25.0%)."
    )


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        ([1.0, 1.01, 0.99, 1.0, 1.02], [1.2, 1.21, 1.19, 1.2, 1.22], "within bound"),
        ([1.0, 1.01, 0.99, 1.0, 1.02], [1.3, 1.31, 1.29, 1.3, 1.32], "regressed"),
        ([1.0, 1.5, 0.5, 1.0, 2.0], [1.1, 1.6, 0.6, 1.1, 2.1], "unresolved"),
        ([1.0, 1.5, 0.7, 1.0, 2.0], [0.5, 0.6, 0.4, 0.5, 0.6], "within bound"),
    ],
    ids=["close", "worse", "spread", "spread-but-every-run-better"],
)
def test_regression_verdicts_of_a_lower_is_better_metric(parent, change, verdict):
    assert SCRIPT["regression"](parent, change, True, 0.25) == verdict
    # the same runs of a higher-is-better metric, negated
    assert SCRIPT["regression"]([-v for v in parent], [-v for v in change], False, 0.25) == verdict


def test_a_run_without_a_result_stops_the_pairs(tmp_path):
    checkouts = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")

    def command(workload, seed, seconds):
        return [sys.executable, "-c", "import sys; print('boom', file=sys.stderr); sys.exit(3)"]

    with pytest.raises(RuntimeError, match="exited 3: boom$"):
        SCRIPT["run_pairs"](*checkouts, "stub", 7, 2, 1, command=command)


def test_one_run_covers_every_workload_named(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text("", encoding="utf-8")
    checkouts = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")
    named = []

    def command(workload, seed, seconds):
        named.append(workload)
        return [sys.executable, "-c", STUB, str(log)]

    result = SCRIPT["run_workloads"](*checkouts, ["second", "first"], 7, 2, 1, command=command)
    assert set(result) == {"command", "runs", "claim_result", "regression_result"}
    assert list(result["runs"]["seed_7"]) == ["second", "first"]
    # four runs per workload, the second workload's values going on from the first's
    assert result["runs"]["seed_7"]["second"]["metrics"]["latency_p50_s"]["parent"] == [0.0, 3.0]
    assert result["runs"]["seed_7"]["first"]["metrics"]["latency_p50_s"]["parent"] == [4.0, 7.0]
    assert result["claim_result"].split(" latency_p50_s")[0].endswith("Seed 7: second")
    verdicts = result["regression_result"]
    assert verdicts.index("Seed 7: second,") < verdicts.index("Seed 7: first,")
    assert result["command"].endswith(", for W in second, first")
    assert named[:2] == ["second", "first"]  # then once more, with W, for the command shown


def test_all_names_every_benchmark_workload_in_order():
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert SCRIPT["workloads_named"]("all") == [workload["name"] for workload in spec["workloads"]]
    assert SCRIPT["workloads_named"]("hard-b2,paper-800") == ["hard-b2", "paper-800"]
    assert SCRIPT["workloads_named"]("many-small") == ["many-small"]


# A traced run's output: per-layer metrics, a frontier digest line, and the
# result line; each value is the run's position in the log.  It refuses to
# run unless its command line ends with ``--trace 1``.
TRACED_STUB = """
import json, sys
assert sys.argv[-2:] == ["--trace", "1"], sys.argv
log = sys.argv[1]
with open(log, encoding="utf-8") as f:
    k = sum(1 for _ in f)
side = open("side.txt", encoding="utf-8").read().strip()
with open(log, "a", encoding="utf-8") as f:
    f.write(side + "\\n")
metrics = {"fileio.parse_s": {"value": float(k), "unit": "s"}, "bounded.passes": {"value": 5.0, "unit": "count"}}
print("absent: none")
print("frontier digest sha256 " + ("ab" if side == "parent" else "cd"))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
"""


def test_traced_pairs_report_layer_medians_and_digests_with_no_verdict(tmp_path):
    log = tmp_path / "log.txt"
    log.write_text("", encoding="utf-8")
    checkouts = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")

    def command(workload, seed, seconds):
        return [sys.executable, "-c", TRACED_STUB, str(log)]

    result = SCRIPT["run_workloads"](*checkouts, ["stub"], 7, 0, 1, command=command, traced_pairs=3)
    assert set(result) == {"traced_command", "traced"}
    run = result["traced"]["seed_7"]["stub"]
    assert run["first_side"] == ["parent", "change", "parent"]
    assert run["digests"] == {"parent": ["ab"] * 3, "change": ["cd"] * 3}
    parse = run["metrics"]["fileio.parse_s"]
    assert (parse["parent"], parse["change"]) == ([0.0, 3.0, 4.0], [1.0, 2.0, 5.0])
    assert (parse["parent_median"], parse["change_median"], parse["parent_iqr"]) == (3.0, 2.0, 2.0)
    passes = run["metrics"]["bounded.passes"]
    assert (passes["parent_median"], passes["change_median"], passes["relative"]) == (5.0, 5.0, 0.0)
    for summary in run["metrics"].values():
        assert not {"change_better_pairs", "bound", "regression"} & set(summary)
    assert result["traced_command"].endswith(f"{log} --trace 1, for W in stub")


def test_timed_runs_are_untraced_as_the_benchmark_runs_them():
    argv = SCRIPT["perfbench_command"]("paper-800", 3, 8)
    assert argv[1:] == ["perfbench/run.py", "--workload", "paper-800", "--seed", "3", "--seconds", "8"]
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert "--trace" not in spec["command"]


def _claim_run(name, parent, change):
    """A ``runs`` entry holding one end-to-end metric's per-pair values."""
    metric = SCRIPT["end_to_end"]()[name]
    zeros = [0] * len(parent)
    return {
        "seed": 7,
        "pairs": len(parent),
        "failed": {"parent": zeros, "change": zeros},
        "correct": True,
        "metrics": {name: SCRIPT["summarize"]({"parent": parent, "change": change}, metric)},
    }


_STEADY = [100.0, 101.0, 99.0, 100.0, 102.0, 100.0, 101.0, 99.0, 100.0, 100.0]


def test_a_higher_is_better_claim_is_met_when_the_change_reads_higher():
    higher = [value + 10 for value in _STEADY]
    run = _claim_run("throughput_ips", _STEADY, higher)
    assert SCRIPT["claim_result"](run, "stub", "throughput_ips") == (
        "met. Seed 7: stub throughput_ips 100.0 -> 110.0 (+10.0%), change better in 10/10 pairs, difference 10 "
        "against a parent IQR of 0.75; 0 failed attempts, correct True."
    )
    # the same runs the other way round: the change reads lower, so worse
    run = _claim_run("throughput_ips", higher, _STEADY)
    assert SCRIPT["claim_result"](run, "stub", "throughput_ips").startswith(
        "not met. Seed 7: stub throughput_ips 110.0 -> 100.0 (-9.1%), change better in 0/10 pairs, difference -10 "
    )


def test_a_lower_is_better_claim_stays_the_default():
    lower = [value - 10 for value in _STEADY]
    run = _claim_run("latency_p50_s", _STEADY, lower)
    assert SCRIPT["claim_result"](run, "stub") == SCRIPT["claim_result"](run, "stub", "latency_p50_s")
    assert SCRIPT["claim_result"](run, "stub").startswith(
        "met. Seed 7: stub latency_p50_s 100.0 -> 90.0 (-10.0%), change better in 10/10 pairs, difference 10 "
    )


@pytest.mark.parametrize("name", ["latency_p50_s", "throughput_ips"])
def test_a_tie_meets_no_claim(name):
    run = _claim_run(name, _STEADY, list(_STEADY))
    assert SCRIPT["claim_result"](run, "stub", name).startswith(
        f"not met. Seed 7: stub {name} 100.0 -> 100.0 (+0.0%), change better in 0/10 pairs, difference 0 "
    )


def test_an_unknown_claim_metric_is_refused(tmp_path, capsys):
    run = _claim_run("latency_p50_s", _STEADY, _STEADY)
    with pytest.raises(KeyError, match="fileio.parse_s"):  # a per-layer metric has no better direction to claim
        SCRIPT["claim_result"](run, "stub", "fileio.parse_s")
    argv = [str(tmp_path), str(tmp_path), "--workload", "stub", "--seed", "1", "--pairs", "1", "--seconds", "1"]
    with pytest.raises(SystemExit) as stopped:
        SCRIPT["main"](argv + ["--claim-metric", "latency_p99_s"])
    assert stopped.value.code == 2
    err = capsys.readouterr().err
    assert "argument --claim-metric: invalid choice" in err and "latency_p99_s" in err  # quoting varies by Python
