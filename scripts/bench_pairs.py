"""Alternating fresh-directory pairs of perfbench runs, for a perf claim.

Runs without pytest or any other third-party package::

    python3 scripts/bench_pairs.py PARENT CHANGE --workload paper-800 \\
        --seed 23 --pairs 10 --seconds 8 > pairs.json

``--workload`` names one workload, a comma-separated list of them, or
``all``, every workload ``BENCHMARK.json`` declares, in its order.  The
workloads run one after another, each with its own alternating pairs.
``--traced-pairs K`` adds K traced pairs per workload, run the same way
with ``--trace 1`` appended, after the timed ones; ``--pairs 0`` runs
traced pairs alone.

PARENT and CHANGE are two checkouts of the repository (say, a ``git
archive`` of the parent commit and the working tree).  For each pair, each
side is copied into a fresh temporary directory and runs::

    python3 perfbench/run.py --workload W --seed S --seconds T

there, untraced as ``BENCHMARK.json`` runs it; even pairs run the parent first, odd pairs the change, so neither
side always meets a warm or a cold machine.  The copy leaves out version
control, bytecode and test caches, so every run compiles its own tree.

Standard output gets one JSON object in the shape the ``BENCH_*.json``
files use: ``command``, ``runs`` (per seed and workload: the per-pair
``first_side``, ``failed`` and ``attempted`` counts, ``correct``, and for
each end-to-end metric the per-pair values with both medians, the relative
change, the pairs the change wins, the parent's interquartile range and
the regression verdict), ``claim_result``, which says whether the claimed
metric on the first workload named meets the claim rule: the change better
in at least nine of every ten pairs, and the medians apart in the better
direction by more than the parent's IQR (the claimed metric is the
end-to-end metric ``--claim-metric`` names, ``latency_p50_s`` unless
given), and ``regression_result``, which names, on every workload, each
end-to-end metric whose change median is worse than the parent's by more
than its bound (regressed), and each whose runs spread wider than that
bound (unresolved).  Which direction is better, and each bound, come from
``BENCHMARK.json``.
Traced pairs go under ``traced``, in the shape of ``runs``, with
``traced_command``: each per-layer metric's per-pair values, both medians,
the relative change and the parent's IQR, and ``digests``, the frontier
digest each run printed.  They give no claim and no regression verdict: a
traced run times each layer under the tracer's hooks, not the chain end
to end.  Progress goes to standard error.  A run that exits nonzero or
prints no result stops the whole and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
IGNORED = shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis", ".benchmarks")
RUN_TIMEOUT_S = 600
CLAIM_METRIC = "latency_p50_s"

Command = Callable[[str, int, int], list[str]]


DIGEST = "frontier digest sha256 "
TRACE_ON = ["--trace", "1"]  # appended to a command for a traced pair


def perfbench_command(workload: str, seed: int, seconds: int) -> list[str]:
    """The untraced perfbench run of one workload, from a checkout's root."""
    return [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def end_to_end() -> dict[str, dict]:
    """Each end-to-end metric's entry in ``BENCHMARK.json``, by name: its
    ``better`` ("lower" or "higher") and its ``bound``, the relative change
    for the worse that counts as a regression."""
    return {metric["name"]: metric for metric in benchmark()["end_to_end"]}


def workloads_named(spec: str) -> list[str]:
    """The workloads a ``--workload`` value names: ``all`` is every
    workload of ``BENCHMARK.json``, in its order; anything else is a
    comma-separated list."""
    if spec == "all":
        return [workload["name"] for workload in benchmark()["workloads"]]
    return [name for name in spec.split(",") if name]


def run_side(checkout: Path, argv: list[str]) -> dict:
    """Copy ``checkout`` into a fresh directory, run ``argv`` there and
    return the JSON object on the last line of its standard output, with
    ``digest`` set from a frontier digest line when the run printed one."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as workdir:
        copy = Path(workdir) / "checkout"
        shutil.copytree(checkout, copy, ignore=IGNORED)
        done = subprocess.run(argv, cwd=copy, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines or not lines[-1].startswith("{"):
        tail = (done.stderr or done.stdout).strip().splitlines()[-5:]
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited {done.returncode}: {' | '.join(tail)}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(DIGEST):
            result["digest"] = line[len(DIGEST):].strip()
    return result


def iqr(values: list[float]) -> float:
    lower, _, upper = statistics.quantiles(values, n=4, method="inclusive")
    return upper - lower


def summarize(values: dict[str, list[float]], metric: dict | None) -> dict:
    """Per-pair values of one metric with their medians, the relative
    change of the medians, the parent's IQR and, for an end-to-end
    ``metric``, the pairs the change wins and its regression verdict."""
    parent, change = values["parent"], values["change"]
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    summary = {
        "parent": parent,
        "change": change,
        "parent_median": round(parent_median, 7),
        "change_median": round(change_median, 7),
        "relative": round((change_median - parent_median) / parent_median, 4) if parent_median else None,
        "parent_iqr": round(iqr(parent), 7) if len(parent) > 1 else 0.0,
    }
    if metric is not None:
        lower = metric["better"] == "lower"
        wins = (c < p if lower else c > p for p, c in zip(parent, change))
        summary["change_better_pairs"] = sum(wins)
        summary["bound"] = bound = metric["bound"]
        summary["regression"] = regression(parent, change, lower, bound)
    return summary


def regression(parent: list[float], change: list[float], lower: bool, bound: float) -> str:
    """"regressed" when the change's median is worse than the parent's by
    more than ``bound``, relative to the parent's median; otherwise
    "unresolved" when either side's IQR exceeds ``bound`` of that median
    and some change run reads no better than some parent run; otherwise
    "within bound"."""
    parent_median = statistics.median(parent)
    scale = abs(parent_median) or 1.0
    worse = (statistics.median(change) - parent_median) / scale
    if (worse if lower else -worse) > bound:
        return "regressed"
    spread = max(iqr(side) if len(side) > 1 else 0.0 for side in (parent, change)) / scale
    all_better = max(change) < min(parent) if lower else min(change) > max(parent)
    return "unresolved" if spread > bound and not all_better else "within bound"


def run_pairs(
    parent: Path,
    change: Path,
    workload: str,
    seed: int,
    pairs: int,
    seconds: int,
    command: Command = perfbench_command,
    traced: bool = False,
) -> dict:
    """The ``runs`` entry of ``pairs`` alternating pairs on one workload:
    pair k runs the parent first when k is even, the change when it is odd.
    A traced pair appends ``TRACE_ON`` to ``command``.  Only end-to-end
    metrics get a verdict, and ``digests`` is added when the runs printed
    frontier digests."""
    checkouts = {"parent": parent, "change": change}
    argv = command(workload, seed, seconds) + (TRACE_ON if traced else [])
    first_side: list[str] = []
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    for k in range(pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        first_side.append(order[0])
        for side in order:
            result = run_side(checkouts[side], argv)
            results[side].append(result)
            print(f"{workload} pair {k + 1}/{pairs} {side}: attempted {result['attempted']}, failed {result['failed']}", file=sys.stderr)
    metrics = end_to_end()
    names = results["parent"][0]["metrics"]
    run = {
        "seconds": seconds,
        "seed": seed,
        "pairs": pairs,
        "first_side": first_side,
        "failed": {side: [r["failed"] for r in results[side]] for side in SIDES},
        "attempted": {side: [r["attempted"] for r in results[side]] for side in SIDES},
        "correct": all(r["correct"] for side in SIDES for r in results[side]),
        "metrics": {
            name: summarize({side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}, metrics.get(name))
            for name in names
        },
    }
    if any("digest" in r for side in SIDES for r in results[side]):
        run["digests"] = {side: [r.get("digest") for r in results[side]] for side in SIDES}
    return run


def claim_result(run: dict, workload: str, name: str = CLAIM_METRIC) -> str:
    """Whether the end-to-end metric ``name`` on one workload's runs meets
    the claim rule, with the figures it was judged on.  The difference of
    the medians is taken in the metric's better direction, so it is
    positive when the change is better."""
    m = run["metrics"][name]
    pairs = run["pairs"]
    wins = m["change_better_pairs"]
    if end_to_end()[name]["better"] == "higher":
        difference = m["change_median"] - m["parent_median"]
    else:
        difference = m["parent_median"] - m["change_median"]
    met = wins >= math.ceil(0.9 * pairs) and difference > m["parent_iqr"]
    failed = sum(run["failed"]["parent"]) + sum(run["failed"]["change"])
    return (
        f"{'met' if met else 'not met'}. Seed {run['seed']}: {workload} {name} {m['parent_median']} -> "
        f"{m['change_median']} ({m['relative']:+.1%}), change better in {wins}/{pairs} pairs, difference "
        f"{difference:.7g} against a parent IQR of {m['parent_iqr']}; {failed} failed attempts, correct {run['correct']}."
    )


def regression_result(run: dict, workload: str) -> str:
    """The end-to-end metrics of one workload's runs that regressed or are
    unresolved under their ``BENCHMARK.json`` bounds."""
    verdicts = {name: m for name, m in run["metrics"].items() if "regression" in m}
    parts = []
    for verdict in ("regressed", "unresolved"):
        named = [
            f"{name} {m['parent_median']} -> {m['change_median']} (bound {m['bound']:.1%})"
            for name, m in verdicts.items()
            if m["regression"] == verdict
        ]
        parts.append(f"{verdict}: {', '.join(named) or 'none'}")
    regressed = any(m["regression"] == "regressed" for m in verdicts.values())
    return (
        f"{'regressed' if regressed else 'no regression'}. Seed {run['seed']}: {workload}, "
        f"{len(verdicts)} end-to-end metrics; {'; '.join(parts)}."
    )


def run_workloads(
    parent: Path,
    change: Path,
    workloads: list[str],
    seed: int,
    pairs: int,
    seconds: int,
    command: Command = perfbench_command,
    traced_pairs: int = 0,
    claim_metric: str = CLAIM_METRIC,
) -> dict:
    """The whole output for ``workloads``, run one after another: with
    timed ``pairs``, ``command``, ``runs``, the claim on ``claim_metric`` of
    the first workload and the regression verdicts of every workload; with
    ``traced_pairs``, ``traced_command`` and ``traced``, each workload's
    traced pairs run after its timed ones."""
    def listed(extra: list[str]) -> str:
        return f"python3 {' '.join(command('W', seed, seconds)[1:] + extra)}, for W in {', '.join(workloads)}"

    runs, traced_runs = {}, {}
    for workload in workloads:
        if pairs:
            runs[workload] = run_pairs(parent, change, workload, seed, pairs, seconds, command)
        if traced_pairs:
            traced_runs[workload] = run_pairs(parent, change, workload, seed, traced_pairs, seconds, command, traced=True)
    result = {}
    if pairs:
        result["command"] = listed([])
        result["runs"] = {f"seed_{seed}": runs}
        result["claim_result"] = claim_result(runs[workloads[0]], workloads[0], claim_metric)
        result["regression_result"] = " ".join(regression_result(run, workload) for workload, run in runs.items())
    if traced_pairs:
        result["traced_command"] = listed(TRACE_ON)
        result["traced"] = {f"seed_{seed}": traced_runs}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent side")
    parser.add_argument("change", type=Path, help="checkout of the changed side")
    parser.add_argument("--workload", required=True, help="a workload, a comma-separated list, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--traced-pairs", type=int, default=0, help="traced pairs per workload, after the timed ones")
    parser.add_argument(
        "--claim-metric", default=CLAIM_METRIC, choices=tuple(end_to_end()),
        help=f"end-to-end metric the claim is judged on (default {CLAIM_METRIC})",
    )
    args = parser.parse_args(argv)
    if args.pairs < 0 or args.traced_pairs < 0 or not args.pairs + args.traced_pairs:
        parser.error("--pairs and --traced-pairs must not be negative, and one must be at least 1")
    workloads = workloads_named(args.workload)
    if not workloads:
        parser.error("--workload names no workload")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} is not a checkout with perfbench/run.py")
    try:
        result = run_workloads(
            args.parent.resolve(), args.change.resolve(), workloads, args.seed, args.pairs, args.seconds,
            traced_pairs=args.traced_pairs, claim_metric=args.claim_metric,
        )
    except (RuntimeError, subprocess.TimeoutExpired) as problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
