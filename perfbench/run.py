"""JSON-to-CSV frontier benchmark for batchfront.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-800 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1``
the per-layer ones (see NOTES.md for what each should move).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in a fresh child process of its own, one after another.

The package is imported from ``src/`` next to this directory; without it
the run fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 170


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Wall time of a fresh interpreter importing batchfront, the cold start
    every ``batchfront pareto`` call pays, at nominal machine speed.  One
    unmeasured import comes first, so every sample finds the bytecode cache
    warm."""
    command = [sys.executable, "-c", "import batchfront"]
    env = _env()
    subprocess.run(command, env=env, check=True, timeout=60)
    kernel = speed.kernel_seconds()
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(command, env=env, check=True, timeout=60)
        elapsed = time.perf_counter() - t0
        after = speed.kernel_seconds()
        times.append(speed.scale(elapsed, kernel, after))
        kernel = after
    return times


def run_one(args) -> int:
    import batchfront

    if Path(batchfront.__file__).resolve().parent != SRC / "batchfront":
        print(f"error: imported batchfront from {batchfront.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {args.seconds} s, trace {args.trace}")
    if args.trace:
        result = harness.run_traced(workload, args.seed, args.seconds)
        outcome = result.outcome
        metrics = result.metrics
        for name, m in metrics.items():
            print(f"{name:28} {m['value']:.6g} {m['unit']}")
        print(f"absent: {', '.join(result.absent) or 'none'}")
        print(f"frontier digest sha256 {result.digest}")
    else:
        setup = measure_setup()
        plain = harness.run_plain(workload, args.seed, args.seconds)
        outcome = plain.outcome
        metrics, lines = harness.end_to_end_metrics(plain, setup)
        print("\n".join(lines))
    harness.report_problems(outcome)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, so each gets its own peak
    memory; the child's output is passed through unchanged."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, timeout=CHILD_TIMEOUT_S)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "batchfront" / "__init__.py").is_file():
        print(f"error: no batchfront package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected all or one of {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
