"""Check the saved output of a perfbench smoke run.

Runs without pytest or any other third-party package::

    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1 > out.txt
    python3 scripts/check_smoke.py out.txt

Each workload's output starts with a ``workload NAME: ...`` header and a
``seed S, T s, trace N`` line.  The run passes when every workload prints
exactly one JSON result, every result is correct with no failed attempt,
and every workload run with ``trace 1`` prints exactly one ``absent: none``
line and no other ``absent:`` line, so a per-layer span the tracer times
that lost its hook fails.  A pass prints one summary line and exits 0; a
failure names each problem and exits 1.
"""

from __future__ import annotations

import json
import re
import sys

_RUN_LINE = re.compile(r"seed -?\d+, \d+ s, trace ([01])")


def smoke_problems(text: str) -> tuple[int, int, list[str]]:
    """(workloads, traced workloads, problems) for one run's output; no
    problems means it passed."""
    blocks: list[list[str]] = [[]]
    for line in text.splitlines():
        if line.startswith("workload "):
            blocks.append([])
        blocks[-1].append(line)
    stray, workloads = blocks[0], blocks[1:]
    problems = []
    if not workloads:
        problems.append("no workload header")
    if any(line.startswith("{") for line in stray):
        problems.append("a result before the first workload header")
    traced = 0
    for lines in workloads:
        name = lines[0].removeprefix("workload ").split(":")[0]
        runs = [m for m in map(_RUN_LINE.fullmatch, lines) if m]
        if len(runs) != 1:
            problems.append(f"{name}: {len(runs)} 'seed S, T s, trace N' lines")
            continue
        results = [json.loads(line) for line in lines if line.startswith("{")]
        if len(results) != 1:
            problems.append(f"{name}: {len(results)} results")
        for result in results:
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{name}: correct {result.get('correct')}, failed {result.get('failed')}")
        if runs[0].group(1) == "1":
            traced += 1
            absent = [line for line in lines if line.startswith("absent: ")]
            if absent != ["absent: none"]:
                problems.append(f"{name}: traced run printed {absent or 'no absent line'}")
    return len(workloads), traced, problems


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: check_smoke.py OUTPUT_FILE", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as f:
        runs, traced, problems = smoke_problems(f.read())
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(f"{runs} workloads, {traced} traced: every result correct with 0 failed, nothing absent")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
