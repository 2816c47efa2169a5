"""Wall-clock scaling harness for the frontier algorithms.

Instances come from the benchmark-scale generator profiles (each algorithm
has a default profile, and a caller may name another profile and capacity
instead); generation is excluded from the timed region and runs are
strictly sequential so the measurements do not interfere.  Records carry the totals a scaling table
needs: average and maximum seconds, frontier points, and relocations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .frontier import pareto_bounded, pareto_bounded_naive, pareto_precedence
from .generate import check_profile, gen_random

# each algorithm's frontier sweep and default generator profile
_RUNNERS = {
    "main1": (pareto_bounded, "paper"),
    "main1_naive": (pareto_bounded_naive, "paper"),
    "main2": (pareto_precedence, "prec"),
}
ALGORITHMS = tuple(_RUNNERS)

CSV_HEADER = "algorithm,n,avg_seconds,max_seconds,points,moves"


@dataclass(frozen=True)
class BenchRecord:
    algorithm: str
    n: int
    repetitions: int
    avg_seconds: float
    max_seconds: float
    points: int
    moves: int

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.avg_seconds > self.max_seconds + 1e-12:
            raise ValueError(f"average {self.avg_seconds} s exceeds the maximum {self.max_seconds} s")

    def csv_row(self) -> str:
        return (
            f"{self.algorithm},{self.n},{self.avg_seconds:.6e},"
            f"{self.max_seconds:.6e},{self.points},{self.moves}"
        )


def run_bench(
    algorithms,
    sizes,
    repetitions: int,
    seed: int,
    profile: str | None = None,
    capacity: int | None = None,
) -> list[BenchRecord]:
    """One record per distinct (algorithm, n), rows sorted the same way.

    Repetition r of every (algorithm, n) cell uses seed ``seed + r`` so the
    frontiers of different algorithms at equal n and seed are comparable.
    ``profile`` replaces every algorithm's default profile and ``capacity``
    the profile's batch capacity (see ``gen_random``); a capacity given to
    an unbounded profile raises ``ValueError`` before any run, and an
    algorithm given instances of the wrong capacity mode raises
    ``InstanceError``.
    """
    try:
        runners = {algorithm: _RUNNERS[algorithm] for algorithm in algorithms}  # checks every name before any run
    except KeyError as unknown:
        raise ValueError(f"unknown algorithm {unknown.args[0]!r}, expected one of {ALGORITHMS}") from None
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    for _, default_profile in runners.values():
        check_profile(profile or default_profile, capacity)
    records = []
    for algorithm in sorted(runners):
        run, default_profile = runners[algorithm]
        for n in sorted(set(sizes)):
            instances = [
                gen_random(n, seed + r, profile=profile or default_profile, capacity=capacity)
                for r in range(repetitions)
            ]
            times = []
            points = 0
            moves = 0
            for instance in instances:
                t0 = time.perf_counter()
                front = run(instance)
                times.append(time.perf_counter() - t0)
                points += len(front.points)
                moves += front.relocations
            records.append(
                BenchRecord(
                    algorithm=algorithm,
                    n=n,
                    repetitions=repetitions,
                    avg_seconds=sum(times) / len(times),
                    max_seconds=max(times),
                    points=points,
                    moves=moves,
                )
            )
    return records


def to_csv(records) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"


def loglog_slope(pairs) -> float:
    """Least-squares slope of log(seconds) against log(n)."""
    xs = [math.log(n) for n, _ in pairs]
    ys = [math.log(t) for _, t in pairs]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    var = sum((x - mean_x) ** 2 for x in xs)
    if var == 0:
        return 0.0
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return cov / var


def summary_lines(records) -> list[str]:
    """Fitted log-log slope of average time per algorithm, for an
    algorithm run at two distinct sizes or more."""
    lines = []
    by_algorithm: dict[str, list[tuple[int, float]]] = {}
    for r in records:
        by_algorithm.setdefault(r.algorithm, []).append((r.n, r.avg_seconds))
    for algorithm in sorted(by_algorithm):
        pairs = by_algorithm[algorithm]
        if len({n for n, _ in pairs}) >= 2:
            lines.append(f"{algorithm}: fitted log-log slope {loglog_slope(pairs):.2f}")
        else:
            lines.append(f"{algorithm}: slope needs at least two sizes")
    return lines
