"""One benchmark run: a workload's instances from JSON text to frontier CSV.

The timed operation is ``parse_instance`` -> ``pareto_front`` ->
``ParetoFront.to_csv`` on instance JSON text, the chain ``batchfront
pareto`` runs minus file I/O.  Load comes from this one process and thread,
in a closed loop: the next instance starts when the previous one is done.
Instance generation and the output check stay outside the timed region.

A plain run (``run_plain``) gives the end-to-end metrics; a traced run
(``run_traced``) gives the per-layer ones from a fixed instance list.
"""

from __future__ import annotations

import hashlib
import itertools
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

from batchfront import fileio, frontier

import speed
from check import csv_problems
from tracer import Tracer
from workloads import Case, Workload

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
CALIBRATE_EVERY_S = 0.25  # solve time between two runs of the speed kernel


def solve_text(text: str) -> tuple[str, "frontier.ParetoFront"]:
    """The timed chain.  Names are looked up on their modules at call time,
    so the tracer's rebinding takes effect."""
    front = frontier.pareto_front(fileio.parse_instance(text))
    return front.to_csv(), front


@dataclass
class Outcome:
    """The attempts of one run and how many of them failed the check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


class OutputCheck:
    """Judges every attempt as it comes, outside the timed region.

    An instance's first run is checked in full against the generated
    instance; a repeat of a pooled instance must reproduce the first run's
    output exactly.  The first ``naive_checks`` bounded instances are also
    compared with the restarting baseline.  A failing attempt counts once,
    whatever is wrong with it.
    """

    def __init__(self, naive_checks: int = 0):
        self.outcome = Outcome()
        self._naive_left = naive_checks
        self._first: dict[int, tuple[str, int, list[str]]] = {}

    def record(self, case: Case, csv: str, relocations: int, keep: bool) -> None:
        """``keep``: remember the output, because the instance may repeat."""
        if case.instance is not None:
            naive = self._naive_left > 0 and case.instance.bounded
            if naive:
                self._naive_left -= 1
            problems = csv_problems(csv, case.instance, relocations, naive=naive)
            if keep:
                self._first[case.key] = (csv, relocations, problems)
        else:
            first_csv, first_relocations, problems = self._first[case.key]
            if (csv, relocations) != (first_csv, first_relocations):
                problems = ["output differs from the instance's first run"]
        self.outcome.attempted += 1
        if problems:
            self.outcome.failed += 1
            self.outcome.problems.append(f"{case_label(case)}: {problems[0]}")


def case_label(case: Case) -> str:
    spec = case.spec
    return f"gen_random({spec.n}, {spec.seed}, {spec.profile!r}, capacity={spec.capacity})"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least
    TAIL_BEYOND samples beyond it, or the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


@dataclass
class PlainResult:
    outcome: Outcome
    raw_latencies: list[float]
    latencies: list[float]  # scaled to nominal machine speed
    peak_rss_mb: float


def run_plain(workload: Workload, seed: int, seconds: float, solve=solve_text) -> PlainResult:
    """Run the workload's instance stream until ``seconds`` of wall time have
    passed; the instance in flight when time runs out completes and counts.

    Generation, the check and the speed kernel share the wall time but stay
    outside the timed region.  The kernel runs before the first instance and
    after every CALIBRATE_EVERY_S of solving; each latency is scaled by the
    kernel times on either side of it.
    """
    check = OutputCheck(workload.naive_checks)
    keep = workload.pool_size is not None
    raw = []
    scaled = []
    clock = time.perf_counter
    kernel = speed.kernel_seconds()
    deadline = clock() + seconds
    segment = 0  # first latency not yet scaled
    for case in workload.cases(seed):
        t0 = clock()
        csv, front = solve(case.text)
        raw.append(clock() - t0)
        check.record(case, csv, front.relocations, keep)
        done = clock() >= deadline
        if done or sum(raw[segment:]) >= CALIBRATE_EVERY_S:
            after = speed.kernel_seconds()
            scaled += [speed.scale(t, kernel, after) for t in raw[segment:]]
            kernel, segment = after, len(raw)
        if done:
            break
    return PlainResult(check.outcome, raw, scaled, peak_rss_mb())


def end_to_end_metrics(result: PlainResult, setup_samples: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics and a human-readable line for each.  Times are
    at nominal machine speed (see speed.py); raw ones are printed beside."""
    lat = result.latencies
    n = len(lat)
    pct, tail_value = tail(lat)
    p50 = statistics.median(lat)
    raw_p50 = statistics.median(result.raw_latencies)
    throughput = n / sum(lat)
    outcome = result.outcome
    pass_ratio = (outcome.attempted - outcome.failed) / outcome.attempted
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "latency_p50_s": (p50, "s"),
        "latency_tail_s": (tail_value, "s"),
        "throughput_ips": (throughput, "1/s"),
        "pass_ratio": (pass_ratio, "ratio"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
    }
    lines = [
        f"setup_s         {metrics['setup_s'][0]:.4f} s   median of {len(setup_samples)} fresh `import batchfront`",
        f"latency_p50_s   {p50:.4f} s   p50 of {n} instances (raw {raw_p50:.4f} s, speed factor {raw_p50 / p50:.2f})",
        f"latency_tail_s  {tail_value:.4f} s   p{pct:.1f} of {n} instances, {min(n, TAIL_BEYOND)} beyond it",
        f"throughput_ips  {throughput:.3f} 1/s   {n} instances, raw {n / sum(result.raw_latencies):.3f} 1/s",
        f"fail_ratio      {outcome.failed / outcome.attempted:.6f}   {outcome.failed} of {outcome.attempted} failed the check (pass_ratio {pass_ratio:.6f})",
        f"peak_rss_mb     {result.peak_rss_mb:.1f} MB   peak resident memory of this process",
    ]
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, lines


@dataclass
class TracedResult:
    outcome: Outcome
    metrics: dict
    digest: str
    absent: list[str]


def _pass(texts: list[str], tracer: Tracer | None = None):
    """Run the chain over ``texts``.  Returns the factor that scales this
    pass's times to nominal machine speed, the pass's wall time at nominal
    speed, and its outputs and frontiers."""
    outputs = []
    fronts = []
    clock = time.perf_counter
    before = _kernel_median()
    t0 = clock()
    for text in texts:
        csv, front = solve_text(text)
        outputs.append(csv)
        fronts.append(front)
        if tracer is not None:
            tracer.end_instance()
    wall = clock() - t0
    factor = speed.scale(1.0, before, _kernel_median())
    return factor, factor * wall, outputs, fronts


def _kernel_median() -> float:
    """The speed kernel's median of three: a pass is scaled by two kernel
    measurements only, so one disturbed run must not set its factor."""
    return statistics.median(speed.kernel_seconds() for _ in range(3))


def run_traced(workload: Workload, seed: int, seconds: float) -> TracedResult:
    """A plain pass, a span pass and a count pass over the same instances.

    The instance list depends on (workload, seed, seconds) alone, so every
    count and the output digest repeat exactly for the same arguments.
    """
    cases = list(itertools.islice(workload.cases(seed), workload.traced_count(seconds)))
    texts = [case.text for case in cases]

    _, plain_wall, outputs, fronts = _pass(texts)
    tracer = Tracer()
    with tracer.spans():
        factor, span_wall, span_outputs, _ = _pass(texts, tracer)
    with tracer.counts():
        _, _, count_outputs, _ = _pass(texts)

    check = OutputCheck(workload.naive_checks)
    for case, csv, front in zip(cases, outputs, fronts):
        check.record(case, csv, front.relocations, keep=True)
    outcome = check.outcome
    if span_outputs != outputs or count_outputs != outputs:
        outcome.failed = outcome.attempted
        outcome.problems.append("a traced pass changed the outputs")

    digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
    metrics = layer_metrics(tracer, factor, texts, outputs, fronts, span_wall / plain_wall)
    return TracedResult(outcome, metrics, digest, sorted(tracer.absent))


def layer_metrics(tracer: Tracer, factor: float, texts, outputs, fronts, overhead_ratio: float) -> dict:
    """Per-layer metrics, per instance except for ratios; ``factor`` scales
    span times to nominal machine speed.  A metric whose source the tracer
    found absent is left out."""
    k = len(texts)
    out = {}

    def put(name, value, unit):
        if value is not None:
            out[name] = {"value": value, "unit": unit}

    def calls(label):
        return tracer.calls[label] / k if tracer.present(label) else None

    def total(label):
        return tracer.total[label] * factor / k if tracer.present(label) else None

    def self_s(label):
        return tracer.self_time[label] * factor / k if tracer.present(label) else None

    def harvested(label, attr):
        key = f"{label}.{attr}"
        return tracer.harvested[key] / k if tracer.present(label) and tracer.present(key) else None

    put("fileio.parse_s", self_s("fileio.parse"), "s")
    put("fileio.input_bytes", sum(len(t.encode()) for t in texts) / k, "bytes")
    put("model.instance_s", total("model.instance"), "s")
    put("model.timetable_calls", calls("model.timetable"), "count")
    put("model.timetable_s", total("model.timetable"), "s")
    put("model.objectives_calls", calls("model.objectives"), "count")
    put("model.objectives_s", total("model.objectives"), "s")
    put("model.cost_evals", calls("model.cost_evals"), "count")
    put("model.job_lookups", calls("model.job_lookups"), "count")
    put("admissible.init_s", total("admissible.init"), "s")
    put("admissible.moves", calls("admissible.move"), "count")
    put("admissible.move_s", total("admissible.move"), "s")
    put("bounded.init_s", total("bounded.init"), "s")
    put("bounded.solve_calls", calls("bounded.solve"), "count")
    put("bounded.solve_s", total("bounded.solve"), "s")
    put("bounded.retime_calls", calls("bounded.retime"), "count")
    put("bounded.retime_s", total("bounded.retime"), "s")
    put("bounded.fill_calls", calls("bounded.fill"), "count")
    put("bounded.fill_s", total("bounded.fill"), "s")
    put("bounded.self_s", self_s("bounded.solve"), "s")
    passes = harvested("bounded.solve", "passes")
    put("bounded.passes", passes, "count")
    put("bounded.adjustments", harvested("bounded.solve", "adjustments"), "count")
    if passes is not None:
        solves = calls("bounded.solve")
        put("bounded.useful_pass_ratio", (passes - solves) / passes if passes else 0.0, "ratio")
    put("precedence.graph_s", total("precedence.graph"), "s")
    put("precedence.edges", harvested("precedence.graph", "edge_count"), "count")
    put("precedence.layer_s", total("precedence.layer"), "s")
    put("precedence.solve_calls", calls("precedence.solve"), "count")
    put("precedence.solve_s", total("precedence.solve"), "s")
    put("precedence.retime_s", total("precedence.retime"), "s")
    put("precedence.passes", harvested("precedence.solve", "passes"), "count")
    put("precedence.adjustments", harvested("precedence.solve", "adjustments"), "count")
    steps = sum(f.threshold_steps for f in fronts)
    points = sum(len(f.points) for f in fronts)
    put("frontier.sweep_s", total("frontier.sweep"), "s")
    put("frontier.steps", steps / k, "count")
    put("frontier.points", points / k, "count")
    put("frontier.relocations", sum(f.relocations for f in fronts) / k, "count")
    put("frontier.point_ratio", points / steps, "ratio")
    put("frontier.csv_s", total("frontier.csv"), "s")
    put("frontier.csv_bytes", sum(len(c.encode()) for c in outputs) / k, "bytes")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    return out


def report_problems(outcome: Outcome, limit: int = 5) -> None:
    for line in outcome.problems[:limit]:
        print(f"check failed: {line}", file=sys.stderr)
    if len(outcome.problems) > limit:
        print(f"check failed: ... and {len(outcome.problems) - limit} more", file=sys.stderr)
