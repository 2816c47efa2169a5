import math

import pytest

from batchfront.bench import BenchRecord, CSV_HEADER, loglog_slope, run_bench, summary_lines, to_csv
from batchfront.frontier import pareto_bounded
from batchfront.generate import gen_random
from batchfront.model import InstanceError


def test_records_sorted_and_csv_shape():
    records = run_bench(["main1_naive", "main1"], [12, 10], repetitions=2, seed=3)
    keys = [(r.algorithm, r.n) for r in records]
    assert keys == [("main1", 10), ("main1", 12), ("main1_naive", 10), ("main1_naive", 12)]
    text = to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "main1" and first[1] == "10"
    float(first[2]), float(first[3])  # parse as seconds
    int(first[4]), int(first[5])


def test_single_repetition_average_equals_max():
    (record,) = run_bench(["main2"], [10], repetitions=1, seed=1)
    assert record.avg_seconds == record.max_seconds
    assert record.repetitions == 1


def test_identical_frontiers_between_warm_and_naive():
    warm, naive = run_bench(["main1", "main1_naive"], [15], repetitions=3, seed=8)
    assert warm.points == naive.points


def test_average_never_exceeds_max():
    with pytest.raises(ValueError, match="exceeds the maximum"):
        BenchRecord("main1", 5, 2, avg_seconds=2.0, max_seconds=1.0, points=1, moves=0)


def test_loglog_slope_recovers_power_law():
    pairs = [(n, 3e-6 * n**2.5) for n in (50, 100, 200, 400)]
    assert math.isclose(loglog_slope(pairs), 2.5, rel_tol=1e-9)


def test_summary_names_each_algorithm():
    records = run_bench(["main1"], [10, 20], repetitions=1, seed=2)
    lines = summary_lines(records)
    assert len(lines) == 1
    assert lines[0].startswith("main1: fitted log-log slope ")


def test_repeated_algorithms_and_sizes_run_once():
    records = run_bench(["main1", "main1_naive", "main1"], [12, 10, 12, 10], repetitions=1, seed=3)
    keys = [(r.algorithm, r.n) for r in records]
    assert keys == [("main1", 10), ("main1", 12), ("main1_naive", 10), ("main1_naive", 12)]


def test_summary_needs_two_distinct_sizes():
    # records repeating one size used to be fitted as a slope of 0.00
    twice = [BenchRecord("main1", 10, 1, 0.5, 0.5, 1, 0), BenchRecord("main1", 10, 1, 0.25, 0.25, 1, 0)]
    assert summary_lines(twice) == ["main1: slope needs at least two sizes"]
    apart = [twice[0], BenchRecord("main1", 20, 1, 2.0, 2.0, 1, 0)]
    assert summary_lines(apart) == ["main1: fitted log-log slope 2.00"]


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        run_bench(["main3"], [10], repetitions=1, seed=0)


def test_profile_and_capacity_override_the_default_profile():
    records = run_bench(["main1", "main1_naive"], [12, 20], repetitions=2, seed=5, profile="small", capacity=2)
    warm, naive = records[:2], records[2:]
    assert [r.points for r in warm] == [r.points for r in naive]
    fronts = {n: [pareto_bounded(gen_random(n, 5 + r, "small", capacity=2)) for r in (0, 1)] for n in (12, 20)}
    assert [r.points for r in warm] == [sum(len(front.points) for front in fronts[n]) for n in (12, 20)]


def test_capacity_on_an_unbounded_profile_is_refused_before_any_run(monkeypatch):
    monkeypatch.setattr("batchfront.bench.gen_random", lambda *args, **kwargs: pytest.fail("an instance was drawn"))
    with pytest.raises(ValueError, match="^profile 'prec' is unbounded and takes no capacity, got 2$"):
        run_bench(["main1", "main2"], [10], repetitions=1, seed=0, capacity=2)


def test_algorithm_and_profile_capacity_modes_must_agree():
    with pytest.raises(InstanceError, match="^precedence frontier requires unbounded capacity$"):
        run_bench(["main2"], [10], repetitions=1, seed=0, profile="small")
