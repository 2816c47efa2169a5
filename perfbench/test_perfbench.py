"""Tests of the benchmark itself: the output check, determinism, tracing.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import tracer
from batchfront import bounded, emit_instance
from check import csv_problems
from workloads import WORKLOADS, Spec, Workload

HERE = Path(__file__).resolve().parent

TINY = Workload(
    name="tiny",
    why="a few small instances of both kinds, cycled",
    spec=lambda index, seed: Spec(8 + index, seed, "prec" if index % 2 else "small"),
    traced_per_second=3.0,
    pool_size=4,
    naive_checks=2,
)


def _text(spec: Spec) -> str:
    return emit_instance(spec.instance())


def _multi_point_case():
    """A bounded instance whose frontier has at least three points."""
    for seed in range(200):
        spec = Spec(10, seed, "small")
        csv, front = harness.solve_text(_text(spec))
        if len(front.points) >= 3:
            return spec, csv, front
    raise AssertionError("no multi-point instance in the first 200 seeds")


def test_correct_output_passes():
    spec, csv, front = _multi_point_case()
    assert csv_problems(csv, spec.instance(), front.relocations, naive=True) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda rows: rows[:1] + [rows[1].replace(",", ",1", 1)] + rows[2:], id="wrong-f_max"),
        pytest.param(lambda rows: rows[:1] + rows[1:][::-1], id="not-monotone"),
        pytest.param(lambda rows: rows[:1] + [rows[1].rsplit(";", 1)[0]] + rows[2:], id="job-missing"),
        pytest.param(lambda rows: rows[:1] + [rows[1].replace(";", ".")] + rows[2:], id="over-capacity"),
        pytest.param(lambda rows: rows[:1] + rows[2:], id="point-dropped"),
        pytest.param(lambda rows: ["c_max,batches"] + rows[1:], id="bad-header"),
    ],
)
def test_corrupted_output_is_a_problem(corrupt):
    spec, csv, front = _multi_point_case()
    rows = csv.split("\n")[:-1]
    corrupted = "\n".join(corrupt(rows)) + "\n"
    assert corrupted != csv
    assert csv_problems(corrupted, spec.instance(), front.relocations, naive=True)


def test_relocation_bound_is_checked():
    spec, csv, front = _multi_point_case()
    n = spec.n
    assert csv_problems(csv, spec.instance(), n * (n - 1) + 1)


def _texts(workload, seed, count):
    return [case.text for case in itertools.islice(workload.cases(seed), count)]


def test_corrupted_csv_counts_as_failed_attempts():
    target = _texts(TINY, 5, 2)[1]

    def corrupting(text):
        csv, front = harness.solve_text(text)
        if text == target:
            head, first, *rest = csv.split("\n")
            c_max, f_max, batches = first.split(",", 2)
            csv = "\n".join([head, f"{c_max},{int(f_max) - 1},{batches}", *rest])
        return csv, front

    result = harness.run_plain(TINY, 5, 0.2, solve=corrupting)
    runs_of_case_1 = (result.outcome.attempted + TINY.pool_size - 2) // TINY.pool_size
    assert result.outcome.failed == runs_of_case_1 > 0
    assert not result.outcome.correct
    clean = harness.run_plain(TINY, 5, 0.2)
    assert clean.outcome.correct and clean.outcome.failed == 0


def test_traced_counts_repeat_and_seeds_differ():
    first = harness.run_traced(TINY, 3, 2)
    second = harness.run_traced(TINY, 3, 2)
    assert first.outcome.correct and second.outcome.correct
    assert first.digest == second.digest
    exact = {k: m["value"] for k, m in first.metrics.items() if m["unit"] in ("count", "bytes")}
    assert exact == {k: m["value"] for k, m in second.metrics.items() if m["unit"] in ("count", "bytes")}
    assert exact["model.job_lookups"] > 0 and exact["model.cost_evals"] > 0
    assert _texts(TINY, 3, 4) != _texts(TINY, 4, 4)
    assert _texts(TINY, 3, 8) == _texts(TINY, 3, 4) * 2


def test_traced_run_reports_every_listed_metric():
    listed = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    result = harness.run_traced(TINY, 1, 1)
    assert set(result.metrics) == listed
    assert result.absent == []


@pytest.mark.parametrize(
    "label, dropped",
    [
        ("bounded.fill", ["bounded.fill_s", "bounded.fill_calls"]),
        ("bounded.solve", ["bounded.solve_s", "bounded.self_s", "bounded.passes", "bounded.useful_pass_ratio"]),
    ],
)
def test_missing_callable_is_absent_not_zero(monkeypatch, label, dropped):
    hooks = tuple(
        tracer.Hook(h.label, h.namespace, "no_such_function", h.harvest) if h.label == label else h
        for h in tracer.SPANS
    )
    monkeypatch.setattr(tracer, "SPANS", hooks)
    result = harness.run_traced(TINY, 1, 1)
    assert label in result.absent
    assert not set(dropped) & set(result.metrics)
    assert "bounded.retime_s" in result.metrics


def test_wrappers_are_removed_after_a_traced_run():
    original = bounded.batch_times, bounded.BoundedSolver.__dict__["initial"]
    harness.run_traced(TINY, 1, 1)
    assert (bounded.batch_times, bounded.BoundedSolver.__dict__["initial"]) == original


def test_tail_has_ten_samples_beyond_it():
    pct, value = harness.tail([float(i) for i in range(100)])
    assert (pct, value) == (90.0, 89.0)
    assert harness.tail([1.0, 2.0]) == (100.0, 2.0)


def test_many_small_is_stratified():
    pool = list(itertools.islice(WORKLOADS["many-small"].cases(0), 132))
    assert len({(c.spec.n, c.spec.profile) for c in pool}) == 33 * 2
    assert sorted(c.spec.n for c in pool) == sorted(list(range(8, 41)) * 4)
    assert sum(c.spec.profile == "prec" for c in pool) == 33


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-800", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
