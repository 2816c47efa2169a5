"""Every failure path of the verification harness, each fed a disagreement
it must report in exactly these words."""

import pytest

from batchfront import verify
from batchfront.admissible import AdmissibleSlots
from batchfront.cli import main
from batchfront.frontier import ParetoFront, ParetoPoint, pareto_bounded
from batchfront.generate import gen_random
from batchfront.model import Instance, Schedule
from batchfront.verify import VerifyReport, check_instance


def _lie_to_the_replay(monkeypatch, sweep_name, lie):
    """Make ``verify``'s sweep hand its step hook what ``lie(before,
    threshold, schedule, after)`` returns instead of the real step."""
    sweep = getattr(verify, sweep_name)

    def misreported(instance, on_step, check):
        def lying(before, threshold, schedule, after):
            on_step(*lie(before, threshold, schedule, after))

        return sweep(instance, on_step=lying, check=check)

    monkeypatch.setattr(verify, sweep_name, misreported)


def _previous_schedule():
    """A lie that reports each feasible step's schedule one step late."""
    seen = []

    def lie(before, threshold, schedule, after):
        reported = seen[-1] if seen and schedule is not None else schedule
        seen.append(schedule)
        return before, threshold, reported, after

    return lie


def test_bounded_replay_reports_a_feasibility_disagreement(monkeypatch, two_jobs):
    _lie_to_the_replay(monkeypatch, "pareto_bounded", lambda before, t, schedule, after: (before, t, None, after))
    assert check_instance(two_jobs) == [
        "threshold inf: reference feasibility True != incremental False",
        "threshold 3: reference feasibility True != incremental False",
    ]


def test_bounded_replay_reports_objectives_off_the_reference(monkeypatch, two_jobs):
    # the step at threshold 3 reports the uncapped schedule {1,2} at (6, 3)
    # where the reference finds {1};{2} at (8, 0)
    _lie_to_the_replay(monkeypatch, "pareto_bounded", _previous_schedule())
    assert check_instance(two_jobs) == ["threshold 3: incremental (6, 3) != reference (8, 0)"]


def test_precedence_replay_reports_objectives_off_a_fresh_solver(monkeypatch):
    # the sweep's schedules are (138, 283), (143, 253), (148, 235), then none
    _lie_to_the_replay(monkeypatch, "pareto_precedence", _previous_schedule())
    assert check_instance(gen_random(20, 1, "prec")) == [
        "threshold 283: warm (138, 283) != fresh (143, 253)",
        "threshold 253: warm (143, 253) != fresh (148, 235)",
    ]


def test_precedence_replay_reports_limits_off_a_fresh_solver(monkeypatch):
    # the uncapped step moves no job; every capped one does
    instance = gen_random(20, 1, "prec")

    def lie(before, threshold, schedule, after):
        return before, threshold, schedule, AdmissibleSlots(instance, instance.layer)

    _lie_to_the_replay(monkeypatch, "pareto_precedence", lie)
    assert check_instance(instance) == [
        f"threshold {t}: limits after the step differ from a fresh solver's" for t in (283, 253, 235)
    ]


def _unbounded_without_edges(n):
    small = gen_random(n, 1, "small")
    return Instance(jobs=small.jobs, setup=small.setup, capacity=None)


@pytest.mark.parametrize(
    "instance, oracle_runs",
    [
        pytest.param(gen_random(8, 1, "small"), True, id="bounded-8"),
        pytest.param(gen_random(9, 1, "small"), False, id="bounded-9"),
        pytest.param(gen_random(7, 1, "prec"), True, id="edges-7"),
        pytest.param(gen_random(8, 1, "prec"), False, id="edges-8"),
        pytest.param(_unbounded_without_edges(8), True, id="no-edges-8"),
    ],
)
def test_the_oracle_runs_up_to_its_cap_for_the_instance(instance, oracle_runs, monkeypatch):
    # the cap follows the edges (14 at n = 7, 20 at n = 8), not the
    # capacity mode; above it the sweep and its step replays still run
    called = []
    for name in ("oracle_pareto", "_replay_reference", "_replay_fresh"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, name=name, real=real: called.append(name) or real(*args))
    assert verify.check_instance(instance) == []
    assert called.count("oracle_pareto") == int(oracle_runs)
    assert ("_replay_reference" if instance.bounded else "_replay_fresh") in called


def _two_job_points(two_jobs):
    return pareto_bounded(two_jobs).points  # (6, 3) with {1,2}, then (8, 0) with {1};{2}


@pytest.mark.parametrize(
    "build, issues",
    [
        pytest.param(
            lambda p1, p2: ParetoFront((p2, p1)),
            ["frontier not strictly monotone: (8, 0) then (6, 3)"],
            id="not-monotone",
        ),
        pytest.param(
            lambda p1, p2: ParetoFront((p1, p2, p2)),
            ["frontier not strictly monotone: (8, 0) then (8, 0)", "3 frontier points exceed n = 2"],
            id="too-many-points",
        ),
        pytest.param(
            lambda p1, p2: ParetoFront((ParetoPoint(6, 3, Schedule((frozenset({1, 2}), frozenset()), (6, 6), 2)), p2)),
            ["point (6, 3) schedule invalid: slot 2: empty slot after a nonempty one"],
            id="invalid-schedule",
        ),
        pytest.param(
            lambda p1, p2: ParetoFront((ParetoPoint(6, 2, p1.schedule), p2)),
            ["point (6, 2) does not reproduce its objectives"],
            id="objectives-off",
        ),
        pytest.param(
            lambda p1, p2: ParetoFront((p1, p2), relocations=3),
            ["3 relocations exceed n(n-1) = 2"],
            id="too-many-relocations",
        ),
    ],
)
def test_frontier_shape_reports_each_breach(build, issues, two_jobs):
    assert verify._check_frontier_shape(build(*_two_job_points(two_jobs)), two_jobs) == issues


def test_oracle_comparison_reports_missing_points_and_a_costly_last_schedule(two_jobs):
    first, _ = _two_job_points(two_jobs)
    assert verify._check_against_oracle(ParetoFront((first,)), two_jobs) == [
        "frontier [(6, 3)] != oracle [(6, 3), (8, 0)]",
        "min-cost schedule reaches 3, oracle minimum is 0",
    ]


def test_report_keeps_the_first_failures_and_counts_every_one():
    report = VerifyReport(variant="bounded")
    report.record(1, [])
    for seed in range(2, 14):
        report.record(seed, [f"issue {seed}", "another"])
    assert (report.attempted, report.passed, report.ok) == (13, 1, False)
    assert report.failures == [(seed, f"issue {seed}; another") for seed in range(2, 12)]
    assert report.summary_lines() == [
        "bounded: 1/13 instances passed",
        "first failing seed: 2",
        "  issue 2; another",
        *(f"also failing: seed {seed}: issue {seed}; another" for seed in range(3, 12)),
    ]


def test_verify_exits_1_naming_the_first_failing_seed(monkeypatch, capsys):
    monkeypatch.setattr(verify, "check_instance", lambda instance: [f"made up for n = {instance.n}"])
    assert main(["verify", "--count", "3", "--sizes", "2-2", "--seed", "7", "--variant", "prec"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "prec: 0/3 instances passed",
        "first failing seed: 7",
        "  made up for n = 2",
        "also failing: seed 8: made up for n = 2",
        "also failing: seed 9: made up for n = 2",
    ]
