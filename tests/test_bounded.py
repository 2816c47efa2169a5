import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from batchfront.admissible import AdmissibleSlots
from batchfront.bounded import (
    UNBOUNDED,
    BoundedSolver,
    batch_times,
    form_batches,
    solve_reference,
)
from batchfront.frontier import pareto_bounded, pareto_bounded_naive
from batchfront.generate import SplitMix64, gen_random
from batchfront.model import Instance, Job, Lateness, objectives, validate
from batchfront.oracle import enumerate_feasible
from batchfront.verify import check_bounded


def _slots_as_sets(slots):
    return [set(s) for s in slots]


def test_form_batches_two_jobs(two_jobs):
    limits = AdmissibleSlots.unrestricted(two_jobs)
    slots = form_batches(two_jobs, limits)
    assert _slots_as_sets(slots[1:]) == [set(), {1, 2}]


def test_form_batches_reverses_processing_order_at_capacity_one():
    inst = Instance(
        jobs=(Job(1, 3, Lateness(9)), Job(2, 1, Lateness(9)), Job(3, 2, Lateness(9))),
        setup=1,
        capacity=1,
    )
    slots = form_batches(inst, AdmissibleSlots.unrestricted(inst))
    assert _slots_as_sets(slots[1:]) == [{2}, {3}, {1}]


def test_form_batches_infeasible_when_lower_groups_starve():
    inst = Instance(
        jobs=(Job(1, 2, Lateness(3)), Job(2, 2, Lateness(3)), Job(3, 2, Lateness(3))),
        setup=1,
        capacity=1,
    )
    limits = AdmissibleSlots(inst, {1: 1, 2: 1, 3: 3})
    assert form_batches(inst, limits) is None


def test_reference_solver_threshold_ladder(two_jobs):
    top = solve_reference(two_jobs, AdmissibleSlots.unrestricted(two_jobs), UNBOUNDED)
    assert objectives(top, two_jobs) == (6, 3)

    mid = solve_reference(two_jobs, AdmissibleSlots.unrestricted(two_jobs), 3)
    assert objectives(mid, two_jobs) == (8, 0)

    assert solve_reference(two_jobs, AdmissibleSlots.unrestricted(two_jobs), 0) is None


def test_incremental_solver_warm_ladder(two_jobs):
    solver = BoundedSolver.initial(two_jobs, check=True)
    first = solver.solve(UNBOUNDED)
    assert objectives(first, two_jobs) == (6, 3)

    second = solver.solve(3)
    assert second.slots == (frozenset({1}), frozenset({2}))
    assert objectives(second, two_jobs) == (8, 0)

    assert solver.solve(0) is None


def test_unbounded_threshold_changes_nothing(two_jobs):
    solver = BoundedSolver.initial(two_jobs)
    before = solver.schedule()
    assert solver.solve(UNBOUNDED) == before
    assert solver.limits.relocations == 0


def test_violation_in_first_slot_is_infeasible():
    inst = Instance(jobs=(Job(1, 2, Lateness(1)),), setup=1, capacity=1)
    solver = BoundedSolver.initial(inst)
    assert objectives(solver.solve(UNBOUNDED), inst) == (3, 2)
    assert solver.solve(2) is None


def test_trace_lines(two_jobs):
    lines = []
    solver = BoundedSolver.initial(two_jobs, trace=lines.append)
    solver.solve(UNBOUNDED)
    solver.solve(3)
    assert lines == ["move job=1 from=2 to=1 case=1"]


def _satisfying(instance, limits, threshold=UNBOUNDED):
    """All feasible schedules satisfying the limits with max cost < threshold."""
    out = []
    for sched in enumerate_feasible(instance):
        if all(limits.limit(j) >= sched.slot_of(j) for j in range(1, instance.n + 1)):
            if objectives(sched, instance)[1] < threshold:
                out.append(sched)
    return out


def test_greedy_fill_minimizes_every_slot_time():
    # on every limit state a real sweep passes through, the greedy result
    # must start and complete every slot no later than any schedule
    # satisfying those limits, and use the fewest nonempty slots
    rng = SplitMix64(21)
    states_checked = 0
    for trial in range(25):
        inst = gen_random(rng.randint(2, 6), seed=10_000 + trial, profile="small")
        states = []
        # an infeasible step abandons its state mid-adjustment, so only
        # entry states and converged states are meaningful here
        pareto_bounded(
            inst,
            on_step=lambda before, y, sched, after: states.extend(
                [before.copy()] + ([after.copy()] if sched is not None else [])
            ),
        )
        for limits in states:
            others = _satisfying(inst, limits)
            slots = form_batches(inst, limits)
            if slots is None:
                assert others == []
                continue
            assert others, "greedy built a schedule but enumeration found none"
            states_checked += 1
            start, completion = batch_times(slots, inst)
            nonempty = sum(1 for s in slots[1:] if s)
            for other in others:
                assert nonempty <= len(other.batches())
                for i in range(1, inst.n + 1):
                    assert start[i] <= other.start[i - 1]
                    assert completion[i] <= other.completion[i - 1]
    assert states_checked >= 25


def test_adjustments_preserve_the_satisfying_set():
    # the set of capped schedules satisfying the limits is identical before
    # and after each warm solve tightens them
    rng = SplitMix64(33)
    checked = 0
    for trial in range(40):
        inst = gen_random(rng.randint(2, 6), seed=20_000 + trial, profile="small")
        steps = []
        pareto_bounded(
            inst,
            on_step=lambda before, y, sched, after: steps.append((before.copy(), y, after.copy())),
        )
        for before, y, after in steps:
            want = {s.slots for s in _satisfying(inst, before, y)}
            got = {s.slots for s in _satisfying(inst, after, y)}
            assert got == want
            checked += 1
    assert checked > 40


def test_incremental_agrees_with_reference_on_randoms():
    for seed in range(120):
        inst = gen_random(2 + seed % 6, seed=30_000 + seed, profile="small")
        assert check_bounded(inst) == []


def _step_cost_instance(seed):
    # steep step costs drive the nastiest adjustment paths (cheap early,
    # prohibitive after a cutoff), which no generator profile produces
    from batchfront.model import StepTable

    rng = SplitMix64(seed)
    n = rng.randint(3, 6)
    jobs = []
    for j in range(1, n + 1):
        if rng.chance(1, 2):
            cutoff = rng.randint(1, 40)
            cost = StepTable(breakpoints=((0, rng.randint(-5, 0)), (cutoff, rng.randint(20, 200))))
        else:
            cost = Lateness(due=rng.randint(1, 20))
        jobs.append(Job(j, rng.randint(1, 9), cost))
    return Instance(
        jobs=tuple(jobs),
        setup=rng.randint(0, 5),
        capacity=rng.randint(1, max(1, n - 1)),
    )


def test_incremental_agrees_with_reference_on_step_costs():
    for seed in range(150):
        assert check_bounded(_step_cost_instance(90_000 + seed)) == []


def test_spent_solver_state_is_documented_behaviour(two_jobs):
    solver = BoundedSolver.initial(two_jobs)
    solver.solve(UNBOUNDED)
    assert solver.solve(0) is None  # spent; no further use


def test_incremental_times_match_a_full_retime(two_jobs):
    solver = BoundedSolver.initial(two_jobs)
    solver.solve(UNBOUNDED)
    solver.solve(3)  # opens a batch in the empty slot 1
    slots = solver.schedule().slots
    assert solver.completion == [0, 3, 8]
    assert solver.load == [0, 1, 3]
    assert solver.completion == batch_times([set()] + [set(s) for s in slots], two_jobs)[1]


_CORRUPTED_LOAD = textwrap.dedent(
    """
    from batchfront import BoundedSolver, Instance, InvariantError, Job, Lateness, UNBOUNDED
    from batchfront.verify import check_bounded

    if __debug__:
        raise SystemExit("expected to run under python -O")
    inst = Instance(jobs=(Job(1, 1, Lateness(3)), Job(2, 3, Lateness(20))), setup=2, capacity=2)

    # slot 1 is empty until solve(3) carries job 1 into it and retimes it
    solver = BoundedSolver.initial(inst, check=True)
    solver.solve(UNBOUNDED)
    solver.load[1] += 1
    try:
        solver.solve(3)
        print("solver: no error")
    except InvariantError as err:
        print(f"solver: {err}")

    build = BoundedSolver.__init__

    def corrupted(self, *args, **kwargs):
        build(self, *args, **kwargs)
        self.load[1] += 1

    BoundedSolver.__init__ = corrupted
    print(f"verify: {check_bounded(inst)}")
    """
)


def test_check_mode_survives_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPTED_LOAD], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    message = "incrementally retimed completions differ from a full retime"
    assert done.stdout.splitlines() == [
        f"solver: {message}",
        f"verify: ['internal invariant failed: {message}']",
    ]


@pytest.mark.parametrize("profile", ["small", "paper"])
@pytest.mark.parametrize("n", [60, 120, 200])
def test_warm_sweep_matches_restarting_baseline_beyond_the_oracle(n, profile):
    # sizes the oracle cannot reach; check=True runs every kernel invariant
    # (incremental retime, hoist slot, rebuild equality) on each adjustment
    for b in (2, n // 5):
        inst = gen_random(n, seed=70_000 + n + b, profile=profile, capacity=b)
        warm = pareto_bounded(inst, check=True)
        naive = pareto_bounded_naive(inst)
        assert warm.pairs() == naive.pairs()
        assert [pt.schedule for pt in warm.points] == [pt.schedule for pt in naive.points]
        assert warm.relocations <= n * (n - 1)
        for pt in warm.points:
            assert validate(pt.schedule, inst) == []
            assert objectives(pt.schedule, inst) == (pt.makespan, pt.max_cost)
