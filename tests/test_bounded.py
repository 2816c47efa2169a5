import heapq
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
    WarmSolver,
    batch_times,
    form_batches,
    solve_reference,
)
from batchfront.frontier import pareto_bounded, pareto_bounded_naive, pareto_precedence
from batchfront.generate import SplitMix64, gen_random
from batchfront.model import Affine, Instance, InvariantError, Job, Lateness, Tardiness, objectives, timetable, validate
from batchfront.oracle import enumerate_feasible
from batchfront.verify import check_instance


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
    limits = AdmissibleSlots(inst, [0, 1, 1, 3])
    assert form_batches(inst, limits) is None
    with pytest.raises(InvariantError, match="^the greedy fill failed on the starting limits$"):
        BoundedSolver(inst, limits)


def test_reference_solver_threshold_ladder(two_jobs):
    top = solve_reference(two_jobs, AdmissibleSlots.unrestricted(two_jobs), UNBOUNDED)
    assert objectives(top, two_jobs) == (6, 3)

    mid = solve_reference(two_jobs, AdmissibleSlots.unrestricted(two_jobs), 3)
    assert objectives(mid, two_jobs) == (8, 0)

    assert solve_reference(two_jobs, AdmissibleSlots.unrestricted(two_jobs), 0) is None


def test_reference_solver_refuses_limits_whose_prefix_outgrows_its_slots():
    # capacity 1: group 1 holds two jobs from the start, or gains job 3
    # when the first round sends it from slot 2 to slot 1, beside job 1
    inst = Instance(
        jobs=(Job(1, 1, Lateness(10)), Job(2, 1, Lateness(10)), Job(3, 1, Lateness(2))),
        setup=1,
        capacity=1,
    )
    assert solve_reference(inst, AdmissibleSlots(inst, [0, 1, 1, 3]), UNBOUNDED) is None
    limits = AdmissibleSlots(inst, [0, 1, 3, 3])
    assert solve_reference(inst, limits, 1) is None
    assert limits.table == [0, 1, 3, 1] and limits.relocations == 1


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
    before = timetable(solver.slots[1:], two_jobs)
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
        if all(limits.table[j] >= i for i, batch in enumerate(sched.slots, start=1) for j in batch):
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
            greedy = timetable(slots[1:], inst)
            nonempty = sum(1 for s in slots[1:] if s)
            for other in others:
                assert nonempty <= len(other.batches())
                for i in range(inst.n):
                    assert greedy.start[i] <= other.start[i]
                    assert greedy.completion[i] <= other.completion[i]
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
        assert check_instance(inst) == []


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
        assert check_instance(_step_cost_instance(90_000 + seed)) == []


# staged is the family where every carry slot changes
@pytest.mark.parametrize("profile", ["small", "geo", "staged"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_main1_step_matches_the_reference_beyond_the_oracle(profile, seed):
    # check mode on, every step replayed by the from-scratch reference
    # solver and the schedule compared with a rebuild of the limits it left
    assert check_instance(gen_random(60, seed, profile, capacity=2)) == []


def test_spent_solver_state_is_documented_behaviour(two_jobs):
    solver = BoundedSolver.initial(two_jobs)
    solver.solve(UNBOUNDED)
    assert solver.solve(0) is None  # spent; no further use


def test_incremental_times_match_a_full_retime(two_jobs):
    solver = BoundedSolver.initial(two_jobs)
    solver.solve(UNBOUNDED)
    slots = solver.solve(3).slots  # opens a batch in the empty slot 1
    assert solver.completion == [0, 3, 8]
    assert solver.completion == batch_times([set()] + [set(s) for s in slots], two_jobs)


_CORRUPTED_COMPLETION = textwrap.dedent(
    """
    from batchfront import BoundedSolver, Instance, InvariantError, Job, Lateness, UNBOUNDED
    from batchfront.verify import check_instance

    if __debug__:
        raise SystemExit("expected to run under python -O")
    inst = Instance(jobs=(Job(1, 1, Lateness(3)), Job(2, 3, Lateness(20))), setup=2, capacity=2)

    # slot 1 is empty until solve(3) carries job 1 into it and retimes it
    solver = BoundedSolver.initial(inst, check=True)
    solver.solve(UNBOUNDED)
    solver.completion[1] += 1
    try:
        solver.solve(3)
        print("solver: no error")
    except InvariantError as err:
        print(f"solver: {err}")

    solve = BoundedSolver.solve

    def corrupted(self, threshold):
        if self.passes:  # the uncapped solve is done: the second call retimes slot 1
            self.completion[1] += 1
        return solve(self, threshold)

    BoundedSolver.solve = corrupted
    print(f"verify: {check_instance(inst)}")
    """
)


def test_check_mode_survives_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPTED_COMPLETION], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    message = "held completions differ from batch_times"
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


def _in_key_order(instance, slots):
    """Whether every slot lists its jobs strictly increasing in key."""
    keys = instance.keys
    return all(keys[a] < keys[b] for batch in slots for a, b in zip(batch, batch[1:]))


@pytest.mark.parametrize("profile", ["small", "paper"])
@pytest.mark.parametrize("n", [7, 40, 150])
def test_form_batches_lists_every_slot_in_key_order(n, profile):
    for b in (1, 2, 3, n // 5 or 1, n):
        inst = gen_random(n, seed=40_000 + n + b, profile=profile, capacity=b)
        slots = form_batches(inst, AdmissibleSlots.unrestricted(inst))
        assert slots[0] == []
        for batch in slots[1:]:
            assert batch == sorted(batch, key=inst.keys.__getitem__)


def _heap_fill(instance, limits):
    """The greedy fill through a heap of (-p, id), the way ``form_batches``
    once built it: a reference for the key-ordered pool it keeps now."""
    n = instance.n
    cap = instance.effective_capacity
    p = instance.p
    slots = [[] for _ in range(n + 1)]
    pool = []
    assigned = 0
    groups = limits.groups()
    for i in range(n, 0, -1):
        for j in groups[i]:
            heapq.heappush(pool, (-p[j], j))
        take = min(cap, len(pool))
        batch = slots[i] = [heapq.heappop(pool)[1] for _ in range(take)]
        batch.reverse()
        if not batch and assigned < n:
            return None
        assigned += take
    return slots


@pytest.mark.parametrize(
    "n, profile, capacity",
    [(60, "small", 2), (80, "paper", 16), (60, "staged", 4), (60, "geo", 6)],
)
def test_form_batches_equals_a_heap_fill_on_every_step_of_a_sweep(n, profile, capacity):
    inst = gen_random(n, seed=2_500 + n, profile=profile, capacity=capacity)
    states = []
    front = pareto_bounded(
        inst, on_step=lambda before, y, sched, after: states.extend([before.copy(), after.copy()])
    )
    assert len(front.points) >= 2 and len(states) >= 4
    for limits in states:
        assert form_batches(inst, limits) == _heap_fill(inst, limits)


def test_form_batches_equals_a_heap_fill_on_hand_made_limits():
    # random limit tables, most outside what a sweep produces, so many trip
    # the empty-slot rule; both fills must agree on which, and on the rest
    rng = SplitMix64(25)
    outcomes = set()
    for trial in range(300):
        n = rng.randint(1, 7)
        inst = gen_random(n, seed=3_000 + trial, profile="small", capacity=rng.randint(1, n))
        limits = AdmissibleSlots(inst, [0] + [rng.randint(1, n) for _ in range(n)])
        slots = form_batches(inst, limits)
        assert slots == _heap_fill(inst, limits)
        outcomes.add(slots is None)
    assert outcomes == {True, False}


def test_held_slots_stay_in_key_order_through_a_whole_sweep():
    # hard-b2's first instance: hundreds of steps with long carry chains
    # through full 2-job batches, each carry and hoist inserting in order
    inst = gen_random(150, 1, "small", capacity=2)
    solver = BoundedSolver.initial(inst)
    assert _in_key_order(inst, solver.slots)
    threshold, steps = UNBOUNDED, 0
    while True:
        schedule = solver.solve(threshold)
        steps += 1
        assert _in_key_order(inst, solver.slots), f"step {steps}"
        if schedule is None:
            break
        threshold = solver.max_cost
    assert steps == 314


def _reach_misses(solver):
    """Nonempty slots holding a limit above their reach."""
    limit = solver.limits.table
    return [c for c, batch in enumerate(solver.slots) if batch and max(limit[x] for x in batch) > solver.reach[c]]


def test_reach_stays_an_upper_bound_through_a_whole_sweep():
    # hard-b2's first instance: every hoist, carry swap and landing raises
    # a reach, and every candidate-free walk tightens one
    inst = gen_random(150, 1, "small", capacity=2)
    solver = BoundedSolver.initial(inst)
    limit = solver.limits.table
    assert solver.reach == [max((limit[x] for x in batch), default=0) for batch in solver.slots]
    threshold, steps = UNBOUNDED, 0
    while True:
        schedule = solver.solve(threshold)
        steps += 1
        assert _reach_misses(solver) == [], f"step {steps}"
        if schedule is None:
            break
        threshold = solver.max_cost
    assert steps == 314


def test_check_mode_catches_a_reach_below_a_held_limit():
    # capacity 3: the step after the uncapped solve expels job 6 from slot
    # 15 and hoists job 12 from slot 14, whose first job walked is a
    # candidate; slot 11 is never scanned, so a reach lowered there by
    # hand changes no move and only check mode can notice it
    inst = gen_random(15, 1, "paper")
    solver = BoundedSolver.initial(inst, check=True)
    solver.solve(UNBOUNDED)
    assert solver.reach[11:] == [15] * 5 and solver.slots[11] == [3, 4, 5]
    solver.reach[11] = 14
    with pytest.raises(InvariantError, match="^slot 11 holds a limit above its reach$"):
        solver.solve(solver.max_cost)


def test_check_mode_catches_a_slot_out_of_key_order():
    # capacity 3: the step after the uncapped solve expels job 6 from slot
    # 15 and carries it through the full slots 14..11 into slot 10; with
    # slot 14's shortest and longest jobs swapped, the carry takes the
    # wrong job out of it
    inst = gen_random(15, 1, "paper")
    solver = BoundedSolver.initial(inst, check=True)
    solver.solve(UNBOUNDED)
    batch = solver.slots[14]
    assert batch == [15, 14, 12] and batch == sorted(batch, key=inst.keys.__getitem__)
    assert all(len(solver.slots[c]) == 3 for c in range(11, 15)) and len(solver.slots[10]) < 3
    batch[0], batch[-1] = batch[-1], batch[0]
    with pytest.raises(InvariantError, match="^standing schedule diverged from rebuild$"):
        solver.solve(solver.max_cost)


def test_check_mode_catches_a_snapshot_off_its_times(two_jobs):
    solver = BoundedSolver.initial(two_jobs, check=True)
    solver.completion[2] += 1  # the uncapped solve adjusts nothing, so only the snapshot can notice
    with pytest.raises(InvariantError, match="^snapshot differs from a timetable of its slots$"):
        solver.solve(UNBOUNDED)
    unchecked = BoundedSolver.initial(two_jobs)
    unchecked.completion[2] += 1
    assert unchecked.solve(UNBOUNDED).makespan == 7


def test_check_mode_catches_a_corrupted_held_slot_max(two_jobs):
    # capacity 1 fills slots 1..3 with jobs 1, 3, 2; the uncapped solve
    # holds the slot maxima -4, 26, 6, and the step to threshold 26 makes
    # one adjustment over slots 1..2, which leaves slot 3's entry in place
    inst = Instance(
        jobs=(Job(1, 5, Lateness(13)), Job(2, 8, Tardiness(25)), Job(3, 6, Affine(1, 7))),
        setup=4,
        capacity=1,
    )
    solver = BoundedSolver.initial(inst, check=True)
    solver.solve(UNBOUNDED)
    assert solver.top == [None, -4, 26, 6] and solver.max_cost == 26
    solver.top[3] += 1
    with pytest.raises(InvariantError, match="^held max cost of slot 3 differs from a fresh evaluation$"):
        solver.solve(26)

    # a held max below the truth lets a pass come out clean, so only the
    # comparison of max_cost with objectives can notice
    solver = BoundedSolver.initial(two_jobs, check=True)
    solver.solve(UNBOUNDED)
    solver.top[2] -= 1
    with pytest.raises(InvariantError, match="^held max cost differs from objectives$"):
        solver.solve(3)


def _drop_refreezes(monkeypatch, dropped):
    """Make every adjustment take back the refreeze marks it made on the
    slots ``dropped(changed)`` picks from the ascending slots whose members
    it changed; a slot already marked earlier in the step keeps its mark."""
    adjust = BoundedSolver._adjust

    def adjust_dropping(self, j, i):
        members = [set(batch) for batch in self.slots]
        marked = set(self.dirty)
        feasible = adjust(self, j, i)
        changed = [c for c, batch in enumerate(self.slots) if set(batch) != members[c]]
        self.dirty -= set(dropped(changed)) - marked
        return feasible

    monkeypatch.setattr(BoundedSolver, "_adjust", adjust_dropping)


# the lowest slot an adjustment changes is e, where the carry lands; the
# ones between e and i are the carry slots where a swap happened
@pytest.mark.parametrize("dropped", [lambda changed: changed[:1], lambda changed: changed[1:-1]], ids=["e", "swaps"])
def test_check_mode_catches_a_dropped_refreeze(monkeypatch, dropped):
    inst = gen_random(40, 2, "small", capacity=2)
    _drop_refreezes(monkeypatch, dropped)
    with pytest.raises(InvariantError, match="^snapshot differs from a timetable of its slots$"):
        pareto_bounded(inst, check=True)
    # unchecked, the same sweep returns snapshots whose slots lag behind
    # the held ones
    solver = BoundedSolver.initial(inst)
    threshold, stale = UNBOUNDED, 0
    while (schedule := solver.solve(threshold)) is not None:
        stale += schedule.slots != timetable(solver.slots[1:], inst).slots
        threshold = solver.max_cost
    assert stale


class _IgnoresSliceAssignment(list):
    """A held-maxima list on which marking a range of slots stale does nothing."""

    def __setitem__(self, index, value):
        if not isinstance(index, slice):
            super().__setitem__(index, value)


def _opens_slot_1_on_the_third_step():
    return Instance(
        jobs=(Job(1, 7, Lateness(4)), Job(2, 8, Lateness(29)), Job(3, 4, Affine(1, 3))),
        setup=3,
        capacity=2,
    )


def test_check_mode_catches_a_skipped_invalidation_after_an_opening():
    # the third step's adjustment (e = 1, i = 2) marks slots 1 and 2 one by
    # one; slot 3 changed only because the opening shifted it a setup later
    solver = BoundedSolver.initial(_opens_slot_1_on_the_third_step(), check=True)
    solver.solve(UNBOUNDED)
    solver.solve(21)
    solver.top = _IgnoresSliceAssignment(solver.top)
    with pytest.raises(InvariantError, match="^held max cost of slot 3 differs from a fresh evaluation$"):
        solver.solve(17)


def test_an_opening_re_evaluates_the_slots_it_shifts():
    # the third step moves job 3 from slot 2 into the empty slot 1, so slot
    # 3, right of the adjustment, completes a setup later: its held max
    # must be re-evaluated too (-4 at 25, -1 at 28)
    solver = BoundedSolver.initial(_opens_slot_1_on_the_third_step(), check=True)
    assert solver.solve(UNBOUNDED).completion == (0, 7, 25) and solver.max_cost == 21
    assert solver.solve(21).completion == (0, 14, 25) and solver.top == [None, None, 17, -4]
    assert solver.solve(17).completion == (7, 17, 28)
    assert solver.top == [None, 10, 13, -1] and solver.max_cost == 13


_open = WarmSolver._open


def _open_without_the_setup(self, x):
    """An opening that marks and moves ``first`` but shifts no completion."""
    _open(self, x)
    for c in range(x, len(self.completion)):
        self.completion[c] -= self.instance.setup


def _open_without_stale_marks(self, x):
    """An opening that shifts the completions but keeps every held max."""
    top = self.top[:]
    _open(self, x)
    self.top[:] = top


# both sweeps open a slot: the bounded one on its third step, the
# precedence one when a move lands in the empty group left of ``first``
@pytest.mark.parametrize(
    "sweep, instance",
    [(pareto_bounded, _opens_slot_1_on_the_third_step()), (pareto_precedence, gen_random(4, 2, "prec"))],
    ids=["bounded", "prec"],
)
@pytest.mark.parametrize(
    "mutant, message",
    [
        (_open_without_the_setup, "^held completions differ from batch_times$"),
        (_open_without_stale_marks, "^held max cost of slot [0-9]+ differs from a fresh evaluation$"),
    ],
    ids=["setup", "marks"],
)
def test_check_mode_catches_an_opening_that_skips_part_of_the_rule(monkeypatch, sweep, instance, mutant, message):
    sweep(instance, check=True)  # the real opening passes every check
    monkeypatch.setattr(WarmSolver, "_open", mutant)
    with pytest.raises(InvariantError, match=message):
        sweep(instance, check=True)


def _count_cost_evaluations(instance):
    """Swap the instance's cost table for counting wrappers; returns the tally."""
    tally = [0]

    def counting(value):
        def counted(t):
            tally[0] += 1
            return value(t)

        return counted

    object.__setattr__(instance, "cost_value", (None, *map(counting, instance.cost_value[1:])))
    return tally


def test_threshold_steps_do_not_re_evaluate_every_job():
    # hundreds of threshold steps, each changing a few slots: re-evaluating
    # every job on each pass (and once more for the step's max cost) made
    # 234,262 evaluations here, five times steps * n
    inst = gen_random(150, 1, "small", capacity=2)
    tally = _count_cost_evaluations(inst)
    front = pareto_bounded(inst)
    assert front.threshold_steps == 314
    assert tally[0] <= front.threshold_steps * inst.n


def test_threshold_steps_evaluate_only_the_slots_an_adjustment_changed():
    # most carry slots here keep their jobs and their completion, as the
    # hoist and the carry have the same p: re-evaluating every slot of
    # e..i after each adjustment made 31,860 evaluations
    inst = gen_random(150, 1, "small", capacity=2)
    tally = _count_cost_evaluations(inst)
    pareto_bounded(inst)
    assert tally[0] <= 11_000


def test_check_mode_catches_a_kept_max_on_a_retimed_carry_slot(monkeypatch):
    # every adjustment puts back the held max of each slot left of i whose
    # jobs held but whose completion moved, so the next adjustment's check
    # meets a max that no longer matches its slot
    adjust = BoundedSolver._adjust
    restored = set()

    def adjust_keeping(self, j, i):
        members = [batch[:] for batch in self.slots[:i]]
        completion, top = self.completion[:i], self.top[:i]
        feasible = adjust(self, j, i)
        for c in range(1, i):
            if top[c] is not None and self.slots[c] == members[c] and self.completion[c] != completion[c]:
                self.top[c] = top[c]
                restored.add(c)
        return feasible

    monkeypatch.setattr(BoundedSolver, "_adjust", adjust_keeping)
    with pytest.raises(InvariantError, match="^held max cost of slot [0-9]+ differs from a fresh evaluation$") as caught:
        pareto_bounded(gen_random(40, 2, "small", capacity=2), check=True)
    assert int(str(caught.value).split()[5]) in restored


class _KeepsFirst(BoundedSolver):
    """A solver whose held lowest nonempty slot never moves once set."""

    def __setattr__(self, name, value):
        if name != "first" or not hasattr(self, "first"):
            super().__setattr__(name, value)


def test_check_mode_catches_an_opening_that_keeps_the_lowest_nonempty_slot(two_jobs):
    # solve(3) moves job 1 into the empty slot 1, which becomes the lowest
    # nonempty slot
    solver = _KeepsFirst.initial(two_jobs, check=True)
    solver.solve(UNBOUNDED)
    assert solver.first == 2
    with pytest.raises(InvariantError, match="^held lowest nonempty slot 2 is wrong$"):
        solver.solve(3)


def test_large_batches_evaluate_no_more_than_a_full_rescan():
    # b = 160: an adjustment here retimes hundreds of jobs, so lazily held
    # slot maxima must not cost more than re-evaluating every job per pass
    inst = gen_random(800, 1, "paper")
    tally = _count_cost_evaluations(inst)
    pareto_bounded(inst)
    assert tally[0] <= 148_034


@pytest.mark.parametrize(
    "sweep, instance, most",
    [
        (pareto_bounded, gen_random(800, 1, "paper"), 20_000),
        (pareto_precedence, gen_random(400, 1, "geo-prec"), 110_000),
    ],
    ids=["paper-800", "geo-prec-400"],
)
def test_held_job_costs_evaluate_a_job_only_where_its_slot_changed(sweep, instance, most):
    # re-evaluating every job of a slot whose members changed at an
    # unchanged completion, and again when a pass walked the slot, made
    # 70,869 evaluations on paper-800 and 237,524 on geo-prec-400
    tally = _count_cost_evaluations(instance)
    sweep(instance)
    assert tally[0] <= most


class _NeverUntimed(list):
    """Held timed flags that ignore every clearing of a single slot; an
    opening's slice assignment still clears."""

    def __setitem__(self, index, value):
        if isinstance(index, slice) or value:
            super().__setitem__(index, value)


class _DropsWrites(list):
    """Held job costs that keep no write while ``dropping`` is set."""

    dropping = False

    def __setitem__(self, index, value):
        if not self.dropping:
            super().__setitem__(index, value)


class _LeavesRetimedSlotsTimed(BoundedSolver):
    """A solver whose carry slots and e stay timed when their times move."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.timed = _NeverUntimed(self.timed)


class _LeavesEnteringCostsStale(BoundedSolver):
    """A solver whose adjustments refresh no entering job's held cost: not
    the hoist's in i, a swapped carry's or the carry's landing in e."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cost = _DropsWrites(self.cost)

    def _adjust(self, j, i):
        self.cost.dropping = True
        try:
            return super()._adjust(j, i)
        finally:
            self.cost.dropping = False


@pytest.mark.parametrize("mutant", [_LeavesRetimedSlotsTimed, _LeavesEnteringCostsStale], ids=["retimed", "entering"])
def test_check_mode_catches_a_held_job_cost_left_stale_by_an_adjustment(mutant):
    inst = gen_random(40, 2, "small", capacity=2)
    pareto_bounded(inst, check=True)  # the real solver passes every check
    solver = mutant.initial(inst, check=True)
    threshold = UNBOUNDED
    with pytest.raises(InvariantError, match="^held job costs of slot [0-9]+ differ from a fresh evaluation$"):
        while solver.solve(threshold) is not None:
            threshold = solver.max_cost


def _open_keeping_timed(self, x):
    """An opening that shifts the completions and marks the maxima stale but
    leaves every slot's job costs timed."""
    timed = self.timed[:]
    _open(self, x)
    self.timed[:] = timed


@pytest.mark.parametrize(
    "sweep, instance",
    [(pareto_bounded, _opens_slot_1_on_the_third_step()), (pareto_precedence, gen_random(4, 2, "prec"))],
    ids=["bounded", "prec"],
)
def test_check_mode_catches_an_opening_that_keeps_job_costs_timed(monkeypatch, sweep, instance):
    sweep(instance, check=True)  # the real opening passes every check
    monkeypatch.setattr(WarmSolver, "_open", _open_keeping_timed)
    with pytest.raises(InvariantError, match="^held job costs of slot [0-9]+ differ from a fresh evaluation$"):
        sweep(instance, check=True)


def test_check_mode_catches_a_current_max_on_an_untimed_slot():
    solver = BoundedSolver.initial(gen_random(12, 3, "small", capacity=3), check=True)
    solver.solve(UNBOUNDED)
    solver.timed[solver.first] = False
    with pytest.raises(InvariantError, match=f"^slot {solver.first} holds a current max but its job costs are not timed$"):
        solver.solve(solver.max_cost)


class _StopsAtItsSpan(BoundedSolver):
    """A solver whose passes never lower their stop to where a carry ended."""

    def _adjust(self, j, i):
        return super()._adjust(j, i) and i


class _KeepsTheSpanTopAfterAnOpening(BoundedSolver):
    """A solver whose next span starts at the first slot adjusted, even when
    an opening shifted every slot right of it."""

    def _adjust_pass(self, threshold, high, low):
        self.adjusted = []
        span = super()._adjust_pass(threshold, high, low)
        return (self.adjusted[0], span[1]) if span else span

    def _adjust(self, j, i):
        self.adjusted.append(i)
        return super()._adjust(j, i)


class _StartsAtTheLowestMax(BoundedSolver):
    """A solver whose steps start on the lowest slot holding the max alone."""

    def __setattr__(self, name, value):
        if name == "due":
            value = (value[1], value[1])
        super().__setattr__(name, value)


@pytest.mark.parametrize(
    "mutant",
    [_StopsAtItsSpan, _KeepsTheSpanTopAfterAnOpening, _StartsAtTheLowestMax],
    ids=["stop", "opening", "start"],
)
def test_check_mode_names_a_slot_a_pass_skipped(mutant):
    # each mutant leaves a stale or costly slot outside every later span.
    # Unchecked, the first two stop on a TypeError in converged(), and the
    # third returns a step whose max cost equals its threshold
    inst = gen_random(8, 3, "small", capacity=2)
    pareto_bounded(inst, check=True)  # the unmutated solver passes every check
    solver = mutant.initial(inst, check=True)
    threshold = UNBOUNDED
    with pytest.raises(InvariantError, match="^clean pass left slot [0-9]+ due$"):
        while solver.solve(threshold) is not None:
            threshold = solver.max_cost


class _CountsIndexReads(list):
    """A held-maxima list that counts its reads by integer index."""

    reads = 0

    def __getitem__(self, index):
        if isinstance(index, int):
            self.reads += 1
        return super().__getitem__(index)


def test_threshold_passes_walk_only_the_slots_that_can_be_due(monkeypatch):
    # hard-b2's first instance: walking every nonempty slot on each of the
    # 1,240 passes read a held max 93,001 times
    init = BoundedSolver.__init__
    solvers = []

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.top = _CountsIndexReads(self.top)
        solvers.append(self)

    monkeypatch.setattr(BoundedSolver, "__init__", counting_init)
    pareto_bounded(gen_random(150, 1, "small", capacity=2))
    [solver] = solvers
    assert (solver.passes, solver.adjustments) == (1240, 1126)
    assert solver.top.reads <= 20_000
