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
    assert (solver.solve(UNBOUNDED), solver.max_cost) == (6, 3)

    assert (solver.solve(3), solver.max_cost) == (8, 0)
    assert solver.id_slots() == [[], [1], [2]]

    assert solver.solve(0) is None


def test_unbounded_threshold_changes_nothing(two_jobs):
    solver = BoundedSolver.initial(two_jobs)
    before = timetable(solver.id_slots()[1:], two_jobs)
    assert solver.solve(UNBOUNDED) == before.makespan
    assert timetable(solver.id_slots()[1:], two_jobs) == before
    assert solver.limits.relocations == 0


def test_violation_in_first_slot_is_infeasible():
    inst = Instance(jobs=(Job(1, 2, Lateness(1)),), setup=1, capacity=1)
    solver = BoundedSolver.initial(inst)
    assert (solver.solve(UNBOUNDED), solver.max_cost) == (3, 2)
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
    # check mode on, which compares the held slots with a rebuild of the
    # limits after every adjustment, and every step replayed by the
    # from-scratch reference solver
    assert check_instance(gen_random(60, seed, profile, capacity=2)) == []


def test_spent_solver_state_is_documented_behaviour(two_jobs):
    solver = BoundedSolver.initial(two_jobs)
    solver.solve(UNBOUNDED)
    assert solver.solve(0) is None  # spent; no further use


def test_incremental_times_match_a_full_retime(two_jobs):
    solver = BoundedSolver.initial(two_jobs)
    solver.solve(UNBOUNDED)
    assert solver.solve(3) == 8  # opens a batch in the empty slot 1
    assert solver.completion == [0, 3, 8]
    assert solver.completion == batch_times([set(s) for s in solver.id_slots()], two_jobs)


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
    assert _in_key_order(inst, solver.id_slots())
    threshold, steps = UNBOUNDED, 0
    while True:
        makespan = solver.solve(threshold)
        steps += 1
        assert _in_key_order(inst, solver.id_slots()), f"step {steps}"
        if makespan is None:
            break
        threshold = solver.max_cost
    assert steps == 314


@pytest.mark.parametrize(
    "profile, capacity",
    [("small", 2), ("paper", None), ("geo", None), ("staged", None)],
    ids=["small-b2", "paper", "geo", "staged"],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_id_view_of_the_held_slots_is_the_fill_of_the_limits_at_every_step(profile, capacity, seed):
    # the solver holds ranks; without check mode nothing else translates
    # them, so this is the one place an unchecked sweep's ids are compared
    inst = gen_random(40, seed, profile, capacity=capacity)
    solver = BoundedSolver.initial(inst)
    assert solver.id_slots() == form_batches(inst, solver.limits)
    threshold, steps = UNBOUNDED, 0
    while solver.solve(threshold) is not None:
        steps += 1
        assert solver.id_slots() == form_batches(inst, solver.limits), f"step {steps}"
        assert [[inst.keys[j] for j in batch] for batch in solver.id_slots()] == solver.slots
        threshold = solver.max_cost
    assert steps >= 1


class _SwapsTwoJobsInItsTranslation(BoundedSolver):
    """A solver whose rank-to-id table swaps jobs 1 and 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        ids = list(self.ids)
        one, two = self.instance.keys[1], self.instance.keys[2]
        ids[one], ids[two] = ids[two], ids[one]
        self.ids = tuple(ids)


def test_check_mode_catches_a_rank_to_id_translation_that_swaps_two_jobs():
    # jobs 1 and 2 have one p and one cost, so the swap moves no completion
    # and no cost: only the rebuild of the limits, in ids, can see it
    inst = gen_random(12, 1, "small", capacity=3)
    twin = inst.jobs[0]
    inst = Instance(jobs=(twin, Job(2, twin.p, twin.cost), *inst.jobs[2:]), setup=inst.setup, capacity=3)
    assert inst.by_key.index(2) + 1 == inst.by_key.index(1)  # adjacent ranks, the smaller id ranking higher
    pareto_bounded(inst, check=True)  # the real solver passes every check
    solver = _SwapsTwoJobsInItsTranslation.initial(inst, check=True)
    threshold = UNBOUNDED
    with pytest.raises(InvariantError, match="^standing schedule diverged from rebuild$"):
        while solver.solve(threshold) is not None:
            threshold = solver.max_cost


def _reach_misses(solver):
    """Nonempty slots holding a limit above their reach."""
    limit = solver.limits.table
    return [c for c, batch in enumerate(solver.id_slots()) if batch and max(limit[x] for x in batch) > solver.reach[c]]


def test_reach_stays_an_upper_bound_through_a_whole_sweep():
    # hard-b2's first instance: every hoist, carry swap and landing raises
    # a reach, and every candidate-free walk tightens one
    inst = gen_random(150, 1, "small", capacity=2)
    solver = BoundedSolver.initial(inst)
    limit = solver.limits.table
    assert solver.reach == [max((limit[x] for x in batch), default=0) for batch in solver.id_slots()]
    threshold, steps = UNBOUNDED, 0
    while True:
        makespan = solver.solve(threshold)
        steps += 1
        assert _reach_misses(solver) == [], f"step {steps}"
        if makespan is None:
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
    assert solver.reach[11:] == [15] * 5 and solver.id_slots()[11] == [3, 4, 5]
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
    held = solver.id_slots()
    assert held[14] == [15, 14, 12] and held[14] == sorted(held[14], key=inst.keys.__getitem__)
    assert all(len(held[c]) == 3 for c in range(11, 15)) and len(held[10]) < 3
    batch = solver.slots[14]
    batch[0], batch[-1] = batch[-1], batch[0]
    with pytest.raises(InvariantError, match="^standing schedule diverged from rebuild$"):
        solver.solve(solver.max_cost)


def test_check_mode_catches_held_completions_off_a_timetable_of_their_slots(two_jobs):
    solver = BoundedSolver.initial(two_jobs, check=True)
    solver.completion[2] += 1  # the uncapped solve adjusts nothing, so only the converged step can notice
    with pytest.raises(InvariantError, match="^held completions differ from a timetable of their slots$"):
        solver.solve(UNBOUNDED)
    unchecked = BoundedSolver.initial(two_jobs)
    unchecked.completion[2] += 1
    assert unchecked.solve(UNBOUNDED) == 7


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
    assert solver.solve(UNBOUNDED) == 25 and solver.completion == [0, 0, 7, 25] and solver.max_cost == 21
    assert solver.solve(21) == 25 and solver.completion == [0, 0, 14, 25] and solver.top == [None, None, 17, -4]
    assert solver.solve(17) == 28 and solver.completion == [0, 7, 17, 28]
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


class _CountsTupleReads(tuple):
    """A processing-time table that counts its reads by integer index."""

    reads = 0

    def __getitem__(self, index):
        if isinstance(index, int):
            self.reads += 1
        return super().__getitem__(index)


def test_a_paper_sweep_reads_the_limit_table_only_where_it_changed(monkeypatch):
    # paper n=800, b=160: each job expelled in turn from one slot made the
    # hoist scan re-read every non-candidate above the last hoist, 55,503
    # limit reads per sweep; resuming below the last hoist's key reads 3,343
    init = BoundedSolver.__init__
    solvers = []

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        table = self.limits._limit = _CountsIndexReads(self.limits.table)
        self.limit = table
        solvers.append(self)

    monkeypatch.setattr(BoundedSolver, "__init__", counting_init)
    pareto_bounded(gen_random(800, 1, "paper"))
    [solver] = solvers
    assert solver.limits.table.reads <= 3_500


def test_a_carry_reads_processing_times_only_per_stretch():
    # hard-b2's first instance: a carry walk that read p of the carried job
    # at every slot it passed made 20,088 reads of Instance.p per sweep; the
    # retiming reads it once per stretch between two swaps
    inst = gen_random(150, 1, "small", capacity=2)
    object.__setattr__(inst, "p", _CountsTupleReads(inst.p))
    front = pareto_bounded(inst)
    assert front.threshold_steps == 314
    assert inst.p.reads <= 4_200


def _counting_resumes(monkeypatch):
    """Wrap ``BoundedSolver._resumed_hoist``; returns the list of its calls."""
    resumed = BoundedSolver._resumed_hoist
    calls = []

    def counted(self, batch, e, i, key):
        calls.append((e, i))
        return resumed(self, batch, e, i, key)

    monkeypatch.setattr(BoundedSolver, "_resumed_hoist", counted)
    return calls


_RESUMING_CORPUS = [(n, seed) for n in (60, 120, 200) for seed in range(3)]


def test_check_mode_runs_resumed_hoist_scans(monkeypatch):
    # paper, b = n // 5: jobs are expelled one after another from one slot,
    # each hoisting from the same slot e; with b > SMALL_SLOT those scans
    # resume below the last hoist's key, and check mode compares each with
    # a scan of the whole slot
    calls = _counting_resumes(monkeypatch)
    for n, seed in _RESUMING_CORPUS:
        pareto_bounded(gen_random(n, seed, "paper", capacity=n // 5), check=True)
    assert len(calls) > 0


class _ResumesOneKeyTooLow(BoundedSolver):
    """A solver whose resumed hoist scans start one key below the last hoist."""

    def _resumed_hoist(self, batch, e, i, key):
        return super()._resumed_hoist(batch, e, i, key - 1)


def test_check_mode_catches_a_hoist_scan_resumed_too_low():
    caught = 0
    for n, seed in _RESUMING_CORPUS:
        solver = _ResumesOneKeyTooLow.initial(gen_random(n, seed, "paper", capacity=n // 5), check=True)
        threshold = UNBOUNDED
        try:
            while solver.solve(threshold) is not None:
                threshold = solver.max_cost
        except InvariantError as problem:
            assert str(problem).startswith("resumed hoist scan of slot ")
            caught += 1
    assert caught > 0


class _StartsEveryRepeatWalkAtTheLastHoist(BoundedSolver):
    """A solver whose repeat adjustments at one i start their walk at the
    last hoist's slot even when the carried job outranks the shortest job
    of a slot in between."""

    def __setattr__(self, name, value):
        if name == "resume" and value is not None:
            value = (*value[:3], len(self.ids))
        super().__setattr__(name, value)


def test_check_mode_catches_a_walk_that_skips_a_swap():
    # hard-b2's family at n=40: some repeat adjustment carries a job that
    # outranks the shortest job of a slot the last walk passed
    inst = gen_random(40, 1, "small", capacity=2)
    pareto_bounded(inst, check=True)  # the real solver passes every check
    solver = _StartsEveryRepeatWalkAtTheLastHoist.initial(inst, check=True)
    threshold = UNBOUNDED
    with pytest.raises(InvariantError, match="^standing schedule diverged from rebuild$"):
        while solver.solve(threshold) is not None:
            threshold = solver.max_cost


def test_repeat_adjustments_at_one_slot_skip_the_slots_the_last_walk_passed(monkeypatch):
    # hard-b2's first instance: most adjustments follow one at the same i,
    # and a walk from i - 1 each time read a reach 21,085 times per sweep;
    # starting at the last hoist's slot when the carry swaps nothing on the
    # way reads 5,772
    init = BoundedSolver.__init__
    solvers = []

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.reach = _CountsIndexReads(self.reach)
        solvers.append(self)

    monkeypatch.setattr(BoundedSolver, "__init__", counting_init)
    pareto_bounded(gen_random(150, 1, "small", capacity=2))
    [solver] = solvers
    assert solver.adjustments == 1126
    assert solver.reach.reads <= 7_000


def test_a_solver_translates_and_times_only_the_nonempty_slots(monkeypatch):
    # paper n=800 fills slots 796..800; the 795 empty slots below them are
    # the fill's own empty lists, neither translated to ranks nor timed
    import batchfront.bounded as bounded

    inst = gen_random(800, 1, "paper")
    filled = form_batches(inst, AdmissibleSlots.unrestricted(inst))
    timed = []
    monkeypatch.setattr(bounded, "batch_times", lambda s, i, first=1: timed.append(first) or batch_times(s, i, first))
    solver = BoundedSolver.initial(inst)
    assert timed == [796] and solver.first == 796
    assert solver.id_slots() == filled
    assert solver.completion == batch_times(filled, inst)
