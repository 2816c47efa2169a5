import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from batchfront import verify
from batchfront.admissible import AdmissibleSlots
from batchfront.bounded import UNBOUNDED, BoundedSolver, form_batches, solve_reference
from batchfront.frontier import (
    _sweep,
    pareto_bounded,
    pareto_bounded_naive,
    pareto_front,
    pareto_precedence,
)
from batchfront.generate import SplitMix64, gen_random
from batchfront.model import (
    _EMPTY_SLOT,
    Instance,
    InstanceError,
    InvariantError,
    Job,
    Lateness,
    Schedule,
    objectives,
    timetable,
    validate,
)
from batchfront.oracle import oracle_pareto
from batchfront.precedence import PrecedenceSolver


def test_two_job_frontier(two_jobs):
    front = pareto_bounded(two_jobs, check=True)
    assert front.pairs() == [(6, 3), (8, 0)]
    assert front.points[-1].schedule.slots == (frozenset({1}), frozenset({2}))
    assert front.min_cost_schedule == front.points[-1].schedule


def test_three_job_frontier(three_jobs):
    front = pareto_bounded(three_jobs, check=True)
    assert front.pairs() == [(10, 1)]
    assert front.points[0].schedule.batches() == [(1, 2), (3,)]


def test_single_job_frontier():
    inst = Instance(jobs=(Job(1, 5, Lateness(7)),), setup=2, capacity=1)
    assert pareto_bounded(inst).pairs() == [(7, 0)]


def test_fork_frontier(fork):
    front = pareto_precedence(fork, check=True)
    assert front.pairs() == [(6, 0)]


def test_chain_forces_singleton_batches():
    inst = Instance(
        jobs=tuple(Job(i, 1, Lateness(100)) for i in (1, 2, 3)),
        setup=1,
        capacity=None,
        precedence=((1, 2), (2, 3)),
    )
    front = pareto_precedence(inst)
    assert len(front.points) == 1
    assert front.points[0].makespan == 6  # three setups + three units


def test_unbounded_without_edges_starts_single_batch():
    inst = Instance(
        jobs=(Job(1, 1, Lateness(100)), Job(2, 2, Lateness(100)), Job(3, 3, Lateness(100))),
        setup=2,
        capacity=None,
    )
    front = pareto_precedence(inst)
    assert front.points[0].makespan == 8  # one setup + six units


def test_dispatch_by_capacity(two_jobs, fork):
    assert pareto_front(two_jobs).pairs() == [(6, 3), (8, 0)]
    assert pareto_front(fork).pairs() == [(6, 0)]
    with pytest.raises(InstanceError):
        pareto_bounded(fork)
    with pytest.raises(InstanceError):
        pareto_precedence(two_jobs)


def test_csv_round(two_jobs):
    assert pareto_bounded(two_jobs).to_csv() == (
        "c_max,f_max,batches\n"
        "6,3,1.2\n"
        "8,0,1;2\n"
    )


def test_frontier_invariants_on_randoms():
    for seed in range(60):
        inst = gen_random(2 + seed % 7, seed=60_000 + seed, profile="small")
        front = pareto_bounded(inst, check=True)
        pairs = front.pairs()
        assert len(pairs) <= inst.n
        for (c1, f1), (c2, f2) in zip(pairs, pairs[1:]):
            assert c1 < c2 and f1 > f2
        for pt in front.points:
            assert validate(pt.schedule, inst) == []
            assert objectives(pt.schedule, inst) == (pt.makespan, pt.max_cost)
        assert objectives(front.min_cost_schedule, inst)[1] == pairs[-1][1]


def test_zero_setup_collapses_to_one_point():
    # with no setup, every schedule has the same makespan, so the frontier
    # is the single pair (total processing, minimum max cost)
    inst = Instance(
        jobs=(Job(1, 2, Lateness(1)), Job(2, 3, Lateness(2)), Job(3, 1, Lateness(9))),
        setup=0,
        capacity=2,
    )
    front = pareto_bounded(inst, check=True)
    assert len(front.points) == 1
    assert front.points[0].makespan == sum(inst.p)
    assert front.pairs() == list(oracle_pareto(inst).points)


def test_naive_restart_matches_warm_sweep():
    for seed in range(40):
        inst = gen_random(2 + seed % 6, seed=70_000 + seed, profile="small")
        assert pareto_bounded(inst).pairs() == pareto_bounded_naive(inst).pairs()


class _StubSolver:
    """Answers every threshold with the same fixed result."""

    def __init__(self, instance, result):
        self.limits = AdmissibleSlots.unrestricted(instance)
        self.result = None if result is None else result.makespan
        self.max_cost = None if result is None else objectives(result, instance)[1]

    def solve(self, threshold):
        return self.result


def test_sweep_invariants_are_not_asserts(two_jobs):
    # plain asserts, which python -O strips, guarded these two before
    with pytest.raises(InvariantError, match="uncapped solve failed"):
        _sweep(two_jobs, _StubSolver(two_jobs, None), form_batches, None)
    same_schedule = timetable([(), (1, 2)], two_jobs)  # max cost 3 at every threshold
    with pytest.raises(InvariantError, match="max cost 3 is not below the threshold 3"):
        _sweep(two_jobs, _StubSolver(two_jobs, same_schedule), form_batches, None)


def _sweep_cases(profile, n, seeds=(1, 2, 3)):
    for seed in seeds:
        if profile == "prec":
            yield pareto_precedence, gen_random(n, seed, profile="prec")
        else:
            for b in (2, n // 5):
                yield pareto_bounded, gen_random(n, seed, profile=profile, capacity=b)


@pytest.mark.parametrize("n", [5, 9, 17, 33, 60])
@pytest.mark.parametrize("profile", ["small", "paper", "prec"])
def test_step_schedules_equal_a_timetable_of_their_slots(profile, n):
    # the hook gets one schedule per feasible threshold step, which the
    # sweep builds from the limits the step left; each must be exactly what
    # timetable makes of its slots
    for sweep, inst in _sweep_cases(profile, n):
        snapshots = []
        front = sweep(inst, on_step=lambda before, y, sched, after: snapshots.append(sched))
        assert snapshots[-1] is None and len(snapshots) == front.threshold_steps
        for sched in snapshots[:-1]:
            assert sched == timetable(sched.slots, inst)


@pytest.mark.parametrize("sweep, profile, steps", [(pareto_bounded, "geo", 343), (pareto_precedence, "geo-prec", 31)])
def test_step_schedules_keep_the_slots_and_times_they_were_handed_with(sweep, profile, steps):
    # no later step may change what an earlier step's schedule holds, and
    # every empty slot is the one shared empty set
    inst = gen_random(60, 1, profile)
    held = []

    def on_step(before, threshold, schedule, after):
        if schedule is not None:
            held.append((schedule, [set(batch) for batch in schedule.slots], list(schedule.completion)))

    front = sweep(inst, on_step=on_step)
    assert len(held) + 1 == front.threshold_steps == steps
    for schedule, slots, completion in held:
        assert [set(batch) for batch in schedule.slots] == slots
        assert list(schedule.completion) == completion
        assert type(schedule.slots) is tuple and all(type(batch) is frozenset for batch in schedule.slots)
        assert all(batch is _EMPTY_SLOT for batch in schedule.slots if not batch)
        assert schedule == timetable(slots, inst)


@pytest.mark.parametrize("n", [5, 17, 60])
@pytest.mark.parametrize("profile", ["small", "paper", "prec"])
def test_derived_starts_follow_the_processing_times(profile, n):
    # a schedule stores no starts; a nonempty slot must start exactly its
    # processing time before it completes, and the empty prefix at 0
    assert [f.name for f in dataclasses.fields(Schedule)] == ["slots", "completion", "setup"]
    for sweep, inst in _sweep_cases(profile, n, seeds=(1, 2)):
        snapshots = []
        sweep(inst, on_step=lambda before, y, sched, after: snapshots.append(sched))
        for sched in snapshots[:-1]:
            for timed in (sched, timetable(sched.slots, inst)):
                for batch, start, completion in zip(timed.slots, timed.start, timed.completion):
                    if batch:
                        assert start == completion - sum(inst.p[j] for j in batch)
                    else:
                        assert start == completion == 0


@pytest.mark.parametrize("n", [5, 9, 17, 33, 60])
@pytest.mark.parametrize("profile", ["small", "paper", "prec"])
def test_solver_max_cost_equals_objectives_at_every_step(profile, n):
    # with check mode off, each warm solver reports the makespan and the
    # max cost of the slots it holds from the values it already holds;
    # driving the next threshold from that report must give the full
    # evaluation's values at every feasible step, and the sweep's step count
    solvers = {pareto_bounded: BoundedSolver, pareto_precedence: PrecedenceSolver}
    for sweep, inst in _sweep_cases(profile, n):
        solver = solvers[sweep].initial(inst)
        threshold = UNBOUNDED
        steps = 0
        while (makespan := solver.solve(threshold)) is not None:
            steps += 1
            assert (makespan, solver.max_cost) == objectives(timetable(solver.id_slots()[1:], inst), inst)
            threshold = solver.max_cost
        assert steps + 1 == sweep(inst).threshold_steps


@pytest.mark.parametrize("n", [5, 12, 40, 120, 200])
@pytest.mark.parametrize("profile", ["small", "geo", "staged", "paper"])
def test_capacity_n_and_no_edges_give_both_models_one_frontier(profile, n):
    # capacity n never binds and no edge constrains the order, so the
    # bounded and the precedence sweeps solve one problem and must agree
    # on every point and its witness schedule
    for seed in (1, 2, 3):
        bounded = gen_random(n, seed, profile, capacity=n)
        unbounded = Instance(jobs=bounded.jobs, setup=bounded.setup, capacity=None)
        assert pareto_bounded(bounded).points == pareto_precedence(unbounded).points


def _held_points(solver, inst):
    """Drive a solver by hand through the sweep's thresholds: the makespan,
    max cost and a timetable of the held slots of the last step of each
    makespan run."""
    points = []
    threshold = UNBOUNDED
    last = None
    while (makespan := solver.solve(threshold)) is not None:
        if last is not None and makespan > last[0]:
            points.append(last)
        last = (makespan, solver.max_cost, timetable(solver.id_slots()[1:], inst))
        threshold = solver.max_cost
    return points + [last]


@pytest.mark.parametrize("n", [5, 17, 60])
@pytest.mark.parametrize(
    "profile, capacity",
    [("small", 2), ("small", "n // 5"), ("paper", None), ("geo", None), ("staged", None), ("prec", None), ("geo-prec", None)],
)
def test_every_witness_equals_the_solver_held_state(profile, capacity, n):
    # the sweep rebuilds each point's schedule from the limits its step
    # left; that must be the schedule the solver held at that step
    for seed in (1, 2, 3):
        if profile in ("prec", "geo-prec"):
            inst = gen_random(n, seed, profile)
            solver, sweep = PrecedenceSolver.initial(inst), pareto_precedence
        else:
            b = max(1, n // 5) if capacity == "n // 5" else capacity
            inst = gen_random(n, seed, profile, capacity=b)
            solver, sweep = BoundedSolver.initial(inst), pareto_bounded
        front = sweep(inst)
        assert [(pt.makespan, pt.max_cost, pt.schedule) for pt in front.points] == _held_points(solver, inst)


@settings(max_examples=150, deadline=None)
@given(
    profile=st.sampled_from(["small", "paper", "geo", "staged", "prec", "geo-prec"]),
    n=st.integers(4, 60),
    capacity=st.sampled_from([None, 2, 3]),
    seed=st.integers(0, 2**32),
)
def test_warm_solvers_meet_their_contract_below_the_last_max_cost(profile, n, capacity, seed):
    # ``solve`` promises any strictly smaller threshold, not only the last
    # max cost: each step drops below it by 0-5, in check mode, and is
    # replayed from a copy of the limits it started from
    unbounded = profile in ("prec", "geo-prec")
    inst = gen_random(n, seed, profile, capacity=None if unbounded else capacity)
    solver = (PrecedenceSolver if unbounded else BoundedSolver).initial(inst, check=True)
    drops = SplitMix64(seed)
    threshold = UNBOUNDED
    while True:
        before = solver.limits.copy()
        makespan = solver.solve(threshold)
        schedule = None if makespan is None else timetable(solver.id_slots()[1:], inst)
        if unbounded:
            assert verify._replay_fresh(inst, before, threshold, schedule, solver.limits) == []
        else:
            assert solve_reference(inst, before, threshold) == schedule
        if makespan is None:
            break
        assert objectives(schedule, inst) == (makespan, solver.max_cost)
        threshold = solver.max_cost - drops.randint(0, 5)


def test_a_bounded_witness_freezes_and_times_only_its_nonempty_slots(monkeypatch):
    # paper n=800 fills 5 of its 800 slots: a witness built from slot 1 froze
    # and timed the 795 empty slots below them as well
    from batchfront import frontier
    from batchfront.model import batch_times, freeze_slots

    inst = gen_random(800, 1, "paper")
    limits = AdmissibleSlots.unrestricted(inst)
    first, slots = frontier._batches(inst, limits)
    assert first == 796 and not any(slots[1:first]) and all(slots[first:])
    frozen, timed = [], []
    monkeypatch.setattr(frontier, "freeze_slots", lambda batches: frozen.append(len(batches)) or freeze_slots(batches))
    monkeypatch.setattr(frontier, "batch_times", lambda s, i, f: timed.append(f) or batch_times(s, i, f))
    assert frontier._timed(inst, frontier._batches, limits) == timetable(slots[1:], inst)
    assert (frozen, timed) == ([5], [796])
