import dataclasses

import pytest

from batchfront.admissible import AdmissibleSlots
from batchfront.bounded import UNBOUNDED, BoundedSolver
from batchfront.frontier import (
    _sweep,
    pareto_bounded,
    pareto_bounded_naive,
    pareto_front,
    pareto_precedence,
)
from batchfront.generate import gen_random
from batchfront.model import (
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
    assert front.points[0].makespan == inst.total_processing()
    assert front.pairs() == list(oracle_pareto(inst).points)


def test_naive_restart_matches_warm_sweep():
    for seed in range(40):
        inst = gen_random(2 + seed % 6, seed=70_000 + seed, profile="small")
        assert pareto_bounded(inst).pairs() == pareto_bounded_naive(inst).pairs()


class _StubSolver:
    """Answers every threshold with the same fixed result."""

    def __init__(self, instance, result):
        self.limits = AdmissibleSlots.unrestricted(instance)
        self.result = result
        self.max_cost = None if result is None else objectives(result, instance)[1]

    def solve(self, threshold):
        return self.result


def test_sweep_invariants_are_not_asserts(two_jobs):
    # plain asserts, which python -O strips, guarded these two before
    with pytest.raises(InvariantError, match="uncapped solve failed"):
        _sweep(two_jobs, _StubSolver(two_jobs, None), None)
    same_schedule = timetable([(), (1, 2)], two_jobs)  # max cost 3 at every threshold
    with pytest.raises(InvariantError, match="max cost 3 is not below the threshold 3"):
        _sweep(two_jobs, _StubSolver(two_jobs, same_schedule), None)


def _sweep_cases(profile, n, seeds=(1, 2, 3)):
    for seed in seeds:
        if profile == "prec":
            yield pareto_precedence, gen_random(n, seed, profile="prec")
        else:
            for b in (2, n // 5):
                yield pareto_bounded, gen_random(n, seed, profile=profile, capacity=b)


@pytest.mark.parametrize("n", [5, 9, 17, 33, 60])
@pytest.mark.parametrize("profile", ["small", "paper", "prec"])
def test_solver_snapshots_equal_a_timetable_of_their_slots(profile, n):
    # with check mode off, the solvers time their snapshots from the state
    # they hold; every threshold step's schedule must still be exactly what
    # timetable makes of its slots
    for sweep, inst in _sweep_cases(profile, n):
        snapshots = []
        front = sweep(inst, on_step=lambda before, y, sched, after: snapshots.append(sched))
        assert snapshots[-1] is None and len(snapshots) == front.threshold_steps
        for sched in snapshots[:-1]:
            assert sched == timetable(sched.slots, inst)


@pytest.mark.parametrize("n", [5, 17, 60])
@pytest.mark.parametrize("profile", ["small", "paper", "prec"])
def test_derived_starts_follow_the_processing_times(profile, n):
    # a schedule stores no starts; whether it comes from timetable or from a
    # solver's held completions, a nonempty slot must start exactly its
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
    # with check mode off, each warm solver reports the max cost of the
    # schedule it returns from the values it already holds; driving the
    # next threshold from that report must give the full evaluation's value
    # at every feasible step, and the sweep's step count
    solvers = {pareto_bounded: BoundedSolver, pareto_precedence: PrecedenceSolver}
    for sweep, inst in _sweep_cases(profile, n):
        solver = solvers[sweep].initial(inst)
        threshold = UNBOUNDED
        steps = 0
        while (sched := solver.solve(threshold)) is not None:
            steps += 1
            assert solver.max_cost == objectives(sched, inst)[1]
            threshold = solver.max_cost
        assert steps + 1 == sweep(inst).threshold_steps
