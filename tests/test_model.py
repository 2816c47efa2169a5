import copy
import dataclasses
import json
import re

import pytest
from hypothesis import given, strategies as st

from batchfront.bounded import UNBOUNDED, BoundedSolver
from batchfront.fileio import emit_instance, parse_instance
from batchfront.generate import SplitMix64, gen_random
from batchfront.model import (
    Affine,
    Instance,
    InstanceError,
    Job,
    Lateness,
    Schedule,
    ScheduleError,
    StepTable,
    Tardiness,
    WeightedCompletion,
    decode_job,
    eval_cost,
    objectives,
    timetable,
    validate,
)
from batchfront.precedence import PrecedenceSolver


def test_eval_cost_definitions():
    assert eval_cost(Lateness(due=3), 6) == 3
    assert eval_cost(Tardiness(due=10), 4) == 0
    assert eval_cost(Tardiness(due=10), 14) == 4
    assert eval_cost(Affine(a=2, c=-1), 5) == 9
    assert eval_cost(WeightedCompletion(w=3), 7) == 21


@pytest.mark.parametrize("due", [-7, 0, 10])
def test_tardiness_is_lateness_clamped_at_zero(due):
    for t in (due - 3, due - 1, due, due + 1, due + 5):
        assert Tardiness(due).value(t) == max(0, t - due)


_ONE_OF_EACH_SPEC = (Lateness(5), Tardiness(5), WeightedCompletion(2), Affine(1, 3), StepTable(((0, 1), (4, 2))))


@pytest.mark.parametrize("spec", _ONE_OF_EACH_SPEC, ids=lambda spec: type(spec).__name__)
def test_a_job_accepts_each_cost_spec(spec):
    assert Job(1, 2, spec).cost is spec


@pytest.mark.parametrize("cost", [5, {"type": "lateness", "due": 5}, Job(1, 2, Lateness(5))], ids=["int", "dict", "job"])
def test_a_job_refuses_a_cost_that_is_not_a_spec(cost):
    kinds = "Lateness, Tardiness, WeightedCompletion, Affine or StepTable"
    with pytest.raises(InstanceError) as caught:
        Job(1, 2, cost)
    assert str(caught.value) == f"cost must be a {kinds}, got {json.dumps(cost, default=repr)}"


def test_step_table_evaluation():
    step = StepTable(breakpoints=((0, -1), (5, 2), (9, 7)))
    assert eval_cost(step, 0) == -1
    assert eval_cost(step, 4) == -1
    assert eval_cost(step, 5) == 2
    assert eval_cost(step, 100) == 7


def test_cost_spec_validation():
    with pytest.raises(InstanceError):
        Affine(a=-1, c=0)
    with pytest.raises(InstanceError):
        WeightedCompletion(w=-2)
    with pytest.raises(InstanceError):
        StepTable(breakpoints=((0, 5), (3, 1)))  # values decrease
    with pytest.raises(InstanceError):
        StepTable(breakpoints=((3, 1), (3, 2)))  # times not strictly increasing
    with pytest.raises(InstanceError):
        StepTable(breakpoints=())



@pytest.mark.parametrize(
    "breakpoints",
    [
        pytest.param(((1.9, 2.5),), id="floats"),
        pytest.param(((0, 1), (5, 2.0)), id="float-value"),
        pytest.param(((True, 1),), id="bool-time"),
        pytest.param(((0, 1, 2),), id="triple"),
    ],
)
def test_step_breakpoints_must_be_integer_pairs(breakpoints):
    # (1.9, 2.5) used to be truncated to (1, 2)
    with pytest.raises(InstanceError, match="breakpoint .* must be a .time, value. pair of integers"):
        StepTable(breakpoints=breakpoints)


# A valid instance file with every cost type; each row below puts one
# malformed value into it.
GOOD_DOC = {
    "setup": 1,
    "capacity": 2,
    "jobs": [
        {"id": 1, "p": 2, "cost": {"type": "lateness", "due": 5}},
        {"id": 2, "p": 1, "cost": {"type": "tardiness", "due": 4}},
        {"id": 3, "p": 1, "cost": {"type": "weighted_completion", "w": 2}},
        {"id": 4, "p": 3, "cost": {"type": "affine", "a": 1, "c": 0}},
        {"id": 5, "p": 1, "cost": {"type": "step", "breakpoints": [[0, 1], [5, 2]]}},
    ],
}
GOOD_JOBS = (Job(1, 2, Lateness(5)), Job(2, 1, Lateness(4)))

# One row per numeric field: a name for the row, the field, the constructor
# call that takes the value, the value's place in GOOD_DOC, and the location
# the parser puts in front of the constructor's message.
NUMERIC_FIELDS = [
    ("setup", "setup", lambda v: Instance(GOOD_JOBS, v), ("setup",), ""),
    ("capacity", "capacity", lambda v: Instance(GOOD_JOBS, 1, capacity=v), ("capacity",), ""),
    ("id", "id", lambda v: Job(v, 2, Lateness(5)), ("jobs", 0, "id"), "jobs[0]."),
    ("p", "p", lambda v: Job(1, v, Lateness(5)), ("jobs", 0, "p"), "jobs[0]."),
    ("lateness-due", "due", Lateness, ("jobs", 0, "cost", "due"), "jobs[0].cost."),
    ("tardiness-due", "due", Tardiness, ("jobs", 1, "cost", "due"), "jobs[1].cost."),
    ("w", "w", WeightedCompletion, ("jobs", 2, "cost", "w"), "jobs[2].cost."),
    ("a", "a", lambda v: Affine(v, 0), ("jobs", 3, "cost", "a"), "jobs[3].cost."),
    ("c", "c", lambda v: Affine(1, v), ("jobs", 3, "cost", "c"), "jobs[3].cost."),
    (
        "breakpoint-time",
        "breakpoints[1][0]",
        lambda v: StepTable(((0, 1), (v, 2))),
        ("jobs", 4, "cost", "breakpoints", 1, 0),
        "jobs[4].cost.",
    ),
    (
        "breakpoint-value",
        "breakpoints[1][1]",
        lambda v: StepTable(((0, 1), (5, v))),
        ("jobs", 4, "cost", "breakpoints", 1, 1),
        "jobs[4].cost.",
    ),
]
BREAKPOINTS = ("jobs", 4, "cost", "breakpoints")
MALFORMED_VALUES = [
    *(
        pytest.param(field, make, path, where, value, id=f"{name}-{kind}")
        for name, field, make, path, where in NUMERIC_FIELDS
        for kind, value in (("float", 2.5), ("bool", True), ("string", "3"))
    ),
    pytest.param("breakpoints", StepTable, BREAKPOINTS, "jobs[4].cost.", 5, id="breakpoints-number"),
    pytest.param("breakpoints", StepTable, BREAKPOINTS, "jobs[4].cost.", {"0": 1}, id="breakpoints-object"),
    pytest.param("breakpoints[1]", StepTable, BREAKPOINTS, "jobs[4].cost.", [[0, 1], 5], id="breakpoint-number"),
]


def _refusal(call) -> str:
    with pytest.raises(InstanceError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("field, make, path, where, value", MALFORMED_VALUES)
def test_malformed_values_are_refused_by_the_constructor_naming_the_field(field, make, path, where, value):
    # used to be accepted (Job(True, ...) as job 1, Tardiness(2.5) giving a
    # cost of 0.5) or to end in a TypeError (capacity=1.5, non-sequences)
    message = _refusal(lambda: make(value))
    assert re.match(rf"{re.escape(field)}[ :]", message)
    assert re.search(r" must be .*(integer|sequence).*, got ", message)


@pytest.mark.parametrize("field, make, path, where, value", MALFORMED_VALUES)
def test_malformed_values_are_refused_by_the_parser_naming_the_location(field, make, path, where, value):
    # the parser says only where: its message is the constructor's, behind
    # the source and the location
    doc = copy.deepcopy(GOOD_DOC)
    place = doc
    for key in path[:-1]:
        place = place[key]
    place[path[-1]] = value
    assert _refusal(lambda: parse_instance(json.dumps(doc))) == f"<string>: {where}{_refusal(lambda: make(value))}"


# Values of the wrong kind for what the parser always builds itself (the
# job list, its entries and each job's cost): only library callers can pass
# them, so only the constructor's message is pinned.
MALFORMED_OBJECTS = [
    pytest.param("jobs", lambda v: Instance(v, 0), 5, id="jobs-number"),
    pytest.param("jobs", lambda v: Instance(v, 0), GOOD_JOBS[0], id="jobs-one-job"),
    pytest.param("jobs", lambda v: Instance(v, 0), (job for job in GOOD_JOBS), id="jobs-generator"),
    pytest.param("jobs[0]", lambda v: Instance(v, 0), (1,), id="jobs-entry-number"),
    pytest.param("jobs[1]", lambda v: Instance(v, 0), [GOOD_JOBS[0], Lateness(4)], id="jobs-entry-cost"),
    pytest.param("cost", lambda v: Job(1, 2, v), 5, id="cost-number"),
    pytest.param("cost", lambda v: Job(1, 2, v), None, id="cost-none"),
    pytest.param("cost", lambda v: Job(1, 2, v), {"type": "lateness", "due": 5}, id="cost-object"),
    pytest.param("cost", lambda v: Job(1, 2, v), GOOD_JOBS[0], id="cost-job"),
]


@pytest.mark.parametrize("field, make, value", MALFORMED_OBJECTS)
def test_values_of_the_wrong_kind_are_refused_by_the_constructor_naming_the_field(field, make, value):
    # used to end in an AttributeError or a TypeError, or to be accepted: a
    # generator of jobs, as a generator of edges no longer is, and a cost of
    # None, which failed only when the cost was first evaluated
    message = _refusal(lambda: make(value))
    assert re.match(rf"{re.escape(field)} must be an? \w.*, got .+", message)


# a well-formed cost spec of every type
DECODED_COSTS = [Lateness(5), Tardiness(-3), WeightedCompletion(0), Affine(2, -7), StepTable([[0, 1], [5, 2]])]


@pytest.mark.parametrize("cost", DECODED_COSTS, ids=lambda cost: type(cost).__name__)
def test_a_decoded_job_is_the_job_its_constructor_builds(cost):
    job = decode_job(4, 2, cost)
    built = Job(4, 2, cost)
    assert type(job) is Job
    assert (job, hash(job), repr(job)) == (built, hash(built), repr(built))
    with pytest.raises(dataclasses.FrozenInstanceError):
        job.p = 3


_IDS = [1, 7, 0, -3, True, 1.0, "1", None]
_PS = [1, 2, 0, -1, True, 2.0, "2", None]
_COSTS = [Lateness(5), StepTable([[0, 1]]), 5, None, (5,), "due"]


@pytest.mark.parametrize("cost", _COSTS, ids=repr)
def test_decode_job_refuses_exactly_what_the_job_constructor_refuses(cost):
    # both decide by one statement of the job rules; a grid of kinds and
    # ranges shows they agree on every id, p and cost
    for job_id in _IDS:
        for p in _PS:
            decoded = decode_job(job_id, p, cost)
            try:
                built = Job(job_id, p, cost)
            except InstanceError:
                assert decoded is None, (job_id, p, cost)
            else:
                assert decoded == built, (job_id, p, cost)


def test_the_good_document_parses():
    assert parse_instance(json.dumps(GOOD_DOC)).n == 5


def _step_from(deltas):
    t, v, bps = 0, -5, []
    for dt, dv in deltas:
        t += dt
        v += dv
        bps.append((t, v))
        t += 1
    return StepTable(breakpoints=tuple(bps))


_cost_specs = st.one_of(
    st.integers(-50, 50).map(lambda d: Lateness(due=d)),
    st.integers(-50, 50).map(lambda d: Tardiness(due=d)),
    st.integers(0, 10).map(lambda w: WeightedCompletion(w=w)),
    st.tuples(st.integers(0, 10), st.integers(-20, 20)).map(lambda ac: Affine(*ac)),
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 15)), min_size=1, max_size=5).map(
        _step_from
    ),
)


@given(_cost_specs, st.integers(0, 10_000), st.integers(0, 10_000))
def test_every_cost_spec_is_monotone(spec, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    assert eval_cost(spec, lo) <= eval_cost(spec, hi)


_sloped_specs = st.one_of(
    st.integers(-50, 50).map(lambda d: Lateness(due=d)),
    st.integers(-50, 50).map(lambda d: Tardiness(due=d)),
    st.integers(0, 10_000).map(lambda w: WeightedCompletion(w=w)),
    st.tuples(st.integers(0, 10_000), st.integers(-20, 20)).map(lambda ac: Affine(*ac)),
)


@given(_sloped_specs, st.integers(-100, 10_000), st.integers(0, 10_000))
def test_a_cost_rises_by_at_most_its_slope_per_time_unit(spec, t, d):
    # the warm solvers raise a held cost bound by slope x shift when a
    # slot's completion moves later, and trust it to stay an upper bound
    assert type(spec.slope) is int and spec.slope >= 0
    assert spec.value(t + d) - spec.value(t) <= spec.slope * d


def test_each_cost_spec_states_its_slope():
    assert (Lateness(3).slope, Tardiness(3).slope) == (1, 1)
    assert WeightedCompletion(7).slope == 7
    assert Affine(4, -2).slope == 4
    assert StepTable(((0, 1), (5, 9))).slope is None
    # the slope is stated, not a field: equality, hashing and repr are the specs' own
    assert Affine(4, -2) == Affine(4, -2) and repr(Affine(4, -2)) == "Affine(a=4, c=-2)"
    assert [f.name for f in dataclasses.fields(WeightedCompletion)] == ["w"]


def test_job_and_instance_validation():
    with pytest.raises(InstanceError):
        Job(1, 0, Lateness(1))
    with pytest.raises(InstanceError):
        Instance(jobs=(), setup=0, capacity=None)
    with pytest.raises(InstanceError):
        Instance(jobs=(Job(1, 1, Lateness(1)), Job(1, 2, Lateness(1))), setup=0)
    with pytest.raises(InstanceError):
        Instance(jobs=(Job(2, 1, Lateness(1)),), setup=0)
    with pytest.raises(InstanceError):
        Instance(jobs=(Job(1, 1, Lateness(1)),), setup=-1)
    with pytest.raises(InstanceError):
        Instance(jobs=(Job(1, 1, Lateness(1)), Job(2, 1, Lateness(1))), setup=0, capacity=3)
    # precedence needs unbounded capacity
    with pytest.raises(InstanceError):
        Instance(
            jobs=(Job(1, 1, Lateness(1)), Job(2, 1, Lateness(1))),
            setup=0,
            capacity=1,
            precedence=((1, 2),),
        )
    # cycles rejected
    with pytest.raises(InstanceError):
        Instance(
            jobs=(Job(1, 1, Lateness(1)), Job(2, 1, Lateness(1))),
            setup=0,
            capacity=None,
            precedence=((1, 2), (2, 1)),
        )


@pytest.mark.parametrize("job_id", [0, -1, 7], ids=["zero", "minus-one", "n-plus-1"])
def test_a_job_id_outside_1_to_n_is_refused(job_id):
    # job(0) and job(-1) read jobs[-1] and jobs[-2], jobs n and n - 1
    instance = gen_random(6, 1, "small")
    with pytest.raises(IndexError):
        instance.job(job_id)


def test_each_job_id_names_its_own_job():
    instance = gen_random(20, 1, "small")
    assert [instance.job(j).id for j in range(1, 21)] == list(range(1, 21))


def test_an_instance_holds_no_object_per_edge():
    # the edges live in one flat tuple of ids; every other table is per job,
    # and all of them share one int object per job id, also for ids above
    # 256, which JSON decodes into one object per occurrence
    inst = parse_instance(emit_instance(gen_random(300, 1, "prec")))
    edges = len(inst.precedence)
    assert edges > 10 * inst.n
    seen = {}
    stack = list(vars(inst).values())
    while stack:
        value = stack.pop()
        if isinstance(value, (tuple, list, dict, set, frozenset)) and id(value) not in seen:
            seen[id(value)] = value
            assert len(value) != edges
            stack.extend(value.values() if isinstance(value, dict) else value)
    assert len(seen) < 5 * inst.n
    assert inst.edge_ids == tuple(end for edge in inst.precedence for end in edge)
    tables = (inst.edge_ids, *inst.preds, *inst.succs, *inst.preds_by_layer)
    assert len({id(x) for table in tables for x in table}) <= inst.n


@pytest.mark.parametrize("profile", ["small", "paper", "geo"])
@pytest.mark.parametrize("n", [1, 7, 40, 150])
def test_keys_are_ranks_in_p_then_smaller_id_order(n, profile):
    # keys[j] is j's 1-based position in by_key, so two jobs compare by one
    # int exactly as their (p, -id) pairs do, ties in p included
    inst = gen_random(n, seed=25_000 + n, profile=profile)
    keys, by_key, p = inst.keys, inst.by_key, inst.p
    assert len(keys) == n + 1 and keys[0] == 0
    assert [keys[j] for j in by_key] == list(range(1, n + 1))
    assert list(by_key) == sorted(range(1, n + 1), key=lambda j: (p[j], -j))
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            assert (keys[a] < keys[b]) == ((p[a], -a) < (p[b], -b))
    if n >= 40:
        assert len(set(p[1:])) < n  # some jobs tie in p


def test_timetable_two_jobs(two_jobs):
    together = timetable([(), (1, 2)], two_jobs)
    assert together.completion == (0, 6)
    assert together.start == (0, 2)
    assert together.makespan == 6

    split = timetable([(1,), (2,)], two_jobs)
    assert split.completion == (3, 8)
    assert split.start == (2, 5)


def test_timetable_empty_prefix_times_are_zero():
    inst = Instance(
        jobs=tuple(Job(i, i, Lateness(4)) for i in range(1, 6)),
        setup=3,
        capacity=None,
    )
    sched = timetable([(), (), (), (), tuple(range(1, 6))], inst)
    assert sched.start[:4] == (0, 0, 0, 0)
    assert sched.completion[:4] == (0, 0, 0, 0)
    assert sched.start[4] == 3 and sched.completion[4] == 18


def test_timetable_rejects_malformed(two_jobs):
    with pytest.raises(ScheduleError):
        timetable([(1,), ()], two_jobs)  # empty slot after a nonempty one
    with pytest.raises(ScheduleError):
        timetable([(1, 2)], two_jobs)  # wrong slot count
    with pytest.raises(ScheduleError):
        timetable([(1,), (1,)], two_jobs)  # not a partition
    three = Instance(
        jobs=(Job(1, 1, Lateness(1)), Job(2, 1, Lateness(1)), Job(3, 1, Lateness(1))),
        setup=1,
        capacity=2,
    )
    with pytest.raises(ScheduleError):
        timetable([(), (), (1, 2, 3)], three)  # over capacity


def test_timetable_is_idempotent(two_jobs):
    sched = timetable([(1,), (2,)], two_jobs)
    again = timetable(sched.slots, two_jobs)
    assert again == sched


@pytest.mark.parametrize("solver_class, profile", [(BoundedSolver, "paper"), (PrecedenceSolver, "prec")])
def test_timetables_of_held_slots_share_one_empty_slot_and_equal_the_held_times(solver_class, profile):
    # n = 60 leaves dozens of empty slots at every step of either solver
    inst = gen_random(60, 3, profile)
    solver = solver_class.initial(inst)
    threshold, snapshots = UNBOUNDED, []
    while (makespan := solver.solve(threshold)) is not None:
        schedule = timetable(solver.id_slots()[1:], inst)
        assert schedule.completion == tuple(solver.completion[1:]) and schedule.makespan == makespan
        snapshots.append(schedule)
        threshold = solver.max_cost
    retimed = [timetable(schedule.slots, inst) for schedule in snapshots]
    assert retimed == snapshots
    empties = [batch for schedule in snapshots + retimed for batch in schedule.slots if not batch]
    assert len(empties) >= 2 * 30 * len(snapshots)
    assert all(batch is empties[0] for batch in empties)


def test_objectives_worked_examples(two_jobs):
    assert objectives(timetable([(), (1, 2)], two_jobs), two_jobs) == (6, 3)
    assert objectives(timetable([(1,), (2,)], two_jobs), two_jobs) == (8, 0)
    single = Instance(jobs=(Job(1, 5, Lateness(7)),), setup=2, capacity=1)
    assert objectives(timetable([(1,)], single), single) == (7, 0)


def test_makespan_is_batches_times_setup_plus_total_processing():
    # telescoping the no-idle recurrence: C_max = (#nonempty)*s + sum(p)
    rng = SplitMix64(99)
    for trial in range(300):
        inst = gen_random(rng.randint(1, 9), seed=trial, profile="small")
        n = inst.n
        cap = inst.effective_capacity
        batches = rng.randint(-(-n // cap), n)  # between ceil(n/cap) and n
        order = sorted(range(1, n + 1), key=lambda _: rng.next_u64())
        slots = [[] for _ in range(n)]
        for pos, j in enumerate(order[:batches]):
            slots[n - batches + pos].append(j)  # one job per batch keeps each nonempty
        for j in order[batches:]:
            room = [i for i in range(n - batches, n) if len(slots[i]) < cap]
            slots[room[rng.randint(0, len(room) - 1)]].append(j)
        sched = timetable(slots, inst)
        assert sched.makespan == batches * inst.setup + sum(inst.p)


def test_validate_reports_violations(fork):
    same_slot = timetable([(), (), (1, 2, 3)], fork)
    assert any("precedence" in msg for msg in validate(same_slot, fork))

    ok = timetable([(), (1,), (2, 3)], fork)
    assert validate(ok, fork) == []

    three = Instance(
        jobs=(Job(1, 1, Lateness(1)), Job(2, 1, Lateness(1)), Job(3, 1, Lateness(1))),
        setup=1,
        capacity=2,
    )
    from batchfront.model import Schedule

    overfull = Schedule(
        slots=(frozenset(), frozenset(), frozenset({1, 2, 3})),
        completion=(0, 0, 4),
        setup=1,
    )
    assert any("capacity" in msg for msg in validate(overfull, three))

    gap = Schedule(
        slots=(frozenset({1}), frozenset(), frozenset({2, 3})),
        completion=(2, 2, 5),
        setup=1,
    )
    assert any("empty slot" in msg for msg in validate(gap, three))


_THREE_CAP_TWO = Instance(
    jobs=(Job(1, 1, Lateness(1)), Job(2, 1, Lateness(1)), Job(3, 1, Lateness(1))),
    setup=1,
    capacity=2,
)


@pytest.mark.parametrize(
    "slots, first",
    [
        ([(), (1, 2, 3)], "expected 3 slots, got 2"),
        ([(), (), (1, 2, 3)], "slot 3: 3 jobs exceed capacity 2"),
        ([(1,), (), (2, 3)], "slot 2: empty slot after a nonempty one"),
        ([(1,), (1, 2), (3,)], "job 1: appears in slots 1 and 2"),
        ([(), (1,), (2,)], "jobs missing from the schedule: [3]"),
        ([(), (1, 2), (3, 4)], "unknown job ids in the schedule: [4]"),
        ([(1, 2, 3), (), (3,)], "slot 1: 3 jobs exceed capacity 2"),
    ],
    ids=["count", "capacity", "gap", "repeat", "missing", "unknown-id", "several"],
)
def test_timetable_refuses_with_the_first_problem_validate_reports(slots, first):
    with pytest.raises(ScheduleError) as refused:
        timetable(slots, _THREE_CAP_TWO)
    untimed = Schedule(tuple(map(frozenset, slots)), (0,) * len(slots), setup=1)
    assert str(refused.value) == validate(untimed, _THREE_CAP_TWO)[0] == first
