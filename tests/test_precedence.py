import json

import pytest

from batchfront import verify
from batchfront.admissible import AdmissibleSlots
from batchfront.bounded import UNBOUNDED
from batchfront.fileio import emit_instance, parse_instance
from batchfront.generate import SplitMix64, gen_random
from batchfront.model import (
    Instance,
    InstanceError,
    InvariantError,
    Job,
    Lateness,
    batch_times,
    objectives,
    timetable,
    validate,
)
from batchfront.precedence import PrecedenceSolver, PrecGraph, layered_limits
from batchfront.verify import check_precedence, check_precedence_steps


def _chain(n, s=1, p=1, due=100):
    return Instance(
        jobs=tuple(Job(i, p, Lateness(due)) for i in range(1, n + 1)),
        setup=s,
        capacity=None,
        precedence=tuple((i, i + 1) for i in range(1, n)),
    )


def _three_jobs(edges):
    return Instance(
        jobs=tuple(Job(i, 1, Lateness(5)) for i in (1, 2, 3)),
        setup=1,
        capacity=None,
        precedence=edges,
    )


def _three_jobs_text(edges):
    doc = json.loads(emit_instance(_three_jobs(())))
    doc["precedence"] = edges
    return json.dumps(doc)


# One row per malformed edge list: the edges as JSON would give them, and
# the InstanceError text both Instance(...) and parse_instance must report.
EDGE_ERRORS = [
    pytest.param([[1, 2.0]], r"precedence\[0\] endpoints must be integers, got \[1, 2\.0\]", id="float"),
    pytest.param([[1, 2], [True, 3]], r"precedence\[1\] endpoints must be integers, got \[true, 3\]", id="bool"),
    pytest.param([[1, 2], [1, 2, 3]], r"precedence\[1\] must be a \[pred, succ\] pair", id="triple"),
    pytest.param([[1, 2], 3], r"precedence\[1\] must be a \[pred, succ\] pair", id="number"),
    pytest.param([[1, 2], [3, 3]], r"bad precedence edge \(3, 3\)", id="self-loop"),
    pytest.param([[1, 2], [0, 1]], r"bad precedence edge \(0, 1\)", id="id-zero"),
    pytest.param([[1, 4], [-1, 2]], r"bad precedence edge \(1, 4\)", id="id-too-large-first"),
    pytest.param([[1, 2], [2, 3], [3, 1]], r"precedence edges contain a cycle", id="cycle"),
    pytest.param([[1, 2], [1, 2], [2, 1]], r"precedence edges contain a cycle", id="cycle-with-repeat"),
    # more than one fault, or a fault the dedup hides: the first problem
    # reported stays the one a whole-list search finds first
    pytest.param([[1, 2], [True, 2]], r"precedence\[1\] endpoints must be integers, got \[true, 2\]", id="bool-equal-to-an-edge"),
    pytest.param([[1, 2], [[1], 2]], r"precedence\[1\] endpoints must be integers, got \[\[1\], 2\]", id="unhashable-endpoint"),
    pytest.param([[1, 2], "ab"], r"precedence\[1\] must be a \[pred, succ\] pair", id="string-of-two"),
    pytest.param(
        [[1, 2], [2, 9], [1.5, 3]], r"precedence\[2\] endpoints must be integers, got \[1\.5, 3\]", id="type-after-range"
    ),
    # faults the walk meets as it unpacks each entry: too short, and a
    # repeat, whose ids are dropped later, before a range fault or a self-loop
    pytest.param([[1, 2], []], r"precedence\[1\] must be a \[pred, succ\] pair", id="empty"),
    pytest.param([[1, 2], [1]], r"precedence\[1\] must be a \[pred, succ\] pair", id="single"),
    pytest.param([[1, 2], [1, 2], [1, 4]], r"bad precedence edge \(1, 4\)", id="repeat-before-range"),
    pytest.param([[3, 3], [3, 3]], r"bad precedence edge \(3, 3\)", id="repeated-self-loop"),
]


@pytest.mark.parametrize(
    "setup, capacity, message",
    [
        pytest.param(-1, None, r"setup time must be >= 0, got -1", id="setup-first"),
        pytest.param(
            1, 2, r"precedence edges are not supported with bounded capacity; .*", id="bounded-precedence-first"
        ),
    ],
)
def test_an_edge_out_of_range_is_reported_after_the_job_checks(setup, capacity, message):
    jobs = tuple(Job(i, 1, Lateness(5)) for i in (1, 2, 3))
    with pytest.raises(InstanceError, match=rf"^{message}$"):
        Instance(jobs=jobs, setup=setup, capacity=capacity, precedence=[[0, 1]])
    doc = json.loads(_three_jobs_text([[0, 1]]))
    doc["setup"] = setup
    doc["capacity"] = capacity if capacity is not None else "unbounded"
    with pytest.raises(InstanceError, match=rf"^<string>: {message}$"):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("edges, message", EDGE_ERRORS)
def test_bad_edges_are_refused_by_instance(edges, message):
    with pytest.raises(InstanceError, match=rf"^{message}$"):
        _three_jobs(edges)


@pytest.mark.parametrize("edges, message", EDGE_ERRORS)
def test_bad_edges_are_refused_by_the_parser(edges, message):
    with pytest.raises(InstanceError, match=rf"^<string>: {message}$"):
        parse_instance(_three_jobs_text(edges))


@pytest.mark.parametrize(
    "make_entry",
    [
        pytest.param(lambda: {1, 2}, id="set"),
        pytest.param(lambda: {1: 0, 2: 0}, id="dict"),
        pytest.param(lambda: range(1, 3), id="range"),
        pytest.param(lambda: iter((1, 2)), id="iterator"),
    ],
)
def test_an_iterable_of_two_ids_that_is_not_a_list_or_tuple_is_refused(make_entry):
    # JSON gives only lists; a library caller could pass any iterable, and
    # each of these used to be accepted as the edge (1, 2)
    with pytest.raises(InstanceError, match=r"^precedence\[0\] must be a \[pred, succ\] pair$"):
        _three_jobs([make_entry()])


def test_edges_that_are_not_a_sequence_are_refused_by_instance():
    # used to end in a TypeError
    with pytest.raises(InstanceError, match=r"^precedence must be a sequence of \[pred, succ\] pairs, got 5$"):
        _three_jobs(5)


def _reference_layers(n, edges):
    """Sink layers by the definition: repeatedly strip the jobs that have no
    successor left, numbering the strips n, n-1, ..."""
    left = set(range(1, n + 1))
    layer = {}
    depth = n
    while left:
        sinks = {v for v in left if not any(a == v and b in left for a, b in edges)}
        assert sinks, "cyclic input"
        for v in sinks:
            layer[v] = depth
        left -= sinks
        depth -= 1
    return [0] + [layer[v] for v in range(1, n + 1)]


@pytest.mark.parametrize("n", [1, 2, 5, 9, 17, 33, 60])
def test_layers_match_a_reference_sink_peel(n):
    for seed in range(6):
        base = gen_random(n, seed=seed, profile="prec")
        edges = base.precedence + base.precedence[::3]  # every third edge repeated
        inst = Instance(jobs=base.jobs, setup=base.setup, capacity=None, precedence=edges)
        want = _reference_layers(n, edges)
        assert list(inst.layer) == want
        limits = layered_limits(inst, PrecGraph(inst))
        assert [0] + [limits.limit(j) for j in range(1, n + 1)] == want


class TestPrecGraph:
    def test_adjacency_is_stored_both_ways(self, fork):
        graph = PrecGraph(fork)
        assert graph.succs(1) == [2, 3]
        assert graph.preds(2) == [1]
        assert graph.preds(3) == [1]
        assert graph.preds(1) == []
        assert graph.edge_count == 2

    def test_cycle_rejected(self):
        # PrecGraph trusts its Instance; a cyclic edge list read from a file
        # must already be refused there, before any graph is built
        text = """{"setup": 1, "capacity": "unbounded",
          "jobs": [{"id": 1, "p": 1, "cost": {"type": "lateness", "due": 5}},
                   {"id": 2, "p": 1, "cost": {"type": "lateness", "due": 5}}],
          "precedence": [[1, 2], [2, 1]]}"""
        with pytest.raises(InstanceError, match="cycle"):
            parse_instance(text)

    def test_duplicate_edges_collapse(self):
        inst = Instance(
            jobs=(Job(1, 1, Lateness(5)), Job(2, 1, Lateness(5))),
            setup=1,
            capacity=None,
            precedence=((1, 2), (1, 2)),
        )
        graph = PrecGraph(inst)
        assert graph.edge_count == 1
        assert graph.succs(1) == [2]
        assert graph.preds(2) == [1]

    def test_input_order_kept_and_repeats_dropped(self):
        inst = Instance(
            jobs=tuple(Job(i, 1, Lateness(5)) for i in (1, 2, 3, 4)),
            setup=1,
            capacity=None,
            precedence=((1, 4), (1, 3), (2, 4), (1, 4), (1, 2), (1, 3), (3, 4)),
        )
        graph = PrecGraph(inst)
        assert graph.edge_count == 5
        assert graph.succs(1) == [4, 3, 2]
        assert graph.preds(4) == [1, 2, 3]
        assert graph.succs(4) == [] and graph.preds(1) == []
        assert inst.precedence[3] == (1, 4)  # the instance keeps its edges as given


class TestLayering:
    def test_fork_layers(self, fork):
        limits = layered_limits(fork, PrecGraph(fork))
        groups = limits.groups()
        assert groups[1] == []
        assert groups[2] == [1]
        assert sorted(groups[3]) == [2, 3]

    def test_no_edges_all_in_last_group(self):
        inst = Instance(
            jobs=tuple(Job(i, 1, Lateness(1)) for i in (1, 2, 3)),
            setup=0,
            capacity=None,
        )
        limits = layered_limits(inst, PrecGraph(inst))
        groups = limits.groups()
        assert sorted(groups[3]) == [1, 2, 3]
        assert groups[1] == groups[2] == []

    def test_chain_gets_one_group_each(self):
        inst = _chain(3)
        limits = layered_limits(inst, PrecGraph(inst))
        assert limits.groups()[1:] == [[1], [2], [3]]

    def test_every_edge_crosses_groups_leftward(self):
        for seed in range(50):
            inst = gen_random(7, seed=seed, profile="prec")
            graph = PrecGraph(inst)
            limits = layered_limits(inst, graph)
            for pred, succ in inst.precedence:
                assert limits.limit(pred) < limits.limit(succ)


class TestPrecedenceSolver:
    def test_fork_unconstrained(self, fork):
        solver = PrecedenceSolver.initial(fork, check=True)
        sched = solver.solve(UNBOUNDED)
        assert sched.slots == (frozenset(), frozenset({1}), frozenset({2, 3}))
        assert objectives(sched, fork) == (6, 0)

    def test_fork_zero_cap_is_infeasible(self, fork):
        solver = PrecedenceSolver.initial(fork)
        assert solver.solve(UNBOUNDED) is not None
        assert solver.solve(0) is None

    def test_no_edges_single_batch(self):
        inst = Instance(
            jobs=(Job(1, 1, Lateness(50)), Job(2, 2, Lateness(50))),
            setup=1,
            capacity=None,
        )
        sched = PrecedenceSolver.initial(inst).solve(UNBOUNDED)
        assert sched.slots == (frozenset(), frozenset({1, 2}))

    def test_returned_schedules_respect_precedence(self):
        for seed in range(80):
            inst = gen_random(2 + seed % 6, seed=40_000 + seed, profile="prec")
            solver = PrecedenceSolver.initial(inst, check=True)
            threshold = UNBOUNDED
            while True:
                sched = solver.solve(threshold)
                if sched is None:
                    break
                assert validate(sched, inst) == []
                threshold = objectives(sched, inst)[1]
            assert solver.limits.relocations <= inst.n * (inst.n - 1)

    def test_bound_propagation_trace(self):
        # job 3 (successor of 1) is forced leftward; job 1's bound follows it
        # down, and the second sweep drains group 2, proving infeasibility
        inst = Instance(
            jobs=(Job(1, 1, Lateness(100)), Job(2, 1, Lateness(100)), Job(3, 1, Lateness(2))),
            setup=1,
            capacity=None,
            precedence=((1, 3),),
        )
        lines = []
        solver = PrecedenceSolver.initial(inst, trace=lines.append)
        assert solver.solve(2) is None
        assert lines == [
            "move job=3 from=3 to=2",
            "bound job=1 new=1",
            "move job=1 from=2 to=1",
            "move job=3 from=2 to=1",
        ]

    def test_matches_oracle_on_randoms(self):
        for seed in range(80):
            inst = gen_random(2 + seed % 5, seed=50_000 + seed, profile="prec")
            assert check_precedence(inst) == []

    def test_single_job(self):
        inst = Instance(jobs=(Job(1, 4, Lateness(2)),), setup=3, capacity=None)
        sched = PrecedenceSolver.initial(inst).solve(UNBOUNDED)
        assert objectives(sched, inst) == (7, 5)

    def test_zero_setup_single_frontier_point(self):
        # with no setup every schedule has the same makespan, so only the
        # min-max-cost point survives even under precedence
        from batchfront.frontier import pareto_precedence
        from batchfront.oracle import oracle_pareto

        inst = Instance(
            jobs=(Job(1, 2, Lateness(1)), Job(2, 3, Lateness(4)), Job(3, 1, Lateness(9))),
            setup=0,
            capacity=None,
            precedence=((1, 2),),
        )
        front = pareto_precedence(inst, check=True)
        assert len(front.points) == 1
        assert front.pairs() == list(oracle_pareto(inst).points)


def test_check_mode_catches_a_snapshot_off_its_times(fork, monkeypatch):
    def skewed(slots, instance):
        completion = batch_times(slots, instance)
        completion[-1] += 1  # an uncapped pass tolerates any completion, so only the snapshot can notice
        return completion

    monkeypatch.setattr("batchfront.precedence.batch_times", skewed)
    with pytest.raises(InvariantError, match="^snapshot differs from a timetable of its slots$"):
        PrecedenceSolver.initial(fork, check=True).solve(UNBOUNDED)
    unchecked = PrecedenceSolver.initial(fork).solve(UNBOUNDED)
    assert unchecked.makespan == timetable(unchecked.slots, fork).makespan + 1


def test_check_mode_catches_a_max_cost_off_the_schedule(fork, monkeypatch):
    sweep = PrecedenceSolver._sweep

    def understated(self, slots, completion, threshold):
        outcome = sweep(self, slots, completion, threshold)
        if outcome is False:
            self.max_cost -= 1  # a clean pass that misjudged its largest cost
        return outcome

    monkeypatch.setattr(PrecedenceSolver, "_sweep", understated)
    with pytest.raises(InvariantError, match="^held max cost differs from objectives$"):
        PrecedenceSolver.initial(fork, check=True).solve(UNBOUNDED)
    unchecked = PrecedenceSolver.initial(fork)
    assert objectives(unchecked.solve(UNBOUNDED), fork) == (6, unchecked.max_cost + 1)


@pytest.mark.parametrize("n", [1, 2, 5, 17, 60])
def test_predecessors_by_layer_are_the_predecessors_in_descending_layer(n):
    for seed in range(6):
        base = gen_random(n, seed=seed, profile="prec")
        edges = base.precedence + base.precedence[::4]
        inst = Instance(jobs=base.jobs, setup=base.setup, capacity=None, precedence=edges)
        for j in range(1, n + 1):
            ordered = inst.preds_by_layer[j]
            assert sorted(ordered) == sorted(inst.preds[j])
            assert [inst.layer[q] for q in ordered] == sorted((inst.layer[q] for q in ordered), reverse=True)


def _shuffled_with_repeats(edges, seed):
    """The edges with every fourth one appended again, in an order drawn
    from a SplitMix64 stream."""
    edges = list(edges) + list(edges[::4])
    rng = SplitMix64(seed)
    for i in range(len(edges) - 1, 0, -1):
        k = rng.randint(0, i)
        edges[i], edges[k] = edges[k], edges[i]
    return edges


def _reference_tables(n, edges):
    """(preds, succs) built from one dict.fromkeys over the edge tuples,
    walked in its first-occurrence order."""
    preds = [[] for _ in range(n + 1)]
    succs = [[] for _ in range(n + 1)]
    for a, b in dict.fromkeys(map(tuple, edges)):
        succs[a].append(b)
        preds[b].append(a)
    return preds, succs


@pytest.mark.parametrize("profile", ["prec", "geo-prec"])
@pytest.mark.parametrize("n", [2, 9, 33, 60])
def test_tables_from_the_walk_equal_tables_from_the_distinct_edge_tuples(profile, n):
    for seed in range(3):
        base = gen_random(n, seed, profile)
        edges = _shuffled_with_repeats(base.precedence, seed)
        as_lists = Instance(jobs=base.jobs, setup=base.setup, capacity=None, precedence=[list(e) for e in edges])
        as_tuples = Instance(jobs=base.jobs, setup=base.setup, capacity=None, precedence=tuple(edges))
        assert as_lists == as_tuples and hash(as_lists) == hash(as_tuples)
        preds, succs = _reference_tables(n, edges)
        for inst in (as_lists, as_tuples):
            assert list(inst.preds) == preds and list(inst.succs) == succs
            assert list(inst.layer) == _reference_layers(n, edges)
            for j in range(1, n + 1):
                ordered = inst.preds_by_layer[j]
                assert sorted(ordered) == sorted(preds[j])
                layers = [inst.layer[q] for q in ordered]
                assert layers == sorted(layers, reverse=True)
            assert inst.precedence == tuple(map(tuple, edges))
            text = emit_instance(inst)
            again = parse_instance(text)
            assert again == inst and emit_instance(again) == text


@pytest.mark.parametrize("n", [60, 150])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_main2_step_matches_a_fresh_solver_beyond_the_oracle(n, seed):
    # check mode on, every step replayed by a fresh solver whose first pass
    # walks every group, so a group the warm solver wrongly skips shows
    assert check_precedence_steps(gen_random(n, seed, "prec")) == []


def test_step_replay_reports_a_warm_step_that_disagrees(monkeypatch):
    sweep = verify.pareto_precedence

    def misreported(instance, on_step, check):
        def lying(before, threshold, schedule, after):
            on_step(before, threshold, None, before)  # claims infeasible, limits unchanged

        return sweep(instance, on_step=lying, check=check)

    monkeypatch.setattr(verify, "pareto_precedence", misreported)
    issues = check_precedence_steps(gen_random(20, 1, "prec"))
    assert issues[0] == "threshold inf: fresh solver feasibility True != warm False"


def _propagating():
    # job 3 (successor of 1) leaves group 3, so job 1 must leave group 2
    return Instance(
        jobs=(Job(1, 1, Lateness(100)), Job(2, 1, Lateness(100)), Job(3, 1, Lateness(2))),
        setup=1,
        capacity=None,
        precedence=((1, 3),),
    )


def _solved(instance):
    solver = PrecedenceSolver.initial(instance, check=True)
    solver.solve(UNBOUNDED)
    return solver


def test_check_mode_catches_held_groups_off_the_limits():
    solver = _solved(gen_random(12, 3, "prec"))
    big = next(i for i, group in enumerate(solver.groups) if len(group) > 1)
    solver.groups[big].reverse()
    with pytest.raises(InvariantError, match="^held groups differ from the limits' groups$"):
        solver.solve(solver.max_cost)


def test_check_mode_catches_held_completions_off_their_groups():
    solver = _solved(gen_random(12, 3, "prec"))
    solver.completion[-1] += 1
    with pytest.raises(InvariantError, match="^held completions differ from batch_times$"):
        solver.solve(solver.max_cost)


def test_check_mode_catches_a_held_max_off_its_group():
    solver = _solved(gen_random(12, 3, "prec"))
    solver.top[-1] -= 1
    with pytest.raises(InvariantError, match="^held max cost of group 12 differs from a fresh evaluation$"):
        solver.solve(solver.max_cost)


def test_check_mode_catches_a_skipped_group_that_needed_a_walk():
    class Unmarkable(list):
        def __setitem__(self, index, value):
            super().__setitem__(index, False)

    solver = PrecedenceSolver.initial(_propagating(), check=True)
    solver.marked = Unmarkable(solver.marked)
    with pytest.raises(InvariantError, match="^skipped group 2 needed a walk$"):
        solver.solve(2)


def test_check_mode_catches_a_predecessor_past_the_propagation_cut():
    inst = _propagating()
    object.__setattr__(inst, "preds_by_layer", ([], [], [], []))  # job 3 forgets its predecessor
    with pytest.raises(InvariantError, match="^a predecessor of job 3 past the propagation cut is bounded above 1$"):
        PrecedenceSolver.initial(inst, check=True).solve(2)


def test_check_mode_catches_a_limit_above_its_layer():
    inst = _propagating()
    solver = PrecedenceSolver(inst, AdmissibleSlots.unrestricted(inst), check=True)
    with pytest.raises(InvariantError, match="^a limit exceeds its job's sink layer$"):
        solver.solve(UNBOUNDED)


def test_held_state_matches_a_rebuild_after_every_step():
    inst = gen_random(150, 2, "prec")
    solver = PrecedenceSolver.initial(inst)
    threshold = UNBOUNDED
    while (schedule := solver.solve(threshold)) is not None:
        assert solver.groups == solver.limits.groups()
        assert solver.completion == batch_times(solver.groups, inst)
        assert solver.bounds == solver.limits.table
        assert not any(solver.marked)
        assert objectives(schedule, inst)[1] == solver.max_cost
        threshold = solver.max_cost
