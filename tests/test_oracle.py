import pytest

from batchfront import oracle
from batchfront.generate import gen_random
from batchfront.model import Instance, Job, Lateness, objectives, validate
from batchfront.oracle import OracleSizeError, enumerate_feasible, oracle_pareto

# ordered set partitions of an n-set (no capacity): 1, 3, 13, 75
FUBINI = {1: 1, 2: 3, 3: 13, 4: 75}


def test_two_job_enumeration(two_jobs):
    schedules = list(enumerate_feasible(two_jobs))
    assert len(schedules) == 3
    assert {s.batches()[0] for s in schedules if len(s.batches()) == 1} == {(1, 2)}


def test_precedence_squeezes_to_one_schedule():
    inst = Instance(
        jobs=(Job(1, 1, Lateness(5)), Job(2, 1, Lateness(5))),
        setup=1,
        capacity=None,
        precedence=((1, 2),),
    )
    schedules = list(enumerate_feasible(inst))
    assert len(schedules) == 1
    assert schedules[0].batches() == [(1,), (2,)]


def test_capacity_two_count_for_three_jobs():
    inst = Instance(
        jobs=tuple(Job(i, 1, Lateness(5)) for i in (1, 2, 3)),
        setup=1,
        capacity=2,
    )
    # 6 three-singleton orders + 6 two-batch splits; the single batch of
    # three exceeds the capacity
    assert len(list(enumerate_feasible(inst))) == 12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unbounded_counts_match_ordered_partitions(n):
    inst = Instance(
        jobs=tuple(Job(i, 1, Lateness(5)) for i in range(1, n + 1)),
        setup=1,
        capacity=None,
    )
    assert len(list(enumerate_feasible(inst))) == FUBINI[n]


def test_every_yielded_schedule_is_valid():
    for seed in (1, 2, 3):
        inst = gen_random(5, seed=seed, profile="prec")
        count = 0
        for sched in enumerate_feasible(inst):
            assert validate(sched, inst) == []
            count += 1
        assert count >= 1


def test_frontier_examples(two_jobs, three_jobs, fork):
    assert oracle_pareto(two_jobs).points == ((6, 3), (8, 0))
    assert oracle_pareto(three_jobs).points == ((10, 1),)
    assert oracle_pareto(fork).points == ((6, 0),)


def test_frontier_is_an_antichain_with_consistent_witnesses():
    for seed in range(30):
        inst = gen_random(2 + seed % 5, seed=80_000 + seed, profile="small")
        ref = oracle_pareto(inst)
        pts = ref.points
        for a in pts:
            for b in pts:
                if a != b:
                    dominates = a[0] <= b[0] and a[1] <= b[1]
                    assert not dominates
        for pair, witness in ref.witnesses.items():
            assert objectives(witness, inst) == pair
            assert validate(witness, inst) == []
        assert ref.min_max_cost == pts[-1][1]


def test_size_guards(monkeypatch):
    big = gen_random(9, seed=1, profile="small")
    with pytest.raises(OracleSizeError):
        oracle_pareto(big)
    prec8 = gen_random(8, seed=1, profile="prec")
    with pytest.raises(OracleSizeError):
        list(enumerate_feasible(prec8))
    monkeypatch.setattr(oracle, "MAX_SCHEDULES", 5)
    with pytest.raises(OracleSizeError):
        oracle_pareto(gen_random(4, seed=1, profile="small", capacity=3))
