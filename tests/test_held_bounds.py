"""Held cost bounds in the bounded solver.

A solver whose nonempty slots hold more than ``SMALL_SLOT`` jobs on average,
and whose every cost states a slope, holds an upper bound on each slot's
max cost beside the exact-or-stale held max: a retime later by d raises it
by slope x d, an opening by slope x setup, a job entering a slot folds in
its cost there, and a refresh sets it to the max.  A pass skips a stale
slot whose bound is below the threshold.  These tests pin the bounds'
check-mode coverage, the work they save and the outputs they leave alone.
"""

import pytest

from batchfront.bounded import SMALL_SLOT, UNBOUNDED, BoundedSolver, WarmSolver
from batchfront.frontier import pareto_bounded
from batchfront.generate import gen_random
from batchfront.model import Instance, InvariantError, Job, Lateness, StepTable
from batchfront.precedence import PrecedenceSolver
from batchfront.verify import check_instance

# sweeps that hold bounds from their first step: large batches, sloped costs
BOUNDED_CORPUS = [(gen_random(n, seed, "small", capacity=b), "small") for n, b in ((60, 30), (120, 40)) for seed in (1, 2, 3)]
BOUNDED_CORPUS += [(gen_random(100, seed, "paper"), "paper") for seed in (1, 2)]


def _sweep(solver):
    """Run a solver's threshold sweep to its infeasible end."""
    threshold = UNBOUNDED
    while solver.solve(threshold) is not None:
        threshold = solver.max_cost
    return solver


def _held_passes(monkeypatch):
    """Count the passes that start with bounds held; returns the tally."""
    drop = BoundedSolver._drop_bounds
    tally = [0]

    def counted(self):
        dropped = drop(self)
        tally[0] += self.slope is not None
        return dropped

    monkeypatch.setattr(BoundedSolver, "_drop_bounds", counted)
    return tally


def test_the_corpora_hold_bounds(monkeypatch):
    tally = _held_passes(monkeypatch)
    for instance, _ in BOUNDED_CORPUS:
        pareto_bounded(instance)
    assert tally[0] > 100


def test_bounds_are_held_only_for_large_slots_and_sloped_costs():
    assert BoundedSolver.initial(gen_random(800, 1, "paper")).slope == 1
    assert BoundedSolver.initial(gen_random(60, 1, "geo", capacity=30)).slope == 60**2
    # a step cost states no slope
    jobs = (Job(1, 2, StepTable(((0, 0), (5, 9)))),) + tuple(Job(j, 1, Lateness(j)) for j in range(2, 41))
    assert BoundedSolver.initial(Instance(jobs, setup=1, capacity=40)).slope is None
    # batches of 2, and sink layers of about 2.5 jobs each: none from the start
    solver = BoundedSolver.initial(gen_random(60, 1, "small", capacity=2))
    assert solver.slope is None
    solver.solve(UNBOUNDED)
    assert solver.slope is None and solver.bound == [UNBOUNDED] * 61
    # the precedence solver holds none at any size
    assert not hasattr(PrecedenceSolver.initial(gen_random(300, 1, "geo-prec")), "bound")


def test_bounds_are_dropped_for_the_rest_of_the_sweep_once_slots_average_small_slot_jobs(monkeypatch):
    # staged at b = n - 1 starts on 2 slots and opens one for nearly every
    # job; the pass that finds the slots small walks every slot, and the
    # sweep's outputs are those of a sweep that never held bounds
    instance = gen_random(120, 1, "staged")
    drops = []
    drop = BoundedSolver._drop_bounds

    def recorded(self):
        dropped = drop(self)
        if dropped:
            drops.append(len(self.slots) - self.first)
        return dropped

    monkeypatch.setattr(BoundedSolver, "_drop_bounds", recorded)
    trace = []
    front = pareto_bounded(instance, trace=trace.append, check=True)
    assert drops == [8]  # 120 jobs over 8 slots are 15 a slot, at most SMALL_SLOT
    assert instance.n <= SMALL_SLOT * 8 and instance.n > SMALL_SLOT * 7
    monkeypatch.setattr(BoundedSolver, "_drop_bounds", lambda self: False)
    monkeypatch.setattr(BoundedSolver, "__init__", _without_bounds(BoundedSolver.__init__))
    unheld = []
    assert pareto_bounded(instance, trace=unheld.append, check=True) == front
    assert trace == unheld


def _without_bounds(init):
    def held_never(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.slope = None

    return held_never


@pytest.mark.parametrize("seed", range(4))
def test_held_and_unheld_sweeps_make_the_same_moves(monkeypatch, seed):
    # bounds only decide which stale slots a pass refreshes before it skips
    # them: every move, trace line, point and witness is the same without
    instance = gen_random(160, seed, "small", capacity=60 + seed)
    trace = []
    front = pareto_bounded(instance, trace=trace.append)
    monkeypatch.setattr(BoundedSolver, "__init__", _without_bounds(BoundedSolver.__init__))
    unheld = []
    assert pareto_bounded(instance, trace=unheld.append) == front
    assert trace == unheld


def test_a_paper_sweep_refreshes_a_few_slots(monkeypatch):
    # paper n=800, b=160: a slot that only moved in time, or lost a job,
    # kept its max below the threshold in nearly every case, and
    # refreshing it anyway made 317 refreshes of 160-job slots per sweep
    refresh = WarmSolver.held_max
    calls = []

    def counted(self, c):
        calls.append(len(self.slots[c]))
        return refresh(self, c)

    monkeypatch.setattr(WarmSolver, "held_max", counted)
    front = pareto_bounded(gen_random(800, 1, "paper"))
    assert (front.relocations, front.threshold_steps) == (800, 26)
    assert len(calls) <= 30


def test_differential_check_with_bounds_held_and_not(monkeypatch):
    # check mode on and every step replayed by the reference solver:
    # mixed costs at b > SMALL_SLOT hold bounds, a step cost or b = 2 not
    tally = _held_passes(monkeypatch)
    for n, b in ((40, 20), (60, 30), (90, 45)):
        for seed in range(3):
            assert check_instance(gen_random(n, 700 + seed, "small", capacity=b)) == []
    assert tally[0] > 0
    held = tally[0]
    for seed in range(3):
        base = gen_random(50, 800 + seed, "small", capacity=25)
        stepped = Job(1, base.jobs[0].p, StepTable(((0, -3), (40, 50))))
        assert check_instance(Instance((stepped,) + base.jobs[1:], base.setup, base.capacity)) == []
        assert check_instance(gen_random(50, 800 + seed, "small", capacity=2)) == []
    assert tally[0] == held


def _a_clean_slot():
    """A solver on paper n=100 after its uncapped step, and a slot it holds
    below the max cost: the next step's adjustments leave that slot alone,
    and check each time that its held max and bound match it."""
    solver = BoundedSolver.initial(gen_random(100, 1, "paper"), check=True)
    solver.solve(UNBOUNDED)
    clean = next(c for c in range(solver.first, len(solver.top)) if solver.top[c] < solver.max_cost)
    assert solver.top[clean] == solver.bound[clean]
    return solver, clean


def test_check_mode_catches_a_corrupted_held_bound():
    solver, clean = _a_clean_slot()
    solver.bound[clean] += 1
    with pytest.raises(InvariantError, match=f"^held bound of slot {clean} differs from its current max$"):
        solver.solve(solver.max_cost)
    # a bound below its slot's max cost, on a stale slot
    solver, clean = _a_clean_slot()
    solver.top[clean] = None
    solver.bound[clean] -= 1
    with pytest.raises(InvariantError, match=f"^held bound of slot {clean} is below its max cost$"):
        solver.solve(solver.max_cost)


def test_check_mode_catches_a_corrupted_held_max_with_bounds_held():
    # the max and the bound of one slot raised together: the bound still
    # equals the max, which no longer matches the slot
    solver, clean = _a_clean_slot()
    solver.top[clean] += 1
    solver.bound[clean] += 1
    with pytest.raises(InvariantError, match=f"^held max cost of slot {clean} differs from a fresh evaluation$"):
        solver.solve(solver.max_cost)


def test_a_clean_pass_checks_the_bounds_it_skipped_on(monkeypatch):
    # a bound lowered below its slot's max after the last adjustment of a
    # step lets the clean pass skip the slot; only the clean-pass check sees it
    adjust_pass = BoundedSolver._adjust_pass

    def lowering(self, threshold, high, low):
        span = adjust_pass(self, threshold, high, low)
        if span == ():
            stale = [c for c in range(self.first, len(self.top)) if self.top[c] is None]
            for c in stale:
                self.bound[c] = -UNBOUNDED
        return span

    monkeypatch.setattr(BoundedSolver, "_adjust_pass", lowering)
    with pytest.raises(InvariantError, match="^held bound of slot [0-9]+ is below its max cost$"):
        pareto_bounded(gen_random(100, 1, "paper"), check=True)


# Mutants, each dropping one part of the bound rules; check mode must name
# a bound below its slot's max cost on some sweep of the corpus.


def _slots_that_gained(before, after):
    return [c for c, (old, new) in enumerate(zip(before, after)) if old and not set(new) <= set(old)]


class _RetimesWithoutTheRise(BoundedSolver):
    """A solver whose adjustments leave out the rise of every slot they
    move later."""

    def _adjust(self, r, i):
        completion, bound, first = self.completion[:], self.bound[:], self.first
        e = super()._adjust(r, i)
        if self.slope is not None and self.first == first:
            for c, (old, new) in enumerate(zip(completion, self.completion)):
                if new > old and self.bound[c] == bound[c] + self.slope * (new - old):
                    self.bound[c] = bound[c]
        return e


class _AdjustsWithoutTheFold(BoundedSolver):
    """A solver whose adjustments leave out the cost of each job entering
    a slot that held jobs already."""

    def _adjust(self, r, i):
        slots, completion, bound, first = [b[:] for b in self.slots], self.completion[:], self.bound[:], self.first
        e = super()._adjust(r, i)
        if self.slope is not None and self.first == first:
            for c in _slots_that_gained(slots, self.slots):
                self.bound[c] = bound[c] + self.slope * max(0, self.completion[c] - completion[c])
        return e


_open = BoundedSolver._open


def _open_without_the_rise(self, x):
    """An opening that shifts every slot right of x a setup later but keeps
    their bounds."""
    bound = self.bound[:]
    _open(self, x)
    self.bound[x + 1 :] = bound[x + 1 :]


def _caught(sweeps):
    """How many of the sweeps raise ``held bound of slot C is below its max
    cost``; any other InvariantError fails the test."""
    caught = 0
    for sweep in sweeps:
        try:
            sweep()
        except InvariantError as problem:
            assert str(problem).startswith("held bound of slot ") and str(problem).endswith(" is below its max cost")
            caught += 1
    return caught


def _bounded_sweeps(cls):
    return [lambda instance=instance: _sweep(cls.initial(instance, check=True)) for instance, _ in BOUNDED_CORPUS]


def test_the_real_rules_pass_every_check():
    assert _caught(_bounded_sweeps(BoundedSolver)) == 0


@pytest.mark.parametrize("cls", [_RetimesWithoutTheRise, _AdjustsWithoutTheFold], ids=["retime-rise", "fold"])
def test_check_mode_catches_a_rule_left_out(cls):
    assert _caught(_bounded_sweeps(cls)) > 0


def test_check_mode_catches_an_opening_without_the_rise(monkeypatch):
    monkeypatch.setattr(BoundedSolver, "_open", _open_without_the_rise)
    assert _caught(_bounded_sweeps(BoundedSolver)) > 0
