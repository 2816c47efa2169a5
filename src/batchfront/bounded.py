"""Minimum-makespan batch assembly under admissibility limits and a cost cap.

Both entry points answer the same question: among all schedules whose jobs
respect the given per-job slot limits and whose every cost stays strictly
below a threshold, find one with minimum makespan (equivalently, the fewest
nonempty batches), or report that none exists.

``solve_reference`` rebuilds the batches from scratch every round - simple
and obviously correct, but it repeats work.  ``BoundedSolver`` instead keeps
one standing schedule and repairs it in place after each limit change; the
standing schedule is maintained to be exactly what ``form_batches`` would
build from the current limits, which is what lets a frontier sweep reuse
all prior work as the cost cap shrinks.
"""

from __future__ import annotations

import heapq
from typing import Callable

from .admissible import AdmissibleSlots
from .model import CostSpec, Instance, Schedule, eval_cost, timetable

Trace = Callable[[str], None]

# Threshold value meaning "no cost cap"; compares exactly against any int.
UNBOUNDED = float("inf")


def form_batches(instance: Instance, limits: AdmissibleSlots) -> list[set[int]] | None:
    """Greedy right-to-left batch fill.

    Working from slot n down to slot 1, each slot takes the longest
    still-unassigned jobs admissible there (limit >= slot index), up to the
    capacity.  Returns 1-based slot sets (index 0 unused), or None when some
    slot comes out empty while lower groups still hold jobs.

    For limit states the solvers produce (a group index records the last
    slot whose completion the job tolerated when it moved), None means no
    schedule satisfies the limits at all, and a returned schedule has the
    fewest nonempty batches and, slot for slot, the earliest start and
    completion times among all satisfying schedules.  Hand-crafted limit
    states outside that family can trip the empty-slot rule even when
    scattered satisfying schedules exist; solver runs never produce them.
    """
    n = instance.n
    cap = instance.effective_capacity
    slots: list[set[int]] = [set() for _ in range(n + 1)]
    pool: list[tuple[int, int]] = []  # (-p, id): pops give largest (p, -id) first
    assigned = 0
    for i in range(n, 0, -1):
        for j in limits.members(i):
            heapq.heappush(pool, (-instance.job(j).p, j))
        take = min(cap, len(pool))
        for _ in range(take):
            slots[i].add(heapq.heappop(pool)[1])
        if not slots[i] and assigned < n:
            return None  # empty slot with jobs still due further left
        assigned += take
    if pool:
        return None  # prefix groups exceed prefix capacity
    return slots


def batch_times(slots: list[set[int]], instance: Instance) -> tuple[list[int], list[int]]:
    """No-idle start/completion times for 1-based slot sets."""
    n = instance.n
    start = [0] * (n + 1)
    completion = [0] * (n + 1)
    t = 0
    for i in range(1, n + 1):
        if slots[i]:
            start[i] = t + instance.setup
            t = start[i] + sum(instance.job(j).p for j in slots[i])
        else:
            start[i] = t
        completion[i] = t
    return start, completion


def _snapshot(slots: list[set[int]], instance: Instance) -> Schedule:
    return timetable(slots[1:], instance)


def tolerated_slot(cost: CostSpec, completion: list[int], i: int, threshold) -> int:
    """Rightmost slot below i whose completion the cost tolerates (strictly
    below the threshold), or 0 when none does.

    Completion times never decrease with the slot index, so the first
    tolerable slot scanning downward is the rightmost one.
    """
    for k in range(i - 1, 0, -1):
        if eval_cost(cost, completion[k]) < threshold:
            return k
    return 0


def solve_reference(instance: Instance, limits: AdmissibleSlots, threshold) -> Schedule | None:
    """Reference solver: rebuild, sweep, repeat until clean.

    Each round re-forms the batches from the current limits, timetables
    them, then sweeps slots n..1; every job whose cost at its completion is
    not strictly below the threshold is sent directly to the rightmost slot
    whose completion it tolerates.  Returns None when a job tolerates no
    slot or the limits outgrow the prefix capacity.  Works in place on
    ``limits``; pass a copy to keep the original.
    """
    lim = limits
    n = instance.n
    cap = instance.effective_capacity
    while True:
        slots = form_batches(instance, lim)
        if slots is None:
            return None
        _, completion = batch_times(slots, instance)
        moved = False
        for i in range(n, 0, -1):
            for j in sorted(slots[i], key=instance.sort_key, reverse=True):
                cost = instance.job(j).cost
                if eval_cost(cost, completion[i]) < threshold:
                    continue
                target = tolerated_slot(cost, completion, i, threshold)
                if target == 0:
                    return None
                lim.move(j, target)
                moved = True
        if not moved:
            return _snapshot(slots, instance)
        if not lim.prefix_capacity_ok(cap):
            return None


class BoundedSolver:
    """Warm-startable minimum-makespan solver for one bounded instance.

    Holds the admissibility limits and the standing schedule together.
    ``solve`` may be called repeatedly with strictly smaller thresholds;
    every call continues from the adjusted state the previous one left
    behind.  After an infeasible result the state is spent and the solver
    must not be reused.

    With ``check=True`` the solver verifies its own invariants after every
    adjustment (standing schedule equals the greedy rebuild of the current
    limits; per-slot completion times never decrease).  That costs O(n) to
    O(n log n) per adjustment and is meant for the verification harness.
    """

    def __init__(
        self,
        instance: Instance,
        limits: AdmissibleSlots,
        slots: list[set[int]],
        trace: Trace | None = None,
        check: bool = False,
    ):
        self.instance = instance
        self.limits = limits
        self.slots = slots
        self.start, self.completion = batch_times(slots, instance)
        self.trace = trace
        self.check = check
        self.adjustments = 0
        self.passes = 0

    @classmethod
    def initial(cls, instance: Instance, trace: Trace | None = None, check: bool = False):
        """Solver over unrestricted limits; the greedy fill never fails there."""
        limits = AdmissibleSlots.unrestricted(instance)
        slots = form_batches(instance, limits)
        assert slots is not None
        return cls(instance, limits, slots, trace, check)

    def solve(self, threshold) -> Schedule | None:
        """Minimum-makespan schedule with every cost strictly below the
        threshold, or None when the current limits admit none."""
        while True:
            self.passes += 1
            outcome = self._adjust_pass(threshold)
            if outcome is None:
                return None
            if not outcome:
                return _snapshot(self.slots, self.instance)

    def schedule(self) -> Schedule:
        """The standing schedule as an immutable snapshot."""
        return _snapshot(self.slots, self.instance)

    def _adjust_pass(self, threshold) -> bool | None:
        """One descending sweep over all slots.

        Returns True if any job was relocated, False for a clean sweep, and
        None when the threshold is unattainable.  Times are refreshed after
        every adjustment, so jobs later in the sweep are judged against
        current completions; a job hoisted into an already-swept slot is
        caught by the next sweep.
        """
        changed = False
        n = self.instance.n
        for i in range(n, 0, -1):
            for j in sorted(self.slots[i], key=self.instance.sort_key, reverse=True):
                if eval_cost(self.instance.job(j).cost, self.completion[i]) < threshold:
                    continue
                if i == 1:
                    return None  # nothing further left exists
                if not self._adjust(j, i):
                    return None
                changed = True
        return changed

    def _adjust(self, j: int, i: int) -> bool:
        """Expel job j from slot i and repair the schedule; False = infeasible.

        The job's limit drops one group.  The repair reproduces, in O(n),
        what the greedy fill would now build: if some earlier-slot job is
        still admissible at slot i, the largest such job is hoisted in to
        replace j; either way j is pushed leftward through the (necessarily
        full) intervening batches, each handing its shortest job further
        left, until the rightmost non-full batch absorbs the carry.
        """
        instance = self.instance
        slots = self.slots
        cap = instance.effective_capacity
        key_of = instance.sort_key
        self.limits.move(j, i - 1)
        slots[i].discard(j)
        self.adjustments += 1

        hoist = None  # (key, job, slot) of the best earlier-slot job admissible at i
        for e in range(1, i):
            for j2 in slots[e]:
                if self.limits.limit(j2) >= i:
                    key = key_of(j2)
                    if hoist is None or key > hoist[0]:
                        hoist = (key, j2, e)

        if hoist is not None:
            _, x, e = hoist
            slots[e].remove(x)
            slots[i].add(x)
            case = 2
            if self.check:
                assert self._last_nonfull(i) == e, "hoisted job's slot is not the rightmost non-full"
        else:
            if not slots[i]:
                return False  # slot emptied while jobs remain further left
            e = self._last_nonfull(i)
            if e is None:
                return False  # every earlier slot is full
            case = 1

        if self.trace:
            self.trace(f"move job={j} from={i} to={i - 1} case={case}")

        carry = j
        for c in range(i - 1, e, -1):
            shortest = min(slots[c], key=key_of)
            if key_of(carry) > key_of(shortest):
                slots[c].add(carry)
                slots[c].remove(shortest)
                carry = shortest
            # else the carry is the shortest itself: batch unchanged, keep carrying
        slots[e].add(carry)
        assert len(slots[e]) <= cap

        old_completion = self.completion
        self.start, self.completion = batch_times(slots, instance)
        if self.check:
            assert all(
                self.completion[g] >= old_completion[g] for g in range(1, instance.n + 1)
            ), "a batch completion moved earlier"
            rebuilt = form_batches(instance, self.limits)
            assert rebuilt is not None and rebuilt == slots, "standing schedule diverged from rebuild"
        return True

    def _last_nonfull(self, i: int) -> int | None:
        """Largest slot index < i with room left, or None."""
        cap = self.instance.effective_capacity
        for e in range(i - 1, 0, -1):
            if len(self.slots[e]) < cap:
                return e
        return None
