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

One repair (an adjustment) expels a job from slot i and is local: a hoist
and carry walk over slots e..i, e being the rightmost slot left of i with
room, then a retime of slots e..i-1 from the per-slot loads.  Slots i..n
keep their completion times, except that all of them shift by one setup
when the carry opens a new batch in an empty slot e.
"""

from __future__ import annotations

import heapq
from typing import Callable

from .admissible import AdmissibleSlots
from .model import Instance, InvariantError, Schedule, eval_cost, timetable

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
    p = instance.p
    slots: list[set[int]] = [set() for _ in range(n + 1)]
    pool: list[tuple[int, int]] = []  # (-p, id): pops give largest (p, -id) first
    assigned = 0
    for i in range(n, 0, -1):
        for j in limits.members(i):
            heapq.heappush(pool, (-p[j], j))
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
    p = instance.p
    start = [0] * (n + 1)
    completion = [0] * (n + 1)
    t = 0
    for i in range(1, n + 1):
        if slots[i]:
            start[i] = t + instance.setup
            t = start[i] + sum(p[j] for j in slots[i])
        else:
            start[i] = t
        completion[i] = t
    return start, completion


def _snapshot(slots: list[set[int]], instance: Instance) -> Schedule:
    return timetable(slots[1:], instance)


def tolerated_slot(value: Callable[[int], int], completion: list[int], i: int, threshold) -> int:
    """Rightmost slot below i whose completion the cost function ``value``
    tolerates (strictly below the threshold), or 0 when none does.

    Completion times never decrease with the slot index, so the first
    tolerable slot scanning downward is the rightmost one.
    """
    for k in range(i - 1, 0, -1):
        if value(completion[k]) < threshold:
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
                target = tolerated_slot(cost.value, completion, i, threshold)
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

    Holds the admissibility limits and the standing schedule together, with
    the per-slot loads (``load[i]``, the processing time in slot i) and
    completion times kept current in place.  ``solve`` may be called
    repeatedly with strictly smaller thresholds; every call continues from
    the adjusted state the previous one left behind.  After an infeasible
    result the state is spent and the solver must not be reused.

    An adjustment that expels a job from slot i works on slots e..i only,
    e being the rightmost slot left of i with room: a hoist scan and a
    carry walk over those slots, then a retime of slots e..i-1 from their
    loads.  Slots i..n keep their times unless the carry opens a new batch
    in an empty slot e, which shifts all of them by one setup.

    With ``check=True`` the solver verifies its own invariants after every
    adjustment and raises InvariantError on a breach: the hoisted job came
    from the rightmost slot with room, the carry's slot is within capacity,
    the incrementally kept completion times equal a full retime, no
    completion moved earlier, and the standing schedule equals the greedy
    rebuild of the current limits.  That costs O(n log n) per adjustment and
    is meant for the verification harness.
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
        p = instance.p
        self.load = [sum(p[j] for j in batch) for batch in slots]
        _, self.completion = batch_times(slots, instance)
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
        """One descending sweep over the nonempty slots.

        Returns True if any job was relocated, False for a clean sweep, and
        None when the threshold is unattainable.  Times are refreshed after
        every adjustment, so jobs later in the sweep are judged against
        current completions; a job hoisted into an already-swept slot is
        caught by the next sweep.  Empty slots form a prefix, so the sweep
        ends at the first one.
        """
        changed = False
        slots = self.slots
        completion = self.completion  # updated in place by _adjust
        value = self.instance.cost_value
        by_key = self.instance.keys.__getitem__
        for i in range(self.instance.n, 0, -1):
            batch = slots[i]
            if not batch:
                break
            at = completion[i]
            for j in batch:
                if value[j](at) >= threshold:
                    break
            else:
                continue  # a clean slot needs no ordering
            for j in sorted(batch, key=by_key, reverse=True):
                if value[j](completion[i]) < threshold:
                    continue
                if i == 1:
                    return None  # nothing further left exists
                if not self._adjust(j, i):
                    return None
                changed = True
        return changed

    def _adjust(self, j: int, i: int) -> bool:
        """Expel job j from slot i and repair the schedule; False = infeasible.

        The job's limit drops one group.  The repair reproduces what the
        greedy fill would now build: if some earlier-slot job is still
        admissible at slot i, the largest such job is hoisted in to replace
        j; either way j is pushed leftward through the (necessarily full)
        intervening batches, each handing its shortest job further left,
        until the rightmost non-full batch e absorbs the carry.
        """
        instance = self.instance
        slots = self.slots
        load = self.load
        completion = self.completion
        p = instance.p
        keys = instance.keys
        limit = self.limits.table
        cap = instance.effective_capacity
        self.limits.move(j, i - 1)
        slots[i].discard(j)
        load[i] -= p[j]
        self.adjustments += 1

        # The greedy fill passed over each candidate (a job left of i still
        # admissible at i) in favour of larger jobs at every slot between it
        # and i, so those slots are full and candidates shrink from right to
        # left.  Scanning down from i - 1, the first slot holding a
        # candidate holds the best one, and no candidate lies left of the
        # first slot with room, which is e, where the carry ends.
        hoist = None
        e = 0
        for c in range(i - 1, 0, -1):
            batch = slots[c]
            for x in batch:
                if limit[x] >= i and (hoist is None or keys[x] > keys[hoist]):
                    hoist = x
            if hoist is not None or len(batch) < cap:
                e = c
                break

        opened = not slots[e]  # the carry opens a batch in e (never in case 2: e holds the hoist)
        if hoist is not None:
            slots[e].remove(hoist)
            slots[i].add(hoist)
            load[e] -= p[hoist]
            load[i] += p[hoist]
            case = 2
            if self.check and self._last_nonfull(i) != e:
                raise InvariantError("hoisted job's slot is not the rightmost non-full")
        else:
            if not slots[i]:
                return False  # slot emptied while jobs remain further left
            if e == 0:
                return False  # every earlier slot is full
            case = 1

        if self.trace:
            self.trace(f"move job={j} from={i} to={i - 1} case={case}")

        carry = j
        for c in range(i - 1, e, -1):
            batch = slots[c]
            shortest = min(batch, key=keys.__getitem__)
            if keys[carry] > keys[shortest]:
                batch.remove(shortest)
                batch.add(carry)
                load[c] += p[carry] - p[shortest]
                carry = shortest
            # else the carry is the shortest itself: batch unchanged, keep carrying
        slots[e].add(carry)
        load[e] += p[carry]

        # Jobs changed slots only within e..i and slot i stays nonempty, so
        # completions from i on move only if slot e was empty before.
        before = completion[:] if self.check else None
        setup = instance.setup
        t = completion[e - 1]
        for c in range(e, i):
            t += setup + load[c]
            completion[c] = t
        if opened:
            for c in range(i, instance.n + 1):
                completion[c] += setup
        if self.check:
            self._check_state(e, before)
        return True

    def _check_state(self, e: int, before: list[int]) -> None:
        """Check mode: the state after an adjustment whose carry ended in
        slot e, against the completion times it started from."""
        instance = self.instance
        if len(self.slots[e]) > instance.effective_capacity:
            raise InvariantError(f"slot {e} exceeds capacity")
        _, full = batch_times(self.slots, instance)
        if full != self.completion:
            raise InvariantError("incrementally retimed completions differ from a full retime")
        if any(now < then for now, then in zip(self.completion, before)):
            raise InvariantError("a batch completion moved earlier")
        rebuilt = form_batches(instance, self.limits)
        if rebuilt is None or rebuilt != self.slots:
            raise InvariantError("standing schedule diverged from rebuild")

    def _last_nonfull(self, i: int) -> int | None:
        """Largest slot index < i with room left, or None."""
        cap = self.instance.effective_capacity
        for e in range(i - 1, 0, -1):
            if len(self.slots[e]) < cap:
                return e
        return None
