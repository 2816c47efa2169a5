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
room, that retimes slots e..i-1 as it passes them.  Slots i..n keep their
completion times, except that all of them shift by one setup when the
carry opens a new batch in an empty slot e.  Every slot is a list in
ascending ``Instance.keys`` order.  The carry reads a full slot's
shortest job as its first entry and inserts the job it carries by
bisection; the hoist scan stops in each slot at the first candidate from
the long end.  Each slot also holds a limit reach, an upper bound on its
jobs' highest limit, so the scan passes a slot that cannot hold a
candidate without walking it.

The solver also holds the max cost of each slot it has evaluated, and an
adjustment marks only the slots it changed (e..i, or e..n after an
opening) for re-evaluation.  A threshold pass therefore evaluates a slot's
jobs only when that slot changed since it was last judged, and the max
cost of a converged schedule is read from the held values.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Callable

from .admissible import AdmissibleSlots
from .model import Instance, InvariantError, Schedule, batch_times, eval_cost, freeze_slots, objectives, timetable

Trace = Callable[[str], None]

# Threshold value meaning "no cost cap"; compares exactly against any int.
UNBOUNDED = float("inf")


def form_batches(instance: Instance, limits: AdmissibleSlots) -> list[list[int]] | None:
    """Greedy right-to-left batch fill.

    Working from slot n down to slot 1, each slot takes the longest
    still-unassigned jobs admissible there (limit >= slot index), up to the
    capacity.  Returns 1-based slot lists (index 0 unused), each in
    ascending ``Instance.keys`` order, or None when some slot comes out
    empty while lower groups still hold jobs.

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
    slots: list[list[int]] = [[] for _ in range(n + 1)]
    pool: list[tuple[int, int]] = []  # (-p, id): pops give largest (p, -id) first
    assigned = 0
    groups = limits.groups()
    for i in range(n, 0, -1):
        for j in groups[i]:
            heapq.heappush(pool, (-p[j], j))
        take = min(cap, len(pool))
        batch = slots[i] = [heapq.heappop(pool)[1] for _ in range(take)]
        batch.reverse()  # popped in descending key order
        if not batch and assigned < n:
            return None  # empty slot with jobs still due further left
        assigned += take
    if pool:
        return None  # prefix groups exceed prefix capacity
    return slots


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
        completion = batch_times(slots, instance)
        moved = False
        for i in range(n, 0, -1):
            for j in reversed(slots[i]):
                cost = instance.job(j).cost
                if eval_cost(cost, completion[i]) < threshold:
                    continue
                target = tolerated_slot(cost.value, completion, i, threshold)
                if target == 0:
                    return None
                lim.move(j, target)
                moved = True
        if not moved:
            return timetable(slots[1:], instance)
        if not lim.prefix_capacity_ok(cap):
            return None


class BoundedSolver:
    """Warm-startable minimum-makespan solver for one bounded instance.

    Holds the admissibility limits and the standing schedule together, with
    the completion times kept current in place.  ``solve`` may be called
    repeatedly with strictly smaller thresholds; every call continues from
    the adjusted state the previous one left behind.  After an infeasible
    result the state is spent and the solver must not be reused.

    An adjustment that expels a job from slot i works on slots e..i only,
    e being the rightmost slot left of i with room: a hoist scan, then a
    carry walk over those slots that retimes each slot it passes.  Slots
    i..n keep their times unless the carry opens a new batch in an empty
    slot e, which shifts all of them by one setup.  ``slots[c]`` is a list
    in ascending key order: the hoist scan walks each slot from its
    longest job down and stops at the first candidate, and the carry
    swaps a slot's first (shortest) job for the carried one, inserted in
    order.

    ``reach[c]`` is an upper bound on the highest limit among slot c's
    jobs (0 for an empty slot), exact when the solver is built.  It is
    raised wherever a job enters a slot (the hoist into i, each carry swap
    and the carry's landing in e) and set to the exact maximum when the
    hoist scan walks a slot in full without finding a candidate.  Limits
    only fall, so a job leaving a slot needs no bookkeeping.  The scan
    passes slot c without walking it when ``reach[c]`` is below i.

    ``top[i]`` holds the max cost of slot i's jobs at its current
    completion, or None when the slot changed since it was last evaluated
    (every slot starts that way).  An adjustment sets e..i to None, e..n
    when it opened a batch; a pass evaluates a None slot when it reaches
    it and skips the slot outright when the held max is below the
    threshold.  Thresholds only shrink, so a new step's first pass reuses
    every held value.  After a clean pass every nonempty slot's entry is
    current, and ``max_cost`` is the max cost of the returned schedule.

    With ``check=True`` the solver verifies its own invariants after every
    adjustment and raises InvariantError on a breach: the hoisted job came
    from the rightmost slot with room, the carry's slot is within capacity,
    the incrementally kept completion times equal a full retime, no
    completion moved earlier, every held slot max equals a fresh
    evaluation, no slot holds a limit above its reach, and the standing
    schedule equals the greedy rebuild of the current limits, slot order
    included.  That costs O(n log n) per adjustment and is meant for the
    verification harness.  Every snapshot it returns is also checked
    against a ``timetable`` of its own slots, and ``max_cost`` against
    ``objectives``.
    """

    def __init__(
        self,
        instance: Instance,
        limits: AdmissibleSlots,
        slots: list[list[int]],
        trace: Trace | None = None,
        check: bool = False,
    ):
        self.instance = instance
        self.limits = limits
        self.slots = slots
        self.completion = batch_times(slots, instance)
        self.top: list[int | None] = [None] * len(slots)
        limit = limits.table
        self.reach = [max(map(limit.__getitem__, batch), default=0) for batch in slots]
        self.max_cost: int | None = None
        self.trace = trace
        self.check = check
        self.adjustments = 0
        self.passes = 0

    @classmethod
    def initial(cls, instance: Instance, trace: Trace | None = None, check: bool = False):
        """Solver over unrestricted limits; the greedy fill never fails there."""
        limits = AdmissibleSlots.unrestricted(instance)
        slots = form_batches(instance, limits)
        if slots is None:
            raise InvariantError("the greedy fill failed on unrestricted limits")
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
                # a clean pass left every nonempty slot's entry current, so
                # the stale entries are exactly slot 0 and the empty prefix
                top = self.top
                self.max_cost = max(top[top.count(None) :])
                snapshot = self.schedule()
                if self.check and self.max_cost != objectives(snapshot, self.instance)[1]:
                    raise InvariantError("held max cost differs from objectives")
                return snapshot

    def schedule(self) -> Schedule:
        """The standing schedule as an immutable snapshot of the held slots
        and completions; its start times are derived by ``Schedule``."""
        snapshot = Schedule(freeze_slots(self.slots[1:]), tuple(self.completion[1:]), self.instance.setup)
        if self.check and snapshot != timetable(self.slots[1:], self.instance):
            raise InvariantError("snapshot differs from a timetable of its slots")
        return snapshot

    def _adjust_pass(self, threshold) -> bool | None:
        """One descending sweep over the nonempty slots.

        Returns True if any job was relocated, False for a clean sweep, and
        None when the threshold is unattainable.  Times are refreshed after
        every adjustment, so jobs later in the sweep are judged against
        current completions; a job hoisted into an already-swept slot is
        caught by the next sweep.  Empty slots form a prefix, so the sweep
        ends at the first one.  A slot's jobs are evaluated only when its
        held max is stale, and walked longest first (over a reversed copy
        of the key-ordered slot) only when that max reaches the threshold.
        """
        changed = False
        slots = self.slots
        completion = self.completion  # updated in place by _adjust
        top = self.top  # marked stale in place by _adjust
        value = self.instance.cost_value
        for i in range(self.instance.n, 0, -1):
            batch = slots[i]
            if not batch:
                break
            worst = top[i]
            if worst is None:
                at = completion[i]
                worst = top[i] = max([value[j](at) for j in batch])
            if worst < threshold:
                continue  # a clean slot needs no walk
            for j in batch[::-1]:
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
        until the rightmost non-full batch e absorbs the carry.  The scan
        for the hoist skips every slot whose reach is below i, and raises
        the reach of every slot a job enters.
        """
        instance = self.instance
        slots = self.slots
        completion = self.completion
        p = instance.p
        keys = instance.keys
        by_key = keys.__getitem__
        limit = self.limits.table
        cap = instance.effective_capacity
        self.limits.move(j, i - 1)
        slots[i].remove(j)
        self.adjustments += 1

        # The greedy fill passed over each candidate (a job left of i still
        # admissible at i) in favour of larger jobs at every slot between it
        # and i, so those slots are full and candidates shrink from right to
        # left.  Scanning down from i - 1, the first slot holding a
        # candidate holds the best one, and no candidate lies left of the
        # first slot with room, which is e, where the carry ends.  A slot
        # is walked from its longest job down, so the first candidate met
        # is the slot's largest; a slot whose reach is below i holds no
        # candidate and is not walked at all.
        hoist = None
        e = 0
        reach = self.reach
        for c in range(i - 1, 0, -1):
            batch = slots[c]
            if reach[c] >= i:
                for x in reversed(batch):
                    if limit[x] >= i:
                        hoist = x
                        break
                else:
                    reach[c] = max(map(limit.__getitem__, batch))  # walked in full: now exact
            if hoist is not None or len(batch) < cap:
                e = c
                break

        opened = not slots[e]  # the carry opens a batch in e (never in case 2: e holds the hoist)
        if hoist is not None:
            slots[e].remove(hoist)
            insort(slots[i], hoist, key=by_key)
            if limit[hoist] > reach[i]:
                reach[i] = limit[hoist]
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

        # Jobs change slots only within e..i, so slot c in e..i-1 completes
        # later by the time of the job carried into it, less that of the
        # hoist, which crossed it going right, plus one setup if e opened.
        # Slot i stays nonempty, so completions from i on move only then.
        before = completion[:] if self.check else None
        setup = instance.setup
        shift = (setup if opened else 0) - (p[hoist] if hoist is not None else 0)
        carry = j
        for c in range(i - 1, e, -1):
            completion[c] += shift + p[carry]
            batch = slots[c]
            shortest = batch[0]
            if keys[carry] > keys[shortest]:
                del batch[0]
                insort(batch, carry, key=by_key)
                if limit[carry] > reach[c]:
                    reach[c] = limit[carry]
                carry = shortest
            # else the carry is the shortest itself: batch unchanged, keep carrying
        completion[e] += shift + p[carry]
        insort(slots[e], carry, key=by_key)
        if limit[carry] > reach[e]:
            reach[e] = limit[carry]
        if opened:
            for c in range(i, instance.n + 1):
                completion[c] += setup
        stale = instance.n + 1 if opened else i + 1  # held maxima of e..i, or e..n, are now out of date
        self.top[e:stale] = [None] * (stale - e)
        if self.check:
            self._check_state(e, before)
        return True

    def _check_state(self, e: int, before: list[int]) -> None:
        """Check mode: the state after an adjustment whose carry ended in
        slot e, against the completion times it started from."""
        instance = self.instance
        if len(self.slots[e]) > instance.effective_capacity:
            raise InvariantError(f"slot {e} exceeds capacity")
        full = batch_times(self.slots, instance)
        if full != self.completion:
            raise InvariantError("incrementally retimed completions differ from a full retime")
        if any(now < then for now, then in zip(self.completion, before)):
            raise InvariantError("a batch completion moved earlier")
        value = instance.cost_value
        for c, worst in enumerate(self.top):
            fresh = max([value[j](self.completion[c]) for j in self.slots[c]], default=None)
            if worst is not None and worst != fresh:
                raise InvariantError(f"held max cost of slot {c} differs from a fresh evaluation")
        limit = self.limits.table
        for c, batch in enumerate(self.slots):
            if batch and max(map(limit.__getitem__, batch)) > self.reach[c]:
                raise InvariantError(f"slot {c} holds a limit above its reach")
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
