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
completion times, except when the carry opens a new batch in an empty
slot e: then ``WarmSolver._open`` shifts every slot from e on by one
setup.  Every slot is a list in ascending ``Instance.keys`` order, and
the keys are integer ranks: a job enters a slot by bisection and leaves it
by a deletion at the bisection point of its key, never by a linear search.
The carry reads a full slot's shortest job as its first entry and compares
two ints to decide a swap; the hoist scan stops in each slot at the first
candidate from the long end.  Each slot also holds a limit reach, an upper
bound on its jobs' highest limit, so the scan passes a slot that cannot
hold a candidate without walking it.  The solver computes the reach of
the nonempty slots only, when it is built; an empty slot's reach is 0.

The solver also holds the max cost of each slot it has evaluated, and a
held max goes stale only when an adjustment changed its slot's members or
completion: slots i and e, each carry slot where a swap happens or whose
completion moves, and every slot from e on after an opening.  A carry
slot keeps its jobs and its time when the carried job is as long as the
hoist, which on narrow batches is most of them.  Below the maxima it holds
each job's cost at its slot's completion, current in every slot marked
timed, and only a moved completion clears that mark: a carry slot or e
whose time changed, and every slot from e on after an opening.  A job is
evaluated when it enters a timed slot or when a pass refreshes the max of
an untimed one, and never again while both hold; a stale max of a timed
slot, and the walk of a costly one, read the held costs.  The max cost of
a converged schedule is read from the held maxima from the lowest
nonempty slot on.  ``WarmSolver`` holds what this solver shares with the
precedence one: the held slots, completions, job costs and maxima, the
lowest nonempty slot, a frozen copy of each slot, the opening rule, the
converged step and the held-state checks.  An adjustment marks for
refreezing only the slots whose members it changed: i (j leaves, the
hoist enters), each carry slot where a swap happens, and e (the hoist
leaves, the carry lands).  An opening shifts times, not members, and
marks nothing.

A pass walks only a span of slots, outside which every slot is clean.  An
adjustment at i marks slots at or below i, down to e, so the pass lowers
its stop to e and walks them before it ends; what it leaves stale is the
slots it adjusted, and the next pass walks from the first of them down to
the last.  An opening also shifts every slot right of i, and then the
next pass starts from n.  A converged step holds every slot below its max
cost, so the next step, whose threshold is that max, starts on the span
from the highest to the lowest slot holding it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
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
    capacity.  The unassigned jobs are one list in ascending
    ``Instance.keys`` order: each nonempty group is appended and the list
    re-sorted, which merges two ascending runs, and slot i takes the list's
    last ``cap`` entries.  The fill stops at the first empty slot once every
    job is placed, leaving the slots left of it empty.  Returns 1-based slot
    lists (index 0 unused), each in ascending key order, or None when some
    slot comes out empty while lower groups still hold jobs, the only way
    the fill fails: a nonempty slot takes at least one job, so n nonempty
    slots place all n jobs and no pool is left over.

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
    by_key = instance.keys.__getitem__
    slots: list[list[int]] = [[] for _ in range(n + 1)]
    pool: list[int] = []  # the unassigned jobs, in ascending key order
    assigned = 0
    groups = limits.groups()
    for i in range(n, 0, -1):
        group = groups[i]
        if group:
            pool += group
            pool.sort(key=by_key)
        batch = slots[i] = pool[-cap:]
        if not batch:
            if assigned < n:
                return None  # empty slot with jobs still due further left
            break  # every job is placed, and the slots left of i stay empty
        del pool[-cap:]
        assigned += len(batch)
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
    slot or the greedy fill fails, as it does once a prefix of groups
    outgrows its slots.  Works in place on ``limits``; pass a copy to keep
    the original.
    """
    lim = limits
    n = instance.n
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


class WarmSolver:
    """The held state and the converged step that both warm sweeps share.

    ``slots[i]`` is slot i's jobs as a list in ascending ``Instance.keys``
    order, ``completion[i]`` its batch's completion time and ``top[i]`` the
    max cost of its jobs at that time, or None when the slot changed since
    it was last evaluated (every slot starts that way).  ``cost[j]`` is job
    j's cost at its slot's completion, current for every member of a slot
    whose ``timed`` flag is set; a current max implies a timed slot.  A
    subclass clears ``timed[c]`` (and ``top[c]``) wherever slot c's
    completion moves, evaluates a job entering a timed slot into ``cost``,
    and needs nothing for a leaving job.  ``held_max`` refreshes a stale
    max, first evaluating the members of an untimed slot.  ``first`` is the
    lowest nonempty slot.  A subclass calls ``_open`` wherever a job opens
    an empty slot, which shifts every slot from there on by one setup,
    marks their held maxima stale and their job costs untimed, and lowers
    ``first``.  ``solve`` may be called repeatedly with strictly smaller
    thresholds, each call going on from the state the previous one left;
    after an infeasible result the state is spent.  A subclass computes
    the initial completions with its own module's ``batch_times`` and
    passes them in.

    ``frozen[i]`` is slot i's members as a frozenset, every empty slot
    being the shared ``model._EMPTY_SLOT``, and ``dirty`` the set of slots
    whose members changed since the last snapshot.  A subclass adds a slot
    to ``dirty`` wherever a job leaves or enters it; ``converged`` refreezes
    only those, so a snapshot costs one tuple copy plus the changed slots.
    """

    def __init__(
        self,
        instance: Instance,
        limits: AdmissibleSlots,
        slots: list[list[int]],
        completion: list[int],
        trace: Trace | None,
        check: bool,
    ):
        self.instance = instance
        self.limits = limits
        self.slots = slots
        self.completion = completion
        self.top: list[int | None] = [None] * len(slots)
        self.cost: list[int | None] = [None] * (instance.n + 1)  # by job id
        self.timed = [False] * len(slots)
        self.first = next(c for c in range(1, len(slots)) if slots[c])
        self.frozen = list(freeze_slots(slots))
        self.dirty: set[int] = set()
        self.max_cost: int | None = None
        self.trace = trace
        self.check = check
        self.adjustments = 0
        self.passes = 0

    def converged(self) -> Schedule:
        """After a clean pass: set ``max_cost`` from the held maxima, refreeze
        the dirty slots and return a snapshot of the frozen slots and held
        completions.  Check mode compares the snapshot with a ``timetable``
        of the held slots and ``max_cost`` with ``objectives``."""
        # a clean pass left every nonempty slot's entry current
        self.max_cost = max(self.top[self.first :])
        instance = self.instance
        slots = self.slots
        frozen = self.frozen
        # a step that empties a slot is infeasible, so a dirty slot holds
        # jobs and every empty slot keeps the shared empty set
        for c in self.dirty:
            frozen[c] = frozenset(slots[c])
        self.dirty.clear()
        snapshot = Schedule(tuple(frozen[1:]), tuple(self.completion[1:]), instance.setup)
        if self.check:
            if snapshot != timetable(slots[1:], instance):
                raise InvariantError("snapshot differs from a timetable of its slots")
            if self.max_cost != objectives(snapshot, instance)[1]:
                raise InvariantError("held max cost differs from objectives")
        return snapshot

    def held_max(self, c: int) -> int:
        """Refresh slot c's stale held max from its members' held costs,
        evaluating each member into ``cost`` first when the slot is not
        timed; returns the max."""
        batch = self.slots[c]
        cost = self.cost
        if not self.timed[c]:
            value = self.instance.cost_value
            at = self.completion[c]
            for j in batch:
                cost[j] = value[j](at)
            self.timed[c] = True
        worst = self.top[c] = max(map(cost.__getitem__, batch))
        return worst

    def _open(self, x: int) -> None:
        """A job opened the empty slot x: every slot from x on completes one
        setup later, its held max and its members' held costs go stale, and
        x becomes ``first``."""
        setup = self.instance.setup
        for c in range(x, len(self.completion)):
            self.completion[c] += setup
        stale = len(self.top) - x
        self.top[x:] = [None] * stale
        self.timed[x:] = [False] * stale
        self.first = x

    def check_held(self, before: list[int] | None) -> None:
        """Check mode: the held completions equal a ``batch_times`` of the
        held slots, none is earlier than in ``before`` (when given), every
        held max equals a fresh evaluation, every timed slot's held job
        costs do too, every slot with a current max is timed, and ``first``
        is the lowest nonempty slot."""
        instance = self.instance
        slots = self.slots
        completion = self.completion
        first = self.first
        if not slots[first] or any(slots[1:first]):
            raise InvariantError(f"held lowest nonempty slot {first} is wrong")
        if completion != batch_times(slots, instance):
            raise InvariantError("held completions differ from batch_times")
        if before is not None and any(map(int.__lt__, completion, before)):
            raise InvariantError("a batch completion moved earlier")
        value = instance.cost_value
        for i, worst in enumerate(self.top):
            if worst is not None and worst != max([value[j](completion[i]) for j in slots[i]], default=None):
                raise InvariantError(f"held max cost of slot {i} differs from a fresh evaluation")
        cost = self.cost
        for i, timed in enumerate(self.timed):
            if timed and any(cost[j] != value[j](completion[i]) for j in slots[i]):
                raise InvariantError(f"held job costs of slot {i} differ from a fresh evaluation")
            if not timed and self.top[i] is not None:
                raise InvariantError(f"slot {i} holds a current max but its job costs are not timed")


class BoundedSolver(WarmSolver):
    """Warm-startable minimum-makespan solver for one bounded instance.

    Holds the admissibility limits and the standing schedule together, with
    the completion times kept current in place.  The standing schedule
    starts as the greedy fill of the limits the solver is built on, and
    InvariantError is raised when that fill fails.

    An adjustment that expels a job from slot i works on slots e..i only,
    e being the rightmost slot left of i with room: a hoist scan, then a
    carry walk over those slots that retimes each slot it passes.  Slots
    i..n keep their times unless the carry opens a new batch in an empty
    slot e, and then ``_open(e)`` shifts every slot from e on by one setup.
    The hoist scan walks each slot from its longest job down and stops at
    the first candidate, and the carry swaps a slot's first (shortest) job
    for the carried one, inserted in order.

    ``reach[c]`` is an upper bound on the highest limit among slot c's
    jobs (0 for an empty slot), exact when the solver is built.  It is
    raised wherever a job enters a slot (the hoist into i, each carry swap
    and the carry's landing in e) and set to the exact maximum when the
    hoist scan walks a slot in full without finding a candidate.  Limits
    only fall, so a job leaving a slot needs no bookkeeping.  The scan
    passes slot c without walking it when ``reach[c]`` is below i.

    A held max goes stale only when the adjustment changed its slot's
    members or completion: i, e, each carry slot where a swap happens or
    whose completion moves (the carried job and the hoist differ in p), and
    every slot from e on when it opened a batch.  Held job costs go stale
    only with a moved completion: the adjustment untimes each carry slot
    and e whose time changed (``_open`` untimes every slot from e on), and
    evaluates once each job entering a slot that stays timed: the hoist in
    i, a swapped carry and the carry landing in e.  A pass refreshes a
    stale max when it reaches the slot, from the held costs when the slot
    is timed, and skips the slot outright when the held max is below the
    threshold.  Thresholds only shrink, so a new step's first pass reuses
    every held value.  It adds to ``dirty`` only i, e and the carry slots
    where a swap happens.

    A pass walks a span high..low, not every nonempty slot: ``_adjust``
    returns e, the pass lowers ``low`` to it, and hands the next pass the
    span from its first adjusted slot (n after an opening) down to its
    last.  ``due`` is the span a step to the last converged max cost starts
    on: from the highest down to the lowest slot holding that max.

    With ``check=True`` the solver verifies its own invariants after every
    adjustment and raises InvariantError on a breach: the hoisted job came
    from the rightmost slot with room, the carry's slot is within capacity,
    the held state passes ``check_held`` against the completions before the
    adjustment, no slot holds a limit above its reach, and the standing
    schedule equals the greedy rebuild of the current limits, slot order
    included.  That costs O(n log n) per adjustment and is meant for the
    verification harness.  After each clean pass it also checks that every
    nonempty slot, walked or not, holds a current max below the threshold.
    """

    def __init__(
        self,
        instance: Instance,
        limits: AdmissibleSlots,
        trace: Trace | None = None,
        check: bool = False,
    ):
        slots = form_batches(instance, limits)
        if slots is None:
            raise InvariantError("the greedy fill failed on the starting limits")
        super().__init__(instance, limits, slots, batch_times(slots, instance), trace, check)
        limit = limits.table
        first = self.first  # slots first..n hold jobs, and an empty slot's reach is 0
        self.reach = [0] * first + [max(map(limit.__getitem__, batch)) for batch in slots[first:]]
        self.due = (instance.n, self.first)

    @classmethod
    def initial(cls, instance: Instance, trace: Trace | None = None, check: bool = False):
        """Solver over unrestricted limits; the greedy fill never fails there."""
        return cls(instance, AdmissibleSlots.unrestricted(instance), trace, check)

    def solve(self, threshold) -> Schedule | None:
        """Minimum-makespan schedule with every cost strictly below the
        threshold, or None when the current limits admit none.

        A step to the last converged max cost starts on ``due``, the span
        from the highest down to the lowest slot holding that max: every
        other slot is clean and below it.  Any other threshold starts on
        ``first..n``."""
        span = self.due if threshold == self.max_cost else (self.instance.n, self.first)
        while True:
            self.passes += 1
            span = self._adjust_pass(threshold, *span)
            if span is None:
                return None
            if not span:
                if self.check:
                    self._check_clean(threshold)
                snapshot = self.converged()
                top, worst = self.top, self.max_cost
                self.due = (len(top) - 1 - top[::-1].index(worst), top.index(worst, self.first))
                return snapshot

    def _adjust_pass(self, threshold, high: int, low: int) -> tuple[int, int] | tuple[()] | None:
        """One descending sweep over slots high..low.

        Every slot outside the span must be clean: its held max current and
        below the threshold.  Returns None when the threshold is
        unattainable, an empty tuple when no job moved, and otherwise the
        span the next sweep must walk: from the first slot adjusted here
        (from n when an adjustment opened a batch, which shifts every slot
        right of it) down to the last one.  Each adjustment lowers ``low``
        to e, the slot where its carry ended, so the slots it marked below
        i are walked in this sweep.  Times are refreshed after every
        adjustment, so jobs later in the sweep are judged against current
        completions; a job hoisted into an already-swept slot is caught by
        the next sweep.  A slot's stale max is refreshed by ``held_max``,
        and the slot is walked longest first (over a reversed copy of the
        key-ordered slot) only when that max reaches the threshold.  The
        walk reads held costs, the slot being timed once its max is
        current, and evaluates live once an opening has untimed slot i.
        """
        slots = self.slots
        completion = self.completion  # updated in place by _adjust
        top = self.top  # marked stale in place by _adjust
        cost = self.cost  # refreshed in place by _adjust
        timed = self.timed  # cleared in place by _adjust
        value = self.instance.cost_value
        first = self.first  # lowered by an opening
        upper = lower = 0  # the first and the last slot adjusted
        i = high + 1
        while i > low:
            i -= 1
            worst = top[i]
            if worst is None:
                worst = self.held_max(i)
            if worst < threshold:
                continue  # a clean slot needs no walk
            for j in slots[i][::-1]:
                if timed[i]:
                    if cost[j] < threshold:
                        continue
                elif value[j](completion[i]) < threshold:
                    continue  # an opening retimed slot i mid-walk
                if i == 1:
                    return None  # nothing further left exists
                e = self._adjust(j, i)
                if not e:
                    return None
                if e < low:
                    low = e
                upper = upper or i
                lower = i
        if not lower:
            return ()
        return (self.instance.n if self.first < first else upper, lower)

    def _adjust(self, j: int, i: int) -> int:
        """Expel job j from slot i and repair the schedule; returns e, the
        slot where the carry ended, or 0 when the step is infeasible.

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
        batch = slots[i]
        del batch[bisect_left(batch, keys[j], key=by_key)]
        self.adjustments += 1
        refreeze = self.dirty.add
        refreeze(i)  # j leaves; the hoist, if any, enters
        top = self.top
        top[i] = None

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
            batch = slots[e]
            del batch[bisect_left(batch, keys[hoist], key=by_key)]
            insort(slots[i], hoist, key=by_key)
            if limit[hoist] > reach[i]:
                reach[i] = limit[hoist]
            case = 2
            if self.check and self._last_nonfull(i) != e:
                raise InvariantError("hoisted job's slot is not the rightmost non-full")
        else:
            if not slots[i]:
                return 0  # slot emptied while jobs remain further left
            if e == 0:
                return 0  # every earlier slot is full
            case = 1

        if self.trace:
            self.trace(f"move job={j} from={i} to={i - 1} case={case}")

        # Jobs change slots only within e..i, so slot c in e..i-1 completes
        # later by the time of the job carried into it, less that of the
        # hoist, which crossed it going right.  Slot i stays nonempty, so
        # completions from i on move only when e opened, and ``_open`` adds
        # that setup to every slot from e on.
        # A carry slot keeps its held max only when no swap happens and the
        # job carried into it is as long as the hoist, so its time holds.
        # Its members' held costs go stale only when its time moves; a job
        # entering a slot whose time holds is evaluated there once.
        before = completion[:] if self.check else None
        timed = self.timed
        cost = self.cost
        value = instance.cost_value
        shift = -p[hoist] if hoist is not None else 0
        carry = j
        for c in range(i - 1, e, -1):
            delta = shift + p[carry]
            batch = slots[c]
            shortest = batch[0]
            if keys[carry] > keys[shortest]:
                del batch[0]
                insort(batch, carry, key=by_key)
                if limit[carry] > reach[c]:
                    reach[c] = limit[carry]
                refreeze(c)
                top[c] = None
                if not delta and timed[c]:
                    cost[carry] = value[carry](completion[c])
                carry = shortest
            if delta:
                completion[c] += delta
                top[c] = None
                timed[c] = False
        delta = shift + p[carry]
        if delta:
            completion[e] += delta
            timed[e] = False
        insort(slots[e], carry, key=by_key)
        if limit[carry] > reach[e]:
            reach[e] = limit[carry]
        refreeze(e)  # the hoist, if any, leaves; the carry lands
        top[e] = None
        if opened:
            self._open(e)
        elif timed[e]:
            cost[carry] = value[carry](completion[e])
        if hoist is not None and timed[i]:
            cost[hoist] = value[hoist](completion[i])  # after the opening, which untimes i
        if self.check:
            self._check_state(e, before)
        return e

    def _check_clean(self, threshold) -> None:
        """Check mode: after a clean pass every nonempty slot's held max is
        current and below the threshold."""
        top = self.top
        for c in range(self.first, len(top)):
            if top[c] is None or top[c] >= threshold:
                raise InvariantError(f"clean pass left slot {c} due")

    def _check_state(self, e: int, before: list[int]) -> None:
        """Check mode: the state after an adjustment whose carry ended in
        slot e, against the completion times it started from."""
        instance = self.instance
        if len(self.slots[e]) > instance.effective_capacity:
            raise InvariantError(f"slot {e} exceeds capacity")
        self.check_held(before)
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
