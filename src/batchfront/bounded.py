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

One repair (an adjustment) expels a job from slot i and is local: one
walk down from i - 1 to e, the rightmost slot left of i with room or with
a job still admissible at i, finds the hoist and makes the carry's swaps
as it passes.  Between two swaps one job is carried, so the slots it
passed move in stretches by one delta each, and only a stretch that moves
is walked again, to retime it.  Slots i..n keep their completion times,
except when the carry opens a new batch in an empty slot e: then
``WarmSolver._open`` shifts every slot from e on by one setup.  The solver
works in rank space: a slot holds its jobs' ranks, their ``Instance.keys``,
as an ascending list of ints, so a job enters a slot by bisection and
leaves it by a deletion at its bisection point, both on plain ints, and
the solver's processing-time, cost-value and held-cost tables are indexed
by rank.  A rank becomes a job id only where the id leaves the solver: a
limit move or read, a trace line and check mode's comparisons with the
id-space functions.  The carry reads a full slot's shortest job as its
first entry and compares two ranks to decide a swap; the hoist scan stops
in each slot at the first candidate from the long end.  When the last
adjustment was at the same i and took its hoist from slot e, the walk
starts at e unless the carried job outranks the shortest job of a slot it
would pass, and a scan of a large slot e resumes below that hoist's rank.
Each slot also holds a limit reach, an upper bound on its jobs' highest
limit, so the scan passes a slot that cannot hold a candidate without
walking it.  The solver computes the reach of the nonempty slots only,
when it is built; an empty slot's reach is 0.

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
slot reads the held costs.  The walk of a costly slot keeps the max of
the held costs it reads and of the hoists it takes in, so the slot ends
its walk with a current max unless an opening moved it.

Beside each max the solver holds an upper bound on it, while its slots
hold more than ``SMALL_SLOT`` jobs on average and every cost states a
slope (``model``): a refresh sets the bound to the max, a slot that
completes d later raises it by the instance's largest slope times d (an
opening by slope times setup), a job entering a slot folds in its cost at
the slot's completion, one evaluation, and a job leaving changes nothing.
A pass skips a stale slot whose bound is below the threshold without
evaluating it: on the paper profile a slot that a one-job repair moved by
a few time units keeps its 160 jobs below the threshold nearly always.
The max cost of a converged schedule is the largest bound once the lowest
slot holding it is current.  ``WarmSolver`` holds what this solver shares
with the precedence one, which holds no bounds: the held slots,
completions, job costs and maxima, the lowest nonempty slot, the opening
rule, the converged step and the held-state checks.  A converged step
returns only its makespan: its schedule is ``form_batches`` of the limits
it left, which the frontier sweep rebuilds for the steps it keeps.

A pass walks only a span of slots, outside which every slot is clean.  An
adjustment at i marks slots at or below i, down to e, so the pass lowers
its stop to e and walks them before it ends; what it leaves stale is the
slots it adjusted, and the next pass walks from the first of them down to
the last.  An opening also shifts every slot right of i, and then the
next pass starts from n.  A converged step holds every slot below its max
cost, so the next step, whose threshold is that max, starts on the span
from the highest to the lowest slot whose bound is that max.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable

from .admissible import AdmissibleSlots
from .model import Instance, InvariantError, Schedule, batch_times, eval_cost, objectives, timetable

Trace = Callable[[str], None]

# Threshold value meaning "no cost cap"; compares exactly against any int.
UNBOUNDED = float("inf")

# The hoist scan resumes below the last hoist only in a slot of more than
# this many jobs; a smaller one is scanned in full.  By ``timeit`` on
# CPython 3.11, with every job above the last hoist a non-candidate, a
# resumed scan costs 270-320 ns at any slot size and a full one 170 ns
# plus about 20 ns per job it passes: 330 ns past 8 jobs of a 16-job slot,
# 530 ns past 15.  The two meet near 12-16 jobs when half the slot lies
# above the last hoist.  A job leaves a slot by a deletion at the
# bisection point of its rank whatever the slot's size.  Against
# ``list.remove`` of the slot's last job that costs 71 against 37 ns on a
# 2-job slot, 86 against 94 ns on an 8-job one and 136 against 1,525 ns on
# a 160-job one; the 35 ns it gives up on each of a hard-b2 instance's
# roughly 1,500 deletions is under 1% of its sweep.
#
# ``BoundedSolver`` also holds cost bounds only while its nonempty slots
# hold more than this many jobs on average.  A refresh of a small slot
# costs a call or two, about what keeping its bound costs.  Measured in
# process on CPython 3.11 on a shared 2-core host (best sweep times,
# alternating processes), holding bounds whenever every cost has a slope
# made geo n=400 at b=2 (slopes up to n^2) 16-25% slower, and holding them
# whenever the capacity exceeds this made staged n=400 (b = n - 1, but 2
# jobs a slot after its first openings) 19-25% slower; with the average
# rule both are within a few percent of not holding bounds at all.
SMALL_SLOT = 16


def form_batches(instance: Instance, limits: AdmissibleSlots) -> list[list[int]] | None:
    """Greedy right-to-left batch fill.

    Working from slot n down to slot 1, each slot takes the longest
    still-unassigned jobs admissible there (limit >= slot index), up to the
    capacity.  The unassigned jobs are one list in ascending
    ``Instance.keys`` order: an empty list takes the next group as it is,
    and a nonempty group is appended and the list re-sorted, which merges
    two ascending runs; slot i takes the list's last ``cap`` entries.  The
    fill stops at the first empty slot once every job is placed, leaving
    the slots left of it empty.  Returns 1-based slot lists (index 0
    unused), each in ascending key order, or None when some
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
        if not pool:
            pool = group
        elif group:
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


def lowest_nonempty(slots: list[list[int]]) -> int:
    """The lowest nonempty slot of 1-based slot lists whose nonempty slots
    are a suffix, as every fill and every held state is: a walk down from
    the last slot, which holds a job, to the first empty one."""
    c = len(slots) - 1
    while c > 1 and slots[c - 1]:
        c -= 1
    return c


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
    order, each job held as the subclass's entry for it: its rank in
    ``BoundedSolver``, its id in the precedence solver.  ``value[x]`` is
    the cost function of the job held as x, a table the subclass sets, and
    ``id_slots`` translates the held slots to job ids.  ``completion[i]``
    is slot i's completion time and ``top[i]`` the max cost of its jobs at
    that time, or None when the slot changed since it was last evaluated
    (every slot starts that way).  ``cost[x]`` is the cost of the job held
    as x at its slot's completion, current for every member of a slot whose
    ``timed`` flag is set; a current max implies a timed slot.  A subclass
    clears ``timed[c]`` (and ``top[c]``) wherever slot c's
    completion moves, evaluates a job entering a timed slot into ``cost``,
    and needs nothing for a leaving job.  ``held_max`` refreshes a stale max,
    evaluating the members of an untimed slot and taking their max in one
    loop.  ``first`` is the lowest nonempty slot, which the subclass finds
    and passes in.  A subclass calls ``_open`` wherever a job opens an
    empty slot, which shifts every slot from there on by one setup, marks
    their held maxima stale and their job costs untimed, and lowers
    ``first``.

    ``converged`` sets ``max_cost`` to what ``_max_cost`` returns, by
    default the largest held max, which a clean pass left current.

    ``solve`` may be called repeatedly with strictly smaller thresholds,
    each call going on from the state the previous one left, and returns
    the converged makespan, or None when the threshold is unattainable;
    after an infeasible result the state is spent.  A converged step's
    schedule is a function of its limits, so the solver builds none.  A
    subclass computes the initial completions with its own module's
    ``batch_times`` and passes them in.
    """

    def __init__(
        self,
        instance: Instance,
        limits: AdmissibleSlots,
        slots: list[list[int]],
        first: int,
        completion: list[int],
        trace: Trace | None,
        check: bool,
    ):
        self.instance = instance
        self.limits = limits
        self.slots = slots
        self.completion = completion
        self.top: list[int | None] = [None] * len(slots)
        self.cost: list[int | None] = [None] * (instance.n + 1)  # by held entry
        self.timed = [False] * len(slots)
        self.first = first
        self.max_cost: int | None = None
        self.trace = trace
        self.check = check
        self.adjustments = 0
        self.passes = 0

    def converged(self) -> int:
        """After a clean pass: set ``max_cost`` from ``_max_cost`` and
        return the makespan.  Check mode compares the held completions with
        a ``timetable`` of the held slots and ``max_cost`` with
        ``objectives``."""
        self.max_cost = self._max_cost()
        if self.check:
            instance = self.instance
            held = timetable(self.id_slots()[1:], instance)
            if list(held.completion) != self.completion[1:]:
                raise InvariantError("held completions differ from a timetable of their slots")
            if self.max_cost != objectives(held, instance)[1]:
                raise InvariantError("held max cost differs from objectives")
        return self.completion[-1]

    def _max_cost(self) -> int:
        """The converged schedule's max cost: a clean pass left every
        nonempty slot's held max current."""
        return max(self.top[self.first :])

    def held_max(self, c: int) -> int:
        """Refresh slot c's stale held max and return it: the max of its
        members' held costs when the slot is timed, and otherwise the
        running max of one loop that evaluates each member into ``cost``."""
        batch = self.slots[c]
        cost = self.cost
        if self.timed[c]:
            worst = self.top[c] = max(map(cost.__getitem__, batch))
            return worst
        value = self.value
        at = self.completion[c]
        worst = None
        for r in batch:
            x = cost[r] = value[r](at)
            if worst is None or x > worst:
                worst = x
        self.timed[c] = True
        self.top[c] = worst
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

    def id_slots(self) -> list[list[int]]:
        """The held slots as lists of job ids, in the held order: here the
        held lists themselves, which a subclass holding other entries
        overrides with a translation."""
        return self.slots

    def check_held(self, before: list[int] | None) -> None:
        """Check mode: the held completions equal a ``batch_times`` of the
        held slots, none is earlier than in ``before`` (when given), every
        held max equals a fresh evaluation, every timed slot's held job
        costs do too, every slot with a current max is timed, and ``first``
        is the lowest nonempty slot.  Jobs are evaluated by id, through
        ``id_slots``."""
        instance = self.instance
        slots = self.slots
        held = self.id_slots()
        completion = self.completion
        first = self.first
        if not slots[first] or any(slots[1:first]):
            raise InvariantError(f"held lowest nonempty slot {first} is wrong")
        if completion != batch_times(held, instance):
            raise InvariantError("held completions differ from batch_times")
        if before is not None and any(map(int.__lt__, completion, before)):
            raise InvariantError("a batch completion moved earlier")
        value = instance.cost_value
        for i, worst in enumerate(self.top):
            if worst is not None and worst != max([value[j](completion[i]) for j in held[i]], default=None):
                raise InvariantError(f"held max cost of slot {i} differs from a fresh evaluation")
        cost = self.cost
        for i, timed in enumerate(self.timed):
            if timed and any(cost[x] != value[j](completion[i]) for x, j in zip(slots[i], held[i])):
                raise InvariantError(f"held job costs of slot {i} differ from a fresh evaluation")
            if not timed and self.top[i] is not None:
                raise InvariantError(f"slot {i} holds a current max but its job costs are not timed")


class BoundedSolver(WarmSolver):
    """Warm-startable minimum-makespan solver for one bounded instance.

    Holds the admissibility limits and the standing schedule together, with
    the completion times kept current in place.  The standing schedule
    starts as the greedy fill of the limits the solver is built on, and
    InvariantError is raised when that fill fails.

    The solver works in rank space.  Each slot holds its jobs' ranks (their
    ``Instance.keys``) as an ascending list of ints, and ``p``, ``value``
    and ``cost`` are indexed by rank; ``ids[r]`` is the job of rank r
    (``Instance.by_key`` behind a 0), through which the walk reads the live
    limit table, which stays indexed by job id.  ``id_slots`` is the one id
    view of the held slots.  Ranks become ids only where ids leave the
    solver: ``limits.move``, the trace line and check mode's comparisons
    with ``form_batches``, ``timetable`` and ``batch_times``.

    An adjustment that expels a job from slot i works on slots e..i only,
    e being the rightmost slot left of i with room or with a candidate (a
    job still admissible at i): one walk down from i - 1 scans each slot
    for the hoist, stops at e, and in every full slot it passes swaps the
    slot's first (shortest) job for the carried one, inserted in order,
    when the carried job outranks it.  It records each swap, and the
    retiming then walks only the stretches between swaps whose delta is
    not 0.  Slots i..n keep their times unless the carry opens a new batch
    in an empty slot e, and then ``_open(e)`` shifts every slot from e on
    by one setup.  An infeasible adjustment returns after the walk's
    swaps, which leave the limits as they are.  The hoist scan walks each
    slot from its longest job down and stops at the first candidate.
    ``resume`` records ``(i, e, rank of the hoist, lowest)`` of the last
    adjustment when it hoisted, and None otherwise; ``lowest`` is a lower
    bound on the shortest ranks of the slots it passed.  When the next
    adjustment is at the same i, its walk starts at e if the job it
    carries is below ``lowest``, since it would swap nothing in slots
    e+1..i-1 and they still hold no candidate; and when its walk reaches e
    with ``reach[e]`` at least i, a slot of more than ``SMALL_SLOT`` jobs
    is scanned from below that rank only.  ``cap`` and ``limit`` (the live
    limit table) are held for the walk.

    ``reach[c]`` is an upper bound on the highest limit among slot c's
    jobs (0 for an empty slot), exact when the solver is built.  It is
    raised wherever a job enters a slot (the hoist into i, each carry swap
    and the carry's landing in e), set to the exact maximum when the
    hoist scan walks a slot in full without finding a candidate, and set
    to i - 1 when a resumed scan finds none.  Limits only fall, so a job
    leaving a slot needs no bookkeeping.  The scan passes slot c without
    walking it when ``reach[c]`` is below i.

    A held max goes stale only when the adjustment changed its slot's
    members or completion: i, e, each carry slot where a swap happens or
    whose completion moves (the carried job and the hoist differ in p), and
    every slot from e on when it opened a batch.  Held job costs go stale
    only with a moved completion: the adjustment untimes each carry slot
    and e whose time changed (``_open`` untimes every slot from e on), and
    evaluates once each job entering a slot that stays timed: the hoist in
    i, a swapped carry and the carry landing in e.  A pass refreshes a
    stale max when it reaches the slot, from the held costs when the slot
    is timed, and skips the slot when that max is below the threshold.  A
    walked slot that no opening moved ends its walk with a current max: the
    largest held cost among the jobs it kept and the hoists it took in.
    Thresholds only shrink, so a new step's first pass reuses every held
    value.

    ``bound[i]`` is an upper bound on slot i's max cost, equal to
    ``top[i]`` whenever that is current, and ``slope`` the largest slope of
    the instance's costs, or None while no bounds are held: from the start
    when some cost states none (a ``StepTable``) or the nonempty slots hold
    ``SMALL_SLOT`` jobs or fewer on average (``_small_slots``), and from
    the first pass that finds them so (``_drop_bounds``) to the sweep's
    end.  Without bounds every entry of ``bound`` is ``UNBOUNDED``.  With
    them, a refresh sets the bound to the max, the adjustment raises the
    bound of each slot of a stretch that moves later by slope x delta
    (``_open``: slope x setup, and the opened slot starts at
    ``-UNBOUNDED``), and folds into the bound of i, of each swap slot and
    of e the cost of the job that entered it, read from ``cost`` where the
    slot stays timed and evaluated otherwise; a job leaving needs nothing.
    A pass then skips a stale slot whose bound is below the threshold
    without refreshing it, and ``_max_cost`` refreshes the lowest slot
    holding the largest bound until that slot is current, which makes the
    bound the max cost.

    A pass walks a span high..low, not every nonempty slot: ``_adjust``
    returns e, the pass lowers ``low`` to it, and hands the next pass the
    span from its first adjusted slot (n after an opening) down to its
    last.  ``due`` is the span a step to the last converged max cost starts
    on: from the highest down to the lowest slot whose bound is that max
    (the held max, without bounds).  A stale slot in it whose max is lower
    is refreshed and skipped by the next step's pass, so the span may be
    wider than the slots that hold the max, and no move changes.  A pass
    that drops the bounds walks every slot instead.

    With ``check=True`` the solver verifies its own invariants after every
    adjustment and raises InvariantError on a breach: the hoisted job came
    from the rightmost slot with room, the carry's slot is within capacity,
    the held state passes ``check_held`` against the completions before the
    adjustment, no slot holds a limit above its reach, and the standing
    schedule equals the greedy rebuild of the current limits, slot order
    included.  That costs O(n log n) per adjustment and is meant for the
    verification harness.  A resumed hoist scan is compared with a scan of
    the whole slot.  After each clean pass it also checks that every
    nonempty slot, walked or not, holds a current max below the threshold
    or, stale, a bound below it, and that the bounds pass
    ``_check_bounds``.
    """

    def __init__(
        self,
        instance: Instance,
        limits: AdmissibleSlots,
        trace: Trace | None = None,
        check: bool = False,
    ):
        filled = form_batches(instance, limits)
        if filled is None:
            raise InvariantError("the greedy fill failed on the starting limits")
        first = lowest_nonempty(filled)  # slots first..n hold jobs, and an empty slot's reach is 0
        completion = batch_times(filled, instance, first)
        limit = self.limit = limits.table  # the live table, by job id, which ``limits.move`` updates
        self.reach = [0] * first + [max(map(limit.__getitem__, batch)) for batch in filled[first:]]
        rank = instance.keys.__getitem__  # a slot of ids in key order becomes ascending ranks
        filled[first:] = [list(map(rank, batch)) for batch in filled[first:]]
        super().__init__(instance, limits, filled, first, completion, trace, check)
        ids = self.ids = (0, *instance.by_key)
        p = instance.p
        cost_value = instance.cost_value
        self.p = [p[j] for j in ids]
        self.value = [cost_value[j] for j in ids]
        self.cap = instance.effective_capacity
        self.slope = None  # the largest cost slope while bounds are held
        if not self._small_slots():
            slopes = [job.cost.slope for job in instance.jobs]
            if None not in slopes:
                self.slope = max(slopes)
        self.bound = [UNBOUNDED] * len(filled)  # written only while bounds are held
        self.due = (instance.n, first)
        self.resume: tuple[int, int, int, int] | None = None  # (i, e, hoist's rank, lowest) of the last hoist

    @classmethod
    def initial(cls, instance: Instance, trace: Trace | None = None, check: bool = False):
        """Solver over unrestricted limits; the greedy fill never fails there."""
        return cls(instance, AdmissibleSlots.unrestricted(instance), trace, check)

    def solve(self, threshold) -> int | None:
        """Makespan of the minimum-makespan schedule with every cost
        strictly below the threshold, which the held slots then form, or
        None when the current limits admit none.

        A step to the last converged max cost starts on ``due``, the span
        from the highest down to the lowest slot holding that max: every
        other slot is clean and below it.  Any other threshold starts on
        ``first..n``."""
        span = self.due if threshold == self.max_cost else (self.instance.n, self.first)
        while True:
            self.passes += 1
            if self.slope is not None and self._drop_bounds():
                span = (self.instance.n, self.first)
            span = self._adjust_pass(threshold, *span)
            if span is None:
                return None
            if not span:
                if self.check:
                    self._check_clean(threshold)
                return self.converged()

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
        the next sweep.  A stale slot whose held bound is below the
        threshold is passed as it is; any other stale max is refreshed by
        ``held_max``, and the slot is walked longest first (over a reversed
        copy of the key-ordered slot) only when that max reaches the
        threshold.  The walk reads held costs, the slot being timed once
        its max is current, and evaluates live once an opening has untimed
        slot i.  When no opening moved slot i, the walk leaves it with a
        current max: the largest held cost among the jobs it kept and the
        hoists it took in, read from ``resume`` after each adjustment.
        """
        slots = self.slots
        completion = self.completion  # updated in place by _adjust
        top = self.top  # marked stale in place by _adjust
        cost = self.cost  # refreshed in place by _adjust
        timed = self.timed  # cleared in place by _adjust
        value = self.value
        held = self.slope is not None
        bound = self.bound  # raised and folded in place by _adjust while held
        first = self.first  # lowered by an opening
        upper = lower = 0  # the first and the last slot adjusted
        i = high + 1
        while i > low:
            i -= 1
            worst = top[i]
            if worst is None:
                if not held:
                    worst = self.held_max(i)
                elif bound[i] < threshold:
                    continue  # stale, but its bound says it is clean
                else:
                    worst = bound[i] = self.held_max(i)
            if worst < threshold:
                continue  # a clean slot needs no walk
            kept = -UNBOUNDED  # the max held cost of the jobs that stay and the hoists taken in
            for r in slots[i][::-1]:
                if timed[i]:
                    x = cost[r]
                    if x < threshold:
                        if x > kept:
                            kept = x
                        continue
                elif value[r](completion[i]) < threshold:
                    continue  # an opening retimed slot i mid-walk
                if i == 1:
                    return None  # nothing further left exists
                e = self._adjust(r, i)
                if not e:
                    return None
                resume = self.resume
                if resume is not None and cost[resume[2]] > kept:
                    kept = cost[resume[2]]  # the hoist's cost, current while slot i is timed
                if e < low:
                    low = e
                upper = upper or i
                lower = i
            if timed[i]:  # no opening moved slot i, so kept is its max
                top[i] = kept
                if held:
                    bound[i] = kept
        if not lower:
            return ()
        return (self.instance.n if self.first < first else upper, lower)

    def _adjust(self, r: int, i: int) -> int:
        """Expel the job of rank r from slot i and repair the schedule;
        returns e, the slot where the carry ended, or 0 when the step is
        infeasible.

        The job's limit drops one group.  The repair reproduces what the
        greedy fill would now build: if some earlier-slot job is still
        admissible at slot i, the largest such job is hoisted in to replace
        the expelled one; either way that job is pushed leftward through
        the (necessarily full) intervening batches, each handing its
        shortest job further left, until the rightmost non-full batch e
        absorbs the carry.  One walk down from i - 1 finds e and makes the
        carry's swaps on the way; the slots it passes are then retimed by
        stretch.  The walk skips every slot whose reach is below i, and
        raises the reach of every slot a job enters.
        """
        slots = self.slots
        ids = self.ids
        limit = self.limit
        cap = self.cap
        self.limits.move(ids[r], i - 1)
        batch = slots[i]
        del batch[bisect_left(batch, r)]
        self.adjustments += 1
        top = self.top
        top[i] = None

        # The greedy fill passed over each candidate (a job left of i still
        # admissible at i) in favour of larger jobs at every slot between it
        # and i, so those slots are full and candidates shrink from right to
        # left.  Walking down from i - 1, the first slot holding a candidate
        # holds the best one, and no candidate lies left of the first slot
        # with room, which is e, where the carry ends.  A slot is scanned
        # from its longest job down, so the first candidate met is the
        # slot's largest; a slot whose reach is below i holds no candidate
        # and is not scanned at all.  The carried job is never a candidate
        # (the expelled job's limit is now i - 1, and a slot's shortest job
        # leaves only a slot that holds none), so each full slot the walk
        # passes swaps in the carried job when it outranks the slot's
        # shortest, before e is known.  When the last adjustment was at this
        # same i and hoisted from slot e, every job of e above the hoist's
        # rank was no candidate then, and is none now, so e's scan resumes
        # below that rank.  The slots it passed, e+1..i-1, are still full
        # and hold no candidate, and a carry below their lowest shortest
        # rank swaps nothing there, so such a walk starts at e.
        reach = self.reach
        resume = self.resume
        carry = r
        start = i - 1
        resumed = 0
        lowest = len(ids)  # the lowest shortest rank of the full slots passed, or above every rank
        if resume is not None and resume[0] == i:
            resumed = resume[1]
            if carry < resume[3]:
                start = resumed  # slots resumed+1..i-1 are full, hold no candidate and swap nothing
                lowest = resume[3]
        hoist = None
        swaps = []  # (slot, rank carried into it) for each slot where the carry swapped, then e
        e = 0
        for c in range(start, 0, -1):
            batch = slots[c]
            if reach[c] >= i:
                if c == resumed and len(batch) > SMALL_SLOT:
                    hoist = self._resumed_hoist(batch, c, i, resume[2])
                else:
                    for x in reversed(batch):
                        if limit[ids[x]] >= i:
                            hoist = x
                            break
                    else:
                        reach[c] = max(map(limit.__getitem__, map(ids.__getitem__, batch)))  # scanned in full: now exact
                if hoist is not None:
                    e = c
                    break
            if len(batch) < cap:
                e = c
                break
            shortest = batch[0]
            if carry > shortest:
                del batch[0]
                insort(batch, carry)
                if limit[ids[carry]] > reach[c]:
                    reach[c] = limit[ids[carry]]
                top[c] = None
                swaps.append((c, carry))
                carry = shortest
                shortest = batch[0]
            if shortest < lowest:
                lowest = shortest

        opened = not slots[e]  # the carry opens a batch in e (never in case 2: e holds the hoist)
        if hoist is not None:
            self.resume = (i, e, hoist, lowest)
            batch = slots[e]
            del batch[bisect_left(batch, hoist)]
            insort(slots[i], hoist)
            if limit[ids[hoist]] > reach[i]:
                reach[i] = limit[ids[hoist]]
            case = 2
            if self.check and self._last_nonfull(i) != e:
                raise InvariantError("hoisted job's slot is not the rightmost non-full")
        else:
            self.resume = None
            if not slots[i]:
                return 0  # slot emptied while jobs remain further left
            if e == 0:
                return 0  # every earlier slot is full
            case = 1

        if self.trace:
            self.trace(f"move job={ids[r]} from={i} to={i - 1} case={case}")

        # Jobs change slots only within e..i, so slot c in e..i-1 completes
        # later by the time of the job carried into it, less that of the
        # hoist, which crossed it going right.  Between two swaps one job is
        # carried, so each stretch of slots moves by one delta, and only a
        # stretch that moves is walked: its slots' held maxima and job costs
        # go stale.  A swap slot, or e, whose time holds evaluates its
        # entrant there once (an empty e is never timed).  Slot i stays
        # nonempty, so completions from i on move only when e opened, and
        # ``_open`` adds that setup to every slot from e on.
        completion = self.completion
        before = completion[:] if self.check else None
        timed = self.timed
        cost = self.cost
        value = self.value
        p = self.p
        shift = -p[hoist] if hoist is not None else 0
        swaps.append((e, carry))  # the carry lands in e
        high = i  # one past the stretch's highest slot
        for c, x in swaps:
            delta = shift + p[x]
            if delta:
                for k in range(c, high):
                    completion[k] += delta
                    top[k] = None
                    timed[k] = False
            elif timed[c]:
                cost[x] = value[x](completion[c])
            high = c
        insort(slots[e], carry)
        if limit[ids[carry]] > reach[e]:
            reach[e] = limit[ids[carry]]
        top[e] = None
        if opened:
            self._open(e)
        if hoist is not None and timed[i]:
            cost[hoist] = value[hoist](completion[i])  # after the opening, which untimes i
        if self.slope is not None:
            # each stretch that moved later raises its bounds (an opened e,
            # at -UNBOUNDED, stays there), and then each slot a job entered
            # folds in that job's cost at the slot's final completion
            bound = self.bound
            slope = self.slope
            high = i
            for c, x in swaps:
                delta = shift + p[x]
                if delta > 0:
                    rise = slope * delta
                    for k in range(c, high):
                        bound[k] += rise
                high = c
            if hoist is not None:
                swaps.append((i, hoist))
            for c, x in swaps:
                worst = cost[x] if timed[c] else value[x](completion[c])
                if worst > bound[c]:
                    bound[c] = worst
        if self.check:
            self._check_state(e, before)
        return e

    def _open(self, x: int) -> None:
        """``WarmSolver._open``, and while bounds are held each slot right of
        x raises its bound by slope x setup, and x, which held nothing,
        starts at ``-UNBOUNDED`` for the jobs that enter it to fold into."""
        super()._open(x)
        if self.slope is not None:
            bound = self.bound
            rise = self.slope * self.instance.setup
            for c in range(x + 1, len(bound)):
                bound[c] += rise
            bound[x] = -UNBOUNDED

    def _max_cost(self) -> int:
        """The converged schedule's max cost, which also sets ``due``.  A
        clean pass left every nonempty slot's max current or its bound below
        the threshold.  Without bounds the maxima are read directly.  With
        them, the lowest slot holding the largest bound is refreshed until
        that slot is current: its max is then the largest bound, which no
        slot's max exceeds."""
        first = self.first
        top = self.top
        upper = top if self.slope is None else self.bound
        worst = max(upper[first:])
        low = upper.index(worst, first)
        while top[low] is None:  # a stale slot holds the largest bound
            upper[low] = self.held_max(low)
            worst = max(upper[first:])
            low = upper.index(worst, first)
        self.due = (len(upper) - 1 - upper[::-1].index(worst), low)
        return worst

    def _small_slots(self) -> bool:
        """Whether the nonempty slots hold ``SMALL_SLOT`` jobs or fewer on
        average, where holding bounds costs about what it saves."""
        return self.instance.n <= SMALL_SLOT * (len(self.slots) - self.first)

    def _drop_bounds(self) -> bool:
        """At a pass's start: stop holding bounds, for the rest of the
        sweep, once the slots are small, and say whether that happened
        now.  Every held bound is then ``UNBOUNDED`` again, so the pass
        must walk every slot."""
        if self.slope is None or not self._small_slots():
            return False
        self.slope = None
        self.bound = [UNBOUNDED] * len(self.slots)
        return True

    def _resumed_hoist(self, batch: list[int], e: int, i: int, hoisted: int) -> int | None:
        """The largest candidate for slot i in slot e, scanning down from
        below rank ``hoisted``, the hoist the last adjustment at i took
        from e; None when e holds none, and then every job of e is below i,
        which becomes e's reach.  Check mode compares the result with a
        scan of the whole slot."""
        limit = self.limit
        ids = self.ids
        for k in range(bisect_left(batch, hoisted) - 1, -1, -1):
            x = batch[k]
            if limit[ids[x]] >= i:
                break
        else:
            x = None
            self.reach[e] = i - 1
        if self.check and x != next((y for y in reversed(batch) if limit[ids[y]] >= i), None):
            raise InvariantError(f"resumed hoist scan of slot {e} differs from a full scan")
        return x

    def id_slots(self) -> list[list[int]]:
        """The held slots as lists of job ids, each in ascending key order:
        the one translation of the held ranks to ids."""
        ids = self.ids.__getitem__
        return [list(map(ids, batch)) for batch in self.slots]

    def _check_clean(self, threshold) -> None:
        """Check mode: after a clean pass every nonempty slot's held max is
        current and below the threshold, or stale with its bound below it,
        and every held bound passes ``_check_bounds``."""
        top = self.top
        bound = self.bound
        for c in range(self.first, len(top)):
            if (bound[c] if top[c] is None else top[c]) >= threshold:
                raise InvariantError(f"clean pass left slot {c} due")
        if self.slope is not None:
            self._check_bounds()

    def _check_bounds(self) -> None:
        """Check mode: no nonempty slot's held bound is below its max cost,
        and a slot with a current max holds it as its bound."""
        value = self.instance.cost_value
        completion = self.completion
        top = self.top
        bound = self.bound
        for i, batch in enumerate(self.id_slots()):
            if batch:
                if bound[i] < max([value[j](completion[i]) for j in batch]):
                    raise InvariantError(f"held bound of slot {i} is below its max cost")
                if top[i] is not None and bound[i] != top[i]:
                    raise InvariantError(f"held bound of slot {i} differs from its current max")

    def _check_state(self, e: int, before: list[int]) -> None:
        """Check mode: the state after an adjustment whose carry ended in
        slot e, against the completion times it started from."""
        instance = self.instance
        if len(self.slots[e]) > instance.effective_capacity:
            raise InvariantError(f"slot {e} exceeds capacity")
        self.check_held(before)
        if self.slope is not None:
            self._check_bounds()
        limit = self.limits.table
        held = self.id_slots()
        for c, batch in enumerate(held):
            if batch and max(map(limit.__getitem__, batch)) > self.reach[c]:
                raise InvariantError(f"slot {c} holds a limit above its reach")
        rebuilt = form_batches(instance, self.limits)
        if rebuilt is None or rebuilt != held:
            raise InvariantError("standing schedule diverged from rebuild")

    def _last_nonfull(self, i: int) -> int | None:
        """Largest slot index < i with room left, or None."""
        cap = self.instance.effective_capacity
        for e in range(i - 1, 0, -1):
            if len(self.slots[e]) < cap:
                return e
        return None
