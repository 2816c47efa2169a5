"""Domain types for serial-batch machine scheduling.

A serial-batch machine runs jobs in batches: a batch's processing time is
the sum of its members' processing times, every member completes when the
batch does, and each nonempty batch is preceded by a constant setup time.
A schedule keeps exactly n batch slots with all empty slots forming a
prefix, so times follow the no-idle recurrence (each nonempty batch starts
one setup after its predecessor completes).

All times and costs are exact integers; the frontier sweep compares them
against strict thresholds, so floating point is never used here, and the
constructors below refuse any value that is not one (``_int``).

Every cost spec states a ``slope``: an integer s >= 0 with
``value(t + d) - value(t) <= s * d`` for every time t and every d >= 0, so
a cost known at one completion bounds the cost at any later one.  A
``StepTable`` states None, and the bounded solver holds no cost bounds for
an instance with one.
"""

from __future__ import annotations

import gc
import json
from bisect import bisect_right
from dataclasses import InitVar, dataclass, field
from functools import wraps
from itertools import chain
from typing import Iterable, Iterator, Union


class InstanceError(ValueError):
    """Raised for malformed instances or instance files."""


class ScheduleError(ValueError):
    """Raised when slot contents cannot form a valid schedule."""


class InvariantError(RuntimeError):
    """Raised by a solver's check mode when its own state is inconsistent.

    An explicit exception rather than ``assert``, so the checks that
    verification relies on still run under ``python -O``.
    """


def _collector_paused(fn):
    """``fn`` run with Python's cyclic garbage collector disabled, and
    enabled again on every exit, errors included, only if it was enabled on
    entry, so a caller that turned it off keeps it off.

    ``fileio.parse_instance``, the three frontier sweeps
    (``frontier.pareto_bounded``, ``pareto_precedence`` and
    ``pareto_bounded_naive``, so ``pareto_front`` too) and
    ``ParetoFront.to_csv`` run under it, so the JSON-to-CSV chain runs no
    collection.  The premise is that nothing the chain decodes, builds or
    drops forms a reference cycle: reference counting alone frees all of
    it, and a collection would only traverse what the chain allocates (a
    dense precedence relation decodes into up to n(n-1)/2 small lists, and
    a bounded fill builds two lists per slot) to find nothing.  The tests
    hold the chain to that premise on every generator profile.  A ``trace``
    or ``on_step`` callback runs inside the sweep, with the collector
    paused too; any cycle it makes is collected after the call returns.

    A plain ``try``/``finally`` rather than a context manager, whose setup
    would cost every small instance a generator frame and its exit protocol.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


def _int(value, subject: str, rule: str = "must be an integer", shown=None) -> int:
    """``value`` if it is an exact integer (``type(value) is int``, so
    booleans and floats are refused); anything else raises InstanceError
    ``"{subject} {rule}, got {shown}"``, with ``shown`` (``value`` unless
    given) rendered as JSON."""
    if type(value) is not int:
        raise InstanceError(f"{subject} {rule}, got {json.dumps(value if shown is None else shown, default=repr)}")
    return value


@dataclass(frozen=True)
class Lateness:
    """Completion time minus due date; may be negative.  Slope 1."""

    due: int
    slope = 1

    def __post_init__(self):
        _int(self.due, "due")

    def value(self, t: int) -> int:
        return t - self.due


@dataclass(frozen=True)
class Tardiness:
    """Lateness clamped at zero.  Slope 1: it rises by at most the time
    that passes."""

    due: int
    slope = 1

    def __post_init__(self):
        _int(self.due, "due")

    def value(self, t: int) -> int:
        return t - self.due if t > self.due else 0


@dataclass(frozen=True)
class WeightedCompletion:
    """w*t with w >= 0.  Slope w."""

    w: int

    def __post_init__(self):
        if _int(self.w, "w") < 0:
            raise InstanceError(f"w: weighted_completion weight must be >= 0, got {self.w}")

    @property
    def slope(self) -> int:
        return self.w

    def value(self, t: int) -> int:
        return self.w * t


@dataclass(frozen=True)
class Affine:
    """a*t + c with a >= 0 so the cost never decreases over time.  Slope a."""

    a: int
    c: int

    def __post_init__(self):
        if _int(self.a, "a") < 0:
            raise InstanceError(f"a: affine slope must be >= 0, got {self.a}")
        _int(self.c, "c")

    @property
    def slope(self) -> int:
        return self.a

    def value(self, t: int) -> int:
        return self.a * t + self.c


@dataclass(frozen=True)
class StepTable:
    """Piecewise-constant cost given by (time, value) breakpoints.

    The value at t is the value of the last breakpoint whose time is <= t;
    below the first breakpoint the first value applies.  Times and values
    must be integers (floats and booleans are refused, never truncated),
    times strictly increasing and values non-decreasing, which keeps
    evaluation monotone.  Its slope is None: a jump is not proportional to
    the time that passes, so no cost bound is held by it.
    """

    breakpoints: tuple[tuple[int, int], ...]
    slope = None

    def __post_init__(self):
        if not (isinstance(self.breakpoints, (list, tuple)) and self.breakpoints):
            shown = json.dumps(self.breakpoints, default=repr)
            raise InstanceError(f"breakpoints must be a non-empty sequence of (time, value) pairs, got {shown}")
        rule = "must be a (time, value) pair of integers"
        for k, bp in enumerate(self.breakpoints):
            if not (isinstance(bp, (list, tuple)) and len(bp) == 2):
                shown = json.dumps(bp, default=repr)
                raise InstanceError(f"breakpoints[{k}]: step cost breakpoint {k} {rule}, got {shown}")
            for i, x in enumerate(bp):
                _int(x, f"breakpoints[{k}][{i}]: step cost breakpoint {k}", rule, bp)
        bps = tuple(map(tuple, self.breakpoints))
        object.__setattr__(self, "breakpoints", bps)
        for (t1, v1), (t2, v2) in zip(bps, bps[1:]):
            if t2 <= t1:
                raise InstanceError("breakpoints: step cost breakpoint times must be strictly increasing")
            if v2 < v1:
                raise InstanceError("breakpoints: step cost values must be non-decreasing")

    def value(self, t: int) -> int:
        idx = bisect_right(self.breakpoints, t, key=lambda bp: bp[0])
        return self.breakpoints[max(idx - 1, 0)][1]


CostSpec = Union[Lateness, Tardiness, WeightedCompletion, Affine, StepTable]
# what ``Job`` checks a cost against: a plain tuple, as ``isinstance`` on
# the ``Union`` above goes through typing's slower Python-level check
_COST_SPECS = (Lateness, Tardiness, WeightedCompletion, Affine, StepTable)


def eval_cost(spec: CostSpec, t: int) -> int:
    """Cost of completing at time t; non-decreasing in t for every spec."""
    return spec.value(t)


def _job_ok(job_id, p, cost) -> bool:
    """Whether ``Job(job_id, p, cost)`` keeps the job rules: ``job_id`` and
    ``p`` exact integers, ``p >= 1`` and ``cost`` a cost spec.  This is
    their one statement: ``Job.__post_init__`` and ``decode_job`` both
    decide by it alone.  A rule added here needs its message in
    ``Job.__post_init__``."""
    return type(job_id) is int and type(p) is int and p >= 1 and isinstance(cost, _COST_SPECS)


@dataclass(frozen=True)
class Job:
    id: int
    p: int
    cost: CostSpec

    def __post_init__(self):
        if _job_ok(self.id, self.p, self.cost):
            return
        # which rule ``_job_ok`` found broken, for the message
        _int(self.id, "id")
        if _int(self.p, "p") < 1:
            raise InstanceError(f"p: job {self.id}: processing time must be >= 1, got {self.p}")
        kinds = "Lateness, Tardiness, WeightedCompletion, Affine or StepTable"
        raise InstanceError(f"cost must be a {kinds}, got {json.dumps(self.cost, default=repr)}")


_new = object.__new__
_set = object.__setattr__


def decode_job(job_id, p, cost) -> Job | None:
    """``Job(job_id, p, cost)``, or None where that would raise, for the
    caller to locate the problem.

    It decides by ``_job_ok``, as ``Job`` does, and builds the frozen
    ``Job`` without its generic ``__init__``/``__post_init__`` round trip
    (by ``timeit`` on CPython 3.11 on a shared 2-core host, 620 ns rather
    than 790 ns, and ``fileio._jobs`` on 800 paper rows 1.04 ms rather than
    1.20 ms): the fields are set by ``object.__setattr__``, as that
    ``__init__`` sets them, not through the job's ``__dict__``, which would
    make every later field read about twice as slow (800 reads of ``p``
    take 24 us on such a job, 10 us on a constructed one)."""
    if not _job_ok(job_id, p, cost):
        return None
    job = _new(Job)
    _set(job, "id", job_id)
    _set(job, "p", p)
    _set(job, "cost", cost)
    return job


def _locate_bad_edge(precedence) -> None:
    """Raise InstanceError naming the first edge, in input order, that is not
    a pair of integers; return when every edge is one.  The adjacency walk
    calls it only when it meets a problem."""
    for k, edge in enumerate(precedence):
        if not (isinstance(edge, (list, tuple)) and len(edge) == 2):
            raise InstanceError(f"precedence[{k}] must be a [pred, succ] pair")
        for end in edge:
            _int(end, f"precedence[{k}]", "endpoints must be integers", edge)


def _edge_tables(precedence, n: int) -> tuple[tuple[int, ...], list[list[int]], list[list[int]], str | None]:
    """``(edge_ids, preds, succs, range_problem)`` from one walk over the
    edges as given.

    The walk unpacks each entry, a list or tuple of two integers, checks
    its range and self-loop, and appends its ids to both adjacency lists
    and to the flat store.  It appends the one int object per job id that
    ``interned`` holds, not the entry's own: decoded JSON has an object per
    endpoint above 256, and those then die with the decoded lists.  A
    repeated edge repeats an id in its pred's list; only then are repeats
    dropped, per vertex and keeping first occurrences, so ``preds[j]`` and
    ``succs[j]`` hold the distinct edges in input order.  At the first
    problem the whole list goes through ``_locate_bad_edge``, so a shape or
    type problem anywhere is raised first; a range or self-loop problem is
    returned instead, with tables not to be read, for ``Instance`` to raise
    after its job, setup and capacity checks."""
    if not isinstance(precedence, (list, tuple)):
        shown = json.dumps(precedence, default=repr)
        raise InstanceError(f"precedence must be a sequence of [pred, succ] pairs, got {shown}")
    interned = list(range(n + 1))
    ids: list[int] = []
    preds: list[list[int]] = [[] for _ in range(n + 1)]
    succs: list[list[int]] = [[] for _ in range(n + 1)]
    try:
        for edge in precedence:
            if not isinstance(edge, (list, tuple)):
                break
            a, b = edge  # ValueError unless a pair
            if not (type(a) is int is type(b) and 0 < a <= n and 0 < b <= n and a != b):
                break
            a = interned[a]
            b = interned[b]
            succs[a].append(b)
            preds[b].append(a)
            ids.append(a)
            ids.append(b)
        else:
            if sum(map(len, map(set, succs))) < len(precedence):  # some edge repeats
                preds = [list(dict.fromkeys(q)) for q in preds]
                succs = [list(dict.fromkeys(q)) for q in succs]
            return tuple(ids), preds, succs, None
    except ValueError:
        pass
    _locate_bad_edge(precedence)  # returns only when the walk stopped at a range or self-loop
    return (), preds, succs, f"bad precedence edge ({a}, {b})"


@dataclass(frozen=True)
class Instance:
    """A job set plus setup time, capacity mode, and optional precedence.

    ``capacity`` is the per-batch job limit; ``None`` means unbounded.
    Precedence edges (pred id, succ id) are only allowed on unbounded
    instances and must form a DAG; both are checked at construction.
    Jobs are stored sorted by id, and ids must be exactly 1..n.

    The edges are held as one flat tuple of ids, ``edge_ids`` = (pred,
    succ, pred, succ, ...), as given, repeats and input order kept.  It and
    the edge tables share one int object per job id, so a dense relation
    costs no object per edge.  ``precedence`` is a view: it builds the
    tuple of ``(pred, succ)`` pairs on each read, and ``==`` and ``hash``
    compare the flat ids, which is the same as comparing the pairs.

    Per-job tables, indexed by job id (entry 0 unused), are the one home
    the solvers' loops read job data from: ``p[j]`` is the processing time,
    ``cost_value[j](t)`` the cost of completing at t (the bound ``value``
    method of the job's cost spec) and ``keys[j]`` the priority key: job j's
    rank in ascending (p, -id) order, by which longer jobs rank higher and
    ties in p go to the smaller id.  ``by_key`` lists the job ids in that
    order, so ``keys[j]`` is j's 1-based position in it (entry 0 is 0), and
    two jobs compare by one int each.
    ``preds[j]``/``succs[j]`` (read-only lists) hold the distinct edges in
    input order, ``layer[j]`` the sink layer that
    ``layered_limits`` starts the job in, and ``preds_by_layer[j]`` the
    predecessors of j in descending layer, the order the sink peel reaches
    them in; without edges these are constants.

    The edges are checked and the adjacency filled in one walk over the
    entries as given (``_edge_tables``); the whole list is searched for the
    first malformed edge only when that walk meets a problem.  Problems are
    reported in a fixed order: the shape and type of the job list and of
    the edges, then the job ids, setup and capacity, then an edge out of
    range or a self-loop, and last a cycle.
    """

    jobs: tuple[Job, ...]
    setup: int
    capacity: int | None = None
    precedence: InitVar[tuple[tuple[int, int], ...]] = ()
    edge_ids: tuple[int, ...] = field(init=False)

    def __post_init__(self, precedence):
        if not isinstance(self.jobs, (list, tuple)):
            raise InstanceError(f"jobs must be a sequence of Job, got {json.dumps(self.jobs, default=repr)}")
        for k, job in enumerate(self.jobs):
            if not isinstance(job, Job):
                raise InstanceError(f"jobs[{k}] must be a Job, got {json.dumps(job, default=repr)}")
        jobs = tuple(sorted(self.jobs, key=lambda j: j.id))
        object.__setattr__(self, "jobs", jobs)
        n = len(jobs)
        edge_ids = ()
        if precedence:
            edge_ids, preds, succs, edge_problem = _edge_tables(precedence, n)
        object.__setattr__(self, "edge_ids", edge_ids)
        if n == 0:
            raise InstanceError("instance needs at least one job")
        if [j.id for j in jobs] != list(range(1, n + 1)):
            raise InstanceError("job ids must be exactly 1..n with no repeats")
        if _int(self.setup, "setup") < 0:
            raise InstanceError(f"setup time must be >= 0, got {self.setup}")
        if self.capacity is not None:
            if not 1 <= _int(self.capacity, "capacity") <= n:
                raise InstanceError(f"capacity must be in [1, {n}], got {self.capacity}")
            if precedence:
                raise InstanceError(
                    "precedence edges are not supported with bounded capacity; "
                    "use \"unbounded\" capacity for precedence instances"
                )
        object.__setattr__(self, "p", (0, *(j.p for j in jobs)))
        # a stable sort by p from descending ids is ascending (p, -id) order
        by_key = tuple(sorted(range(n, 0, -1), key=self.p.__getitem__))
        object.__setattr__(self, "by_key", by_key)
        keys = [0] * (n + 1)
        for rank, j in enumerate(by_key, 1):
            keys[j] = rank
        object.__setattr__(self, "keys", tuple(keys))
        object.__setattr__(self, "cost_value", (None, *(j.cost.value for j in jobs)))
        if not precedence:
            no_edges = ([],) * (n + 1)
            object.__setattr__(self, "preds", no_edges)
            object.__setattr__(self, "succs", no_edges)
            object.__setattr__(self, "preds_by_layer", no_edges)
            object.__setattr__(self, "layer", (0,) + (n,) * n)
            return
        if edge_problem:
            raise InstanceError(edge_problem)
        # peel sink sets: layer n, then n-1, ...; a job never peeled is on a
        # cycle.  Jobs are peeled in descending layer, so appending each one
        # to its successors' lists orders every job's predecessors that way.
        outdeg = list(map(len, succs))
        layer = [0] * (n + 1)
        by_layer: list[list[int]] = [[] for _ in range(n + 1)]
        current = [v for v in range(1, n + 1) if not outdeg[v]]
        depth = n
        while current:
            nxt = []
            for v in current:
                layer[v] = depth
                for s in succs[v]:
                    by_layer[s].append(v)
                for u in preds[v]:
                    outdeg[u] = left = outdeg[u] - 1
                    if not left:
                        nxt.append(u)
            depth -= 1
            current = nxt
        if not all(layer[1:]):
            raise InstanceError("precedence edges contain a cycle")
        object.__setattr__(self, "preds", tuple(preds))
        object.__setattr__(self, "succs", tuple(succs))
        object.__setattr__(self, "layer", tuple(layer))
        object.__setattr__(self, "preds_by_layer", tuple(by_layer))

    @property
    def n(self) -> int:
        return len(self.jobs)

    @property
    def bounded(self) -> bool:
        return self.capacity is not None

    @property
    def effective_capacity(self) -> int:
        """Per-batch limit actually enforced; n when unbounded."""
        return self.capacity if self.capacity is not None else len(self.jobs)

    def job(self, job_id: int) -> Job:
        return self.jobs[job_id - 1]

    def edge_pairs(self) -> Iterator[tuple[int, int]]:
        """The edges as ``(pred, succ)`` pairs, as given, one at a time from
        ``edge_ids``; ``precedence`` collects them into a tuple."""
        ids = self.edge_ids
        return zip(ids[::2], ids[1::2])


# installed after the decorator, so the dataclass keeps ``precedence`` as
# its constructor keyword and compares and hashes the flat ``edge_ids``
Instance.precedence = property(
    lambda self: tuple(self.edge_pairs()),
    doc="The edges as ``(pred, succ)`` pairs, as given; built on each read.",
)


@dataclass(frozen=True)
class Schedule:
    """n batch slots with their completion times and the setup time.

    ``slots[i - 1]`` holds batch i (slot indices are 1-based throughout the
    solvers).  Empty slots form a prefix completing at 0.  Start times are
    not stored: ``start`` derives them from the completions and the setup.
    """

    slots: tuple[frozenset[int], ...]
    completion: tuple[int, ...]
    setup: int

    @property
    def start(self) -> tuple[int, ...]:
        """Start time of every slot, by the no-idle rule (its only home): a
        nonempty slot starts one setup after its predecessor completes (slot
        1 after time 0), an empty slot when it completes itself."""
        setup = self.setup
        before = (0, *self.completion[:-1])
        return tuple(t + setup if batch else c for batch, t, c in zip(self.slots, before, self.completion))

    @property
    def makespan(self) -> int:
        return self.completion[-1]

    def batches(self) -> list[tuple[int, ...]]:
        """Nonempty batches as sorted id tuples, earliest first."""
        return [tuple(sorted(batch)) for batch in self.slots if batch]


def batch_times(slots, instance: Instance, first: int = 1) -> list[int]:
    """No-idle completion times for 1-based slot sets (index 0 unused);
    the slots below ``first`` must be empty, and are not read."""
    n = instance.n
    setup = instance.setup
    p = instance.p.__getitem__
    completion = [0] * (n + 1)
    t = 0
    for i in range(first, n + 1):
        batch = slots[i]
        if batch:
            t += setup + sum(map(p, batch))
        completion[i] = t
    return completion


def _shape_problems(slots, instance: Instance) -> list[str]:
    """The capacity, empty-prefix and partition problems of slot sets
    (slot i at index i - 1), in the order ``validate`` reports them; []
    when they lay out the job set 1..n as a schedule."""
    n = instance.n
    if len(slots) != n:
        return [f"expected {n} slots, got {len(slots)}"]
    problems: list[str] = []
    cap = instance.effective_capacity
    seen_nonempty = False
    total = 0
    for i, batch in enumerate(slots, start=1):
        if batch:
            seen_nonempty = True
            if len(batch) > cap:
                problems.append(f"slot {i}: {len(batch)} jobs exceed capacity {cap}")
            total += len(batch)
        elif seen_nonempty:
            problems.append(f"slot {i}: empty slot after a nonempty one")
    jobs = set(range(1, n + 1))
    if total == n and jobs.issubset(chain.from_iterable(slots)):
        return problems
    placed: dict[int, int] = {}
    for i, batch in enumerate(slots, start=1):
        for j in batch:
            if j in placed:
                problems.append(f"job {j}: appears in slots {placed[j]} and {i}")
            placed[j] = i
    if missing := sorted(jobs - placed.keys()):
        problems.append(f"jobs missing from the schedule: {missing}")
    if extra := sorted(placed.keys() - jobs):
        problems.append(f"unknown job ids in the schedule: {extra}")
    return problems


_EMPTY_SLOT: frozenset[int] = frozenset()


def freeze_slots(slots: Iterable[Iterable[int]]) -> tuple[frozenset[int], ...]:
    """Slot contents as a tuple of frozensets, every empty slot being one
    shared empty set: a schedule of n slots with few nonempty ones then
    allocates a set only per batch."""
    return tuple([frozenset(batch) if batch else _EMPTY_SLOT for batch in slots])


def timetable(slots: Iterable[Iterable[int]], instance: Instance) -> Schedule:
    """Attach completion times to slot contents.

    Expects exactly n slots partitioning the job set, all empty slots first
    and at most ``effective_capacity`` jobs per slot; anything else raises
    ScheduleError with the first problem ``validate`` would report.
    Retimetabling a schedule's own slots reproduces its times exactly (the
    operation is idempotent).
    """
    filled = freeze_slots(slots)
    problems = _shape_problems(filled, instance)
    if problems:
        raise ScheduleError(problems[0])
    completion = batch_times((_EMPTY_SLOT, *filled), instance)
    return Schedule(filled, tuple(completion[1:]), instance.setup)


def objectives(schedule: Schedule, instance: Instance) -> tuple[int, int]:
    """(makespan, max cost): every job is scored at its batch's completion."""
    value = instance.cost_value
    worst = max(
        value[j](c)
        for batch, c in zip(schedule.slots, schedule.completion)
        if batch
        for j in batch
    )
    return schedule.makespan, worst


def validate(schedule: Schedule, instance: Instance) -> list[str]:
    """Check a schedule against the instance; an empty list means feasible.

    Reports capacity breaches, nonempty slots before empty ones, partition
    breaches, and strict-precedence violations.  With the no-idle times and
    the empty-prefix convention, a predecessor completing no later than its
    successor starts is the same as its slot index being strictly smaller,
    so precedence is checked on slot indices.
    """
    slots = schedule.slots
    problems = _shape_problems(slots, instance)
    placed = {j: i for i, batch in enumerate(slots, start=1) for j in batch}
    if len(slots) == instance.n and placed.keys() == set(range(1, instance.n + 1)):
        for pred, succ in instance.edge_pairs():
            if placed[pred] >= placed[succ]:
                problems.append(
                    f"precedence {pred} before {succ} violated: "
                    f"slots {placed[pred]} >= {placed[succ]}"
                )
    return problems
