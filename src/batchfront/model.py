"""Domain types for serial-batch machine scheduling.

A serial-batch machine runs jobs in batches: a batch's processing time is
the sum of its members' processing times, every member completes when the
batch does, and each nonempty batch is preceded by a constant setup time.
A schedule keeps exactly n batch slots with all empty slots forming a
prefix, so times follow the no-idle recurrence (each nonempty batch starts
one setup after its predecessor completes).

All times and costs are exact integers; the frontier sweep compares them
against strict thresholds, so floating point is never used here.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Union


class InstanceError(ValueError):
    """Raised for malformed instances or instance files."""


class ScheduleError(ValueError):
    """Raised when slot contents cannot form a valid schedule."""


class InvariantError(RuntimeError):
    """Raised by a solver's check mode when its own state is inconsistent.

    An explicit exception rather than ``assert``, so the checks that
    verification relies on still run under ``python -O``.
    """


@dataclass(frozen=True)
class Lateness:
    """Completion time minus due date; may be negative."""

    due: int

    def value(self, t: int) -> int:
        return t - self.due


@dataclass(frozen=True)
class Tardiness:
    """Lateness clamped at zero."""

    due: int

    def value(self, t: int) -> int:
        return max(0, t - self.due)


@dataclass(frozen=True)
class WeightedCompletion:
    w: int

    def __post_init__(self):
        if self.w < 0:
            raise InstanceError(f"weighted_completion weight must be >= 0, got {self.w}")

    def value(self, t: int) -> int:
        return self.w * t


@dataclass(frozen=True)
class Affine:
    """a*t + c with a >= 0 so the cost never decreases over time."""

    a: int
    c: int

    def __post_init__(self):
        if self.a < 0:
            raise InstanceError(f"affine slope must be >= 0, got {self.a}")

    def value(self, t: int) -> int:
        return self.a * t + self.c


@dataclass(frozen=True)
class StepTable:
    """Piecewise-constant cost given by (time, value) breakpoints.

    The value at t is the value of the last breakpoint whose time is <= t;
    below the first breakpoint the first value applies.  Times must be
    strictly increasing and values non-decreasing, which keeps evaluation
    monotone.
    """

    breakpoints: tuple[tuple[int, int], ...]

    def __post_init__(self):
        bps = tuple((int(t), int(v)) for t, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if not bps:
            raise InstanceError("step cost needs at least one breakpoint")
        for (t1, v1), (t2, v2) in zip(bps, bps[1:]):
            if t2 <= t1:
                raise InstanceError("step cost breakpoint times must be strictly increasing")
            if v2 < v1:
                raise InstanceError("step cost values must be non-decreasing")

    def value(self, t: int) -> int:
        idx = bisect_right(self.breakpoints, t, key=lambda bp: bp[0])
        return self.breakpoints[max(idx - 1, 0)][1]


CostSpec = Union[Lateness, Tardiness, WeightedCompletion, Affine, StepTable]


def eval_cost(spec: CostSpec, t: int) -> int:
    """Cost of completing at time t; non-decreasing in t for every spec."""
    return spec.value(t)


@dataclass(frozen=True)
class Job:
    id: int
    p: int
    cost: CostSpec

    def __post_init__(self):
        if self.p < 1:
            raise InstanceError(f"job {self.id}: processing time must be >= 1, got {self.p}")


@dataclass(frozen=True)
class Instance:
    """A job set plus setup time, capacity mode, and optional precedence.

    ``capacity`` is the per-batch job limit; ``None`` means unbounded.
    Precedence edges (pred id, succ id) are only allowed on unbounded
    instances and must form a DAG; both are checked at construction.
    Jobs are stored sorted by id, and ids must be exactly 1..n.

    Per-job tables, indexed by job id (entry 0 unused), are the one home
    the solvers' loops read job data from: ``p[j]`` is the processing time,
    ``cost_value[j](t)`` the cost of completing at t (the bound ``value``
    method of the job's cost spec) and ``keys[j]`` the priority key that
    ``sort_key`` returns.
    """

    jobs: tuple[Job, ...]
    setup: int
    capacity: int | None = None
    precedence: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        jobs = tuple(sorted(self.jobs, key=lambda j: j.id))
        object.__setattr__(self, "jobs", jobs)
        edges = tuple((int(a), int(b)) for a, b in self.precedence)
        object.__setattr__(self, "precedence", edges)
        n = len(jobs)
        if n == 0:
            raise InstanceError("instance needs at least one job")
        if [j.id for j in jobs] != list(range(1, n + 1)):
            raise InstanceError("job ids must be exactly 1..n with no repeats")
        if self.setup < 0:
            raise InstanceError(f"setup time must be >= 0, got {self.setup}")
        if self.capacity is not None:
            if not 1 <= self.capacity <= n:
                raise InstanceError(f"capacity must be in [1, {n}], got {self.capacity}")
            if edges:
                raise InstanceError(
                    "precedence edges are not supported with bounded capacity; "
                    "use \"unbounded\" capacity for precedence instances"
                )
        for a, b in edges:
            if not (1 <= a <= n and 1 <= b <= n) or a == b:
                raise InstanceError(f"bad precedence edge ({a}, {b})")
        if edges:
            self._check_acyclic(n, edges)
        object.__setattr__(self, "keys", (None, *((j.p, -j.id) for j in jobs)))
        object.__setattr__(self, "p", (0, *(j.p for j in jobs)))
        object.__setattr__(self, "cost_value", (None, *(j.cost.value for j in jobs)))

    @staticmethod
    def _check_acyclic(n: int, edges) -> None:
        succs: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
        indeg = {v: 0 for v in range(1, n + 1)}
        for a, b in edges:
            succs[a].append(b)
            indeg[b] += 1
        ready = [v for v, d in indeg.items() if d == 0]
        seen = 0
        while ready:
            v = ready.pop()
            seen += 1
            for w in succs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        if seen < n:
            raise InstanceError("precedence edges contain a cycle")

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

    def total_processing(self) -> int:
        return sum(self.p)

    def sort_key(self, job_id: int) -> tuple[int, int]:
        """Priority key (p, -id): longer jobs rank higher, ties to smaller id."""
        return self.keys[job_id]


@dataclass(frozen=True)
class Schedule:
    """n batch slots with their start and completion times.

    ``slots[i - 1]`` holds batch i (slot indices are 1-based throughout the
    solvers).  Empty slots form a prefix with start = completion = 0.
    """

    slots: tuple[frozenset[int], ...]
    start: tuple[int, ...]
    completion: tuple[int, ...]

    @property
    def makespan(self) -> int:
        return self.completion[-1]

    def slot_of(self, job_id: int) -> int:
        """1-based index of the slot containing the job."""
        for i, batch in enumerate(self.slots, start=1):
            if job_id in batch:
                return i
        raise KeyError(job_id)

    def batches(self) -> list[tuple[int, ...]]:
        """Nonempty batches as sorted id tuples, earliest first."""
        return [tuple(sorted(batch)) for batch in self.slots if batch]


def timetable(slots: Iterable[Iterable[int]], instance: Instance) -> Schedule:
    """Attach start/completion times to slot contents.

    Expects exactly n slots partitioning the job set, all empty slots first
    and at most ``effective_capacity`` jobs per slot; anything else raises
    ScheduleError.  Retimetabling a schedule's own slots reproduces its
    times exactly (the operation is idempotent).
    """
    filled = tuple(frozenset(batch) for batch in slots)
    n = instance.n
    if len(filled) != n:
        raise ScheduleError(f"expected {n} slots, got {len(filled)}")
    cap = instance.effective_capacity
    seen_nonempty = False
    total = 0
    for i, batch in enumerate(filled, start=1):
        if batch:
            seen_nonempty = True
            if len(batch) > cap:
                raise ScheduleError(f"slot {i} holds {len(batch)} jobs, capacity is {cap}")
            total += len(batch)
        elif seen_nonempty:
            raise ScheduleError(f"empty slot {i} after a nonempty slot")
    if total != n or frozenset().union(*filled) != frozenset(range(1, n + 1)):
        raise ScheduleError("slots must partition the job set 1..n")

    p = instance.p
    start = []
    completion = []
    t = 0
    for batch in filled:
        if batch:
            s = t + instance.setup
            t = s + sum(p[j] for j in batch)
        else:
            s = t
        start.append(s)
        completion.append(t)
    return Schedule(filled, tuple(start), tuple(completion))


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
    problems: list[str] = []
    n = instance.n
    if len(schedule.slots) != n:
        return [f"expected {n} slots, got {len(schedule.slots)}"]

    cap = instance.effective_capacity
    seen_nonempty = False
    for i, batch in enumerate(schedule.slots, start=1):
        if batch:
            seen_nonempty = True
            if len(batch) > cap:
                problems.append(f"slot {i}: {len(batch)} jobs exceed capacity {cap}")
        elif seen_nonempty:
            problems.append(f"slot {i}: empty slot after a nonempty one")

    placed: dict[int, int] = {}
    for i, batch in enumerate(schedule.slots, start=1):
        for j in batch:
            if j in placed:
                problems.append(f"job {j}: appears in slots {placed[j]} and {i}")
            placed[j] = i
    missing = set(range(1, n + 1)) - placed.keys()
    extra = placed.keys() - set(range(1, n + 1))
    if missing:
        problems.append(f"jobs missing from the schedule: {sorted(missing)}")
    if extra:
        problems.append(f"unknown job ids in the schedule: {sorted(extra)}")

    if not missing and not extra:
        for pred, succ in instance.precedence:
            if placed[pred] >= placed[succ]:
                problems.append(
                    f"precedence {pred} before {succ} violated: "
                    f"slots {placed[pred]} >= {placed[succ]}"
                )
    return problems
