"""Per-slot admissibility groups for the batch solvers.

Jobs are partitioned into n disjoint groups, one per batch slot; membership
in group i means the job may only sit in batches indexed i or lower.  Group
indices move strictly leftward over a solver run, so every job passes
through at most n - 1 groups and a full frontier sweep performs at most
n*(n-1) relocations in total.

Each group is a plain set of job ids next to a job -> group table.  No solver
needs the members in any order: selections that depend on order rank jobs
by ``Instance.sort_key``, whose (processing time, -id) order is strict,
which keeps every selection deterministic.
"""

from __future__ import annotations

from .model import Instance


class AdmissibleSlots:
    """The n disjoint groups with leftward-only movement tracking.

    ``limit(j)`` is the index of the group holding job j, i.e. the highest
    batch slot the job may currently occupy.  ``relocations`` counts every
    move performed over the structure's lifetime.
    """

    def __init__(self, instance: Instance, limits: dict[int, int]):
        n = instance.n
        if sorted(limits) != list(range(1, n + 1)):
            raise ValueError("limits must cover job ids 1..n")
        for j, i in limits.items():
            if not 1 <= i <= n:
                raise ValueError(f"job {j}: group index {i} out of range")
        self._instance = instance
        self._limit = [0] * (n + 1)
        self._groups: list[set[int]] = [set() for _ in range(n + 1)]
        for j, i in limits.items():
            self._limit[j] = i
            self._groups[i].add(j)
        self.relocations = 0

    @classmethod
    def unrestricted(cls, instance: Instance) -> "AdmissibleSlots":
        """Every job may take any slot: all jobs start in group n."""
        return cls(instance, {j.id: instance.n for j in instance.jobs})

    @property
    def n(self) -> int:
        return self._instance.n

    def limit(self, job_id: int) -> int:
        return self._limit[job_id]

    @property
    def table(self) -> list[int]:
        """The limits as one list indexed by job id (entry 0 unused), for
        hot loops.  It is the live table that ``move`` updates in place;
        read it, never write it."""
        return self._limit

    def move(self, job_id: int, to: int) -> None:
        """Relocate a job to a strictly lower group."""
        origin = self._limit[job_id]
        assert 1 <= to < origin, f"job {job_id}: move {origin} -> {to} is not strictly left"
        self._groups[origin].remove(job_id)
        self._groups[to].add(job_id)
        self._limit[job_id] = to
        self.relocations += 1

    def members(self, group: int) -> list[int]:
        return list(self._groups[group])

    def group_size(self, group: int) -> int:
        return len(self._groups[group])

    def prefix_capacity_ok(self, b: int) -> bool:
        """True iff every prefix of groups fits in its slots: sum of the
        first i group sizes <= i*b for all i."""
        running = 0
        for i in range(1, self.n + 1):
            running += len(self._groups[i])
            if running > i * b:
                return False
        return True

    def copy(self) -> "AdmissibleSlots":
        clone = AdmissibleSlots.__new__(AdmissibleSlots)
        clone._instance = self._instance
        clone._limit = list(self._limit)
        clone._groups = [set(g) for g in self._groups]
        clone.relocations = self.relocations
        return clone

    def dump(self) -> str:
        """One line per nonempty group: ``i: [id(p), ...]`` in key order."""
        key = self._instance.sort_key
        lines = []
        for i in range(1, self.n + 1):
            jobs = sorted(self._groups[i], key=key, reverse=True)
            if jobs:
                lines.append(f"{i}: [" + ", ".join(f"{j}({key(j)[0]})" for j in jobs) + "]")
        return "\n".join(lines)
