"""Per-slot admissibility groups for the batch solvers.

Jobs are partitioned into n disjoint groups, one per batch slot; membership
in group i means the job may only sit in batches indexed i or lower.  Group
indices move strictly leftward over a solver run, so every job passes
through at most n - 1 groups and a full frontier sweep performs at most
n*(n-1) relocations in total.

The job -> group table is the only record of membership: ``groups()``
derives every group from it as a list in ascending ``Instance.keys``
order, whose (processing time, -id) order is strict, so every selection
the solvers make from a group is deterministic.
"""

from __future__ import annotations

from collections.abc import Sequence

from .model import Instance, InstanceError, InvariantError, _int


class AdmissibleSlots:
    """The n disjoint groups with leftward-only movement tracking.

    ``table[j]`` is the index of the group holding job j, i.e. the highest
    batch slot the job may currently occupy.  The limit table is the whole
    state next to ``relocations``, which counts every move performed over
    the structure's lifetime.  The constructor takes a table of the same
    shape, indexed by job id with entry 0 unused, and keeps a copy.
    """

    def __init__(self, instance: Instance, table: Sequence[int]):
        n = instance.n
        if len(table) != n + 1:
            raise ValueError("limits must cover job ids 1..n")
        for j in range(1, n + 1):
            try:
                if 1 <= _int(table[j], "") <= n:
                    continue
            except InstanceError:
                pass
            # only now is the job named: a non-integer raises here, anything else is out of range
            _int(table[j], f"job {j}: group index")
            raise ValueError(f"job {j}: group index {table[j]} out of range")
        self._instance = instance
        self._limit = [0, *table[1:]]
        self.relocations = 0

    @classmethod
    def unrestricted(cls, instance: Instance) -> "AdmissibleSlots":
        """Every job may take any slot: all jobs start in group n."""
        return cls(instance, [instance.n] * (instance.n + 1))

    @property
    def n(self) -> int:
        return self._instance.n

    @property
    def table(self) -> list[int]:
        """The limits as one list indexed by job id (entry 0 unused), for
        hot loops.  It is the live table that ``move`` updates in place;
        read it, never write it."""
        return self._limit

    def move(self, job_id: int, to: int) -> None:
        """Relocate a job to a strictly lower group."""
        origin = self._limit[job_id]
        if not 1 <= to < origin:
            raise InvariantError(f"job {job_id}: move {origin} -> {to} is not strictly left")
        self._limit[job_id] = to
        self.relocations += 1

    def groups(self) -> list[list[int]]:
        """Every group as a list indexed by group (entry 0 empty), each in
        ascending ``Instance.keys`` order: one pass over ``Instance.by_key``."""
        groups: list[list[int]] = [[] for _ in range(self.n + 1)]
        limit = self._limit
        for j in self._instance.by_key:
            groups[limit[j]].append(j)
        return groups

    def copy(self) -> "AdmissibleSlots":
        clone = AdmissibleSlots.__new__(AdmissibleSlots)
        clone._instance = self._instance
        clone._limit = list(self._limit)
        clone.relocations = self.relocations
        return clone

    def dump(self) -> str:
        """One line per nonempty group: ``i: [id(p), ...]`` in descending key
        order, longest job first."""
        p = self._instance.p
        return "\n".join(
            f"{i}: [" + ", ".join(f"{j}({p[j]})" for j in reversed(group)) + "]"
            for i, group in enumerate(self.groups())
            if group
        )
