"""Unbounded-capacity scheduling under strict precedence.

With unlimited batch capacity the batches are simply the admissibility
groups themselves, so the solver never assembles batches greedily: it
timetables the groups, sweeps them right to left, and moves every job that
is either too costly at its completion or capped by a successor's earlier
move.  Moves propagate: when a job moves left, each of its direct
predecessors learns it must eventually sit strictly further left still,
and is physically moved when the sweep (this one or a later one) reaches
its slot.
"""

from __future__ import annotations

from typing import Callable

from .admissible import AdmissibleSlots
from .bounded import batch_times, tolerated_slot
from .model import Instance, InvariantError, Schedule, timetable
from .model import eval_cost  # noqa: F401 - unused here; perfbench/tracer.py counts calls through this name

Trace = Callable[[str], None]


class PrecGraph:
    """Jobs as vertices and strict-precedence edges, stored both ways.

    ``preds(j)`` lists direct predecessors (the inverse adjacency, which is
    what the solver propagates over) and ``succs(j)`` direct successors.
    Built from an ``Instance``, which has already checked that the edges
    name real jobs and form a DAG; repeated edges are kept once.  Edges may
    form any DAG relation, not necessarily the covering relation;
    propagation over redundant edges is only extra work, never wrong.
    """

    def __init__(self, instance: Instance):
        n = instance.n
        self._succs: list[list[int]] = [[] for _ in range(n + 1)]
        self._preds: list[list[int]] = [[] for _ in range(n + 1)]
        seen = set()
        for a, b in instance.precedence:
            if (a, b) in seen:
                continue
            seen.add((a, b))
            self._succs[a].append(b)
            self._preds[b].append(a)
        self.edge_count = len(seen)

    def preds(self, job_id: int) -> list[int]:
        return self._preds[job_id]

    def succs(self, job_id: int) -> list[int]:
        return self._succs[job_id]


def layered_limits(instance: Instance, graph: PrecGraph) -> AdmissibleSlots:
    """Initial groups honoring precedence: peel sink sets right to left.

    Group n takes the sinks of the DAG, group n-1 the sinks of what remains,
    and so on; lower groups stay empty once every job is placed.  Every
    predecessor ends up in a strictly lower group than each of its
    successors, and the nonempty groups form a suffix.
    """
    n = instance.n
    outdeg = [0] * (n + 1)
    for v in range(1, n + 1):
        outdeg[v] = len(graph.succs(v))
    current = [v for v in range(1, n + 1) if outdeg[v] == 0]
    limits: dict[int, int] = {}
    group = n
    while current:
        nxt = []
        for v in current:
            limits[v] = group
            for p in graph.preds(v):
                outdeg[p] -= 1
                if outdeg[p] == 0:
                    nxt.append(p)
        group -= 1
        current = nxt
    assert len(limits) == n  # acyclic, so peeling reaches every job
    return AdmissibleSlots(instance, limits)


class PrecedenceSolver:
    """Warm-startable minimum-makespan solver under strict precedence.

    Like the bounded solver, ``solve`` may be called repeatedly with
    strictly smaller thresholds and continues from the previous state.
    ``bounds`` records where propagation says each job must eventually go;
    it re-syncs with group membership at every entry (the two provably
    coincide whenever a solve converges) and dips below it only while
    successors' moves are still being worked off.
    """

    def __init__(
        self,
        instance: Instance,
        graph: PrecGraph,
        limits: AdmissibleSlots,
        trace: Trace | None = None,
        check: bool = False,
    ):
        self.instance = instance
        self.graph = graph
        self.limits = limits
        self.bounds = [0] * (instance.n + 1)
        self.trace = trace
        self.check = check
        self.adjustments = 0
        self.passes = 0

    @classmethod
    def initial(
        cls,
        instance: Instance,
        trace: Trace | None = None,
        check: bool = False,
    ) -> "PrecedenceSolver":
        graph = PrecGraph(instance)
        return cls(instance, graph, layered_limits(instance, graph), trace, check)

    def solve(self, threshold) -> Schedule | None:
        """Minimum-makespan schedule satisfying limits, precedence, and the
        strict cost cap, or None when none exists."""
        instance = self.instance
        n = instance.n
        for j in range(1, n + 1):
            self.bounds[j] = self.limits.limit(j)
        last_completion: list[int] | None = None
        while True:
            # Batches are exactly the groups; an empty group between
            # nonempty ones would make the layout invalid, but moves only
            # ever land on occupied slots or directly under the occupied
            # suffix, so the structure stays a suffix throughout.
            slots = [set(self.limits.members(i)) for i in range(n + 1)]
            self.passes += 1
            start, completion = batch_times(slots, instance)
            if self.check and last_completion is not None:
                if any(completion[g] < last_completion[g] for g in range(1, n + 1)):
                    raise InvariantError("a batch completion moved earlier")
            last_completion = completion

            outcome = self._sweep(slots, completion, threshold)
            if outcome is None:
                return None
            if not outcome:
                return timetable(slots[1:], instance)

    def _sweep(self, slots: list[set[int]], completion: list[int], threshold) -> bool | None:
        """One descending pass over the formed batches.

        Jobs are judged against this pass's times; group membership changes
        mid-sweep do not re-enter the pass (a moved job is re-inspected when
        the next pass reaches its new slot).  Returns True if anything
        moved, False for a clean pass, None when infeasible.
        """
        instance = self.instance
        value = instance.cost_value
        by_key = instance.keys.__getitem__
        changed = False
        for i in range(instance.n, 0, -1):
            for j in sorted(slots[i], key=by_key, reverse=True):
                if value[j](completion[i]) < threshold:
                    tolerated = i
                else:
                    tolerated = tolerated_slot(value[j], completion, i, threshold)
                target = min(tolerated, self.bounds[j])
                if target < 1:
                    return None  # nothing tolerable, or successors force the job out of every slot
                if target == i:
                    continue
                self.limits.move(j, target)
                self.bounds[j] = target
                self.adjustments += 1
                changed = True
                if self.trace:
                    self.trace(f"move job={j} from={i} to={target}")
                if self.limits.group_size(i) == 0:
                    return None  # group drained with jobs still due further left
                for p in self.graph.preds(j):
                    if target - 1 < self.bounds[p]:
                        self.bounds[p] = target - 1
                        if self.trace:
                            self.trace(f"bound job={p} new={target - 1}")
        return changed
