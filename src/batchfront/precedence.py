"""Unbounded-capacity scheduling under strict precedence.

With unlimited batch capacity the batches are simply the admissibility
groups themselves, so the solver never assembles batches greedily: it
holds the groups with their completion times, sweeps them right to left,
and moves every job that is either too costly at its completion or capped
by a successor's earlier move.  Moves propagate: when a job moves left,
each of its direct predecessors learns it must eventually sit strictly
further left still, and is physically moved when the sweep (this one or a
later one) reaches its slot.

Each pass costs what the previous one changed.  The solver holds every
group's max cost and marks the groups holding a job whose bound fell, so a
pass walks only changed, marked and costly groups; a move shifts only the
completion times it changes.  It also holds each job's cost at its group's
completion, and only a move's retimed groups, or an opening, make those
stale: a group that merely lost jobs refreshes its max from the held costs,
and the walk of a costly group reads them.  Propagation reads the
predecessors in descending sink layer and stops where no bound can fall any
more.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .admissible import AdmissibleSlots
from .bounded import Trace, WarmSolver, lowest_nonempty, tolerated_slot
from .model import Instance, InvariantError, batch_times
from .model import timetable  # noqa: F401 - unused here; perfbench/tracer.py times calls through this name
from .model import eval_cost  # noqa: F401 - unused here; perfbench/tracer.py counts calls through this name


class PrecGraph:
    """Jobs as vertices and strict-precedence edges, stored both ways.

    ``preds(j)`` lists direct predecessors (the order ``--trace`` reports
    bound changes in) and ``succs(j)`` direct successors, in input order
    with repeated edges kept once: a view over the tables the ``Instance``
    built when it checked the edges.  The solver propagates over
    ``Instance.preds_by_layer``, the same predecessors in descending sink
    layer.  Edges may form any DAG relation, not necessarily the covering
    relation; propagation over redundant edges is only extra work, never
    wrong.
    """

    def __init__(self, instance: Instance):
        self._succs = instance.succs
        self._preds = instance.preds
        self.edge_count = sum(map(len, instance.succs))

    def preds(self, job_id: int) -> list[int]:
        return self._preds[job_id]

    def succs(self, job_id: int) -> list[int]:
        return self._succs[job_id]


def layered_limits(instance: Instance, graph: PrecGraph) -> AdmissibleSlots:
    """Initial groups honoring precedence: the sink layers of ``Instance``.

    Group n takes the sinks of the DAG, group n-1 the sinks of what remains,
    and so on; lower groups stay empty once every job is placed.  Every
    predecessor ends up in a strictly lower group than each of its
    successors, and the nonempty groups form a suffix.  The layering is
    the instance's own; ``graph`` is not read.
    """
    return AdmissibleSlots(instance, instance.layer)


class PrecedenceSolver(WarmSolver):
    """Warm-startable minimum-makespan solver under strict precedence.

    ``bounds`` records where propagation says each job must eventually go.
    It starts as a copy of the limits and is never re-synced: a clean pass
    leaves every job's bound equal to its group, and an infeasible step
    spends the solver, so the two coincide at the start of every step.  A
    bound dips below its job's group only while successors' moves are
    still being worked off.

    ``slots`` holds the groups, which are the batches, and ``marked[i]``
    is set when propagation lowers the bound of a job that group i holds.
    The nonempty groups are ``first``..n, and a pass visits them from n
    down; it refreshes a stale max with ``held_max`` and walks group i
    only when the group is marked or its held max reaches the threshold;
    any other group has every job tolerating its completion and no job
    bounded below it, so the walk would move nothing.  A walked group is
    timed, so the walk reads each job's held cost.  Moves land at pass
    end: each shifts ``completion`` by the job's processing time on its
    target..origin-1, marks those groups' maxima stale and their job costs
    untimed (the target is among them, so a landing job needs no
    evaluation), and calls ``_open`` when it opens its target.
    Propagation reads ``Instance.preds_by_layer`` and stops at the first
    predecessor whose sink layer is below the target: a job's limit never
    exceeds its layer, and its bound never exceeds its limit, so no
    predecessor past that point needs lowering.

    With ``check=True`` the solver raises InvariantError when, at a step's
    first pass, the bounds differ from the limits; when, before a pass,
    the held groups differ from ``limits.groups()``, the held state
    fails ``check_held`` against the completions before the previous pass,
    or a limit exceeds its job's layer; when a skipped group held a job
    the walk would have moved; and when, after a move to slot t, any
    predecessor (past the propagation cut or not) keeps a bound of t or
    more.
    """

    def __init__(
        self,
        instance: Instance,
        limits: AdmissibleSlots,
        trace: Trace | None = None,
        check: bool = False,
    ):
        slots = limits.groups()
        super().__init__(instance, limits, slots, lowest_nonempty(slots), batch_times(slots, instance), trace, check)
        self.value = instance.cost_value  # the held entries are job ids
        self.bounds = list(limits.table)
        self.marked = [False] * (instance.n + 1)

    @classmethod
    def initial(
        cls,
        instance: Instance,
        trace: Trace | None = None,
        check: bool = False,
    ) -> "PrecedenceSolver":
        return cls(instance, layered_limits(instance, PrecGraph(instance)), trace, check)

    def solve(self, threshold) -> int | None:
        """Makespan of the minimum-makespan schedule satisfying limits,
        precedence, and the strict cost cap, whose batches the held groups
        then are, or None when none exists."""
        before: list[int] | None = None
        while True:
            # the nonempty groups are first..n: moves land only on an
            # occupied group or on first - 1, which ``_open`` makes first
            self.passes += 1
            if self.check:
                self._check_state(before)
                before = self.completion[:]
            outcome = self._sweep(threshold)
            if outcome is None:
                return None
            if not outcome:
                return self.converged()

    def _sweep(self, threshold) -> bool | None:
        """One descending pass over the held groups n..``first``, the
        nonempty ones.

        A group's stale max is refreshed here, and the group is walked,
        longest job first, only when that max reaches the threshold or the
        group is marked.  Jobs are judged against this pass's times and
        membership: moves land at pass end (``_land``), so ``first`` and
        every walked group's held costs hold for the whole pass, and a
        moved job is re-inspected when a later pass reaches its new group.
        Returns True if anything moved, False for a clean pass, None when
        infeasible.
        """
        instance = self.instance
        value = instance.cost_value
        layer = instance.layer
        by_layer = instance.preds_by_layer
        slots = self.slots
        completion = self.completion
        limits = self.limits
        limit = limits.table
        bounds = self.bounds
        top = self.top
        cost = self.cost
        marked = self.marked
        trace = self.trace
        moves: list[tuple[int, int, int]] = []
        targets: set[int] = set()  # groups a move of this pass refills at pass end
        for i in range(instance.n, self.first - 1, -1):
            batch = slots[i]
            worst = top[i]
            if worst is None:
                worst = self.held_max(i)
            if worst < threshold and not marked[i]:
                if self.check:
                    self._check_skip(i, threshold)
                continue  # every job tolerates slot i and none is bounded below it
            marked[i] = False
            left = len(batch)
            for j in batch[::-1]:
                target = bounds[j]  # at most i, the job's limit
                if cost[j] >= threshold:  # group i is timed: its max is current
                    tolerated = tolerated_slot(value[j], completion, i, threshold)
                    if tolerated < target:
                        target = tolerated
                elif target == i:
                    continue
                if target < 1:
                    return None  # nothing tolerable, or successors force the job out of every slot
                limits.move(j, target)
                bounds[j] = target
                self.adjustments += 1
                moves.append((j, i, target))
                targets.add(target)
                if trace:
                    trace(f"move job={j} from={i} to={target}")
                left -= 1
                if not left and i not in targets:
                    return None  # group drained with jobs still due further left
                lowered = []
                for q in by_layer[j]:
                    if layer[q] < target:
                        break  # predecessors from here on are bounded below target already
                    if target - 1 < bounds[q]:
                        bounds[q] = target - 1
                        marked[limit[q]] = True
                        lowered.append(q)
                if self.check:
                    self._check_cut(j, target)
                if trace and lowered:
                    for q in instance.preds[j]:
                        if q in lowered:
                            trace(f"bound job={q} new={target - 1}")
            if left < len(batch):
                top[i] = None  # jobs left the group; _land removes them
        if not moves:
            return False
        self._land(moves)
        return True

    def _land(self, moves: list[tuple[int, int, int]]) -> None:
        """Land a pass's moves, in order: each job leaves its origin's held
        list for its target's, and slots target..origin-1 complete later by
        its processing time.  A move that opens its target calls ``_open``,
        which shifts every slot from the target on by one setup.  The held
        maxima of the slots whose times or members changed go stale, and
        the retimed slots are untimed."""
        p = self.instance.p
        keys = self.instance.keys
        by_key = keys.__getitem__
        slots = self.slots
        completion = self.completion
        top = self.top
        timed = self.timed
        for j, i, target in moves:
            origin = slots[i]
            del origin[bisect_left(origin, keys[j], key=by_key)]
            if not slots[target]:
                self._open(target)  # no earlier move left it, so it was empty all pass
            insort(slots[target], j, key=by_key)
            pj = p[j]
            for c in range(target, i):
                completion[c] += pj
                top[c] = None
                timed[c] = False

    def _check_state(self, before: list[int] | None) -> None:
        """Check mode: the held state before a pass against a rebuild, and
        at a step's first pass (``before`` is None) the bounds against the
        limits."""
        if before is None and self.bounds != self.limits.table:
            raise InvariantError("bounds differ from the limits at the start of a step")
        if self.slots != self.limits.groups():
            raise InvariantError("held groups differ from the limits' groups")
        self.check_held(before)
        if any(map(int.__gt__, self.limits.table, self.instance.layer)):
            raise InvariantError("a limit exceeds its job's sink layer")

    def _check_skip(self, i: int, threshold) -> None:
        """Check mode: a group the pass skips holds no job it would move."""
        value = self.instance.cost_value
        at = self.completion[i]
        if any(value[j](at) >= threshold or self.bounds[j] < i for j in self.slots[i]):
            raise InvariantError(f"skipped group {i} needed a walk")

    def _check_cut(self, j: int, target: int) -> None:
        """Check mode: after propagating job j's move, every predecessor,
        those past the layer cut included, is bounded below target."""
        if any(self.bounds[q] > target - 1 for q in self.instance.preds[j]):
            raise InvariantError(f"a predecessor of job {j} past the propagation cut is bounded above {target - 1}")
