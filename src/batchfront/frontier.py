"""Complete Pareto frontiers for (makespan, max cost).

The sweep starts with no cost cap, repeatedly re-solves for minimum
makespan with every job cost strictly below the best max cost found so
far, and records a point each time the makespan is forced strictly upward.
When the cap becomes unattainable the last schedule is both the final
frontier point and the minimizer of max cost alone.

Because the makespan of any schedule is (number of nonempty batches) *
setup + total processing time, consecutive solutions with equal makespan
differ only in cost; only the last of such a run is recorded, so the
output never contains a dominated pair.  A solver step yields only its
makespan and max cost; the sweep builds a point's schedule from the limits
that step left, and only for the steps it records.

The sweeps and ``ParetoFront.to_csv`` run with the cyclic garbage
collector paused, as ``fileio.parse_instance`` does, and so do the
``trace`` and ``on_step`` callbacks they call; ``model._collector_paused``
states the pause and the premise it rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .admissible import AdmissibleSlots
from .bounded import UNBOUNDED, BoundedSolver, Trace, form_batches, lowest_nonempty, solve_reference
from .model import (
    _EMPTY_SLOT,
    Instance,
    InstanceError,
    InvariantError,
    Schedule,
    _collector_paused,
    batch_times,
    freeze_slots,
    objectives,
)
from .precedence import PrecedenceSolver

# on_step(limits before the call, threshold, schedule or None, limits after):
# one invocation per threshold step, for differential verification.  The
# schedule is the one the sweep builds from the limits after, None when the
# step is infeasible.  The limits before are a copy of the step's
# checkpoint, taken for the hook at every step, which the hook owns and may
# change once the sweep has read it; the limits after are the solver's own
# and must be left as they are.
StepHook = Callable[[AdmissibleSlots, object, Schedule | None, AdmissibleSlots], None]

# fill(instance, limits): the 1-based slot lists (index 0 unused) that a
# converged step holds under those limits, whose nonempty slots are a suffix:
# ``form_batches`` in the bounded model, the limits' groups in the unbounded
# one.
Fill = Callable[[Instance, AdmissibleSlots], list[list[int]]]


@dataclass(frozen=True)
class ParetoPoint:
    makespan: int
    max_cost: int
    schedule: Schedule


@dataclass(frozen=True)
class ParetoFront:
    """Strictly monotone frontier plus the min-max-cost schedule.

    Makespans strictly increase and max costs strictly decrease along
    ``points``; ``min_cost_schedule`` is the last point's schedule, optimal
    for max cost alone.  ``relocations``/``threshold_steps`` expose the
    solver work done (a full run moves jobs at most n*(n-1) times).
    """

    points: tuple[ParetoPoint, ...]
    relocations: int = 0
    threshold_steps: int = 0

    @property
    def min_cost_schedule(self) -> Schedule:
        return self.points[-1].schedule

    def pairs(self) -> list[tuple[int, int]]:
        return [(pt.makespan, pt.max_cost) for pt in self.points]

    @_collector_paused
    def to_csv(self) -> str:
        """The points as ``frontier_csv`` text."""
        return frontier_csv((pt.makespan, pt.max_cost, pt.schedule) for pt in self.points)


def frontier_csv(rows: Iterable[tuple[int, int, Schedule]]) -> str:
    """Header ``c_max,f_max,batches``, then one line per (makespan, max cost,
    schedule) row; batches joins nonempty slots with ";" (earliest first),
    ids within a batch sorted and joined with "."."""
    lines = ["c_max,f_max,batches"]
    for makespan, max_cost, schedule in rows:
        groups = ";".join(".".join(str(j) for j in batch) for batch in schedule.batches())
        lines.append(f"{makespan},{max_cost},{groups}")
    return "\n".join(lines) + "\n"


def _timed(instance: Instance, fill: Fill, limits: AdmissibleSlots) -> Schedule:
    """The schedule a converged step holds: ``fill`` of the limits it left,
    with its times.  Only the slots from the lowest nonempty one on are
    frozen and timed; those below it are the shared empty slot and complete
    at 0.  Check mode holds the solvers' slots to that fill, so
    ``timetable``'s shape check is not repeated here."""
    slots = fill(instance, limits)
    first = lowest_nonempty(slots)
    frozen = (_EMPTY_SLOT,) * (first - 1) + freeze_slots(slots[first:])
    return Schedule(frozen, tuple(batch_times(slots, instance, first)[1:]), instance.setup)


def _sweep(instance: Instance, solver, fill: Fill, on_step: StepHook | None) -> ParetoFront:
    """Run the threshold sweep on a solver that has ``limits``,
    ``solve(threshold)``, which returns the converged makespan or None, and
    ``max_cost``, the max cost of the step it last converged.

    Each step starts with a checkpoint of the limits, which are the ones
    the previous step left, so nothing is copied while the step runs.  When
    a step raises the makespan or is infeasible, the previous step is a
    point, and its schedule is built with ``fill`` from the limits at the
    checkpoint; the hook's schedule is built from the limits the step left
    the same way.  A solver may also replace its limits during a step; the
    replaced object then still holds the step's start, with an empty log."""
    points: list[ParetoPoint] = []
    threshold = UNBOUNDED
    last: tuple[int, int] | None = None  # (makespan, max cost) of the previous step
    steps = 0
    while True:
        held = solver.limits
        held.checkpoint()
        makespan = solver.solve(threshold)
        steps += 1
        point = last is not None and (makespan is None or makespan > last[0])
        before = held.at_checkpoint() if point or on_step else None
        if point:
            points.append(ParetoPoint(*last, _timed(instance, fill, before)))
        if on_step:
            schedule = None if makespan is None else _timed(instance, fill, solver.limits)
            on_step(before, threshold, schedule, solver.limits)
        if makespan is None:
            if last is None:
                raise InvariantError("the uncapped solve failed on a valid instance")
            if len(points) > instance.n:
                raise InvariantError(f"{len(points)} frontier points for {instance.n} jobs")
            return ParetoFront(
                points=tuple(points),
                relocations=solver.limits.relocations,
                threshold_steps=steps,
            )
        max_cost = solver.max_cost
        if not max_cost < threshold:
            raise InvariantError(f"max cost {max_cost} is not below the threshold {threshold}")
        last = makespan, max_cost
        threshold = max_cost


@_collector_paused
def pareto_bounded(
    instance: Instance,
    trace: Trace | None = None,
    on_step: StepHook | None = None,
    check: bool = False,
) -> ParetoFront:
    """Full frontier for a bounded-capacity instance (warm-started solver)."""
    if not instance.bounded:
        raise InstanceError("bounded frontier requires an instance with integer capacity")
    solver = BoundedSolver.initial(instance, trace=trace, check=check)
    return _sweep(instance, solver, form_batches, on_step)


class _Restarting:
    """The naive sweep's solver: each ``solve`` runs the reference solver on
    fresh unrestricted limits, which then replace ``limits``."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.limits = AdmissibleSlots.unrestricted(instance)

    def solve(self, threshold):
        instance = self.instance
        fresh = AdmissibleSlots.unrestricted(instance)
        result = solve_reference(instance, fresh, threshold)
        fresh.relocations += self.limits.relocations  # the final limits carry the move total
        self.limits = fresh
        if result is None:
            return None
        self.max_cost = objectives(result, instance)[1]
        return result.makespan


@_collector_paused
def pareto_bounded_naive(instance: Instance) -> ParetoFront:
    """Same frontier as pareto_bounded but restarting from scratch per step.

    Every threshold step runs the reference solver against the unrestricted
    limits, repeating all earlier adjustment work, and evaluates each
    step's max cost in full with ``objectives``; kept as the benchmark
    baseline the warm-started sweep is measured against.
    """
    if not instance.bounded:
        raise InstanceError("bounded frontier requires an instance with integer capacity")
    return _sweep(instance, _Restarting(instance), form_batches, None)


@_collector_paused
def pareto_precedence(
    instance: Instance,
    trace: Trace | None = None,
    on_step: StepHook | None = None,
    check: bool = False,
) -> ParetoFront:
    """Full frontier for an unbounded instance with strict precedence."""
    if instance.bounded:
        raise InstanceError("precedence frontier requires unbounded capacity")
    solver = PrecedenceSolver.initial(instance, trace=trace, check=check)
    return _sweep(instance, solver, lambda _, limits: limits.groups(), on_step)


def pareto_front(
    instance: Instance,
    trace: Trace | None = None,
    on_step: StepHook | None = None,
) -> ParetoFront:
    """Dispatch on capacity mode: bounded sweep or precedence sweep."""
    if instance.bounded:
        return pareto_bounded(instance, trace=trace, on_step=on_step)
    return pareto_precedence(instance, trace=trace, on_step=on_step)
