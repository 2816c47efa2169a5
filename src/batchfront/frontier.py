"""Complete Pareto frontiers for (makespan, max cost).

The sweep starts with no cost cap, repeatedly re-solves for minimum
makespan with every job cost strictly below the best max cost found so
far, and records a point each time the makespan is forced strictly upward.
When the cap becomes unattainable the last schedule is both the final
frontier point and the minimizer of max cost alone.

Because the makespan of any schedule is (number of nonempty batches) *
setup + total processing time, consecutive solutions with equal makespan
differ only in cost; only the last of such a run is recorded, so the
output never contains a dominated pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .admissible import AdmissibleSlots
from .bounded import UNBOUNDED, BoundedSolver, Trace, solve_reference
from .model import Instance, InstanceError, InvariantError, Schedule, objectives
from .precedence import PrecedenceSolver

# on_step(limits before the call, threshold, result or None, limits after):
# one invocation per threshold step, for differential verification.  The
# limits before are a copy made for the hook, which owns it and may change
# it; the limits after are the solver's own and must be left as they are.
StepHook = Callable[[AdmissibleSlots, object, Schedule | None, AdmissibleSlots], None]


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


def _sweep(instance: Instance, solver, on_step: StepHook | None) -> ParetoFront:
    """Run the threshold sweep on a solver that has ``limits``,
    ``solve(threshold)`` and ``max_cost``, the max cost of the schedule its
    last solve returned."""
    points: list[ParetoPoint] = []
    threshold = UNBOUNDED
    prev: ParetoPoint | None = None
    steps = 0
    while True:
        before = solver.limits.copy() if on_step else None
        schedule = solver.solve(threshold)
        steps += 1
        if on_step:
            on_step(before, threshold, schedule, solver.limits)
        if schedule is None:
            if prev is None:
                raise InvariantError("the uncapped solve failed on a valid instance")
            points.append(prev)
            if len(points) > instance.n:
                raise InvariantError(f"{len(points)} frontier points for {instance.n} jobs")
            return ParetoFront(
                points=tuple(points),
                relocations=solver.limits.relocations,
                threshold_steps=steps,
            )
        makespan, max_cost = schedule.makespan, solver.max_cost
        if not max_cost < threshold:
            raise InvariantError(f"max cost {max_cost} is not below the threshold {threshold}")
        if prev is not None and makespan > prev.makespan:
            points.append(prev)
        prev = ParetoPoint(makespan, max_cost, schedule)
        threshold = max_cost


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
    return _sweep(instance, solver, on_step)


def pareto_bounded_naive(instance: Instance) -> ParetoFront:
    """Same frontier as pareto_bounded but restarting from scratch per step.

    Every threshold step runs the reference solver against the unrestricted
    limits, repeating all earlier adjustment work, and evaluates each
    step's max cost in full with ``objectives``; kept as the benchmark
    baseline the warm-started sweep is measured against.
    """
    if not instance.bounded:
        raise InstanceError("bounded frontier requires an instance with integer capacity")

    class _Restarting:
        def __init__(self):
            self.limits = AdmissibleSlots.unrestricted(instance)  # carries the move total

        def solve(self, threshold):
            fresh = AdmissibleSlots.unrestricted(instance)
            result = solve_reference(instance, fresh, threshold)
            self.limits.relocations += fresh.relocations
            self.max_cost = None if result is None else objectives(result, instance)[1]
            return result

    return _sweep(instance, _Restarting(), None)


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
    return _sweep(instance, solver, on_step)


def pareto_front(
    instance: Instance,
    trace: Trace | None = None,
    on_step: StepHook | None = None,
) -> ParetoFront:
    """Dispatch on capacity mode: bounded sweep or precedence sweep."""
    if instance.bounded:
        return pareto_bounded(instance, trace=trace, on_step=on_step)
    return pareto_precedence(instance, trace=trace, on_step=on_step)
