"""Exhaustive ground truth for small instances.

Every ordered partition of the job set into nonempty batches is generated
(each batch a sorted id set, so nothing is counted twice), filtered by
capacity and strict precedence, timetabled, and scored.  The Pareto filter
over all of them is the reference frontier the solvers are verified
against.  Deliberately unclever: correctness over speed, no pruning beyond
feasibility itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .model import Instance, Schedule, timetable


class OracleSizeError(ValueError):
    """Raised when an instance is too large to enumerate exhaustively."""


@dataclass(frozen=True)
class EnumerationLimits:
    max_jobs_bounded: int = 8
    max_jobs_precedence: int = 7
    max_schedules: int = 2_000_000


DEFAULT_LIMITS = EnumerationLimits()


def _guard_size(instance: Instance, limits: EnumerationLimits) -> None:
    cap = limits.max_jobs_precedence if instance.edge_ids else limits.max_jobs_bounded
    if instance.n > cap:
        raise OracleSizeError(
            f"{instance.n} jobs exceed the exhaustive limit of {cap}"
        )


def enumerate_feasible(
    instance: Instance, limits: EnumerationLimits = DEFAULT_LIMITS
) -> Iterator[Schedule]:
    """Yield every feasible schedule exactly once, timetabled.

    Batches are emitted earliest-first and placed as the nonempty suffix of
    the n slots.  Job order within a batch is immaterial and never
    distinguishes schedules.
    """
    _guard_size(instance, limits)
    n = instance.n
    for _, _, batches in _partitions(instance, limits):
        yield timetable([()] * (n - len(batches)) + batches, instance)


def _partitions(
    instance: Instance, limits: EnumerationLimits
) -> Iterator[tuple[int, int, list[tuple[int, ...]]]]:
    """Ordered partitions into nonempty capacity-respecting batches.

    Each is yielded as (makespan, max cost, batches earliest first); time
    and worst cost are carried down the recursion one batch at a time.  The
    batch list is shared between yields, so copy it to keep it.  With
    precedence, a job may only join the next batch once all its
    predecessors sit in strictly earlier batches.
    """
    n = instance.n
    cap = instance.effective_capacity
    setup = instance.setup
    proc = instance.p
    costf = instance.cost_value
    pred_mask = [sum(1 << a for a in preds) for preds in instance.preds]
    has_prec = bool(instance.edge_ids)

    seen = 0
    max_schedules = limits.max_schedules
    acc: list[tuple[int, ...]] = []

    def rec(remaining: tuple[int, ...], placed_bits: int, t: int, worst):
        nonlocal seen
        if not remaining:
            seen += 1
            if seen > max_schedules:
                raise OracleSizeError(f"more than {max_schedules} feasible schedules")
            yield t, worst, acc
            return
        if has_prec:
            ready = tuple(j for j in remaining if pred_mask[j] & ~placed_bits == 0)
        else:
            ready = remaining
        for size in range(1, min(cap, len(ready)) + 1):
            for batch in combinations(ready, size):
                t2 = t + setup
                for j in batch:
                    t2 += proc[j]
                w2 = worst
                for j in batch:
                    c = costf[j](t2)
                    if w2 is None or c > w2:
                        w2 = c
                bits = placed_bits
                for j in batch:
                    bits |= 1 << j
                acc.append(batch)
                yield from rec(tuple(j for j in remaining if not bits >> j & 1), bits, t2, w2)
                acc.pop()

    yield from rec(tuple(range(1, n + 1)), 0, 0, None)


@dataclass(frozen=True)
class OracleFrontier:
    """Reference frontier: pairs sorted by makespan, one witness each."""

    points: tuple[tuple[int, int], ...]
    witnesses: dict[tuple[int, int], Schedule]
    schedules_seen: int

    @property
    def min_max_cost(self) -> int:
        return self.points[-1][1]


def oracle_pareto(
    instance: Instance, limits: EnumerationLimits = DEFAULT_LIMITS
) -> OracleFrontier:
    """Score every feasible schedule and keep the non-dominated pairs.

    A pair dominates another when it is <= on both objectives and < on at
    least one.  Witness schedules are rebuilt only for the surviving pairs.
    """
    _guard_size(instance, limits)
    n = instance.n
    best: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    seen = 0
    for c_max, f_max, batches in _partitions(instance, limits):
        seen += 1
        if (c_max, f_max) not in best:
            best[c_max, f_max] = list(batches)

    frontier: list[tuple[int, int]] = []
    running = None
    for c_max, f_max in sorted(best):
        if running is None or f_max < running:
            frontier.append((c_max, f_max))
            running = f_max

    witnesses = {}
    for pair in frontier:
        batches = best[pair]
        slots = [()] * (n - len(batches)) + batches
        witnesses[pair] = timetable(slots, instance)
    return OracleFrontier(tuple(frontier), witnesses, seen)
