"""Output check: is a frontier CSV a correct answer for its instance?

The CSV is parsed back into schedules and each row is judged on its own:
the witness must be a feasible schedule and must reproduce the row's
(c_max, f_max).  Across rows the pairs must be strictly monotone, and the
solver's relocation count must stay within the n*(n-1) bound.  Optionally
the pairs are compared with the restarting baseline's frontier.
"""

from __future__ import annotations

from batchfront.frontier import pareto_bounded_naive
from batchfront.model import Instance, ScheduleError, objectives, timetable, validate

HEADER = "c_max,f_max,batches"


def _row_problems(row: str, instance: Instance) -> tuple[tuple[int, int] | None, list[str]]:
    try:
        c_text, f_text, batch_text = row.split(",", 2)
        pair = (int(c_text), int(f_text))
        batches = [frozenset(int(j) for j in batch.split(".")) for batch in batch_text.split(";")]
    except ValueError as err:
        return None, [f"row {row!r}: {err}"]
    if len(batches) > instance.n:
        return pair, [f"row {row!r}: {len(batches)} batches for {instance.n} jobs"]
    slots = [frozenset()] * (instance.n - len(batches)) + batches
    try:
        schedule = timetable(slots, instance)
    except ScheduleError as err:
        return pair, [f"row {row!r}: {err}"]
    problems = [f"row {row!r}: {p}" for p in validate(schedule, instance)]
    if not problems and objectives(schedule, instance) != pair:
        problems.append(f"row {row!r}: witness gives {objectives(schedule, instance)}")
    return pair, problems


def csv_problems(csv: str, instance: Instance, relocations: int, naive: bool = False) -> list[str]:
    """Everything wrong with one frontier output; an empty list means correct."""
    lines = csv.split("\n")
    if lines[0] != HEADER or lines[-1] != "" or len(lines) < 3:
        return [f"malformed CSV framing: {csv[:80]!r}"]
    problems = []
    pairs = []
    for row in lines[1:-1]:
        pair, row_problems = _row_problems(row, instance)
        problems += row_problems
        if pair is not None:
            pairs.append(pair)
    for (c1, f1), (c2, f2) in zip(pairs, pairs[1:]):
        if not (c1 < c2 and f1 > f2):
            problems.append(f"pairs {(c1, f1)} then {(c2, f2)} are not strictly monotone")
    bound = instance.n * (instance.n - 1)
    if not 0 <= relocations <= bound:
        problems.append(f"{relocations} relocations exceed n(n-1) = {bound}")
    if naive and not problems:
        expected = pareto_bounded_naive(instance).pairs()
        if pairs != expected:
            problems.append(f"frontier {pairs} differs from the restarting baseline's {expected}")
    return problems
