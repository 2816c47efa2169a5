"""JSON instance files.

Layout::

    {
      "setup": 2,
      "capacity": 2,            // or "unbounded"
      "jobs": [
        {"id": 1, "p": 3, "cost": {"type": "lateness", "due": 5}},
        ...
      ],
      "precedence": [[1, 2]]    // optional, unbounded only
    }

Cost objects by type: lateness/tardiness take ``due``, weighted_completion
takes ``w``, affine takes ``a`` and ``c``, step takes ``breakpoints`` (a
list of [time, value] pairs).  Every number must be a JSON integer: floats,
numeric strings and booleans are refused, never truncated.  Parse errors
carry the source name and either the line and column of a syntax error or
the offending field, such as ``jobs[3].p``.
``parse_instance(emit_instance(x)) == x``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .model import (
    Affine,
    CostSpec,
    Instance,
    InstanceError,
    Job,
    Lateness,
    StepTable,
    Tardiness,
    WeightedCompletion,
)

_COST_FIELDS = {
    "lateness": (Lateness, ("due",)),
    "tardiness": (Tardiness, ("due",)),
    "weighted_completion": (WeightedCompletion, ("w",)),
    "affine": (Affine, ("a", "c")),
    "step": (StepTable, ("breakpoints",)),
}


def _int(value, where: str) -> int:
    """``value`` when it is a JSON integer; anything else is refused."""
    if type(value) is not int:
        raise InstanceError(f"{where} must be an integer, got {json.dumps(value)}")
    return value


def _breakpoints(value, where: str) -> tuple[tuple[int, int], ...]:
    if not isinstance(value, list):
        raise InstanceError(f"{where} must be an array of [time, value] pairs")
    points = []
    for k, pair in enumerate(value):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InstanceError(f"{where}[{k}] must be a [time, value] pair")
        points.append((_int(pair[0], f"{where}[{k}][0]"), _int(pair[1], f"{where}[{k}][1]")))
    return tuple(points)


def _cost_from_obj(obj, where: str) -> CostSpec:
    """The cost object at ``where`` (e.g. ``src: jobs[3].cost``)."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise InstanceError(f"{where}: cost must be an object with a \"type\" key")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in _COST_FIELDS:
        raise InstanceError(f"{where}: unknown cost type {kind!r}, expected one of {tuple(_COST_FIELDS)}")
    cls, names = _COST_FIELDS[kind]
    for name in names:
        if name not in obj:
            raise InstanceError(f"{where}: cost type {kind!r} is missing field {name!r}")
    if kind == "step":
        args = [_breakpoints(obj["breakpoints"], f"{where}.breakpoints")]
    else:
        args = [_int(obj[name], f"{where}.{name}") for name in names]
    try:
        return cls(*args)
    except InstanceError as err:
        raise InstanceError(f"{where}: {err}") from None


def _cost_to_obj(cost: CostSpec) -> dict:
    if isinstance(cost, Lateness):
        return {"type": "lateness", "due": cost.due}
    if isinstance(cost, Tardiness):
        return {"type": "tardiness", "due": cost.due}
    if isinstance(cost, WeightedCompletion):
        return {"type": "weighted_completion", "w": cost.w}
    if isinstance(cost, Affine):
        return {"type": "affine", "a": cost.a, "c": cost.c}
    if isinstance(cost, StepTable):
        return {"type": "step", "breakpoints": [[t, v] for t, v in cost.breakpoints]}
    raise TypeError(f"unknown cost spec {cost!r}")


def parse_instance(text: str, source: str = "<string>") -> Instance:
    """Parse instance JSON; InstanceError messages carry position context."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise InstanceError(f"{source}:{err.lineno}:{err.colno}: {err.msg}") from None
    if not isinstance(doc, dict):
        raise InstanceError(f"{source}: top level must be an object")

    unknown = set(doc) - {"setup", "capacity", "jobs", "precedence"}
    if unknown:
        raise InstanceError(f"{source}: unknown keys {sorted(unknown)}")
    for key in ("setup", "capacity", "jobs"):
        if key not in doc:
            raise InstanceError(f"{source}: missing key \"{key}\"")

    cap = doc["capacity"]
    if cap == "unbounded":
        capacity = None
    elif isinstance(cap, int) and not isinstance(cap, bool):
        capacity = cap
    else:
        raise InstanceError(f"{source}: capacity must be an integer or \"unbounded\"")

    if not isinstance(doc["jobs"], list) or not doc["jobs"]:
        raise InstanceError(f"{source}: \"jobs\" must be a non-empty array")
    jobs = []
    for idx, row in enumerate(doc["jobs"]):
        where = f"{source}: jobs[{idx}]"
        if not isinstance(row, dict):
            raise InstanceError(f"{where}: must be an object")
        for name in ("id", "p"):
            if name not in row:
                raise InstanceError(f"{where}: missing field {name!r}")
        jobs.append(Job(
            id=_int(row["id"], f"{where}.id"),
            p=_int(row["p"], f"{where}.p"),
            cost=_cost_from_obj(row.get("cost"), f"{where}.cost"),
        ))

    edges = doc.get("precedence", [])
    if not isinstance(edges, list):
        raise InstanceError(f"{source}: \"precedence\" must be an array of [pred, succ] pairs")
    parsed_edges = []
    for idx, pair in enumerate(edges):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InstanceError(f"{source}: precedence[{idx}] must be a [pred, succ] pair")
        a, b = pair
        if type(a) is not int or type(b) is not int:
            raise InstanceError(f"{source}: precedence[{idx}] endpoints must be integers, got {json.dumps(pair)}")
        parsed_edges.append((a, b))

    setup = _int(doc["setup"], f"{source}: setup")
    try:
        return Instance(
            jobs=tuple(jobs),
            setup=setup,
            capacity=capacity,
            precedence=tuple(parsed_edges),
        )
    except InstanceError as err:
        raise InstanceError(f"{source}: {err}") from None


def emit_instance(instance: Instance) -> str:
    """Canonical JSON for an instance; stable under parse/emit round trips."""
    doc = {
        "setup": instance.setup,
        "capacity": instance.capacity if instance.capacity is not None else "unbounded",
        "jobs": [
            {"id": job.id, "p": job.p, "cost": _cost_to_obj(job.cost)}
            for job in instance.jobs
        ],
    }
    if instance.precedence:
        doc["precedence"] = [[a, b] for a, b in instance.precedence]
    return json.dumps(doc, indent=2) + "\n"


def load_instance(path: str | Path) -> Instance:
    path = Path(path)
    return parse_instance(path.read_text(encoding="utf-8"), source=str(path))


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(emit_instance(instance), encoding="utf-8")
