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
numeric strings and booleans are refused, never truncated, by the model
constructors; this module checks only the JSON structure.  Parse errors
carry the source name and either the line and column of a syntax error or
the field, such as ``jobs[3].p``, in front of the constructor's message.
``parse_instance(emit_instance(x)) == x``.

``parse_instance`` pauses the cyclic garbage collector while it decodes and
builds.  A dense precedence relation decodes into up to n(n-1)/2 small
lists, and the collections their allocation would trigger traverse every
one of them, yet nothing decoded or built here can form a reference cycle:
reference counting alone frees it all.  The lists, and the int object
decoded for each endpoint, die with the parse: the ``Instance`` keeps the
edges as one flat tuple sharing one int object per job id with its
per-job tables, so no later collection has a per-edge object to traverse.
The collector's state on entry is restored on every exit.
"""

from __future__ import annotations

import gc
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
    unknown = set(obj) - {"type", *names}
    if unknown:
        raise InstanceError(f"{where}: cost type {kind!r} has unknown fields {sorted(unknown)}")
    try:
        return cls(*(obj[name] for name in names))
    except InstanceError as err:
        raise InstanceError(f"{where}.{err}") from None


def _cost_to_obj(cost: CostSpec) -> dict:
    for kind, (cls, names) in _COST_FIELDS.items():
        if isinstance(cost, cls):
            obj = {"type": kind}
            for name in names:
                value = getattr(cost, name)
                obj[name] = [list(bp) for bp in value] if name == "breakpoints" else value
            return obj
    raise TypeError(f"unknown cost spec {cost!r}")


def parse_instance(text: str, source: str = "<string>") -> Instance:
    """Parse instance JSON; InstanceError messages carry position context."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(text, source)
    finally:
        if was_enabled:
            gc.enable()


def _parse(text: str, source: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise InstanceError(f"{source}:{err.lineno}:{err.colno}: {err.msg}") from None
    except RecursionError:
        raise InstanceError(f"{source}: arrays or objects nested too deeply to decode") from None
    if not isinstance(doc, dict):
        raise InstanceError(f"{source}: top level must be an object")

    unknown = set(doc) - {"setup", "capacity", "jobs", "precedence"}
    if unknown:
        raise InstanceError(f"{source}: unknown keys {sorted(unknown)}")
    for key in ("setup", "capacity", "jobs"):
        if key not in doc:
            raise InstanceError(f"{source}: missing key \"{key}\"")

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
        cost = _cost_from_obj(row.get("cost"), f"{where}.cost")
        try:
            jobs.append(Job(row["id"], row["p"], cost))
        except InstanceError as err:
            raise InstanceError(f"{where}.{err}") from None

    edges = doc.get("precedence", [])
    if not isinstance(edges, list):
        raise InstanceError(f"{source}: \"precedence\" must be an array of [pred, succ] pairs")

    try:
        return Instance(
            jobs=tuple(jobs),
            setup=doc["setup"],
            capacity=None if doc["capacity"] == "unbounded" else doc["capacity"],
            precedence=edges,
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
    if instance.edge_ids:
        doc["precedence"] = [[a, b] for a, b in instance.edge_pairs()]
    return json.dumps(doc, indent=2) + "\n"


def parse_instance_bytes(data: bytes, source: str) -> Instance:
    """Parse the bytes of an instance file, read as UTF-8 with universal
    newlines; bytes that are not UTF-8 raise InstanceError naming ``source``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise InstanceError(f"{source}: not UTF-8 text: {err}") from None
    return parse_instance(text.replace("\r\n", "\n").replace("\r", "\n"), source=source)


def load_instance(path: str | Path) -> Instance:
    return parse_instance_bytes(Path(path).read_bytes(), str(path))


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(emit_instance(instance), encoding="utf-8")
