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
numeric strings and booleans are refused, never truncated, by the model's
rules; this module checks only the JSON structure.  Parse errors carry the
source name and either the line and column of a syntax error or the
field, such as ``jobs[3].p``, in front of the constructor's message.  A
job row is checked by its key counts alone: its cost spec is built by
the spec's constructor and the job by the model's decoder, ``decode_job``,
which applies the model's job rules and builds the frozen ``Job`` without
its generic constructor.  Only a row that fails that check, whose spec
constructor raises or that the decoder refuses has its location built
and its fields checked one at a time by the constructors, so every
message names the same field it always did.
``parse_instance(emit_instance(x)) == x``.

``parse_instance`` runs with the cyclic garbage collector paused, as the
rest of the JSON-to-CSV chain does; ``model._collector_paused`` states the
pause and the premise it rests on.  The decoded edge lists, and the int
object decoded for each endpoint, die with the parse: the ``Instance``
keeps the edges as one flat tuple sharing one int object per job id with
its per-job tables, so no later collection has a per-edge object to
traverse.
"""

from __future__ import annotations

import json
from operator import itemgetter
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
    _collector_paused,
    decode_job,
)

_COST_FIELDS = {
    "lateness": (Lateness, ("due",)),
    "tardiness": (Tardiness, ("due",)),
    "weighted_completion": (WeightedCompletion, ("w",)),
    "affine": (Affine, ("a", "c")),
    "step": (StepTable, ("breakpoints",)),
}


def _field_values(names: tuple[str, ...]):
    """A function from a cost object to its ``names`` values, as a tuple."""
    if len(names) > 1:
        return itemgetter(*names)
    name = names[0]
    return lambda obj: (obj[name],)


# how ``_jobs`` reads a cost object of each type without locating it: the
# type's class, the key count of a well-formed object (the type and every
# field, so an object holding them all and that many keys holds no other)
# and its field values
_DECODERS = {kind: (cls, 1 + len(names), _field_values(names)) for kind, (cls, names) in _COST_FIELDS.items()}


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


def _job_from_row(row, where: str) -> Job:
    """The job row at ``where`` (e.g. ``src: jobs[3]``), every field checked
    in turn, so a problem is raised with the field it is in."""
    if not isinstance(row, dict):
        raise InstanceError(f"{where}: must be an object")
    for name in ("id", "p"):
        if name not in row:
            raise InstanceError(f"{where}: missing field {name!r}")
    if len(row) > 2 + ("cost" in row):  # a key besides id, p and cost
        raise InstanceError(f"{where}: unknown fields {sorted(set(row) - {'id', 'p', 'cost'})}")
    cost = _cost_from_obj(row.get("cost"), f"{where}.cost")
    try:
        return Job(row["id"], row["p"], cost)
    except InstanceError as err:
        raise InstanceError(f"{where}.{err}") from None


def _jobs(rows: list, source: str) -> list[Job]:
    """The jobs of a ``"jobs"`` array.  A row of three keys, id, p and cost,
    with a cost object of a known type holding the type's fields and no
    other key, has its spec built by the type's class and goes to
    ``decode_job``.  Any other row, or one whose spec constructor raises or
    that ``decode_job`` refuses, goes through ``_job_from_row``, which
    locates the problem and raises it."""
    jobs: list[Job] = []
    append = jobs.append
    for row in rows:
        try:
            if type(row) is dict and len(row) == 3:  # KeyError below unless id, p and cost
                obj = row["cost"]
                if type(obj) is dict:
                    cls, size, fields = _DECODERS[obj["type"]]  # KeyError, or TypeError when unhashable
                    if len(obj) == size:
                        job = decode_job(row["id"], row["p"], cls(*fields(obj)))
                        if job is not None:
                            append(job)
                            continue
        except (InstanceError, KeyError, TypeError):
            pass
        append(_job_from_row(row, f"{source}: jobs[{len(jobs)}]"))
    return jobs


@_collector_paused
def parse_instance(text: str, source: str = "<string>") -> Instance:
    """Parse instance JSON; InstanceError messages carry position context."""
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
    jobs = _jobs(doc["jobs"], source)

    if doc["capacity"] is None:  # only "unbounded" spells unbounded
        raise InstanceError(f"{source}: capacity must be an integer or \"unbounded\", got null")

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
