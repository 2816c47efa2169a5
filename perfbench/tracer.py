"""Per-layer tracing from outside the package, by rebinding public names.

A wrapper replaces a function or method in the namespace it is called
through (the importing module, or the class for methods) and is removed
again when the pass ends, so the package itself carries no tracing code.
Two passes are kept apart because they cost very differently:

* the span pass wraps coarse layer boundaries and records, per label, the
  number of calls, the inclusive time and the self time (inclusive time
  minus the time of spans opened inside it);
* the count pass wraps the hot calls (cost evaluation, job lookup) and
  only counts them; timing those calls would swamp the spans.

A name that can no longer be found is reported as absent, and every metric
derived from it is left out rather than reported as zero.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    label: str
    namespace: str  # "package.module" or "package.module:Class"
    attr: str
    # Attributes read from the object a method was called on, summed over
    # the distinct objects seen per instance (see Tracer.end_instance).
    harvest: tuple[str, ...] = ()


SPANS = (
    Hook("fileio.parse", "batchfront.fileio", "parse_instance"),
    Hook("model.instance", "batchfront.fileio", "Instance"),
    Hook("bounded.init", "batchfront.bounded:BoundedSolver", "initial"),
    Hook("bounded.solve", "batchfront.bounded:BoundedSolver", "solve", harvest=("passes", "adjustments")),
    Hook("bounded.retime", "batchfront.bounded", "batch_times"),
    Hook("bounded.fill", "batchfront.bounded", "form_batches"),
    Hook("admissible.init", "batchfront.admissible:AdmissibleSlots", "__init__"),
    Hook("admissible.move", "batchfront.admissible:AdmissibleSlots", "move"),
    Hook("precedence.graph", "batchfront.precedence:PrecGraph", "__init__", harvest=("edge_count",)),
    Hook("precedence.layer", "batchfront.precedence", "layered_limits"),
    Hook("precedence.solve", "batchfront.precedence:PrecedenceSolver", "solve", harvest=("passes", "adjustments")),
    Hook("precedence.retime", "batchfront.precedence", "batch_times"),
    Hook("model.objectives", "batchfront.frontier", "objectives"),
    Hook("model.timetable", "batchfront.bounded", "timetable"),
    Hook("model.timetable", "batchfront.precedence", "timetable"),
    Hook("frontier.sweep", "batchfront.frontier", "pareto_front"),
    Hook("frontier.csv", "batchfront.frontier:ParetoFront", "to_csv"),
)

COUNTS = (
    Hook("model.cost_evals", "batchfront.bounded", "eval_cost"),
    Hook("model.cost_evals", "batchfront.precedence", "eval_cost"),
    Hook("model.cost_evals", "batchfront.model", "eval_cost"),
    Hook("model.job_lookups", "batchfront.model:Instance", "job"),
)


def _resolve(namespace: str):
    module_name, _, class_name = namespace.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


class Tracer:
    """Collects spans and counts from the passes run under it."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.harvested: Counter[str] = Counter()  # "<label>.<attr>" -> sum
        self._receivers: dict[Hook, dict[int, object]] = {}
        self.absent: set[str] = set()
        self._children: list[float] = []  # child time of each open span

    def present(self, label: str) -> bool:
        return label not in self.absent

    @contextmanager
    def spans(self):
        with self._installed(SPANS, self._span):
            yield

    @contextmanager
    def counts(self):
        with self._installed(COUNTS, self._count):
            yield

    @contextmanager
    def _installed(self, hooks, make_wrapper):
        undo = []
        try:
            for hook in hooks:
                owner = _resolve(hook.namespace)
                if isinstance(owner, type):
                    original = owner.__dict__.get(hook.attr)
                else:
                    original = getattr(owner, hook.attr, None)
                if original is None:
                    self.absent.add(hook.label)
                    continue
                if isinstance(original, classmethod):
                    wrapper = classmethod(make_wrapper(hook, original.__func__))
                else:
                    wrapper = make_wrapper(hook, original)
                setattr(owner, hook.attr, wrapper)
                undo.append((owner, hook.attr, original))
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _span(self, hook: Hook, fn):
        label = hook.label
        children = self._children
        calls, total, self_time = self.calls, self.total, self.self_time
        receivers = self._receivers.setdefault(hook, {}) if hook.harvest else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                calls[label] += 1
                total[label] += elapsed
                self_time[label] += elapsed - inner
                if receivers is not None:
                    receivers[id(args[0])] = args[0]

        return wrapper

    def _count(self, hook: Hook, fn):
        label = hook.label
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def end_instance(self) -> None:
        """Fold the harvested attributes of this instance's objects into
        ``harvested`` and let the objects go."""
        for hook, objects in self._receivers.items():
            for attr in hook.harvest:
                key = f"{hook.label}.{attr}"
                if all(hasattr(obj, attr) for obj in objects.values()):
                    self.harvested[key] += sum(getattr(obj, attr) for obj in objects.values())
                else:
                    self.absent.add(key)
            objects.clear()
