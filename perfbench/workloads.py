"""The benchmark's workload families and their seeded instance streams.

Each workload turns ``--seed`` into an endless, deterministic stream of
instances.  The first run of each instance comes with the generated
``Instance`` object, which the output check judges against, so the
solver's own parse is never the check's source of truth.  A workload with
a ``pool_size`` keeps only that many distinct instances and cycles through
them, for families too slow to generate afresh every time; the others never
repeat an instance, so their tail latency is an order statistic over many
instances rather than the time of the hardest few.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from batchfront.fileio import emit_instance
from batchfront.generate import SplitMix64, gen_random
from batchfront.model import Instance


@dataclass(frozen=True)
class Spec:
    """Arguments of one ``gen_random`` call."""

    n: int
    seed: int
    profile: str
    capacity: int | None = None

    def instance(self) -> Instance:
        return gen_random(self.n, self.seed, self.profile, capacity=self.capacity)


@dataclass(frozen=True)
class Case:
    key: int  # position of the instance's first run in the stream
    spec: Spec
    text: str
    instance: Instance | None  # set on an instance's first run only


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: Callable[[int, int], Spec]  # (stream index, instance seed) -> Spec
    # Traced instances per second of --seconds: a constant, never measured,
    # so that a traced run's instance list depends on its arguments alone.
    traced_per_second: float
    pool_size: int | None = None  # distinct instances, cycled; None = never repeat
    naive_checks: int = 0  # bounded instances also compared with pareto_bounded_naive

    def cases(self, seed: int) -> Iterator[Case]:
        rng = SplitMix64(seed)
        kept: list[Case] = []
        index = 0
        while True:
            if self.pool_size is not None and index >= self.pool_size:
                yield kept[index % self.pool_size]
            else:
                spec = self.spec(index, rng.next_u64())
                instance = spec.instance()
                case = Case(index, spec, emit_instance(instance), instance)
                if self.pool_size is not None:
                    kept.append(replace(case, instance=None))
                yield case
            index += 1

    def traced_count(self, seconds: int) -> int:
        return max(1, math.ceil(self.traced_per_second * seconds))


def _many_small(index: int, seed: int) -> Spec:
    # Stratified rather than drawn: n walks 8..40 and every fourth instance is
    # a precedence one, so every run has the same size mix and the run-to-run
    # spread comes from instance contents, not from how many large ones a seed
    # happened to draw.  33 and 4 are coprime, so every (n, stream index mod 4)
    # pair appears once per 132 instances.
    n = 8 + index % 33
    return Spec(n, seed, "prec" if index % 4 == 3 else "small")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-800",
            why="the paper's profile at n=800, b=160: time sits in bounded retiming and the hoist scan, parsing is under 1%",
            spec=lambda index, seed: Spec(800, seed, "paper"),
            traced_per_second=0.5,
        ),
        Workload(
            name="hard-b2",
            why="n=150, b=2, mixed lateness/tardiness/affine costs: hundreds of threshold steps and long carry chains per instance",
            spec=lambda index, seed: Spec(150, seed, "small", capacity=2),
            traced_per_second=0.8,
        ),
        Workload(
            name="dense-prec",
            why="n=800 precedence, about 96k edges and 3.3 MB of JSON: parse, Instance validation and PrecGraph dominate",
            spec=lambda index, seed: Spec(800, seed, "prec"),
            traced_per_second=0.75,
            # Generating one takes about 1 s, three times its solve time.
            pool_size=6,
        ),
        Workload(
            name="many-small",
            why="n in 8..40, three bounded to one precedence, about 3 ms each: fixed per-instance cost dominates",
            spec=_many_small,
            traced_per_second=60.0,
            naive_checks=200,
        ),
    )
}
