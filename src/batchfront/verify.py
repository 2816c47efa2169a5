"""Differential verification of the solvers against the exhaustive oracle.

For each generated instance the frontier sweep runs with internal checks
on, and every threshold step is replayed on the copy of its pre-step
limits that the sweep hands the step hook: by the from-scratch reference
solver on the bounded path, and by a fresh precedence solver, which must
leave the same limits, on the precedence path.  The hook's schedule is
the sweep's rebuild of the limits the step left, and check mode ties the
solver's held slots to that rebuild.  One checker,
``check_instance``, picks the path from the instance, also checks the
frontier's shape, and compares the frontier against the brute-force
oracle when the instance is within the oracle's ``size_cap``; above it the
other checks still run, at any size.  Any discrepancy is reported with the
seed that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bounded import solve_reference
from .frontier import ParetoFront, pareto_bounded, pareto_precedence
from .generate import SplitMix64, gen_random
from .model import Instance, InvariantError, objectives, validate
from .oracle import MAX_JOBS_BOUNDED, MAX_JOBS_PRECEDENCE, oracle_pareto, size_cap
from .precedence import PrecedenceSolver

# How often each size is drawn, relative to the others: enumeration cost
# grows like the ordered-set-partition counts (3, 13, 75, 541, 4683, 47293,
# 545835 for n = 2..8), so large sizes appear sparingly.
_SIZE_WEIGHTS = {2: 30, 3: 26, 4: 22, 5: 14, 6: 8, 7: 3, 8: 1}

# The largest job count the oracle enumerates, per variant, and the
# generator profile each variant draws from.
SIZE_CAPS = {"bounded": MAX_JOBS_BOUNDED, "prec": MAX_JOBS_PRECEDENCE}
_PROFILES = {"bounded": "small", "prec": "prec"}
_MAX_FAILURES_KEPT = 10


@dataclass
class VerifyReport:
    variant: str
    attempted: int = 0
    passed: int = 0
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.passed == self.attempted

    def record(self, seed: int, issues: list[str]) -> None:
        self.attempted += 1
        if issues:
            if len(self.failures) < _MAX_FAILURES_KEPT:
                self.failures.append((seed, "; ".join(issues)))
        else:
            self.passed += 1

    def summary_lines(self) -> list[str]:
        lines = [f"{self.variant}: {self.passed}/{self.attempted} instances passed"]
        if self.failures:
            seed, msg = self.failures[0]
            lines.append(f"first failing seed: {seed}")
            lines.append(f"  {msg}")
            for seed, msg in self.failures[1:]:
                lines.append(f"also failing: seed {seed}: {msg}")
        return lines


def _check_frontier_shape(front: ParetoFront, instance: Instance) -> list[str]:
    issues = []
    pairs = front.pairs()
    for (c1, f1), (c2, f2) in zip(pairs, pairs[1:]):
        if not (c1 < c2 and f1 > f2):
            issues.append(f"frontier not strictly monotone: {(c1, f1)} then {(c2, f2)}")
    if len(pairs) > instance.n:
        issues.append(f"{len(pairs)} frontier points exceed n = {instance.n}")
    for pt in front.points:
        bad = validate(pt.schedule, instance)
        if bad:
            issues.append(f"point {(pt.makespan, pt.max_cost)} schedule invalid: {bad[0]}")
        elif objectives(pt.schedule, instance) != (pt.makespan, pt.max_cost):
            issues.append(f"point {(pt.makespan, pt.max_cost)} does not reproduce its objectives")
    n = instance.n
    if front.relocations > n * (n - 1):
        issues.append(f"{front.relocations} relocations exceed n(n-1) = {n * (n - 1)}")
    return issues


def _check_against_oracle(front: ParetoFront, instance: Instance) -> list[str]:
    issues = []
    reference = oracle_pareto(instance)
    got = [(pt.makespan, pt.max_cost) for pt in front.points]
    want = list(reference.points)
    if got != want:
        issues.append(f"frontier {got} != oracle {want}")
    best_cost = objectives(front.min_cost_schedule, instance)[1]
    if best_cost != reference.min_max_cost:
        issues.append(
            f"min-cost schedule reaches {best_cost}, oracle minimum is {reference.min_max_cost}"
        )
    return issues


def _replay_reference(instance: Instance, before, threshold, schedule, after) -> list[str]:
    """One bounded step replayed by the from-scratch reference solver on its
    starting limits, which it consumes: the step's feasibility and, when
    feasible, its objectives must match the reference's."""
    ref = solve_reference(instance, before, threshold)
    if (ref is None) != (schedule is None):
        return [f"threshold {threshold}: reference feasibility {ref is not None} != incremental {schedule is not None}"]
    if schedule is None:
        return []
    got = objectives(schedule, instance)
    want = objectives(ref, instance)
    if got != want:
        return [f"threshold {threshold}: incremental {got} != reference {want}"]
    return []


def _replay_fresh(instance: Instance, before, threshold, schedule, after) -> list[str]:
    """One precedence step replayed by a fresh ``PrecedenceSolver`` on its
    starting limits, which it consumes.  The fresh solver holds no state
    from earlier steps, so its first pass walks every group; the warm one
    must agree on feasibility, makespan, max cost and the limits it leaves,
    whose groups are the slots."""
    fresh = PrecedenceSolver(instance, before, check=True)
    makespan = fresh.solve(threshold)
    if (makespan is None) != (schedule is None):
        return [f"threshold {threshold}: fresh solver feasibility {makespan is not None} != warm {schedule is not None}"]
    issues = []
    if schedule is not None:
        got = objectives(schedule, instance)
        want = (makespan, fresh.max_cost)
        if got != want:
            issues.append(f"threshold {threshold}: warm {got} != fresh {want}")
    if fresh.limits.table != after.table:
        issues.append(f"threshold {threshold}: limits after the step differ from a fresh solver's")
    return issues


def check_instance(instance: Instance) -> list[str]:
    """Every check for one instance; [] means everything agreed.

    The sweep and its step replay follow ``instance.bounded``: the bounded
    sweep replayed by the reference solver, or the precedence sweep
    replayed by a fresh solver.  The sweep runs in check mode, then the
    frontier's shape is checked, then the frontier is compared with the
    oracle when the instance is within ``size_cap``.  Past an internal
    invariant failure nothing further is checked.
    """
    if instance.bounded:
        sweep, replay = pareto_bounded, _replay_reference
    else:
        sweep, replay = pareto_precedence, _replay_fresh
    issues: list[str] = []

    def on_step(before, threshold, schedule, after):
        issues.extend(replay(instance, before, threshold, schedule, after))

    try:
        front = sweep(instance, on_step=on_step, check=True)
    except InvariantError as err:
        return issues + [f"internal invariant failed: {err}"]
    issues += _check_frontier_shape(front, instance)
    if instance.n <= size_cap(instance):
        issues += _check_against_oracle(front, instance)
    return issues


def _draw_size(rng: SplitMix64, lo: int, hi: int) -> int:
    weights = [(n, _SIZE_WEIGHTS.get(n, 1)) for n in range(lo, hi + 1)]
    total = sum(w for _, w in weights)
    pick = rng.randint(1, total)
    for n, w in weights:
        pick -= w
        if pick <= 0:
            return n
    return hi


def run_verification(
    variant: str,
    count: int,
    n_lo: int,
    n_hi: int,
    seed: int,
) -> VerifyReport:
    """Generate ``count`` seeded instances and check every one.

    ``variant`` is "bounded" (small profile vs main1 and the reference
    solver) or "prec" (prec profile vs main2).  Instance i uses seed
    ``seed + i``; sizes are drawn from [n_lo, n_hi] weighted toward the
    cheap end, up to the variant's ``SIZE_CAPS`` entry.  A count of zero
    passes trivially.
    """
    if variant not in SIZE_CAPS:
        raise ValueError(f"unknown variant {variant!r}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    cap = SIZE_CAPS[variant]
    if not 1 <= n_lo <= n_hi <= cap:
        raise ValueError(f"sizes must satisfy 1 <= lo <= hi <= {cap}")
    report = VerifyReport(variant=variant)
    size_rng = SplitMix64(seed ^ 0xC0FFEE)
    for i in range(count):
        inst_seed = seed + i
        n = _draw_size(size_rng, n_lo, n_hi)
        report.record(inst_seed, check_instance(gen_random(n, inst_seed, profile=_PROFILES[variant])))
    return report
