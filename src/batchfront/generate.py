"""Seeded random instances with a portable generator.

Verification failures must be reproducible by seed across platforms and
Python versions, so instances are drawn from an explicit splitmix64 stream
(Steele/Lea/Flood's 64-bit mixing construction) rather than the stdlib
Mersenne twister.  Bounded draws use rejection sampling, so every range is
exactly uniform.
"""

from __future__ import annotations

from itertools import accumulate

from .model import Affine, CostSpec, Instance, Job, Lateness, Tardiness, WeightedCompletion

_MASK = (1 << 64) - 1

PROFILES = ("paper", "small", "prec", "geo", "staged", "geo-prec")


class SplitMix64:
    """splitmix64: 64-bit counter state, one avalanche mix per output."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        span = hi - lo + 1
        limit = ((1 << 64) // span) * span
        while True:
            x = self.next_u64()
            if x < limit:
                return lo + x % span

    def chance(self, num: int, den: int) -> bool:
        """True with probability num/den, exactly."""
        return self.randint(0, den - 1) < num


def check_profile(profile: str, capacity: int | None) -> None:
    """Raise ValueError for an unknown profile, or for a capacity given to
    a profile whose instances are unbounded."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}, expected one of {PROFILES}")
    if capacity is not None and profile in ("prec", "geo-prec"):
        raise ValueError(f"profile {profile!r} is unbounded and takes no capacity, got {capacity}")


def _mixed_cost(rng: SplitMix64) -> CostSpec:
    kind = rng.randint(0, 2)
    if kind == 0:
        return Lateness(due=rng.randint(1, 30))
    if kind == 1:
        return Tardiness(due=rng.randint(1, 30))
    return Affine(a=rng.randint(0, 3), c=rng.randint(-10, 10))


def gen_random(n: int, seed: int, profile: str = "paper", capacity: int | None = None) -> Instance:
    """Deterministic instance from (n, seed, profile).

    Profiles:

    * ``paper`` - benchmark scale: p uniform in [40, 60], lateness due
      dates uniform in [60, 90], setup uniform in [1, 10] (the experiment
      write-ups leave the setup unstated), capacity max(2, n // 5) unless
      overridden.
    * ``small`` - oracle scale: p in [1, 9], due dates in [1, 30], setup in
      [0, 5], capacity uniform in [1, n - 1], costs mixed over lateness /
      tardiness / affine.
    * ``prec`` - like small but unbounded, with each id-ordered pair (i, j),
      i < j, becoming an edge independently with probability 3/10 (acyclic
      by construction).

    * ``geo`` - step-heavy bounded: p in [1, 3], setup 10, job k weighted
      completion with w = (n - k + 1)^2, capacity 2.  Threshold steps grow
      about as n^2 / 10 while the frontier stays small.
    * ``staged`` - relocation-heavy bounded: p in [1, 3], setup 10, job k
      lateness with due date the sum of (setup + p) over jobs 1..k,
      capacity max(1, n - 1).  Relocations are n(n - 1) / 2.
    * ``geo-prec`` - step-heavy precedence: geo's jobs, unbounded, and each
      job j > 1 gets up to two direct predecessors drawn uniformly from
      1..j - 1 (repeats dropped), so edges stay under 2n.

    ``capacity`` overrides the profile's batch capacity; the unbounded
    profiles refuse one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_profile(profile, capacity)
    rng = SplitMix64(seed)

    if profile == "paper":
        setup = rng.randint(1, 10)
        b = capacity if capacity is not None else min(n, max(2, n // 5))
        jobs = tuple(
            Job(id=j, p=rng.randint(40, 60), cost=Lateness(due=rng.randint(60, 90)))
            for j in range(1, n + 1)
        )
        return Instance(jobs=jobs, setup=setup, capacity=b)

    if profile == "small":
        setup = rng.randint(0, 5)
        b = capacity if capacity is not None else rng.randint(1, max(1, n - 1))
        jobs = tuple(
            Job(id=j, p=rng.randint(1, 9), cost=_mixed_cost(rng)) for j in range(1, n + 1)
        )
        return Instance(jobs=jobs, setup=setup, capacity=b)

    if profile in ("geo", "staged", "geo-prec"):
        p = [rng.randint(1, 3) for _ in range(n)]
        setup = 10
        if profile == "staged":
            dues = list(accumulate(setup + x for x in p))
            jobs = tuple(Job(id=j, p=p[j - 1], cost=Lateness(due=dues[j - 1])) for j in range(1, n + 1))
            b = capacity if capacity is not None else max(1, n - 1)
            return Instance(jobs=jobs, setup=setup, capacity=b)
        jobs = tuple(
            Job(id=j, p=p[j - 1], cost=WeightedCompletion(w=(n - j + 1) ** 2)) for j in range(1, n + 1)
        )
        if profile == "geo":
            return Instance(jobs=jobs, setup=setup, capacity=capacity if capacity is not None else min(n, 2))
        edges = tuple(dict.fromkeys(
            (rng.randint(1, j - 1), j) for j in range(2, n + 1) for _ in range(rng.randint(0, 2))
        ))
        return Instance(jobs=jobs, setup=setup, capacity=None, precedence=edges)

    setup = rng.randint(0, 5)
    jobs = tuple(
        Job(id=j, p=rng.randint(1, 9), cost=_mixed_cost(rng)) for j in range(1, n + 1)
    )
    edges = tuple(
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.chance(3, 10)
    )
    return Instance(jobs=jobs, setup=setup, capacity=None, precedence=edges)
