"""Exact Pareto frontiers for serial-batch machine scheduling.

Solves two bicriteria problems over (makespan, maximum cost): bounded batch
capacity without precedence, and unbounded capacity under strict
precedence.  Both run in cubic time via a warm-started threshold sweep and
are verified against an exhaustive oracle on small instances.
"""

from .admissible import AdmissibleSlots
from .bounded import UNBOUNDED, BoundedSolver, form_batches, solve_reference
from .fileio import emit_instance, load_instance, parse_instance, save_instance
from .frontier import (
    ParetoFront,
    ParetoPoint,
    pareto_bounded,
    pareto_bounded_naive,
    pareto_front,
    pareto_precedence,
)
from .generate import SplitMix64, gen_random
from .model import (
    Affine,
    CostSpec,
    Instance,
    InstanceError,
    InvariantError,
    Job,
    Lateness,
    Schedule,
    ScheduleError,
    StepTable,
    Tardiness,
    WeightedCompletion,
    eval_cost,
    objectives,
    timetable,
    validate,
)
from .oracle import OracleFrontier, OracleSizeError, enumerate_feasible, oracle_pareto
from .precedence import PrecedenceSolver, PrecGraph, layered_limits

__version__ = "0.1.0"

__all__ = [
    "AdmissibleSlots",
    "Affine",
    "BoundedSolver",
    "CostSpec",
    "Instance",
    "InstanceError",
    "InvariantError",
    "Job",
    "Lateness",
    "OracleFrontier",
    "OracleSizeError",
    "ParetoFront",
    "ParetoPoint",
    "PrecGraph",
    "PrecedenceSolver",
    "Schedule",
    "ScheduleError",
    "SplitMix64",
    "StepTable",
    "Tardiness",
    "UNBOUNDED",
    "WeightedCompletion",
    "emit_instance",
    "enumerate_feasible",
    "eval_cost",
    "form_batches",
    "gen_random",
    "layered_limits",
    "load_instance",
    "objectives",
    "oracle_pareto",
    "pareto_bounded",
    "pareto_bounded_naive",
    "pareto_front",
    "pareto_precedence",
    "parse_instance",
    "save_instance",
    "solve_reference",
    "timetable",
    "validate",
]
