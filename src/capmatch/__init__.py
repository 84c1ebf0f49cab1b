"""Capacity planning for hospital/residents matching markets.

Given agents and programs with strict mutual preference lists, per-program
quotas and seat costs, the solvers here find how many extra seats to open so
that a stable matching covering every agent exists, minimizing either the
total augmentation cost (approximation algorithms) or the largest
single-program spend (exact).
"""

from .errors import (
    CapmatchError,
    InstanceTooLarge,
    InvariantBroken,
    InvalidMatching,
    InvalidParams,
    NotEnvyFree,
    ParseError,
    PreconditionViolated,
    UncoverableElement,
    UnmatchableAgent,
    ValidationError,
)
from .model import (
    AugmentedSolution,
    Instance,
    InstanceMetrics,
    Matching,
    least_cost_program,
    metrics,
    parse_instance,
    serialize_instance,
    solution_cost,
    solution_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedSolution",
    "CapmatchError",
    "Instance",
    "InstanceMetrics",
    "InstanceTooLarge",
    "InvariantBroken",
    "InvalidMatching",
    "InvalidParams",
    "Matching",
    "NotEnvyFree",
    "ParseError",
    "PreconditionViolated",
    "UncoverableElement",
    "UnmatchableAgent",
    "ValidationError",
    "least_cost_program",
    "metrics",
    "parse_instance",
    "serialize_instance",
    "solution_cost",
    "solution_to_json",
]
