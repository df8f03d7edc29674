"""Iterative evaluation engines over CSR graphs."""

from repro.engines.stats import RunStats, IterationInfo
from repro.engines.frontier import (
    evaluate_query,
    push_iterations,
    run_push,
    ragged_gather,
    is_fixed_point,
)
from repro.engines.scalar import scalar_evaluate
from repro.engines.async_engine import async_evaluate
from repro.engines.pull import direction_optimizing_evaluate
from repro.engines.delta_stepping import delta_stepping

__all__ = [
    "delta_stepping",
    "is_fixed_point",
    "RunStats",
    "IterationInfo",
    "evaluate_query",
    "push_iterations",
    "run_push",
    "ragged_gather",
    "scalar_evaluate",
    "async_evaluate",
    "direction_optimizing_evaluate",
]
