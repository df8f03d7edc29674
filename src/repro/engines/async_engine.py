"""Asynchronous (chunked, immediately-visible) evaluation.

The synchronous engine applies a whole round of candidates before any of
them becomes visible; real systems (Subway's async mode, GridGraph's
in-iteration streaming) let updates propagate within an iteration. This
engine processes the frontier in vertex chunks with immediate visibility —
values written by an earlier chunk feed later chunks of the same round.
For the monotonic query class both schedules converge to the same fixed
point (a test asserts this); asynchrony typically converges in fewer
rounds at the cost of less regular parallelism.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.checks.sanitize import probes as san_probes
from repro.checks.sanitize import runtime as san_runtime
from repro.engines.frontier import (
    Round, drive, ragged_gather, record_rounds, relax_edges, symmetric_view,
)
from repro.engines.stats import RunStats
from repro.graph.csr import Graph
from repro.queries.base import QuerySpec
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import Checkpoint, Checkpointer


def async_evaluate(
    g: Graph,
    spec: QuerySpec,
    source: Optional[int] = None,
    chunk_size: int = 1024,
    stats: Optional[RunStats] = None,
    budget: Optional[Budget] = None,
    checkpointer: Optional[Checkpointer] = None,
    resume: Optional[Checkpoint] = None,
) -> np.ndarray:
    """Evaluate ``spec`` with chunked-asynchronous rounds.

    Budget/checkpoint boundaries are whole rounds (between rounds every
    chunk's writes are visible, so the round boundary is a consistent
    cut even for the asynchronous schedule).
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    work = symmetric_view(g) if spec.symmetric else g
    weights = spec.weight_transform(work.edge_weights())
    n = g.num_vertices
    if resume is not None:
        vals = resume.arrays["vals"].copy()
        frontier = resume.arrays["frontier"].copy()
        iteration = resume.iteration
    else:
        vals = spec.initial_values(n, source)
        frontier = spec.initial_frontier(n, source)
        iteration = 0
    in_next = np.zeros(n, dtype=bool)

    def step(frontier: np.ndarray) -> Round:
        # Round-entry snapshot for the lost-update shadow replay.
        round_start = vals.copy() if san_runtime._enabled else None
        edges_scanned = updates = 0
        for lo in range(0, frontier.size, chunk_size):
            edge_idx, u = ragged_gather(
                work.offsets, frontier[lo:lo + chunk_size]
            )
            v = work.dst[edge_idx]
            # Reads vals *after* earlier chunks' writes: immediate
            # visibility.
            changed, n_up = relax_edges(spec, vals, u, v, weights[edge_idx])
            in_next[v[changed]] = True
            edges_scanned += int(edge_idx.size)
            updates += n_up
        new_frontier = np.flatnonzero(in_next)
        in_next[new_frontier] = False
        if san_runtime._enabled:
            san_probes.check_async_no_lost_updates(
                work, spec, weights, frontier, round_start, vals,
                "engine.async",
            )
        return Round(new_frontier, edges_scanned, updates)

    record_rounds(drive(
        "async", work, vals, frontier, step, budget=budget,
        checkpointer=checkpointer, start_iteration=iteration,
    ), stats)
    return vals
