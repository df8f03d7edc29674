"""Pull-based dense iterations and Ligra-style direction optimization.

Ligra switches between a *sparse push* (out-edges of the frontier) and a
*dense pull* (in-edges of candidate destinations) depending on the
frontier's total out-degree. Pull mode is what makes REACH/BFS so cheap on
dense frontiers: a destination that already holds a satisfying value is
skipped entirely, and its in-edge scan can stop at the first improving
parent. This engine reproduces that schedule; converged values equal the
push engine's (asserted by tests).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engines.frontier import (
    Round, dedup, drive, push_round, ragged_gather, record_rounds,
    relax_edges, symmetric_view,
)
from repro.engines.stats import RunStats
from repro.graph.csr import Graph
from repro.graph.transform import reverse_edge_permutation
from repro.queries.base import QuerySpec
from repro.resilience.budget import Budget

#: Ligra's default density threshold: pull when the frontier's out-degree
#: sum exceeds |E| / DENSE_DIVISOR.
DENSE_DIVISOR = 20


def direction_optimizing_evaluate(
    g: Graph,
    spec: QuerySpec,
    source: Optional[int] = None,
    dense_divisor: int = DENSE_DIVISOR,
    stats: Optional[RunStats] = None,
    budget: Optional[Budget] = None,
) -> np.ndarray:
    """Evaluate ``spec`` switching between push and pull per iteration.

    ``budget`` is polled once per round (site ``"engine.pull"``), matching
    the other evaluators' contract; ``fault_point("engine.pull.round")``
    exposes the round boundary to the failure-injection harness.
    """
    work = symmetric_view(g) if spec.symmetric else g
    rev = work.reverse()
    weights = spec.weight_transform(work.edge_weights())
    weights_rev = weights[reverse_edge_permutation(work)]
    n = g.num_vertices
    m = max(1, work.num_edges)
    vals = spec.initial_values(n, source)
    out_deg = work.out_degree()
    in_frontier = np.zeros(n, dtype=bool)
    mark = np.zeros(n, dtype=bool)

    def step(frontier: np.ndarray) -> Round:
        if int(out_deg[frontier].sum()) <= m // dense_divisor:
            return push_round(work, spec, vals, frontier, weights, mark)
        # Dense pull: every unsaturated vertex scans its in-edges whose
        # source is in the frontier; saturated ones are skipped entirely.
        saturated = spec.saturated(vals)
        candidates = (
            np.arange(n, dtype=np.int64) if saturated is None
            else np.flatnonzero(~saturated)
        )
        edge_idx, v = ragged_gather(rev.offsets, candidates)
        u = rev.dst[edge_idx]  # in-neighbor in the original orientation
        in_frontier[frontier] = True
        sel = in_frontier[u]
        in_frontier[frontier] = False
        edge_idx, u, v = edge_idx[sel], u[sel], v[sel]
        changed, updates = relax_edges(spec, vals, u, v, weights_rev[edge_idx])
        return Round(dedup(v[changed], mark), int(edge_idx.size), updates)

    record_rounds(drive(
        "pull", work, vals, spec.initial_frontier(n, source), step,
        budget=budget,
    ), stats)
    return vals
