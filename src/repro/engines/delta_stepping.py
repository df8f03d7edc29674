"""Delta-stepping SSSP (Meyer & Sanders): the bucketed middle ground.

The evaluation engines span Bellman-Ford-style frontier push (lots of
parallelism, redundant relaxations) and Dijkstra (no redundancy, serial).
Delta-stepping buckets tentative distances by width ``delta`` and settles
one bucket at a time — light edges (w <= delta) re-relax within the bucket,
heavy edges wait until their bucket closes. It is the classic high-
performance SSSP used by many of the systems the paper builds on, included
here to characterize the engine-substrate design space (and differentially
test the others from yet another angle).

Only distance-like MIN/+ queries are supported (SSSP, BFS).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.checks.sanitize import probes as san_probes
from repro.checks.sanitize import runtime as san_runtime
from repro.engines.frontier import (
    dedup, emit_round, ragged_gather, relax_edges,
)
from repro.engines.stats import IterationInfo, RunStats
from repro.graph.csr import Graph
from repro.obs import runtime as obs_runtime
from repro.queries.base import QuerySpec
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import Checkpoint, Checkpointer
from repro.resilience.faults import fault_point

_SUPPORTED = {"SSSP", "BFS"}


def delta_stepping(
    g: Graph,
    spec: QuerySpec,
    source: int,
    delta: Optional[float] = None,
    stats: Optional[RunStats] = None,
    budget: Optional[Budget] = None,
    checkpointer: Optional[Checkpointer] = None,
    resume: Optional[Checkpoint] = None,
) -> np.ndarray:
    """Evaluate SSSP/BFS from ``source`` with bucket width ``delta``.

    ``delta=None`` picks the mean edge weight (a common default).
    ``budget`` is enforced per relaxation round; checkpoints are written at
    bucket boundaries (tentative distances + bucket assignment), which is
    the engine's natural consistent cut. Each relaxation round is reported
    like any engine round; its ``redundant`` count is the improvements of
    a distance that had already improved before (re-settled work).
    """
    if spec.name not in _SUPPORTED:
        raise ValueError(
            f"delta-stepping requires additive MIN queries, not {spec.name}"
        )
    weights = spec.weight_transform(g.edge_weights())
    if spec.name == "BFS":
        weights = np.ones(g.num_edges)
    if g.num_edges and weights.min() < 0:
        raise ValueError("delta-stepping requires non-negative weights")
    if delta is None:
        delta = float(weights.mean()) if g.num_edges else 1.0
    if delta <= 0:
        raise ValueError("delta must be positive")

    n = g.num_vertices
    light = weights <= delta
    if resume is not None:
        dist = resume.arrays["dist"].copy()
        bucket_of = resume.arrays["bucket_of"].copy()
        current = int(resume.meta["current_bucket"])
        round_idx = int(resume.meta.get("round_idx", 0))
        buckets_done = resume.iteration
    else:
        dist = spec.initial_values(n, source)
        bucket_of = np.full(n, -1, dtype=np.int64)
        bucket_of[source] = 0
        current = 0
        round_idx = 0
        buckets_done = 0
    mark = np.zeros(n, dtype=bool)
    # Re-improving a previously-settled tentative distance means the prior
    # relaxation was redundant; the mask is only kept while telemetry is on.
    ever_improved = np.zeros(n, dtype=bool) if obs_runtime._enabled else None

    def relax_round(
        vertices: np.ndarray, heavy: bool
    ) -> Optional[np.ndarray]:
        """Relax the light (or heavy) out-edges of ``vertices``; returns
        the distinct vertices whose distance improved, or None (and no
        round) when ``vertices`` have no out-edges at all."""
        nonlocal round_idx
        edge_idx, u = ragged_gather(g.offsets, vertices)
        if edge_idx.size == 0:
            return None
        sel = light[edge_idx] != heavy
        v = g.dst[edge_idx[sel]]
        changed, _ = relax_edges(
            spec, dist, u[sel], v, weights[edge_idx[sel]]
        )
        improved = dedup(v[changed], mark)
        again = 0
        if ever_improved is not None:
            again = int(np.count_nonzero(ever_improved[improved]))
            ever_improved[improved] = True
        bucket_of[improved] = (dist[improved] // delta).astype(np.int64)
        info = IterationInfo(
            index=round_idx, frontier_size=int(vertices.size),
            edges_scanned=int(edge_idx.size), updates=int(improved.size),
            activated=int(improved.size), redundant=again,
        )
        if stats is not None:
            stats.record(info)
        if obs_runtime._enabled:
            emit_round(info, "delta_stepping")
        round_idx += 1
        return improved

    if san_runtime._enabled:
        san_probes.check_csr(g, "engine.delta_stepping")
    while True:
        in_bucket = np.flatnonzero(bucket_of == current)
        if in_bucket.size == 0:
            remaining = bucket_of[bucket_of > current]
            if remaining.size == 0:
                break
            current = int(remaining.min())
            continue
        settled_this_bucket = np.zeros(n, dtype=bool)
        # Phase 1: relax light edges until the bucket stops changing;
        # vertices improved back *into* this bucket re-enter immediately.
        frontier = in_bucket
        while frontier.size:
            fault_point("engine.delta_stepping.round")
            if budget is not None:
                budget.tick(
                    "engine.delta_stepping", frontier_bytes=frontier.nbytes
                )
            settled_this_bucket[frontier] = True
            bucket_of[frontier] = -1
            improved = relax_round(frontier, heavy=False)
            if improved is None:
                break
            frontier = improved[bucket_of[improved] == current]
        # Phase 2: heavy edges of everything settled in this bucket, once.
        settled = np.flatnonzero(settled_this_bucket)
        if budget is not None:
            budget.tick("engine.delta_stepping", frontier_bytes=settled.nbytes)
        relax_round(settled, heavy=True)
        current += 1
        buckets_done += 1
        if checkpointer is not None:
            # Bucket close is the engine's consistent cut: the tentative
            # distances plus bucket assignment fully determine the rest.
            checkpointer.extra_meta.update(
                current_bucket=current, round_idx=round_idx
            )
            checkpointer.maybe_save(
                buckets_done, dist=dist, bucket_of=bucket_of
            )
    return dist
