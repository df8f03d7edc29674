"""Pregel-style distributed BSP model: where core graphs cut network traffic.

The paper's intro grounds the problem in distributed frameworks (Pregel,
PowerGraph, GraphLab); its technique is system-agnostic, so this model
extends the demonstration to the distributed class. Vertices are hash- or
range-partitioned across ``workers``; each superstep, every active vertex
pushes values over its out-edges and any edge crossing a worker boundary
costs one network message — the dominant distributed expense.

With a core graph the Core Phase runs on one coordinator (the CG fits in a
single machine's memory, as in the out-of-core setting) at zero network
cost, and the Completion Phase runs distributed from the impacted frontier,
typically in far fewer supersteps with far fewer cross-worker messages.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.coregraph import CoreGraph
from repro.engines.frontier import push_iterations, push_round
from repro.engines.stats import IterationInfo, RunStats
from repro.graph.csr import Graph
from repro.queries.base import QuerySpec
from repro.systems.common import (
    completion_blocked,
    phase2_frontier,
    resolve_proxy,
    working_graph,
)
from repro.systems.report import DEFAULT_COST_PARAMS, CostParams, SystemReport


class PregelSimulator:
    """Synchronous vertex-centric BSP with per-worker message accounting."""

    name = "Pregel"

    #: Modeled network cost per cross-worker message (seconds).
    MESSAGE_COST = 2.0e-7
    #: Modeled per-superstep synchronization barrier cost (seconds).
    BARRIER_COST = 1.0e-3

    def __init__(
        self,
        g: Graph,
        workers: int = 8,
        params: CostParams = DEFAULT_COST_PARAMS,
        placement: str = "hash",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if placement not in ("hash", "range"):
            raise ValueError(f"unknown placement {placement!r}")
        self.g = g
        self.workers = workers
        self.params = params
        self.placement = placement
        n = g.num_vertices
        if placement == "hash":
            self.worker_of = np.arange(n, dtype=np.int64) % workers
        else:
            bounds = np.linspace(0, n, workers + 1).astype(np.int64)
            self.worker_of = (
                np.searchsorted(bounds, np.arange(n), side="right") - 1
            )

    # ------------------------------------------------------------------
    def _init_report(self, spec: QuerySpec, mode: str, source) -> SystemReport:
        report = SystemReport(
            system=self.name, spec_name=spec.name, mode=mode, source=source
        )
        for key in ("supersteps", "messages", "network_messages",
                    "comp_edges", "edges_processed", "updates"):
            report.counters[key] = 0.0
        report.breakdown = {"network": 0.0, "comp": 0.0, "barrier": 0.0}
        return report

    def _finish(self, report, vals, stats) -> SystemReport:
        report.time = sum(report.breakdown.values())
        report.stats = stats
        report.values = vals
        return report

    def _bsp_rounds(
        self,
        work: Graph,
        spec: QuerySpec,
        vals: np.ndarray,
        frontier: np.ndarray,
        report: SystemReport,
        stats: RunStats,
        first_visit: bool = False,
        visited: Optional[np.ndarray] = None,
        blocked_dst: Optional[np.ndarray] = None,
    ) -> None:
        """Synchronous supersteps; every edge push is a message, and pushes
        whose endpoints live on different workers cost network traffic."""
        p_cost = self.params
        weights = spec.weight_transform(work.edge_weights())
        # Cross-worker out-edges per vertex, over the edges this phase
        # pushes (blocked destinations receive nothing).
        src = work.edge_sources()
        remote_edge = self.worker_of[src] != self.worker_of[work.dst]
        if blocked_dst is not None:
            remote_edge &= ~blocked_dst[work.dst]
        remote_deg = np.bincount(
            src[remote_edge], minlength=work.num_vertices
        )
        mark = np.zeros(work.num_vertices, dtype=bool)
        frontier = np.unique(np.asarray(frontier, dtype=np.int64))
        superstep = 0
        while frontier.size:
            rnd = push_round(
                work, spec, vals, frontier, weights, mark,
                first_visit=first_visit, visited=visited,
                blocked_dst=blocked_dst,
            )
            remote = int(remote_deg[frontier].sum())
            stats.record(IterationInfo(
                index=superstep,
                frontier_size=int(frontier.size),
                edges_scanned=rnd.edges_scanned,
                updates=rnd.updates,
                activated=int(rnd.frontier.size),
            ))
            report.counters["supersteps"] += 1
            report.counters["messages"] += rnd.edges_scanned
            report.counters["network_messages"] += remote
            report.counters["comp_edges"] += rnd.edges_scanned
            report.counters["edges_processed"] += rnd.edges_scanned
            report.counters["updates"] += rnd.updates
            report.breakdown["network"] += remote * self.MESSAGE_COST
            report.breakdown["comp"] += (
                rnd.edges_scanned / p_cost.cpu_edge_rate
            )
            report.breakdown["barrier"] += self.BARRIER_COST
            frontier = rnd.frontier
            superstep += 1

    # ------------------------------------------------------------------
    def baseline_run(
        self, spec: QuerySpec, source: Optional[int] = None
    ) -> SystemReport:
        """Plain distributed BSP evaluation."""
        report = self._init_report(spec, "baseline", source)
        work = working_graph(self.g, spec)
        vals = spec.initial_values(self.g.num_vertices, source)
        frontier = spec.initial_frontier(self.g.num_vertices, source)
        stats = RunStats()
        self._bsp_rounds(work, spec, vals, frontier, report, stats)
        return self._finish(report, vals, stats)

    def two_phase_run(
        self,
        proxy: Union[CoreGraph, Graph],
        spec: QuerySpec,
        source: Optional[int] = None,
        triangle: bool = False,
    ) -> SystemReport:
        """Coordinator-local core phase, distributed completion phase."""
        proxy_g = resolve_proxy(proxy)
        mode = "2phase-triangle" if triangle else "2phase"
        report = self._init_report(spec, mode, source)
        n = self.g.num_vertices

        # Core Phase on the coordinator: no supersteps, no network.
        work_cg = working_graph(proxy_g, spec)
        vals = spec.initial_values(n, source)
        frontier = spec.initial_frontier(n, source)
        phase1 = RunStats()
        for info in push_iterations(work_cg, spec, vals, frontier):
            phase1.record(info)
            report.counters["comp_edges"] += info.edges_scanned
            report.counters["edges_processed"] += info.edges_scanned
            report.breakdown["comp"] += (
                info.edges_scanned / self.params.cpu_edge_rate
            )
        report.counters["phase1_iterations"] = phase1.iterations
        # Broadcasting the bootstrapped values to the workers costs one
        # value per vertex over the network.
        report.counters["network_messages"] += n
        report.breakdown["network"] += n * self.MESSAGE_COST

        blocked, certified = completion_blocked(
            proxy, spec, source, vals, triangle
        )
        report.counters["certified_precise"] = certified
        impacted = phase2_frontier(spec, vals)
        report.counters["impacted"] = float(impacted.size)
        visited = np.zeros(n, dtype=bool)
        visited[impacted] = True
        work = working_graph(self.g, spec)
        phase2 = RunStats()
        self._bsp_rounds(
            work, spec, vals, impacted, report, phase2,
            first_visit=True, visited=visited, blocked_dst=blocked,
        )
        return self._finish(report, vals, phase1.merged_with(phase2))
