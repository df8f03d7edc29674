"""Wonderland (ASPLOS '18) model: abstraction-guided out-of-core processing.

Wonderland is the system the Abstraction Graph baseline comes from. Its two
ideas, per the paper's §4 description: keep a small abstraction in memory
to bootstrap an initial result, and "organize edges across partitions
according to their weights so fewer passes, and faster convergence, can be
obtained". The model here is edge-centric (X-Stream style): every pass
streams *all* partitions from disk — there is no source-locality to skip
blocks by, which is exactly why cutting the number of passes is the
system's lever.

Implemented faithfully enough to measure both levers: ``ordering="weight"``
sorts the on-disk edges ascending by weight (MIN-style queries propagate
down light paths within a single pass), and ``two_phase_run`` accepts any
proxy graph — Wonderland's own AG or this paper's CG — so the
bootstrap-quality comparison runs from the other system's side too.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.coregraph import CoreGraph
from repro.engines.frontier import push_iterations, relax_edges
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


class WonderlandSimulator:
    """Edge-centric streaming with weight-ordered partitions."""

    name = "Wonderland"

    def __init__(
        self,
        g: Graph,
        num_partitions: int = 4,
        params: CostParams = DEFAULT_COST_PARAMS,
        ordering: str = "weight",
    ) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if ordering not in ("weight", "natural"):
            raise ValueError(f"unknown ordering {ordering!r}")
        self.g = g
        self.num_partitions = num_partitions
        self.params = params
        self.ordering = ordering
        self._layouts = {}

    def _layout_for(self, work: Graph):
        key = id(work)
        if key not in self._layouts:
            src = work.edge_sources()
            weights = work.edge_weights()
            if self.ordering == "weight":
                order = np.argsort(weights, kind="stable")
            else:
                order = np.arange(work.num_edges)
            m = work.num_edges
            bounds = np.linspace(0, m, self.num_partitions + 1).astype(np.int64)
            self._layouts[key] = (
                src[order], work.dst[order], weights[order], bounds
            )
        return self._layouts[key]

    def _init_report(self, spec: QuerySpec, mode: str, source) -> SystemReport:
        report = SystemReport(
            system=self.name, spec_name=spec.name, mode=mode, source=source
        )
        for key in ("io_bytes", "passes", "comp_edges", "edges_processed",
                    "updates"):
            report.counters[key] = 0.0
        report.breakdown = {"io": 0.0, "comp": 0.0}
        return report

    def _finish(self, report, vals, stats) -> SystemReport:
        report.time = sum(report.breakdown.values())
        report.stats = stats
        report.values = vals
        return report

    # ------------------------------------------------------------------
    def _stream_passes(
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
    ) -> np.ndarray:
        """Full-graph passes over the (weight-)ordered edge stream.

        Values written early in a pass are visible to later edges of the
        same pass — with ascending weights, a whole light-edge path can
        settle in one pass.
        """
        p_cost = self.params
        src, dst, w_raw, bounds = self._layout_for(work)
        weights = spec.weight_transform(w_raw)
        n = work.num_vertices
        active = np.zeros(n, dtype=bool)
        frontier = np.unique(np.asarray(frontier, dtype=np.int64))
        active[frontier] = True
        pass_idx = 0
        while frontier.size:
            old_vals = vals.copy()
            touched = np.zeros(n, dtype=bool)
            edges_this_pass = 0
            updates_this_pass = 0
            for k in range(self.num_partitions):
                lo, hi = int(bounds[k]), int(bounds[k + 1])
                if hi == lo:
                    continue
                nbytes = (hi - lo) * (p_cost.bytes_per_edge + 4)
                report.counters["io_bytes"] += nbytes
                report.breakdown["io"] += nbytes / p_cost.disk_bandwidth
                # Within the partition, propagate to a fixed point so an
                # ascending-weight chain settles in this very pass.
                part_src = src[lo:hi]
                part_dst = dst[lo:hi]
                part_w = weights[lo:hi]
                while True:
                    sel = active[part_src] | spec.better(
                        vals[part_src],
                        old_vals[part_src],
                    )
                    if blocked_dst is not None:
                        sel = sel & ~blocked_dst[part_dst]
                    if not sel.any():
                        break
                    d = part_dst[sel]
                    _, updates = relax_edges(
                        spec, vals, part_src[sel], d, part_w[sel]
                    )
                    if not updates:
                        break
                    updates_this_pass += updates
                    touched[d] = True
                    edges_this_pass += int(d.size)
            changed = spec.better(vals, old_vals)
            if first_visit:
                fresh = touched & ~visited
                visited |= touched
                activate = changed | fresh
            else:
                activate = changed
            new_frontier = np.flatnonzero(activate)
            stats.record(IterationInfo(
                index=pass_idx,
                frontier_size=int(frontier.size),
                edges_scanned=edges_this_pass,
                updates=updates_this_pass,
                activated=int(new_frontier.size),
            ))
            report.counters["passes"] += 1
            report.counters["comp_edges"] += edges_this_pass
            report.counters["edges_processed"] += edges_this_pass
            report.counters["updates"] += updates_this_pass
            report.breakdown["io"] += p_cost.io_latency
            report.breakdown["comp"] += edges_this_pass / p_cost.cpu_edge_rate
            active[:] = False
            active[new_frontier] = True
            frontier = new_frontier
            pass_idx += 1
        return vals

    # ------------------------------------------------------------------
    def baseline_run(
        self, spec: QuerySpec, source: Optional[int] = None
    ) -> SystemReport:
        """Plain streaming: no in-memory bootstrap."""
        report = self._init_report(spec, "baseline", source)
        work = working_graph(self.g, spec)
        vals = spec.initial_values(self.g.num_vertices, source)
        frontier = spec.initial_frontier(self.g.num_vertices, source)
        stats = RunStats()
        self._stream_passes(work, spec, vals, frontier, report, stats)
        return self._finish(report, vals, stats)

    def two_phase_run(
        self,
        proxy: Union[CoreGraph, Graph],
        spec: QuerySpec,
        source: Optional[int] = None,
        triangle: bool = False,
    ) -> SystemReport:
        """Wonderland's own mode: bootstrap from an in-memory proxy.

        ``proxy`` may be its native Abstraction Graph or a Core Graph.
        """
        proxy_g = resolve_proxy(proxy)
        mode = "2phase-triangle" if triangle else "2phase"
        report = self._init_report(spec, mode, source)
        p_cost = self.params
        n = self.g.num_vertices

        work_cg = working_graph(proxy_g, spec)
        cg_bytes = work_cg.num_edges * (p_cost.bytes_per_edge + 4)
        report.counters["io_bytes"] += cg_bytes
        report.breakdown["io"] += cg_bytes / p_cost.disk_bandwidth
        vals = spec.initial_values(n, source)
        frontier = spec.initial_frontier(n, source)
        phase1 = RunStats()
        for info in push_iterations(work_cg, spec, vals, frontier):
            phase1.record(info)
            report.counters["comp_edges"] += info.edges_scanned
            report.counters["edges_processed"] += info.edges_scanned
            report.counters["updates"] += info.updates
            report.breakdown["comp"] += (
                info.edges_scanned / p_cost.cpu_edge_rate
            )
        report.counters["phase1_iterations"] = phase1.iterations

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
        self._stream_passes(
            work, spec, vals, impacted, report, phase2,
            first_visit=True, visited=visited, blocked_dst=blocked,
        )
        return self._finish(report, vals, phase1.merged_with(phase2))
