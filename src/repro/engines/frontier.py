"""The shared round machinery and the synchronous frontier-push engine.

Every evaluator is built from three layers that live here:

* :func:`relax_edges` — the one CASMIN/CASMAX step (Table 6): candidates
  ``Val(u) ⊕ w`` reduced into ``vals`` with ``spec.reduce_at``
  (``np.minimum.at`` / ``np.maximum.at``), plus the sanitizer's monotone
  watchdog and the successful-update count;
* :func:`push_round` — one synchronous round: gather the frontier's
  out-edges, drop the in-edges of certified vertices (``blocked_dst``),
  relax, apply the paper's ``FirstPhase2Visit`` rule, and dedup the next
  frontier with a reused bitmap (:func:`dedup`);
* :func:`drive` — the round loop: fault point, budget tick, frontier
  probe, per-round telemetry and checkpoint around a schedule's step.

An engine is then only its schedule: :func:`push_iterations` drives
:func:`push_round` over the whole frontier; ``async_engine`` and ``pull``
drive their own steps; delta-stepping and the system models call the
kernel from their own loops and keep their own cost accounting.
"""

from __future__ import annotations

import threading
import time
from typing import (
    Callable, Generator, Iterable, NamedTuple, Optional, Tuple,
)

import numpy as np

from repro.checks.sanitize import probes as san_probes
from repro.checks.sanitize import runtime as san_runtime
from repro.engines.stats import IterationInfo, RunStats
from repro.graph.csr import Graph
from repro.graph.transform import symmetrize
from repro.obs import journal as obs_journal
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.obs import spans as obs_spans
from repro.queries.base import QuerySpec
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import Checkpointer
from repro.resilience.faults import fault_point

try:  # pragma: no cover - import guard exercised implicitly
    from weakref import WeakKeyDictionary
except ImportError:  # pragma: no cover
    WeakKeyDictionary = dict  # type: ignore[assignment,misc]

_SYMMETRIC_CACHE: "WeakKeyDictionary" = WeakKeyDictionary()
# Single-flight guard: concurrent serve workers asking for the same
# graph's symmetric view must not each pay (and race) the symmetrize.
_SYMMETRIC_LOCK = threading.Lock()


def symmetric_view(g: Graph) -> Graph:
    """Cached symmetrized view of ``g`` (used by WCC); thread-safe."""
    with _SYMMETRIC_LOCK:
        try:
            return _SYMMETRIC_CACHE[g]
        except (KeyError, TypeError):
            pass
        sym = symmetrize(g)
        if san_runtime._enabled:
            san_probes.check_symmetrized(g, sym, "engine.symmetric_view")
        try:
            _SYMMETRIC_CACHE[g] = sym
        except TypeError:
            pass
        return sym


def ragged_gather(
    offsets: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR edge indices and per-edge sources for all out-edges of ``frontier``.

    Returns ``(edge_idx, u_per_edge)`` where ``edge_idx`` indexes the CSR
    edge arrays and ``u_per_edge`` repeats each frontier vertex once per
    out-edge.
    """
    starts = offsets[frontier]
    degs = offsets[frontier + 1] - starts
    total = int(degs.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    cum = np.cumsum(degs)
    block_offsets = np.concatenate((np.zeros(1, dtype=np.int64), cum[:-1]))
    edge_idx = np.arange(total, dtype=np.int64) + np.repeat(
        starts - block_offsets, degs
    )
    u_per_edge = np.repeat(frontier, degs)
    return edge_idx, u_per_edge


class Round(NamedTuple):
    """What one schedule step did: the next frontier and its work counters."""

    frontier: np.ndarray
    edges_scanned: int
    updates: int
    edges_skipped: int = 0
    redundant: int = 0


def dedup(vertices: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """Sorted distinct ``vertices`` via a reused all-False bitmap.

    GBBS/Ligra's dense vertex subset: set the bits, read them back with
    ``flatnonzero``, clear them. Same output as ``np.unique`` without the
    sort; ``mark`` (one bool per vertex) is all False again on return.
    """
    mark[vertices] = True
    out = np.flatnonzero(mark)
    mark[out] = False
    return out


def relax_edges(
    spec: QuerySpec,
    vals: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """Relax edges ``u -> v`` (transformed weights ``w``) into ``vals``.

    The one CASMIN/CASMAX step every engine and system model shares:
    candidates ``vals[u] ⊕ w`` are reduced into ``vals[v]`` in place.
    Returns ``(changed, updates)``: the per-edge mask of edges whose
    destination value improved this call, and the number of candidates
    that strictly improved on their destination's value before the call
    (the successful-atomics count).
    """
    old = vals[v]
    cand = spec.propagate(vals[u], w)
    updates = int(np.count_nonzero(spec.better(cand, old)))
    spec.reduce_at(vals, v, cand)
    new = vals[v]
    if san_runtime._enabled:
        san_probes.monotone_watchdog(spec, old, new, "engine.relax_edges")
    return spec.better(new, old), updates


def push_round(
    g: Graph,
    spec: QuerySpec,
    vals: np.ndarray,
    frontier: np.ndarray,
    weights: np.ndarray,
    mark: np.ndarray,
    *,
    first_visit: bool = False,
    visited: Optional[np.ndarray] = None,
    blocked_dst: Optional[np.ndarray] = None,
    count_redundant: bool = False,
) -> Round:
    """One synchronous push round from the sorted, distinct ``frontier``.

    Gathers the frontier's out-edges, drops those into ``blocked_dst``,
    relaxes the rest, and returns the next frontier: every improved
    destination plus, under ``first_visit``, every destination reached for
    the first time. ``count_redundant`` also counts the improving
    candidates that lost the reduce to a better one for the same
    destination (a second bitmap pass, so only telemetry asks for it).
    """
    edge_idx, u = ragged_gather(g.offsets, frontier)
    v = g.dst[edge_idx]
    skipped = 0
    if blocked_dst is not None and edge_idx.size:
        keep = ~blocked_dst[v]
        skipped = int(edge_idx.size - np.count_nonzero(keep))
        edge_idx, u, v = edge_idx[keep], u[keep], v[keep]
    changed, updates = relax_edges(spec, vals, u, v, weights[edge_idx])
    redundant = 0
    if count_redundant and updates:
        redundant = updates - int(dedup(v[changed], mark).size)
    if first_visit:
        fresh = ~visited[v]
        visited[v[fresh]] = True
        changed |= fresh
    return Round(
        dedup(v[changed], mark), int(edge_idx.size), updates, skipped,
        redundant,
    )


def emit_round(info: IterationInfo, engine: str) -> None:
    """Telemetry for one round of any engine: counters + a journal line.

    The phase label is the innermost open span (``twophase.core``,
    ``cg.hub_query``, ...), so the same engine loop is attributed to
    whichever caller is driving it; the journal line names the engine.
    """
    phase = obs_spans.current_span_name()
    obs_metrics.counter("engine.iterations", phase=phase).inc()
    obs_metrics.counter(
        "engine.edges_scanned", phase=phase
    ).inc(info.edges_scanned)
    obs_metrics.counter("engine.updates", phase=phase).inc(info.updates)
    obs_metrics.counter(
        "engine.vertices_activated", phase=phase
    ).inc(info.activated)
    obs_metrics.counter(
        "engine.edges_skipped", phase=phase
    ).inc(info.edges_skipped)
    obs_metrics.counter(
        "engine.redundant_relaxations", phase=phase
    ).inc(info.redundant)
    obs_journal.emit(
        {
            "type": "iteration",
            "engine": engine,
            "phase": phase,
            "iteration": info.index,
            "frontier": info.frontier_size,
            "edges_scanned": info.edges_scanned,
            "updates": info.updates,
            "activated": info.activated,
            "edges_skipped": info.edges_skipped,
            "redundant": info.redundant,
        }
    )


#: Fault-injection site at each driven engine's round boundary.
FAULT_SITES = {
    "frontier": "engine.frontier.iteration",
    "async": "engine.async.round",
    "pull": "engine.pull.round",
}


def drive(
    engine: str,
    g: Graph,
    vals: np.ndarray,
    frontier: np.ndarray,
    step: Callable[[np.ndarray], Round],
    *,
    visited: Optional[np.ndarray] = None,
    max_iterations: Optional[int] = None,
    keep_frontier: bool = False,
    budget: Optional[Budget] = None,
    checkpointer: Optional[Checkpointer] = None,
    start_iteration: int = 0,
) -> Generator[IterationInfo, None, None]:
    """The round loop of every frontier engine; ``step`` is its schedule.

    ``step(frontier)`` advances ``vals`` by one round and returns a
    :class:`Round`. Everything around it lives here: the fault point
    (:data:`FAULT_SITES`), the budget tick and the sanitizer's frontier
    probe (site ``engine.<engine>``), the per-round telemetry, and the
    checkpoint of ``(vals, next frontier, visited)`` that restarts the
    next round. Yields one :class:`IterationInfo` per round.
    """
    site = f"engine.{engine}"
    n = g.num_vertices
    frontier = np.unique(np.asarray(frontier, dtype=np.int64))
    if san_runtime._enabled:
        san_probes.check_csr(g, site)
        san_probes.check_frontier(frontier, n, site)
    iteration = start_iteration
    while frontier.size:
        fault_point(FAULT_SITES[engine])
        if budget is not None:
            budget.tick(site, frontier_bytes=frontier.nbytes)
        nxt = step(frontier)
        if san_runtime._enabled:
            san_probes.check_frontier(nxt.frontier, n, site)
        info = IterationInfo(
            index=iteration,
            frontier_size=int(frontier.size),
            edges_scanned=nxt.edges_scanned,
            updates=nxt.updates,
            activated=int(nxt.frontier.size),
            frontier=frontier if keep_frontier else None,
            edges_skipped=nxt.edges_skipped,
            redundant=nxt.redundant,
        )
        if obs_runtime._enabled:
            emit_round(info, engine)
        if checkpointer is not None:
            checkpointer.maybe_save(
                iteration + 1, vals=vals, frontier=nxt.frontier,
                visited=visited,
            )
        yield info
        frontier = nxt.frontier
        iteration += 1
        if (
            max_iterations is not None
            and iteration - start_iteration >= max_iterations
        ):
            return


def record_rounds(
    rounds: Iterable[IterationInfo],
    stats: Optional[RunStats],
    keep_frontier: bool = False,
) -> None:
    """Run ``rounds`` to the end, accumulating them (and wall time) in
    ``stats``."""
    start = time.perf_counter()
    for info in rounds:
        if stats is not None:
            stats.record(info, keep_frontier=keep_frontier)
    if stats is not None:
        stats.wall_time += time.perf_counter() - start


def push_iterations(
    g: Graph,
    spec: QuerySpec,
    vals: np.ndarray,
    frontier: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
    first_visit: bool = False,
    visited: Optional[np.ndarray] = None,
    blocked_dst: Optional[np.ndarray] = None,
    max_iterations: Optional[int] = None,
    keep_frontier: bool = False,
    budget: Optional[Budget] = None,
    checkpointer: Optional[Checkpointer] = None,
    start_iteration: int = 0,
) -> Generator[IterationInfo, None, None]:
    """Drive synchronous push rounds, mutating ``vals`` in place.

    Parameters
    ----------
    weights:
        Pre-transformed edge weights (``spec.weight_transform`` applied).
        Computed on the fly when omitted.
    first_visit:
        Enable the completion phase's ``FirstPhase2Visit`` rule: a vertex is
        activated the first time an edge reaches it even without improvement.
        ``visited`` must then be a boolean array; vertices already marked
        True are treated as having pushed their out-edges before.
    blocked_dst:
        Boolean mask of vertices whose *incoming* edges are skipped — the
        triangle-inequality optimization removes the in-edges of provably
        precise vertices this way.
    keep_frontier:
        Attach the frontier array to each yielded :class:`IterationInfo`
        (system models need it for transfer/IO accounting).
    budget:
        Execution limits enforced at each round boundary; exceeding one
        raises :class:`~repro.resilience.budget.BudgetExceeded` with the
        values array left at its (valid, monotonically improving) state.
    checkpointer:
        Persists ``(vals, next frontier, visited)`` after each completed
        round on its cadence; resuming passes the restored arrays back in
        with ``start_iteration`` set to the checkpoint's iteration.
    start_iteration:
        Index of the first round (for resumed runs, so iteration-indexed
        telemetry and ``max_iterations`` accounting line up).
    """
    if weights is None:
        weights = spec.weight_transform(g.edge_weights())
    if first_visit and visited is None:
        raise ValueError("first_visit requires a visited array")
    mark = np.zeros(g.num_vertices, dtype=bool)

    def step(frontier: np.ndarray) -> Round:
        return push_round(
            g, spec, vals, frontier, weights, mark,
            first_visit=first_visit, visited=visited,
            blocked_dst=blocked_dst, count_redundant=obs_runtime._enabled,
        )

    yield from drive(
        "frontier", g, vals, frontier, step, visited=visited,
        max_iterations=max_iterations, keep_frontier=keep_frontier,
        budget=budget, checkpointer=checkpointer,
        start_iteration=start_iteration,
    )


def run_push(
    g: Graph,
    spec: QuerySpec,
    vals: np.ndarray,
    frontier: np.ndarray,
    stats: Optional[RunStats] = None,
    **kwargs,
) -> np.ndarray:
    """Run :func:`push_iterations` to convergence, accumulating ``stats``."""
    record_rounds(
        push_iterations(g, spec, vals, frontier, **kwargs), stats,
        keep_frontier=kwargs.get("keep_frontier", False),
    )
    return vals


def is_fixed_point(g: Graph, spec: QuerySpec, vals: np.ndarray) -> bool:
    """Whether ``vals`` is a converged solution: no edge can improve it.

    The definitional convergence check, independent of any engine's
    iteration schedule — used to validate every evaluator against the
    semantics rather than against each other.
    """
    work = symmetric_view(g) if spec.symmetric else g
    if work.num_edges == 0:
        return True
    weights = spec.weight_transform(work.edge_weights())
    src = work.edge_sources()
    cand = spec.propagate(vals[src], weights)
    return not bool(np.any(spec.better(cand, vals[work.dst])))


def evaluate_query(
    g: Graph,
    spec: QuerySpec,
    source: Optional[int] = None,
    stats: Optional[RunStats] = None,
    **kwargs,
) -> np.ndarray:
    """Evaluate query ``spec`` from ``source`` on ``g`` to convergence.

    WCC (``spec.symmetric``) automatically runs over the symmetrized view of
    ``g`` and ignores ``source``. Returns the converged value array.
    """
    work = symmetric_view(g) if spec.symmetric else g
    vals = spec.initial_values(g.num_vertices, source)
    frontier = spec.initial_frontier(g.num_vertices, source)
    return run_push(work, spec, vals, frontier, stats=stats, **kwargs)
