"""Batch edge insertions and deletions over immutable CSR graphs.

Graphs here are immutable; evolution is modeled functionally — a batch of
changes produces a new CSR (the approach of snapshot-based evolving-graph
systems). Used by :mod:`repro.core.evolving` to study core-graph
maintenance under churn and by :mod:`repro.evolve` to drive live mutation
streams against the query service.

Builders emit edges in non-decreasing ``u * n + v`` key order, so the
keys are an index: :func:`splice_edges` locates a batch by binary search
and splices the CSR arrays — no sort, and byte-identical to what
``from_arrays`` builds from the same edge multiset.

Batch semantics are strict by construction: ``add_edges`` rejects
self-loops and duplicate pairs (within the batch or against the existing
edge set) with typed errors instead of silently inflating CSR degree, and
``remove_edges(strict=True)`` names the first missing pair. The batch
generators only emit valid batches, so callers can feed them straight in.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.graph.builder import EdgeTuple, from_arrays
from repro.graph.csr import Graph
from repro.resilience.faults import fault_point


class MutationError(ValueError):
    """Base for typed batch-mutation failures."""


class SelfLoopError(MutationError):
    """An insertion batch contained a ``(u, u)`` self-loop."""

    def __init__(self, vertex: int) -> None:
        self.vertex = int(vertex)
        super().__init__(f"self-loop insertion ({vertex}, {vertex}) rejected")


class DuplicateEdgeError(MutationError):
    """An insertion batch would duplicate an edge (existing or in-batch)."""

    def __init__(self, pair: Tuple[int, int], where: str) -> None:
        self.pair = (int(pair[0]), int(pair[1]))
        self.where = where
        super().__init__(
            f"duplicate edge insertion {self.pair} rejected ({where})"
        )


class EdgeNotFoundError(MutationError):
    """A strict deletion batch named a pair the graph does not contain."""

    def __init__(self, pair: Tuple[int, int]) -> None:
        self.pair = (int(pair[0]), int(pair[1]))
        super().__init__(f"cannot remove missing edge {self.pair}")


def _edge_keys(g: Graph) -> np.ndarray:
    """Per-edge ``u * n + v`` keys (collision-free for in-range ids)."""
    return g.edge_sources() * np.int64(g.num_vertices) + g.dst


def _key_index(g: Graph) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``g``'s sorted edge keys, and the stable order that sorts them
    (``None`` when the edges already are in key order)."""
    keys = _edge_keys(g)
    if bool(np.all(keys[1:] >= keys[:-1])):
        return keys, None
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def key_sorted(g: Graph) -> Graph:
    """``g`` with its edges in key order: ``g`` itself for any builder's
    output, else the ``from_arrays`` rebuild of hand-built rows."""
    if _key_index(g)[1] is None:
        return g
    return from_arrays(g.num_vertices, g.edge_sources(), g.dst, g.weights)


def _contains(index: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Membership of ``probe`` keys in the sorted key array ``index``."""
    if not index.size:
        return np.zeros(len(probe), dtype=bool)
    at = np.minimum(np.searchsorted(index, probe), index.size - 1)
    return index[at] == probe


def _spans(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Expand index ranges ``[lo, hi)``: ``(which range, index)`` pairs."""
    size = hi - lo
    which = np.repeat(np.arange(lo.size), size)
    start = np.cumsum(size) - size  # where each range begins in the output
    return which, np.arange(which.size) + np.repeat(lo - start, size)


def splice_edges(
    g: Graph,
    inserts: Iterable[EdgeTuple] = (),
    deletes: Iterable[Tuple[int, int]] = (),
    strict: bool = False,
) -> Tuple[Graph, np.ndarray, np.ndarray]:
    """Delete, then insert, a batch of edges with one key-indexed splice.

    ``deletes`` drops every copy of each named pair (:func:`remove_edges`
    rules); ``inserts`` are then checked against what is left and placed
    at their key positions (:func:`add_edges` rules). Insertion needs
    ``g`` in key order (see :func:`key_sorted`).

    Returns ``(graph, inserted_at, removed_at)``: ``removed_at`` indexes
    ``g``'s edges and ``inserted_at`` the arrays left after the removal,
    so any per-edge array ``a`` follows the splice as
    ``np.insert(np.delete(a, removed_at), inserted_at, fill)``.
    """
    inserts, deletes = list(inserts), list(deletes)
    n = g.num_vertices
    index, order = _key_index(g)
    if inserts and order is not None:
        raise MutationError("insertion needs a key-sorted graph")
    doomed = removed_at = inserted_at = np.zeros(0, dtype=np.int64)
    dst, weights, counts = g.dst, g.weights, np.diff(g.offsets)
    if deletes:
        fault_point("graph.mutate.remove")
        u, v = np.asarray(deletes, dtype=np.int64).reshape(len(deletes), 2).T
        valid = (u >= 0) & (u < n) & (v >= 0) & (v < n)
        doomed = np.where(valid, u * n + v, -1)
        lo = np.searchsorted(index, doomed, side="left")
        hi = np.searchsorted(index, doomed, side="right")
        if strict and not bool(np.all(hi > lo)):
            raise EdgeNotFoundError(deletes[int(np.argmin(hi > lo))])
        removed_at = np.unique(_spans(lo, hi)[1])
        if order is not None:
            removed_at = np.sort(order[removed_at])
        dst = np.delete(dst, removed_at)
        weights = None if weights is None else np.delete(weights, removed_at)
        rows = np.searchsorted(g.offsets, removed_at, side="right") - 1
        counts -= np.bincount(rows, minlength=n)
    if inserts:
        fault_point("graph.mutate.add")
        u = np.array([e[0] for e in inserts], dtype=np.int64)
        v = np.array([e[1] for e in inserts], dtype=np.int64)
        if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n:
            raise MutationError("inserted edge endpoints out of range")
        new = u * n + v
        rank = np.argsort(new, kind="stable")
        repeated = np.zeros(new.size, dtype=bool)
        repeated[rank[1:]] = new[rank[1:]] == new[rank[:-1]]
        present = _contains(index, new) & ~np.isin(new, doomed)
        bad = (u == v) | present | repeated
        if bool(bad.any()):
            i = int(np.argmax(bad))
            if u[i] == v[i]:
                raise SelfLoopError(int(u[i]))
            where = "already in graph" if present[i] else "repeated in batch"
            raise DuplicateEdgeError((int(u[i]), int(v[i])), where)
        if g.is_weighted and any(len(e) != 3 for e in inserts):
            raise MutationError("weighted graph requires (u, v, w) insertions")
        if not g.is_weighted and any(len(e) != 2 for e in inserts):
            raise MutationError("unweighted graph requires (u, v) insertions")
        at = np.searchsorted(index, new[rank])
        inserted_at = at - np.searchsorted(removed_at, at)
        dst = np.insert(dst, inserted_at, v[rank])
        if weights is not None:
            w = np.array([e[2] for e in inserts], dtype=np.float64)
            weights = np.insert(weights, inserted_at, w[rank])
        counts += np.bincount(u, minlength=n)
    if not (removed_at.size or inserted_at.size):
        return g, inserted_at, removed_at
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Graph(offsets, dst, weights), inserted_at, removed_at


def match_edges(g: Graph, sub: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """Pair ``sub``'s edges with equal ``(u, v, w)`` edges of ``g``.

    Each ``sub`` edge is looked up by key in ``g`` (key-sorted) and must
    agree on the weight; the r-th copy in ``sub`` pairs with the r-th in
    ``g``. Returns ``(in_g, kept)``: masks over ``g`` of the paired edges
    and over ``sub`` of the edges that found a partner.
    """
    keys, probe = _edge_keys(g), _edge_keys(sub)
    lo = np.searchsorted(keys, probe, side="left")
    hi = np.searchsorted(keys, probe, side="right")
    row, at = _spans(lo, hi)
    same = g.edge_weights()[at] == sub.edge_weights()[row]
    row, at = row[same], at[same]
    # Candidate number within its sub edge vs rank among the sub edges
    # that compete for the same g edge: equal on the diagonal pairing.
    nth = np.arange(row.size) - np.searchsorted(row, row)
    by_at = np.argsort(at, kind="stable")
    rival = np.empty_like(nth)
    rival[by_at] = np.arange(at.size) - np.searchsorted(at[by_at], at[by_at])
    pair = nth == rival
    in_g = np.zeros(g.num_edges, dtype=bool)
    in_g[at[pair]] = True
    kept = np.zeros(sub.num_edges, dtype=bool)
    kept[row[pair]] = True
    return in_g, kept


def add_edges(g: Graph, edges: Iterable[EdgeTuple]) -> Graph:
    """A new graph with ``edges`` added (same vertex set).

    Weighted graphs require ``(u, v, w)`` tuples; unweighted ``(u, v)``.

    Raises :class:`SelfLoopError` for ``(u, u)`` entries and
    :class:`DuplicateEdgeError` when a pair repeats within the batch or
    already exists in ``g`` — silent parallel edges would inflate CSR
    degree and skew every degree-based heuristic downstream.
    """
    edges = list(edges)
    if not edges:
        return g
    return splice_edges(key_sorted(g), inserts=edges)[0]


def remove_edges(
    g: Graph, pairs: Iterable[Tuple[int, int]], strict: bool = False
) -> Tuple[Graph, np.ndarray]:
    """A new graph without the given ``(u, v)`` pairs.

    Removes *all* parallel copies of each named pair. Returns
    ``(new_graph, removed_mask)`` where the mask is over ``g``'s edges.

    With ``strict=True``, raises :class:`EdgeNotFoundError` naming the
    first pair absent from ``g`` (default keeps the historical
    missing-pair-is-a-noop behavior for idempotent replays).
    """
    out, _, removed_at = splice_edges(g, deletes=pairs, strict=strict)
    removed = np.zeros(g.num_edges, dtype=bool)
    removed[removed_at] = True
    return out, removed


def _filter_batch(
    g: Graph,
    count: int,
    draw,  # (k) -> (src_array, dst_array)
    rng: np.random.Generator,
    weight_like: bool = True,
) -> list:
    """Collect ``count`` distinct, loop-free, not-yet-present pairs.

    Draws in chunks from ``draw`` and discards invalid candidates, so the
    result is always a legal ``add_edges`` batch; weighted graphs get
    weights resampled from ``g`` (unless ``weight_like`` is off).
    Deterministic for a deterministic ``draw`` and ``rng``.
    """
    n = g.num_vertices
    capacity = n * (n - 1) - g.num_edges
    if count > max(capacity, 0):
        raise MutationError(
            f"cannot draw {count} new edges: only {capacity} non-edges left"
        )
    index = _key_index(g)[0]
    fresh: Set[int] = set()
    chosen: List[Tuple[int, int]] = []
    attempts = 0
    while len(chosen) < count:
        attempts += 1
        if attempts > 64:
            raise MutationError(
                "edge batch sampling failed to converge; graph too dense"
            )
        k = max(2 * (count - len(chosen)), 16)
        src, dst = draw(k)
        present = _contains(index, src * np.int64(n) + dst)
        for u, v, hit in zip(src, dst, present):
            key = int(u) * n + int(v)
            if u == v or hit or key in fresh:
                continue
            fresh.add(key)
            chosen.append((int(u), int(v)))
            if len(chosen) == count:
                break
    if not (g.is_weighted and weight_like):
        return chosen
    w = rng.choice(g.weights, count) if g.num_edges else np.ones(count)
    return [(u, v, float(x)) for (u, v), x in zip(chosen, w)]


def preferential_edge_batch(
    g: Graph,
    count: int,
    seed: int = 0,
) -> list:
    """Preferential-attachment insertions: endpoints biased by degree.

    Realistic social-graph churn — new edges attach to hubs — so a stale
    core graph's precision decays far more slowly than under uniform
    insertions (hub-adjacent edges tend to parallel existing solution
    paths). Compare with :func:`random_edge_batch` in the evolving study.

    The batch is always valid for :func:`add_edges`: self-loops and
    duplicates are filtered out, topping up deterministically per seed.
    """
    rng = np.random.default_rng(seed)
    n = g.num_vertices
    deg = (g.out_degree() + g.in_degree() + 1).astype(np.float64)
    p = deg / deg.sum()

    def draw(k: int) -> Tuple[np.ndarray, np.ndarray]:
        return rng.choice(n, k, p=p), rng.choice(n, k, p=p)

    return _filter_batch(g, count, draw, rng)


def random_edge_batch(
    g: Graph,
    count: int,
    seed: int = 0,
    weight_like: bool = True,
) -> list:
    """Random plausible insertions (endpoints uniform, weights resampled
    from the existing distribution). Test/benchmark fodder for churn.

    The batch is always valid for :func:`add_edges`: self-loops and
    duplicates are filtered out, topping up deterministically per seed.
    """
    rng = np.random.default_rng(seed)
    n = g.num_vertices

    def draw(k: int) -> Tuple[np.ndarray, np.ndarray]:
        return rng.integers(0, n, k), rng.integers(0, n, k)

    return _filter_batch(g, count, draw, rng, weight_like)


def sample_edge_pairs(g: Graph, count: int, seed: int = 0) -> list:
    """Sample ``count`` distinct existing ``(u, v)`` pairs for deletion.

    Deterministic per seed; returns fewer than ``count`` pairs only when
    the graph has fewer distinct pairs than requested.
    """
    rng = np.random.default_rng(seed)
    keys = _key_index(g)[0]
    keys = keys[np.diff(keys, prepend=-1) != 0]
    take = min(count, keys.size)
    picked = rng.choice(keys, take, replace=False)
    n = g.num_vertices
    return [(int(k) // n, int(k) % n) for k in picked]
