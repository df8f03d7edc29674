"""Differential test: the key-indexed splice against a full rebuild.

A pure model keeps the edge multiset as a list of ``(u, v, w)`` rows;
after every batch the evolving graph must be byte-identical to
``from_arrays`` over the model (so fingerprints agree), and the CG must
stay a verbatim sub-multiset of it with an edge mask that marks exactly
its edges. Base graphs are random rows, so they carry parallel edges and
self-loops. The vectorized batch validation is checked against the
per-edge loop it replaced.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evolving import EvolvingCoreGraph
from repro.graph.builder import from_arrays
from repro.graph.csr import Graph
from repro.graph.mutate import (
    DuplicateEdgeError,
    EdgeNotFoundError,
    SelfLoopError,
    splice_edges,
)
from repro.queries.specs import SSSP


@st.composite
def churn_scenario(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(4, 12))
    m = draw(st.integers(4, 40))
    g = from_arrays(
        n, rng.integers(0, n, m), rng.integers(0, n, m),
        rng.integers(1, 8, m).astype(float),
    )
    current = {(int(u), int(v)) for u, v, _ in g.iter_edges()}
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            batch = []
            for _ in range(4 * draw(st.integers(1, 6))):
                u, v = int(rng.integers(n)), int(rng.integers(n))
                if u != v and (u, v) not in current:
                    current.add((u, v))
                    batch.append((u, v, float(rng.integers(1, 8))))
            ops.append(("insert", batch))
        else:
            batch = [
                (int(rng.integers(n)), int(rng.integers(n)))
                for _ in range(draw(st.integers(1, 4)))
            ]
            current -= set(batch)
            ops.append(("delete", batch))
    return g, ops


def _rows(g: Graph) -> Counter:
    return Counter(g.iter_edges())


def _check(ev: EvolvingCoreGraph, model: list) -> None:
    g, cg = ev.graph, ev.cg
    rows = np.array(model, dtype=np.float64).reshape(-1, 3)
    rebuilt = from_arrays(
        g.num_vertices, rows[:, 0].astype(np.int64),
        rows[:, 1].astype(np.int64), rows[:, 2],
    )
    assert g.offsets.tobytes() == rebuilt.offsets.tobytes()
    assert g.dst.tobytes() == rebuilt.dst.tobytes()
    assert g.weights.tobytes() == rebuilt.weights.tobytes()
    assert g.fingerprint() == rebuilt.fingerprint()
    assert int(cg.edge_mask.sum()) == cg.num_edges
    assert not _rows(cg.graph) - _rows(g)
    marked = Counter(
        zip(g.edge_sources()[cg.edge_mask].tolist(),
            g.dst[cg.edge_mask].tolist(),
            g.weights[cg.edge_mask].tolist())
    )
    assert marked == _rows(cg.graph)


@given(data=churn_scenario())
@settings(max_examples=40, deadline=None)
def test_splice_matches_rebuild_after_every_batch(data):
    g, ops = data
    ev = EvolvingCoreGraph(g, SSSP, num_hubs=2)
    model = list(g.iter_edges())
    _check(ev, model)
    for kind, batch in ops:
        if kind == "insert":
            ev.insert_edges(batch)
            model += batch
        else:
            ev.delete_edges(batch)
            doomed = set(batch)
            model = [e for e in model if (e[0], e[1]) not in doomed]
        _check(ev, model)


def _loop_reference(g: Graph, inserts, deletes):
    """The first error the per-edge loops report, or ``None``."""
    present = {(u, v) for u, v, _ in g.iter_edges()}
    for u, v in deletes:
        if (u, v) not in present:
            return ("missing", (u, v))
    present -= set(deletes)
    seen = set()
    for u, v, _ in inserts:
        if u == v:
            return ("loop", u)
        if (u, v) in present:
            return ("dup", (u, v), "already in graph")
        if (u, v) in seen:
            return ("dup", (u, v), "repeated in batch")
        seen.add((u, v))
    return None


@st.composite
def graph_and_messy_batch(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(2, 6))
    m = draw(st.integers(0, 12))
    g = from_arrays(
        n, rng.integers(0, n, m), rng.integers(0, n, m),
        rng.integers(1, 8, m).astype(float),
    )
    pairs = [(int(u), int(v)) for u, v in rng.integers(0, n, (6, 2))]
    deletes = pairs[: draw(st.integers(0, 3))]
    inserts = [(u, v, 1.0) for u, v in pairs[len(deletes):]]
    return g, inserts, deletes


@given(data=graph_and_messy_batch())
@settings(max_examples=200, deadline=None)
def test_batch_errors_match_the_loop_reference(data):
    g, inserts, deletes = data
    try:
        splice_edges(g, inserts, deletes, strict=True)
        got = None
    except EdgeNotFoundError as exc:
        got = ("missing", exc.pair)
    except SelfLoopError as exc:
        got = ("loop", exc.vertex)
    except DuplicateEdgeError as exc:
        got = ("dup", exc.pair, exc.where)
    assert got == _loop_reference(g, inserts, deletes)

