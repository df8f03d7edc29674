"""The key-indexed splice behind every batch mutation.

Pins three things: the splice reproduces the sort-based construction
byte for byte (so fingerprints, WAL and snapshot stamps are unchanged);
a hand-built graph whose rows are not in key order still mutates like
before; and the batch generators draw exactly the batches they always
drew for a seed (golden digests recorded before the generators moved
onto the key index).
"""

import hashlib

import numpy as np
import pytest

from repro.evolve import next_batch
from repro.generators.random_graphs import random_weighted_graph
from repro.generators.rmat import rmat
from repro.graph.builder import from_arrays, from_edges
from repro.graph.csr import Graph
from repro.graph.mutate import (
    DuplicateEdgeError,
    EdgeNotFoundError,
    MutationError,
    SelfLoopError,
    add_edges,
    match_edges,
    preferential_edge_batch,
    random_edge_batch,
    remove_edges,
    sample_edge_pairs,
    splice_edges,
)
from repro.graph.transform import edge_subgraph


def _arrays_equal(a: Graph, b: Graph) -> None:
    assert a.offsets.tobytes() == b.offsets.tobytes()
    assert a.dst.tobytes() == b.dst.tobytes()
    assert a.edge_weights().tobytes() == b.edge_weights().tobytes()
    assert a.fingerprint() == b.fingerprint()


def _multigraph(seed: int = 5, n: int = 10, m: int = 60) -> Graph:
    """Random rows, so parallel edges and self-loops included."""
    rng = np.random.default_rng(seed)
    return from_arrays(
        n, rng.integers(0, n, m), rng.integers(0, n, m),
        rng.integers(1, 8, m).astype(float),
    )


def _unsorted() -> Graph:
    """Hand-built rows whose destinations are not in key order."""
    return Graph(
        np.array([0, 3, 5, 6, 8]),
        np.array([3, 1, 2, 0, 2, 0, 2, 1]),
        np.array([1.0, 2, 3, 4, 5, 6, 7, 8]),
    )


class TestGoldenBatches:
    """Digests of the generators' output, recorded from the set-based
    implementation; the key-indexed one must draw the same batches."""

    GRAPHS = {
        "live": (lambda: random_weighted_graph(150, 900, seed=13),
                 "bb08c8b3664c8755"),
        "dense": (lambda: random_weighted_graph(12, 100, seed=3),
                  "47c5e36be57c0aee"),
        "multi": (_multigraph, "8a2838a7b01de5b3"),
        "rmat": (lambda: rmat(9, 8, seed=21), "b917acb693dece56"),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_same_batches_per_seed(self, name):
        build, expected = self.GRAPHS[name]
        g = build()
        out = []
        for seed in (0, 1, 7):
            out.append(random_edge_batch(g, 20, seed=seed))
            out.append(preferential_edge_batch(g, 20, seed=seed))
            out.append(sample_edge_pairs(g, 20, seed=seed))
            batch = next_batch(g, seed, batch_size=16, seed=seed)
            out.append(batch.inserts)
            out.append(batch.deletes)
        digest = hashlib.blake2b(repr(out).encode(), digest_size=8)
        assert digest.hexdigest() == expected

    def test_literal_batches(self):
        g = random_weighted_graph(12, 100, seed=3)
        assert random_edge_batch(g, 3, seed=1) == [
            (5, 7, 3.0), (9, 1, 1.0), (0, 10, 3.0)
        ]
        assert sample_edge_pairs(g, 3, seed=1) == [(6, 5), (5, 8), (9, 2)]

    def test_unsorted_graph_batches(self):
        h = _unsorted()
        assert [random_edge_batch(h, 3, seed=s) for s in range(2)] == [
            [(1, 3, 1.0), (3, 0, 7.0), (2, 3, 1.0)],
            [(3, 0, 4.0), (1, 3, 5.0), (2, 3, 4.0)],
        ]
        assert sample_edge_pairs(h, 5, seed=1) == [
            (0, 3), (0, 1), (1, 2), (3, 1), (0, 2)
        ]


class TestSpliceMatchesRebuild:
    def test_insert_matches_from_arrays(self):
        g = _multigraph()
        batch = random_edge_batch(g, 6, seed=2)
        src = np.concatenate([g.edge_sources(), [e[0] for e in batch]])
        dst = np.concatenate([g.dst, [e[1] for e in batch]])
        w = np.concatenate([g.weights, [e[2] for e in batch]])
        expected = from_arrays(g.num_vertices, src, dst, w)
        _arrays_equal(add_edges(g, batch), expected)

    def test_delete_then_reinsert_with_new_weight(self):
        g = from_edges([(0, 1, 1.0), (0, 2, 5.0), (1, 2, 2.0)])
        out, inserted_at, removed_at = splice_edges(
            g, inserts=[(0, 1, 7.0)], deletes=[(0, 1)]
        )
        assert removed_at.tolist() == [0]
        assert inserted_at.tolist() == [0]
        _arrays_equal(out, from_edges([(0, 1, 7.0), (0, 2, 5.0), (1, 2, 2.0)]))

    def test_per_edge_arrays_follow_the_splice(self):
        g = _multigraph(seed=11)
        deletes = sample_edge_pairs(g, 4, seed=3)
        inserts = random_edge_batch(g, 5, seed=4)
        out, inserted_at, removed_at = splice_edges(g, inserts, deletes)
        ids = np.insert(
            np.delete(np.arange(g.num_edges), removed_at), inserted_at, -1
        )
        old = ids >= 0
        assert np.array_equal(out.dst[old], g.dst[ids[old]])
        assert np.array_equal(out.weights[old], g.weights[ids[old]])
        new = zip(out.edge_sources()[~old], out.dst[~old], out.weights[~old])
        assert sorted(new) == sorted(inserts)

    def test_empty_splice_is_identity(self):
        g = _multigraph()
        out, inserted_at, removed_at = splice_edges(g)
        assert out is g and inserted_at.size == removed_at.size == 0
        assert remove_edges(g, [(g.num_vertices, 0)])[0] is g


class TestErrorsNameTheFirstOffender:
    def test_duplicate_before_self_loop(self, tiny_graph):
        with pytest.raises(DuplicateEdgeError) as exc:
            add_edges(tiny_graph, [(4, 0, 1.0), (0, 1, 1.0), (4, 4, 1.0)])
        assert exc.value.pair == (0, 1)

    def test_self_loop_before_duplicate(self, tiny_graph):
        with pytest.raises(SelfLoopError) as exc:
            add_edges(tiny_graph, [(4, 0, 1.0), (2, 2, 1.0), (0, 1, 1.0)])
        assert exc.value.vertex == 2

    def test_repeat_names_the_second_copy(self, tiny_graph):
        with pytest.raises(DuplicateEdgeError) as exc:
            add_edges(tiny_graph, [(4, 1, 1.0), (4, 0, 1.0), (4, 1, 2.0)])
        assert exc.value.pair == (4, 1)
        assert exc.value.where == "repeated in batch"

    def test_strict_delete_names_first_missing(self, tiny_graph):
        with pytest.raises(EdgeNotFoundError) as exc:
            remove_edges(tiny_graph, [(0, 1), (4, 3), (4, 2)], strict=True)
        assert exc.value.pair == (4, 3)

    def test_out_of_range_pair_is_missing_not_aliased(self, tiny_graph):
        # (0, 5) would share the key 5 with (1, 0) in a 5-vertex graph
        g, removed = remove_edges(tiny_graph, [(0, 5)])
        assert not removed.any() and g is tiny_graph
        with pytest.raises(EdgeNotFoundError):
            remove_edges(tiny_graph, [(0, 5)], strict=True)

    def test_weight_form_checked_after_pairs(self, tiny_graph):
        with pytest.raises(MutationError, match="requires"):
            add_edges(tiny_graph, [(4, 0)])


class TestHandBuiltRows:
    """Rows not in key order: the results of the sort-based path."""

    def test_add_edges_sorts_like_from_arrays(self):
        h = _unsorted()
        batch = [(1, 3, 1.5), (3, 0, 2.5)]
        src = np.concatenate([h.edge_sources(), [1, 3]])
        dst = np.concatenate([h.dst, [3, 0]])
        w = np.concatenate([h.weights, [1.5, 2.5]])
        _arrays_equal(add_edges(h, batch), from_arrays(4, src, dst, w))

    def test_remove_edges_keeps_caller_order_and_mask(self):
        h = _unsorted()
        out, removed = remove_edges(h, [(0, 1), (3, 2)])
        assert removed.tolist() == [
            False, True, False, False, False, False, True, False
        ]
        _arrays_equal(out, edge_subgraph(h, ~removed))

    def test_splice_refuses_to_insert_out_of_order(self):
        with pytest.raises(MutationError, match="key-sorted"):
            splice_edges(_unsorted(), inserts=[(1, 3, 1.0)])


class TestMatchEdges:
    def test_parallel_copies_pair_one_to_one(self):
        g = from_arrays(
            3, [0, 0, 0, 1, 1], [1, 1, 1, 2, 2], [2.0, 3.0, 2.0, 1.0, 4.0]
        )
        sub = from_arrays(3, [0, 0, 1], [1, 1, 2], [2.0, 2.0, 5.0])
        in_g, kept = match_edges(g, sub)
        assert in_g.tolist() == [True, False, True, False, False]
        assert kept.tolist() == [True, True, False]

    def test_reweighted_edge_does_not_match(self):
        g = from_edges([(0, 1, 7.0), (1, 2, 1.0)])
        sub = from_edges([(0, 1, 3.0), (1, 2, 1.0)])
        in_g, kept = match_edges(g, sub)
        assert in_g.tolist() == [False, True]
        assert kept.tolist() == [False, True]
