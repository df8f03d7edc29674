"""Tests for the delta-stepping SSSP engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.delta_stepping import delta_stepping
from repro.engines.frontier import evaluate_query
from repro.engines.stats import RunStats
from repro.generators.random_graphs import path_graph
from repro.graph.builder import from_arrays, from_edges
from repro.queries.specs import BFS, SSSP, SSWP


class TestCorrectness:
    def test_path_graph(self):
        g = path_graph(6, weight=2.0)
        dist = delta_stepping(g, SSSP, 0)
        assert np.array_equal(dist, [0, 2, 4, 6, 8, 10])

    @pytest.mark.parametrize("delta", [0.5, 1.0, 3.0, 100.0])
    def test_matches_engine_for_any_delta(self, medium_graph, delta):
        dist = delta_stepping(medium_graph, SSSP, 3, delta=delta)
        assert np.array_equal(dist, evaluate_query(medium_graph, SSSP, 3))

    def test_bfs_mode(self, medium_graph):
        dist = delta_stepping(medium_graph, BFS, 3)
        assert np.array_equal(dist, evaluate_query(medium_graph, BFS, 3))

    def test_default_delta(self, medium_graph):
        dist = delta_stepping(medium_graph, SSSP, 3)
        assert np.array_equal(dist, evaluate_query(medium_graph, SSSP, 3))

    def test_light_heavy_mix(self):
        # a shortcut of heavy edges competing with a light chain
        g = from_edges([
            (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),  # light chain: 3
            (0, 3, 2.5),                              # heavy shortcut: 2.5
        ])
        dist = delta_stepping(g, SSSP, 0, delta=1.0)
        assert dist[3] == 2.5

    def test_stats_recorded(self, medium_graph):
        stats = RunStats()
        delta_stepping(medium_graph, SSSP, 3, stats=stats)
        assert stats.iterations > 0
        assert stats.edges_processed > 0


class TestValidation:
    def test_rejects_non_additive_specs(self, medium_graph):
        with pytest.raises(ValueError):
            delta_stepping(medium_graph, SSWP, 0)

    def test_rejects_negative_weights(self):
        g = from_edges([(0, 1, -1.0)])
        with pytest.raises(ValueError):
            delta_stepping(g, SSSP, 0)

    def test_rejects_bad_delta(self, medium_graph):
        with pytest.raises(ValueError):
            delta_stepping(medium_graph, SSSP, 0, delta=0.0)

    @pytest.mark.parametrize("offset", [-1, 0], ids=["minus_one", "n"])
    def test_rejects_out_of_range_source(self, medium_graph, offset):
        # Neither may index the distance array: -1 would alias vertex n-1.
        source = offset if offset < 0 else medium_graph.num_vertices
        with pytest.raises(ValueError, match="out of range"):
            delta_stepping(medium_graph, SSSP, source)


@given(seed=st.integers(0, 2**31 - 1), source=st.integers(0, 13),
       delta=st.floats(0.25, 16.0))
@settings(max_examples=40, deadline=None)
def test_property_matches_reference(seed, source, delta):
    rng = np.random.default_rng(seed)
    n, m = 14, 45
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    weights = rng.integers(1, 8, m).astype(float)
    g = from_arrays(n, src, dst, weights)
    got = delta_stepping(g, SSSP, source, delta=delta)
    assert np.array_equal(got, evaluate_query(g, SSSP, source))
