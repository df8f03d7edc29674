"""Microbenchmarks: raw frontier-engine throughput per query kind.

These are genuine repeated-timing benchmarks (not experiment drivers); they
characterize the evaluation substrate all experiments share.
"""

import pytest

from repro.engines.frontier import evaluate_query
from repro.harness.cache import get_graph, get_sources
from repro.queries.registry import get_spec

QUERIES = ("SSSP", "SSNP", "Viterbi", "SSWP", "REACH", "WCC")


@pytest.mark.parametrize("spec_name", QUERIES)
def test_engine_throughput_tt(benchmark, spec_name):
    g = get_graph("TT")
    spec = get_spec(spec_name)
    source = None if spec.multi_source else int(get_sources("TT", 1)[0])
    vals = benchmark(evaluate_query, g, spec, source)
    assert vals.shape == (g.num_vertices,)


def test_direction_optimizing_throughput_tt(benchmark):
    from repro.engines.pull import direction_optimizing_evaluate

    g = get_graph("TT")
    source = int(get_sources("TT", 1)[0])
    benchmark(direction_optimizing_evaluate, g, get_spec("REACH"), source)


def test_async_throughput_tt(benchmark):
    from repro.engines.async_engine import async_evaluate

    g = get_graph("TT")
    source = int(get_sources("TT", 1)[0])
    benchmark(async_evaluate, g, get_spec("SSSP"), source, 4096)


def test_delta_stepping_throughput_tt(benchmark):
    from repro.engines.delta_stepping import delta_stepping

    g = get_graph("TT")
    source = int(get_sources("TT", 1)[0])
    benchmark(delta_stepping, g, get_spec("SSSP"), source)

