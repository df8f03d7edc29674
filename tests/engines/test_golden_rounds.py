"""Golden per-round counters for every engine schedule and system model.

The cost-model speedups (Subway GEN/TRANS/COMP/ATOMIC, GridGraph I/O,
Pregel messages, Ligra EDGES) are computed from these counters, so the
shared relax kernel and every schedule built on it must reproduce them
exactly. The golden file holds, for one fixed R-MAT graph and each query
kind:

* the ``RunStats.per_iteration`` rows ``(frontier_size, edges_scanned,
  updates, activated, edges_skipped, redundant)`` of each engine (both
  phases of ``two_phase``), recorded
  with telemetry on so ``redundant`` is populated;
* the ``SystemReport.counters`` of each system model's baseline and
  2Phase runs (with triangle certificates wherever a source exists).

Regenerate (only after a deliberate counter change) with::

    PYTHONPATH=src python tests/engines/test_golden_rounds.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.dispatch import build_cg
from repro.core.twophase import two_phase
from repro.engines.async_engine import async_evaluate
from repro.engines.delta_stepping import delta_stepping
from repro.engines.frontier import evaluate_query
from repro.engines.pull import direction_optimizing_evaluate
from repro.engines.stats import RunStats
from repro.generators.rmat import rmat
from repro.graph.weights import ligra_weights
from repro.obs import runtime as obs_runtime
from repro.queries.registry import ALL_SPECS
from repro.queries.specs import BFS, SSSP
from repro.systems.gridgraph import GridGraphSimulator
from repro.systems.ligra import LigraSimulator
from repro.systems.pregel import PregelSimulator
from repro.systems.subway import SubwaySimulator
from repro.systems.wonderland import WonderlandSimulator

GOLDEN = Path(__file__).with_name("golden_rounds.json")
SOURCE = 7


def _rows(stats: RunStats) -> list:
    return [
        [info.frontier_size, info.edges_scanned, info.updates,
         info.activated, info.edges_skipped, info.redundant]
        for info in stats.per_iteration
    ]


def _source(spec):
    return None if spec.multi_source else SOURCE


def _triangle(spec) -> bool:
    # Theorem 1 certificates are per source; multi-source WCC has none.
    return not spec.multi_source


def _engine_cases(g, cgs):
    """``name -> thunk`` returning the JSON-ready record of one run."""

    def run(engine, spec, **kw):
        def thunk():
            stats = RunStats()
            engine(g, spec, _source(spec), stats=stats, **kw)
            return _rows(stats)
        return thunk

    def run_two_phase(spec):
        def thunk():
            result = two_phase(g, cgs[spec.name], spec, _source(spec),
                               triangle=_triangle(spec))
            return {"phase1": _rows(result.phase1),
                    "phase2": _rows(result.phase2)}
        return thunk

    cases = {}
    for spec in ALL_SPECS:
        cases[f"evaluate_query/{spec.name}"] = run(evaluate_query, spec)
        cases[f"two_phase/{spec.name}"] = run_two_phase(spec)
        cases[f"async_evaluate/{spec.name}"] = run(
            async_evaluate, spec, chunk_size=32
        )
        cases[f"direction_optimizing/{spec.name}"] = run(
            direction_optimizing_evaluate, spec
        )
    for spec in (SSSP, BFS):
        cases[f"delta_stepping/{spec.name}"] = run(delta_stepping, spec)
    return cases


def _system_cases(g, cgs):
    sims = {
        "pregel": PregelSimulator(g, workers=4),
        "subway": SubwaySimulator(g),
        "subway-async": SubwaySimulator(g, mode="async"),
        "gridgraph": GridGraphSimulator(g, p=3),
        "ligra": LigraSimulator(g),
        "wonderland": WonderlandSimulator(g, num_partitions=3),
    }

    def run(sim, spec, mode):
        def thunk():
            if mode == "baseline":
                rep = sim.baseline_run(spec, _source(spec))
            else:
                rep = sim.two_phase_run(cgs[spec.name], spec, _source(spec),
                                        triangle=_triangle(spec))
            return {k: float(v) for k, v in sorted(rep.counters.items())}
        return thunk

    return {
        f"{name}/{mode}/{spec.name}": run(sim, spec, mode)
        for name, sim in sims.items()
        for spec in ALL_SPECS
        for mode in ("baseline", "2phase")
    }


def _world():
    g = ligra_weights(rmat(9, 9, seed=131), seed=132)
    cgs = {
        spec.name: build_cg(g, spec, num_hubs=5, keep_hub_values=True)
        for spec in ALL_SPECS
    }
    return g, cgs


def record() -> dict:
    g, cgs = _world()
    cases = {**_engine_cases(g, cgs), **_system_cases(g, cgs)}
    with obs_runtime.enabled():
        return {name: thunk() for name, thunk in cases.items()}


@pytest.fixture(scope="module")
def recorded():
    return record()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(recorded, golden):
    assert sorted(recorded) == sorted(golden)


@pytest.mark.parametrize("family", (
    "evaluate_query", "two_phase", "async_evaluate", "direction_optimizing",
    "delta_stepping", "pregel", "subway", "subway-async", "gridgraph",
    "ligra", "wonderland",
))
def test_counters_match_golden(recorded, golden, family):
    names = [k for k in golden if k.split("/")[0] == family]
    assert names
    for name in names:
        assert recorded[name] == golden[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_rounds.py --write")
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
