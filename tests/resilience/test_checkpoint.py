"""Checkpoint round trips: snapshot -> kill -> resume -> bit-identical."""

import numpy as np
import pytest

from repro.engines.async_engine import async_evaluate
from repro.engines.delta_stepping import delta_stepping
from repro.engines.frontier import evaluate_query, run_push
from repro.engines.scalar import scalar_evaluate
from repro.queries import SSSP
from repro.resilience import (
    Checkpoint,
    CheckpointError,
    CheckpointMismatch,
    Checkpointer,
    load_checkpoint,
    run_fingerprint,
    save_checkpoint,
)
from repro.resilience.faults import InjectedCrash, injected


def _crash_then_load(tmp_path, site, at_hit, run):
    """Run ``run(checkpointer)`` until the injected crash; load the state."""
    path = tmp_path / "ck.npz"
    ck = Checkpointer(path, every=1, engine="test")
    with injected(site, "crash", at_hit=at_hit):
        with pytest.raises(InjectedCrash):
            run(ck)
    assert ck.saves > 0
    return load_checkpoint(path)


class TestFormat:
    def test_save_load_round_trip(self, tmp_path):
        arrays = {"vals": np.arange(5.0), "frontier": np.array([1, 2])}
        meta = {"engine": "x", "iteration": 3, "phase": 2}
        path = save_checkpoint(tmp_path / "ck.npz", meta, arrays)
        ck = load_checkpoint(path)
        assert ck.iteration == 3 and ck.engine == "x" and ck.phase == 2
        assert np.array_equal(ck.arrays["vals"], arrays["vals"])
        assert np.array_equal(ck.arrays["frontier"], arrays["frontier"])

    def test_none_arrays_skipped(self, tmp_path):
        path = save_checkpoint(
            tmp_path / "ck.npz", {"iteration": 1},
            {"vals": np.arange(3.0), "visited": None},
        )
        assert set(load_checkpoint(path).arrays) == {"vals"}

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, something=np.arange(3))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not an npz at all")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_fingerprint_mismatch(self, tmp_path, medium_graph, tiny_graph):
        fp = run_fingerprint(medium_graph, SSSP, source=0)
        path = save_checkpoint(
            tmp_path / "ck.npz", {"fingerprint": fp}, {"vals": np.arange(3.0)}
        )
        ck = load_checkpoint(path)
        ck.verify(fp)  # same run: fine
        with pytest.raises(CheckpointMismatch):
            ck.verify(run_fingerprint(tiny_graph, SSSP, source=0))
        with pytest.raises(CheckpointMismatch):
            ck.verify(run_fingerprint(medium_graph, SSSP, source=1))

    def test_checkpointer_cadence(self, tmp_path):
        ck = Checkpointer(tmp_path / "ck.npz", every=3)
        for i in range(1, 10):
            ck.maybe_save(i, vals=np.arange(2.0))
        assert ck.saves == 3  # iterations 3, 6, 9

    def test_checkpointer_rejects_bad_interval(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(tmp_path / "ck.npz", every=0)

    def test_atomic_save_leaves_no_temp_on_success(self, tmp_path):
        save_checkpoint(tmp_path / "ck.npz", {"iteration": 1},
                        {"vals": np.arange(3.0)})
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]


class TestEngineRoundTrips:
    """Crash each engine mid-run; resuming must be bit-identical."""

    def test_frontier(self, tmp_path, medium_graph):
        spec = SSSP
        truth = evaluate_query(medium_graph, spec, 0)
        vals = spec.initial_values(medium_graph.num_vertices, 0)
        frontier = spec.initial_frontier(medium_graph.num_vertices, 0)
        ck = _crash_then_load(
            tmp_path, "engine.frontier.iteration", 4,
            lambda c: run_push(medium_graph, spec, vals, frontier,
                               checkpointer=c),
        )
        resumed_vals = ck.arrays["vals"].copy()
        run_push(medium_graph, spec, resumed_vals, ck.arrays["frontier"],
                 start_iteration=ck.iteration)
        assert np.array_equal(resumed_vals, truth)

    def test_scalar(self, tmp_path, medium_graph):
        truth = scalar_evaluate(medium_graph, SSSP, 0)
        ck = _crash_then_load(
            tmp_path, "engine.scalar.pop", 20,
            lambda c: scalar_evaluate(medium_graph, SSSP, 0, checkpointer=c),
        )
        resumed = scalar_evaluate(medium_graph, SSSP, 0, resume=ck)
        assert np.array_equal(resumed, truth)

    def test_delta_stepping(self, tmp_path, medium_graph):
        truth = delta_stepping(medium_graph, SSSP, 0, delta=0.25)
        ck = _crash_then_load(
            tmp_path, "engine.delta_stepping.round", 6,
            lambda c: delta_stepping(medium_graph, SSSP, 0, delta=0.25,
                                     checkpointer=c),
        )
        resumed = delta_stepping(medium_graph, SSSP, 0, delta=0.25, resume=ck)
        assert np.array_equal(resumed, truth)

    def test_async(self, tmp_path, medium_graph):
        truth = async_evaluate(medium_graph, SSSP, 0, chunk_size=32)
        ck = _crash_then_load(
            tmp_path, "engine.async.round", 3,
            lambda c: async_evaluate(medium_graph, SSSP, 0, chunk_size=32,
                                     checkpointer=c),
        )
        resumed = async_evaluate(medium_graph, SSSP, 0, chunk_size=32,
                                 resume=ck)
        assert np.array_equal(resumed, truth)

    def test_in_memory_checkpoint_accepted(self, medium_graph):
        """Engines accept a Checkpoint object, not just a path."""
        truth = scalar_evaluate(medium_graph, SSSP, 0)
        ck = Checkpoint(
            meta={"iteration": 0},
            arrays={
                "vals": SSSP.initial_values(medium_graph.num_vertices, 0),
                "queue": np.array([0], dtype=np.int64),
            },
        )
        assert np.array_equal(
            scalar_evaluate(medium_graph, SSSP, 0, resume=ck), truth
        )
