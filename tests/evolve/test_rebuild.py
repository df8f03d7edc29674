"""RebuildSupervisor: crash restart, budget retry, checkpoint lifecycle."""

import time

import numpy as np
import pytest

from repro.checks.sanitize import probes as san_probes
from repro.checks.sanitize.runtime import enabled as sanitizer_on
from repro.core.twophase import two_phase
from repro.engines.frontier import evaluate_query
from repro.evolve import RebuildSupervisor, next_batch
from repro.resilience.budget import Budget
from repro.resilience.faults import injected


def _wait(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def _churn(maintainer, steps=2, seed=17):
    for step in range(steps):
        b = next_batch(maintainer.graph, step, batch_size=12, seed=seed)
        maintainer.apply(b.inserts, b.deletes)


class TestSupervisedRebuild:
    def test_forced_rebuild_lands(self, maintainer):
        _churn(maintainer)
        sup = RebuildSupervisor(maintainer, poll_interval_s=0.005)
        sup.request_rebuild()
        sup.start()
        try:
            assert _wait(lambda: sup.stats.rebuilds >= 1)
        finally:
            sup.stop()
        assert maintainer.store.current().triangle_safe
        assert sup.stats.failures == 0

    def test_crash_restarts_and_retries(self, maintainer):
        """An injected crash inside the build kills the attempt; the
        supervisor restarts with backoff and the rebuild still lands."""
        _churn(maintainer)
        sup = RebuildSupervisor(
            maintainer, poll_interval_s=0.005, backoff_base_s=0.001
        )
        with injected("evolve.rebuild", "crash"):
            sup.request_rebuild()
            sup.start()
            try:
                assert _wait(lambda: sup.stats.rebuilds >= 1)
            finally:
                sup.stop()
        assert sup.stats.supervisor_restarts >= 1
        assert sup.stats.failures >= 1
        assert maintainer.store.current().triangle_safe

    def test_budget_exceeded_counts_retry_not_crash(self, maintainer):
        _churn(maintainer)
        calls = {"n": 0}

        def budgets():
            calls["n"] += 1
            # First attempt: an already-expired deadline. Later: roomy.
            if calls["n"] == 1:
                return Budget(deadline_s=0.0)
            return Budget(deadline_s=60.0)

        sup = RebuildSupervisor(
            maintainer, poll_interval_s=0.005, budget_factory=budgets
        )
        sup.request_rebuild()
        sup.start()
        try:
            assert _wait(lambda: sup.stats.rebuilds >= 1)
        finally:
            sup.stop()
        assert sup.stats.retries >= 1
        assert sup.stats.supervisor_restarts == 0

    def test_checkpoint_written_and_cleared(self, maintainer, tmp_path):
        _churn(maintainer)
        ck = tmp_path / "rebuild.json"
        seen = {}

        class Spy(RebuildSupervisor):
            def _checkpoint(self, epoch, attempt, done, total):
                super()._checkpoint(epoch, attempt, done, total)
                seen.update(self.read_checkpoint() or {})

        sup = Spy(maintainer, poll_interval_s=0.005, checkpoint_path=ck)
        sup.request_rebuild()
        sup.start()
        try:
            assert _wait(lambda: sup.stats.rebuilds >= 1)
        finally:
            sup.stop()
        # Progress was checkpointed during the build...
        assert seen.get("schema") == "repro-evolve-rebuild/v1"
        assert seen.get("hubs_total", 0) >= seen.get("hubs_done", 0) > 0
        # ...and cleared once the rebuild landed.
        assert sup.read_checkpoint() is None

    def test_double_start_rejected(self, maintainer):
        sup = RebuildSupervisor(maintainer, poll_interval_s=0.005)
        sup.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                sup.start()
        finally:
            sup.stop()


class TestRebaseAcrossChurn:
    def test_reweighted_cg_edge_is_dropped_on_install(self, maintainer):
        """A CG edge deleted and re-inserted with another weight while the
        rebuild runs is a different edge: the installed proxy must not
        keep the stale-weight copy (that breaks ``CG ⊆ G`` and with it
        the exactness of the core phase)."""
        snapshot = maintainer.rebuild_snapshot()
        proxy = maintainer.build_proxy(snapshot)
        u = int(proxy.graph.edge_sources()[0])
        v = int(proxy.graph.dst[0])
        w = float(proxy.graph.weights[0])
        maintainer.apply(deletes=[(u, v)])
        maintainer.apply(inserts=[(u, v, w + 50.0)])
        epoch = maintainer.install_rebuild(snapshot, proxy)

        cg = epoch.proxy
        assert int(cg.edge_mask.sum()) == cg.num_edges == proxy.num_edges - 1
        assert not epoch.triangle_safe
        with sanitizer_on():
            san_probes.check_cg_containment(epoch.graph, cg, "test.rebase")
        for source in range(epoch.graph.num_vertices):
            got = two_phase(epoch.graph, cg, maintainer.spec, source)
            truth = evaluate_query(epoch.graph, maintainer.spec, source)
            assert np.array_equal(got.values, truth), source

    def test_untouched_cg_edges_survive_with_their_positions(self, maintainer):
        snapshot = maintainer.rebuild_snapshot()
        proxy = maintainer.build_proxy(snapshot)
        _churn(maintainer, steps=3)
        epoch = maintainer.install_rebuild(snapshot, proxy)
        g, cg = epoch.graph, epoch.proxy
        assert int(cg.edge_mask.sum()) == cg.num_edges
        keys = g.edge_sources()[cg.edge_mask] * g.num_vertices
        keys += g.dst[cg.edge_mask]
        cg_keys = cg.graph.edge_sources() * g.num_vertices + cg.graph.dst
        assert np.array_equal(keys, cg_keys)
        assert np.array_equal(g.weights[cg.edge_mask], cg.graph.weights)
