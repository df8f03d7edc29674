"""The single writer: apply mutation batches, publish epochs, rebuild.

Correctness comes from :class:`~repro.core.evolving.EvolvingCoreGraph`
(inserts keep the CG a subgraph; deletes drop CG edges; Theorem-1
certificates die on any churn). This module adds the serving discipline:

* **all-or-nothing application** — the maintainer snapshots the evolving
  state before touching it and restores it on any failure (including the
  ``evolve.apply`` injected crash), so a half-applied batch can never
  become an epoch;
* **epoch publication** — each successful batch or rebuild is published
  through :meth:`EpochStore.swap`, whose own fault point fires before
  visibility;
* **non-blocking rebuilds** — Algorithm 1/2 runs against an immutable
  graph snapshot *outside* the writer lock; installation rebases the new
  CG onto whatever the graph has become (dropping CG edges deleted in the
  meantime — the ``CG ⊆ G`` invariant), so mutations keep flowing during
  the rebuild.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.core.coregraph import CoreGraph
from repro.core.evolving import EvolvingCoreGraph
from repro.evolve.epoch import Epoch, EpochStore, make_epoch
from repro.evolve.snapshot import LoadedSnapshot, SnapshotStore
from repro.evolve.wal import WalError, WalWriter
from repro.graph.csr import Graph
from repro.graph.mutate import match_edges
from repro.graph.transform import edge_subgraph
from repro.obs import journal as obs_journal
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.obs.spans import span
from repro.queries.base import QuerySpec
from repro.resilience.faults import fault_point


def _successor(base: Epoch, graph: Graph, proxy: CoreGraph, **changes) -> Epoch:
    """The epoch after ``base``: its bookkeeping carried over, then
    ``changes`` applied."""
    return replace(
        base, number=base.number + 1, graph=graph, proxy=proxy,
        fingerprint=graph.fingerprint(), **changes,
    )


class EpochMaintainer:
    """Owns the mutable evolving state; everything it publishes is frozen.

    Construction builds the initial core graph and publishes epoch 0.
    ``apply`` and ``install_rebuild`` are serialized by the writer lock;
    readers only ever touch the :class:`EpochStore`.
    """

    def __init__(
        self,
        g: Graph,
        spec: QuerySpec,
        num_hubs: int = 20,
        rebuild_below_precision: float = 95.0,
        probe_sources: int = 3,
        probe_seed: int = 7,
        *,
        wal: Optional[WalWriter] = None,
        snapshots: Optional[SnapshotStore] = None,
        snapshot_every: int = 8,
        _resume: Optional[LoadedSnapshot] = None,
    ) -> None:
        self.spec = spec
        self._lock = threading.Lock()
        self.wal: Optional[WalWriter] = None
        self.snapshots: Optional[SnapshotStore] = None
        self.snapshot_every = 0
        # Recovery re-adopts a persisted (graph, proxy) pair and resumes
        # epoch numbering where the snapshot left it. The WAL is attached
        # *after* the tail replay (see attach_wal), so replayed records
        # are never re-journaled.
        self._ev = EvolvingCoreGraph(
            g if _resume is None else _resume.graph,
            spec,
            num_hubs=num_hubs,
            rebuild_below_precision=rebuild_below_precision,
            probe_sources=probe_sources,
            probe_seed=probe_seed,
            cg=None if _resume is None else _resume.proxy,
        )
        if _resume is not None:
            self._ev._triangle_safe = _resume.triangle_safe
            initial = Epoch(
                number=_resume.epoch,
                graph=_resume.graph,
                proxy=_resume.proxy,
                fingerprint=_resume.fingerprint,
                triangle_safe=_resume.triangle_safe,
                inserted_edges=_resume.inserted_edges,
                deleted_edges=_resume.deleted_edges,
                probe_precision=_resume.probe_precision,
                rebuilt_from=_resume.rebuilt_from,
            )
        else:
            initial = make_epoch(0, self._ev.graph, self._ev.cg)
        self._batches = 0
        self.store = EpochStore(initial)
        obs_journal.set_global_context(
            graph_epoch=initial.number,
            graph_fingerprint=initial.fingerprint,
        )
        if _resume is None and wal is not None:
            self.attach_wal(
                wal, snapshots=snapshots, snapshot_every=snapshot_every
            )
            # The recovery base: without an epoch-stamped snapshot under
            # the log, a replay would have no graph to start from.
            if self.snapshots is not None and not self.snapshots.paths():
                self._snapshot_and_compact(initial)

    def attach_wal(
        self,
        wal: WalWriter,
        snapshots: Optional[SnapshotStore] = None,
        snapshot_every: int = 8,
    ) -> None:
        """Wire a durable log (and its snapshot anchor) to this writer.

        Every subsequent acknowledged batch/install/probe is appended to
        ``wal`` before its epoch swap. ``snapshots`` defaults to a
        ``snapshots/`` directory under the log; ``snapshot_every`` is the
        batch cadence of full-graph snapshots (0 disables periodic ones —
        rebuild installs still snapshot, anchoring compaction).
        """
        store = (
            snapshots if snapshots is not None
            else SnapshotStore(wal.directory / "snapshots")
        )
        with self._lock:
            self.wal = wal
            self.snapshots = store
            self.snapshot_every = max(0, int(snapshot_every))

    def durability(self) -> Dict[str, Any]:
        """The explain-facing durability summary of this maintainer."""
        if self.wal is None:
            return {"mode": "volatile"}
        info = self.wal.durability()
        if self.snapshots is not None:
            info["snapshot_every"] = self.snapshot_every
        return info

    # ------------------------------------------------------------------
    # Mutation batches
    # ------------------------------------------------------------------
    def apply(
        self,
        inserts: Iterable = (),
        deletes: Iterable[Tuple[int, int]] = (),
    ) -> Epoch:
        """Apply one batch and publish the result as the next epoch.

        All-or-nothing: any failure (typed mutation error, injected
        crash, swap abort) restores the pre-batch state and re-raises;
        the previously current epoch stays published.

        **Acknowledgement contract** (when a WAL is attached): the batch
        record is durably appended *before* the epoch swap, and this
        method returns only after both — so every acknowledged batch is
        replayable. A failure after the append but before the swap
        journals a best-effort ``abort`` record, so recovery rolls the
        batch back instead of resurrecting it.
        """
        inserts, deletes = list(inserts), list(deletes)
        with self._lock:
            ev = self._ev
            saved = (
                ev.graph, ev.cg, ev._triangle_safe,
                ev.stats.inserted_edges, ev.stats.deleted_edges,
            )
            base = self.store.current()
            logged = False
            try:
                with span("evolve.apply", epoch=base.number + 1,
                          inserts=len(inserts), deletes=len(deletes)):
                    epoch = self._splice(base, inserts, deletes, chaos=True)
                    deleted_now = epoch.deleted_edges - base.deleted_edges
                    if self.wal is not None:
                        self.wal.append(
                            "batch", epoch.number,
                            fingerprint=epoch.fingerprint,
                            inserts=[list(e) for e in inserts],
                            deletes=[list(p) for p in deletes],
                        )
                        logged = True
                    self.store.swap(epoch)
            except BaseException:
                (ev.graph, ev.cg, ev._triangle_safe,
                 ev.stats.inserted_edges, ev.stats.deleted_edges) = saved
                if logged:
                    self._abort_record(base.number + 1)
                raise
            self._batches += 1
        self._maybe_snapshot(epoch)
        if obs_runtime._enabled:
            obs_metrics.counter("evolve.batches").inc()
            obs_metrics.counter("evolve.inserted_edges").inc(len(inserts))
            obs_metrics.counter("evolve.deleted_edges").inc(deleted_now)
            obs_journal.emit({
                "type": "event",
                "name": "evolve.batch",
                "epoch": epoch.number,
                "inserts": len(inserts),
                "deletes": deleted_now,
                "num_edges": epoch.graph.num_edges,
            })
        return epoch

    def _splice(
        self, base: Epoch, inserts: list, deletes: list, chaos: bool
    ) -> Epoch:
        """Apply one batch to the evolving state; the epoch it yields."""
        ev = self._ev
        deleted_before = ev.stats.deleted_edges
        if inserts:
            ev.insert_edges(inserts)
        if chaos:
            # Deliberately inside the writer lock: the chaos model kills
            # mid-batch, and apply's except-branch must restore state
            # before anyone else writes.
            fault_point("evolve.apply")  # repro: noqa RC104 — chaos site
        if deletes:
            ev.delete_edges(deletes)
        return _successor(
            base, ev.graph, ev.cg, triangle_safe=ev.triangle_safe,
            inserted_edges=base.inserted_edges + len(inserts),
            deleted_edges=(
                base.deleted_edges + ev.stats.deleted_edges - deleted_before
            ),
        )

    # ------------------------------------------------------------------
    # Durability plumbing
    # ------------------------------------------------------------------
    def _abort_record(self, epoch_number: int) -> None:
        """Best-effort ``abort`` marker for a logged-but-unswapped batch.

        Failing to write it is tolerable: recovery then replays the
        batch, landing one epoch *ahead* of the last acknowledged one —
        the allowed direction. What the marker buys is exact pre-crash
        state when the append succeeded but the swap did not.
        """
        if self.wal is None:
            return
        try:
            self.wal.append("abort", epoch_number)
        except Exception:  # repro: noqa RC004 — best-effort marker: the log is already suspect after a failed append; recovery tolerates a missing abort (epoch-supersession drops the orphan)
            return
        if obs_runtime._enabled:
            obs_metrics.counter("evolve.wal.aborts").inc()

    def _maybe_snapshot(self, epoch: Epoch) -> None:
        """Periodic snapshot trigger (outside the writer lock — the
        epoch is immutable, so the batch stream keeps flowing)."""
        with self._lock:
            store = self.snapshots
            every = self.snapshot_every
        if store is None or every <= 0 or epoch.number % every != 0:
            return
        self._snapshot_and_compact(epoch)

    def _snapshot_and_compact(self, epoch: Epoch) -> None:
        """Write a snapshot of ``epoch``; drop WAL segments it covers.

        An IO failure is absorbed (and counted): the WAL still holds
        every acknowledged batch, so durability is unaffected — the next
        recovery just replays a longer tail.
        """
        if self.snapshots is None:
            return
        try:
            self.snapshots.save(epoch)
        except OSError:
            if obs_runtime._enabled:
                obs_metrics.counter("evolve.snapshot.failures").inc()
            return
        if self.wal is not None:
            try:
                self.wal.compact(epoch.number)
            except (WalError, OSError, ValueError):
                # A compaction hiccup only costs disk, never data.
                pass

    # ------------------------------------------------------------------
    # Recovery replay (no WAL writes: the records already exist)
    # ------------------------------------------------------------------
    def _replay_base(self, epoch_number: int) -> Epoch:
        """The current epoch, which a replayed record must directly follow."""
        base = self.store.current()
        if epoch_number != base.number + 1:
            raise ValueError(
                f"replay out of order: at epoch {base.number}, "
                f"record says {epoch_number}"
            )
        return base

    def replay_batch(
        self,
        epoch_number: int,
        inserts: Sequence[Sequence[float]],
        deletes: Sequence[Sequence[int]],
    ) -> Epoch:
        """Re-apply one logged mutation batch during recovery."""
        with self._lock:
            epoch = self._splice(
                self._replay_base(epoch_number),
                [tuple(e) for e in inserts],
                [(int(u), int(v)) for u, v in deletes],
                chaos=False,
            )
            self.store.swap(epoch)
            self._batches += 1
        return epoch

    def replay_install(
        self, epoch_number: int, triangle_safe: bool,
        built_on: Optional[int] = None,
    ) -> Epoch:
        """Re-run a logged rebuild install during recovery.

        The original proxy is gone (it lived in the crashed process), so
        Algorithm 1/2 runs again on the replayed graph — same graph,
        equivalent proxy. ``triangle_safe`` comes from the record: the
        original install may have been rebased onto churn this rebuild
        no longer sees.
        """
        from repro.core.dispatch import build_cg

        with self._lock:
            ev = self._ev
            base = self._replay_base(epoch_number)
            ev.cg = build_cg(ev.graph, self.spec, num_hubs=ev.num_hubs)
            ev._triangle_safe = bool(triangle_safe)
            epoch = _successor(
                base, ev.graph, ev.cg, triangle_safe=bool(triangle_safe),
                probe_precision=None, rebuilt_from=built_on,
            )
            self.store.swap(epoch)
            ev.stats.rebuilds += 1
        return epoch

    def replay_probe(
        self, epoch_number: int, precision: Optional[float]
    ) -> Epoch:
        """Re-publish a logged probe-refresh epoch during recovery."""
        with self._lock:
            base = self._replay_base(epoch_number)
            epoch = _successor(
                base, base.graph, base.proxy, probe_precision=precision
            )
            self.store.swap(epoch)
        return epoch

    # ------------------------------------------------------------------
    # Quality policy
    # ------------------------------------------------------------------
    def probe(self) -> float:
        """Sampled core-phase precision of the current epoch's proxy.

        Publishes the reading onto subsequent epochs via the evolving
        stats and exports the ``evolve.probe_precision`` gauge.
        """
        with self._lock:
            precision = self._ev.probe_precision()
            current = self.store.current()
            if current.probe_precision != precision:
                refreshed = _successor(
                    current, current.graph, current.proxy,
                    probe_precision=precision,
                )
                if self.wal is not None:
                    # Probe refreshes consume an epoch number, so they
                    # must be journaled or replay numbering would gap.
                    self.wal.append(
                        "probe", refreshed.number,
                        fingerprint=refreshed.fingerprint,
                        precision=precision,
                    )
                self.store.swap(refreshed)
        if obs_runtime._enabled:
            obs_metrics.gauge("evolve.probe_precision").set(precision)
        return precision

    def needs_rebuild(self) -> bool:
        """Whether the precision probe fell below the rebuild threshold."""
        return self.probe() < self._ev.rebuild_below_precision

    # ------------------------------------------------------------------
    # Rebuild (snapshot -> build outside the lock -> rebase -> publish)
    # ------------------------------------------------------------------
    def rebuild_snapshot(self) -> Epoch:
        """The epoch a background rebuild should build against."""
        return self.store.current()

    def build_proxy(
        self, snapshot: Epoch, budget=None, progress=None
    ) -> CoreGraph:
        """Run Algorithm 1/2 on ``snapshot``'s (immutable) graph.

        Called *without* the writer lock — mutation batches keep landing
        while this runs. The ``evolve.rebuild`` fault point models a
        crash inside the long build.
        """
        from repro.core.dispatch import build_cg

        fault_point("evolve.rebuild")
        with span("evolve.rebuild", epoch=snapshot.number):
            return build_cg(
                snapshot.graph,
                self.spec,
                num_hubs=self._ev.num_hubs,
                budget=budget,
                progress=progress,
            )

    def install_rebuild(self, snapshot: Epoch, proxy: CoreGraph) -> Epoch:
        """Publish a freshly built proxy, rebasing it onto current state.

        If the graph churned while the build ran, CG edges deleted in the
        meantime are dropped (restoring ``CG ⊆ G``) and Theorem-1 stays
        disabled; with no churn the rebuild restores certificates too.
        """
        with self._lock:
            ev = self._ev
            base = self.store.current()
            clean = ev.graph.fingerprint() == snapshot.fingerprint
            installed = proxy if clean else self._rebase(ev.graph, proxy)
            ev.cg = installed
            ev._triangle_safe = clean
            epoch = _successor(
                base, ev.graph, installed, triangle_safe=clean,
                probe_precision=None, rebuilt_from=snapshot.number,
            )
            if self.wal is not None:
                # The install marker tells recovery which replayed
                # epochs had a freshly identified CG (and whether
                # Theorem-1 certificates were sound on them).
                self.wal.append(
                    "install", epoch.number,
                    fingerprint=epoch.fingerprint,
                    built_on=snapshot.number,
                    triangle_safe=clean,
                )
            self.store.swap(epoch)
            ev.stats.rebuilds += 1
        # A rebuild install is the natural snapshot anchor: persisting
        # the fresh proxy means recovery replays mutations, not builds.
        self._snapshot_and_compact(epoch)
        if obs_runtime._enabled:
            obs_metrics.counter("evolve.rebuilds").inc()
            obs_journal.emit({
                "type": "event",
                "name": "evolve.rebuild",
                "epoch": epoch.number,
                "built_on_epoch": snapshot.number,
                "rebased": not clean,
                "cg_edges": installed.num_edges,
                "triangle_safe": clean,
            })
        return epoch

    @staticmethod
    def _rebase(current: Graph, proxy: CoreGraph) -> CoreGraph:
        """Fit a proxy built on an older snapshot to ``current``.

        Inserts since the snapshot only grow the graph (the CG stays a
        subgraph); deletes may have removed CG edges, which must be
        dropped — and so must a CG edge deleted and re-inserted with
        another weight, which is a different edge. Hub values are stale
        either way, so they are discarded.
        """
        edge_mask, kept = match_edges(current, proxy.graph)
        cg_graph = proxy.graph
        if not kept.all():
            cg_graph = edge_subgraph(cg_graph, kept)
        return replace(
            proxy, graph=cg_graph, edge_mask=edge_mask, hub_data=[],
            source_num_edges=current.num_edges,
            growth=None, forward_selection_counts=None,
        )

    def rebuild(self, budget=None, progress=None) -> Epoch:
        """Synchronous snapshot -> build -> install convenience."""
        snapshot = self.rebuild_snapshot()
        proxy = self.build_proxy(snapshot, budget=budget, progress=progress)
        return self.install_rebuild(snapshot, proxy)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def batches_applied(self) -> int:
        return self._batches

    @property
    def graph(self) -> Graph:
        """The live (latest-epoch) graph — what the next batch mutates."""
        return self._ev.graph

    def emit_stats(self) -> None:
        """Journal an ``evolve.stats`` snapshot (end-of-run summary)."""
        current = self.store.current()
        # Snapshot the writer-lock-guarded counters together so the
        # journal line is internally consistent even if a batch is
        # applying concurrently.
        with self._lock:
            batches = self._batches
            rebuilds = self._ev.stats.rebuilds
        obs_journal.emit({
            "type": "event",
            "name": "evolve.stats",
            "epoch": current.number,
            "batches": batches,
            "inserted_edges": current.inserted_edges,
            "deleted_edges": current.deleted_edges,
            "rebuilds": rebuilds,
            "swaps": self.store.swap_count(),
            "pinned": self.store.pinned_count(),
            "triangle_safe": current.triangle_safe,
        })
        if self.wal is not None:
            obs_journal.emit({
                "type": "event",
                "name": "evolve.wal.stats",
                "epoch": current.number,
                "durability": self.durability(),
                **self.wal.stats(),
            })
