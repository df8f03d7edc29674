"""The benchmark's workloads and the measurements one run makes.

A run goes through these steps:

1. **Inputs.** The workload's zoo graph (recipe fixed, ``scale_delta=0``)
   is written to a graph file. The seed draws the query-source pool from
   vertices with out-degree > 0 and the mutation stream; the stream is
   generated and validated against a model graph before any timing.
2. **Writer.** An ``EpochMaintainer`` with an ``fsync="always"`` WAL
   applies the first batch of the stream, and its WAL is copied, so that
   every recovery replays the same one-batch tail. Each later step of the
   writer acks its next batch, back to back with no reader, then runs one
   ``recover(verify=True)`` of the copy. The query window stays free of
   writes: half the batches are acked before it and half after it.
3. **Set-up**, ``REPS`` times: ``load_graph``, then ``build_cg``, then
   service start, each followed by a share of the writer's first half.
4. **Window.** Closed-loop clients ``submit`` and wait on
   ``Ticket.result`` for ``seconds``.
5. **Checks.** A seeded sample of served answers is compared exactly with
   ``evaluate_query`` on the same graph. The writer then acks the rest of
   the stream. Its last epoch and every recovered epoch must fingerprint
   as the model graph.

Samples of one kind are spread over the run (set-up, writes and
recoveries interleaved) and query figures are medians over slices of the
window, so that one slow spell of a shared machine does not set a whole
figure.

A traced run (``trace=True``) also records spans around every layer call,
alternates traced and untraced slices through the window to price the
tracing, and replays sources through ``two_phase`` and
``evaluate_query`` to split query cost by layer.
"""

from __future__ import annotations

import contextlib
import resource
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
from tracer import Tracer

from repro import obs
from repro.core import build_cg, two_phase
from repro.datasets.zoo import load_zoo_graph
from repro.engines import RunStats, evaluate_query
from repro.evolve import EpochMaintainer, WalWriter, next_batch, recover
from repro.graph.mutate import add_edges, remove_edges
from repro.io import load_graph, save_graph
from repro.queries.registry import get_spec
from repro.serve import (
    STATUS_DEGRADED, STATUS_OK, STATUS_REJECTED, QueryService, ServiceConfig,
)

QUERY = "SSSP"
CLIENTS = 2            # closed-loop client threads (the machine has 2 cores)
WORKERS = 2            # QueryService workers
POOL = 1024            # sources drawn per run; clients cycle through them
CHECKED = 32           # served answers re-derived from scratch per run
REPS = 5               # set-ups per run, reported as their median
WARMUP = 8             # untimed requests before the window
QUERY_SLICE_S = 2.0    # query figures: medians over slices this long
REPLAYS = 200          # traced: sources replayed through two_phase/scratch
TAX_REPLAYS = 64       # traced: of those, replayed again with telemetry on
TRACE_SLICES = 20      # traced: the window alternates this many slices
RESULT_TIMEOUT_S = 60.0
# The writer: 8-edge batches of 6 inserts and 2 deletes, each acked after
# an fsync'd WAL append. No periodic snapshots (0), so no ack pays for one
# and recovery starts from the epoch-0 snapshot.
BATCH_SIZE = 8
DELETE_FRACTION = 0.25
FSYNC = "always"
SNAPSHOT_EVERY = 0


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str
    # Batches the writer acks per run, one recovery after each. An ack
    # costs ~0.16 s on PK and ~1.7 s on FR; 40 leave 10 samples beyond
    # apply_p75_ms.
    batches: int
    telemetry: bool = False
    # Tests shrink the graph; the command line never does.
    scale_delta: int = 0


WORKLOADS: Dict[str, Workload] = {
    "serve-fr": Workload("serve-fr", "FR", batches=12),
    "serve-pk-telemetry": Workload(
        "serve-pk-telemetry", "PK", batches=40, telemetry=True
    ),
}


@dataclass
class Request:
    done: float
    latency_s: float
    position: int
    status: str
    wait_s: float
    service_s: float
    phase1_s: float = 0.0
    phase2_s: float = 0.0
    phase1_edges: int = 0
    phase2_edges: int = 0
    impacted: int = 0
    shed: bool = False


@dataclass
class Run:
    """Everything one run measured; ``end_to_end`` and ``per_layer`` turn
    it into numbers."""

    batches: int
    setup_s: List[float] = field(default_factory=list)
    load_s: List[float] = field(default_factory=list)
    build_s: List[float] = field(default_factory=list)
    graph_bytes: int = 0
    cg_edges: int = 0
    cg_edge_fraction: float = 0.0
    cg_bytes: int = 0
    window_s: float = 0.0
    window_end: float = 0.0
    requests: List[Request] = field(default_factory=list)
    # (start, end, traced) per slice of a traced run's window
    trace_slices: List[Tuple[float, float, bool]] = field(
        default_factory=list)
    apply_s: List[float] = field(default_factory=list)
    batch_error: str = ""
    mutate_s: List[float] = field(default_factory=list)
    wal_fsyncs: int = 0
    wal_bytes: int = 0
    recover_s: List[float] = field(default_factory=list)
    recovered: List[str] = field(default_factory=list)
    recover_replayed: int = 0
    peak_rss_mb: float = 0.0
    # Failed checks and crashed clients, one failure each.
    errors: List[str] = field(default_factory=list)
    checked: int = 0
    wrong: int = 0
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.requests) + self.batches

    @property
    def failed(self) -> int:
        """Requests not served in full, wrong answers, unacknowledged
        batches and failed checks."""
        not_ok = sum(r.status != STATUS_OK for r in self.requests)
        unacked = self.batches - len(self.apply_s)
        return not_ok + self.wrong + unacked + len(self.errors)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def make_stream(g, n: int, seed: int, tracer: Tracer):
    """``n`` batches of the ``seed`` stream, validated on a model graph.

    ``remove_edges(strict=True)`` and ``add_edges`` raise on a batch that
    deletes a missing edge or inserts an existing one. Returns the stream,
    the model graph's fingerprint before and after each batch (``n + 1``
    of them) and the seconds each model update took. Only the fingerprints
    are kept, so the run's peak memory holds no oracle graphs.
    """
    model = g
    fingerprints = [g.fingerprint()]
    stream, mutate_s = [], []
    for step in range(n):
        with tracer.span("evolve.next_batch", step=step):
            batch = next_batch(model, step, batch_size=BATCH_SIZE,
                               delete_fraction=DELETE_FRACTION, seed=seed)
        t0 = time.perf_counter()
        with tracer.span("graph.mutate", step=step):
            model, _ = remove_edges(model, batch.deletes, strict=True)
            model = add_edges(model, batch.inserts)
        mutate_s.append(time.perf_counter() - t0)
        fingerprints.append(model.fingerprint())
        stream.append(batch)
    return stream, fingerprints, mutate_s


def draw_sources(g, rng: np.random.Generator, k: int) -> np.ndarray:
    candidates = np.flatnonzero(np.diff(g.offsets) > 0)
    return rng.choice(candidates, size=k, replace=k > candidates.size)


# ----------------------------------------------------------------------
# Layers
# ----------------------------------------------------------------------
def _setup(path: Path, spec, tracer: Tracer, run: Run) -> QueryService:
    t0 = time.perf_counter()
    with tracer.span("io.load_graph"):
        g = load_graph(path)
    t1 = time.perf_counter()
    with tracer.span("core.build_cg"):
        cg = build_cg(g, spec)
    t2 = time.perf_counter()
    with tracer.span("serve.start"):
        svc = QueryService(g, cg, config=ServiceConfig(workers=WORKERS))
        svc.start()
    t3 = time.perf_counter()
    run.setup_s.append(t3 - t0)
    run.load_s.append(t1 - t0)
    run.build_s.append(t2 - t1)
    run.cg_edges = cg.num_edges
    run.cg_edge_fraction = cg.num_edges / g.num_edges
    run.cg_bytes = sum(a.nbytes for a in (
        cg.graph.offsets, cg.graph.dst, cg.graph.edge_weights(), cg.edge_mask,
    ))
    return svc


def _client(svc, sources, first: int, step: int, stop: threading.Event,
            out: List[Request], kept: Dict[int, np.ndarray], check: set,
            tracer: Tracer, run: Run) -> None:
    """Closed loop: the next request goes out when the last one resolves."""
    pos = first
    try:
        while not stop.is_set():
            p = pos % len(sources)
            t0 = time.perf_counter()
            with tracer.span("serve.request", position=p):
                with tracer.span("serve.submit"):
                    ticket = svc.submit(QUERY, int(sources[p]))
                with tracer.span("serve.result"):
                    o = ticket.result(RESULT_TIMEOUT_S)
            t1 = time.perf_counter()
            req = Request(t1, t1 - t0, p, o.status, o.wait_s, o.service_s,
                          shed=o.shed)
            res = o.result
            if res is not None:
                req.phase1_s = res.phase1.wall_time
                req.phase2_s = res.phase2.wall_time
                req.phase1_edges = res.phase1.edges_processed
                req.phase2_edges = res.phase2.edges_processed
                req.impacted = res.impacted
            out.append(req)
            if p in check and o.status == STATUS_OK:
                kept[p] = o.values
            pos += step
    except Exception as exc:  # a crashed client fails the run, not hangs it
        run.errors.append(f"client: {exc!r}")
        stop.set()


def _window(svc, sources, seconds: float, kept, check,
            tracer: Tracer, traced: bool, run: Run) -> None:
    stop = threading.Event()
    per_client: List[List[Request]] = [[] for _ in range(CLIENTS)]
    threads = [
        threading.Thread(target=_client, args=(
            svc, sources, c, CLIENTS, stop, per_client[c], kept, check,
            tracer, run))
        for c in range(CLIENTS)
    ]
    tracer.enabled = False
    t0 = time.perf_counter()
    deadline = t0 + seconds
    for t in threads:
        t.start()
    slice_s = seconds / TRACE_SLICES
    start, toggle = t0, t0 + slice_s
    while True:
        now = time.perf_counter()
        wake = min(toggle if traced else deadline, deadline)
        if stop.wait(max(0.0, wake - now)):
            break
        now = time.perf_counter()
        if now >= deadline:
            stop.set()
            break
        if traced and now >= toggle:
            run.trace_slices.append((start, now, tracer.enabled))
            tracer.enabled = not tracer.enabled
            start, toggle = now, now + slice_s
    end = time.perf_counter()
    run.trace_slices.append((start, end, tracer.enabled))
    tracer.enabled = traced
    for t in threads:
        t.join()
    run.window_s = end - t0
    run.window_end = end
    run.requests = [r for rs in per_client for r in rs]


def _apply(writer, stream, step: int, tracer: Tracer, run: Run) -> None:
    """Ack batch ``step``; the writer is closed-loop, so its ack latency
    is the call's duration."""
    batch = stream[step]
    t0 = time.perf_counter()
    try:
        with tracer.span("evolve.apply", step=step):
            writer.apply(batch.inserts, batch.deletes)
    except Exception as exc:
        run.batch_error = f"batch {step}: {exc!r}"
        return
    run.apply_s.append(time.perf_counter() - t0)


def _recover(wal_dir: Path, spec, tracer: Tracer, run: Run) -> None:
    t0 = time.perf_counter()
    with tracer.span("evolve.recover"):
        m, report = recover(wal_dir, spec, verify=True, attach=False)
    run.recover_s.append(time.perf_counter() - t0)
    run.recover_replayed = report.replayed
    run.recovered.append(m.store.current().fingerprint)


def _writer_steps(writer, stream, upto: int, frozen: Path, spec,
                  tracer: Tracer, run: Run) -> None:
    """Ack the writer's next batches until ``upto`` are acked, each
    followed by one recovery of the frozen one-batch WAL."""
    while len(run.apply_s) < upto and not run.batch_error:
        _apply(writer, stream, len(run.apply_s), tracer, run)
        _recover(frozen, spec, tracer, run)


def _check_answers(kept, sources, g, spec, tracer: Tracer,
                   run: Run) -> None:
    for p, values in sorted(kept.items()):
        run.checked += 1
        with tracer.span("engines.evaluate_query", check=True):
            truth = evaluate_query(g, spec, int(sources[p]))
        if not np.array_equal(values, truth):
            run.wrong += 1


def _replay(g, proxy, spec, sources, journal: Path, tracer: Tracer,
            run: Run) -> Dict[int, float]:
    """Per-layer query cost on the window's first REPLAYS sources."""
    two_phase_s, tp_edges = [], []
    for s in sources[:REPLAYS]:
        t0 = time.perf_counter()
        with tracer.span("core.two_phase"):
            res = two_phase(g, proxy, spec, int(s))
        two_phase_s.append(time.perf_counter() - t0)
        tp_edges.append(res.total.edges_processed)
    scratch_s, edges, iterations = [], [], []
    for s in sources[:REPLAYS]:
        stats = RunStats()
        t0 = time.perf_counter()
        with tracer.span("engines.evaluate_query"):
            evaluate_query(g, spec, int(s), stats=stats)
        scratch_s.append(time.perf_counter() - t0)
        edges.append(stats.edges_processed)
        iterations.append(stats.iterations)
    telemetry_s = []
    with tracer.span("obs.telemetry"):
        with obs.telemetry(trace_path=journal):
            for s in sources[:TAX_REPLAYS]:
                t0 = time.perf_counter()
                with tracer.span("core.two_phase", telemetry=True):
                    two_phase(g, proxy, spec, int(s))
                telemetry_s.append(time.perf_counter() - t0)
    n_tax = len(telemetry_s)
    L = run.layers
    L["core.two_phase_p50_ms"] = _ms(np.median(two_phase_s))
    L["core.two_phase_p95_ms"] = _ms(np.percentile(two_phase_s, 95))
    L["engines.evaluate_query_ms"] = _ms(np.median(scratch_s))
    L["engines.edges_per_query"] = float(np.mean(edges))
    L["engines.iterations_per_query"] = float(np.mean(iterations))
    L["engines.edges_per_s"] = sum(edges) / sum(scratch_s)
    L["core.speedup_vs_scratch"] = sum(scratch_s) / sum(two_phase_s)
    L["core.edge_reduction"] = sum(edges) / max(1, sum(tp_edges))
    L["obs.tax_pct"] = 100.0 * (
        sum(telemetry_s) / sum(two_phase_s[:n_tax]) - 1.0)
    L["obs.journal_bytes_per_query"] = journal.stat().st_size / n_tax
    return dict(enumerate(two_phase_s))


def _ms(seconds: float) -> float:
    return float(seconds) * 1e3


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, tracer: Tracer) -> Run:
    """Run ``w`` once; the caller owns (and removes) ``workdir``."""
    run = Run(w.batches)
    spec = get_spec(QUERY)
    rng = np.random.default_rng(seed)
    g0 = load_zoo_graph(w.graph, scale_delta=w.scale_delta)
    path = save_graph(g0, workdir / "graph.npz")
    run.graph_bytes = path.stat().st_size
    sources = draw_sources(g0, rng, POOL)
    check = set(rng.choice(POOL, size=CHECKED, replace=False).tolist())
    tracer.enabled = trace
    stream, fingerprints, run.mutate_s = make_stream(
        g0, w.batches, seed, tracer)

    kept: Dict[int, np.ndarray] = {}
    wal, frozen = workdir / "wal", workdir / "wal-frozen"
    with (obs.telemetry(trace_path=workdir / "journal.jsonl")
          if w.telemetry else contextlib.nullcontext()):
        with tracer.span("evolve.maintainer_init"):
            writer = EpochMaintainer(
                g0, spec, wal=WalWriter(wal, fsync=FSYNC),
                snapshot_every=SNAPSHOT_EVERY,
            )
        _apply(writer, stream, 0, tracer, run)
        shutil.copytree(wal, frozen)
        for rep in range(REPS):
            if rep:
                svc.close()
            svc = _setup(path, spec, tracer, run)
            _writer_steps(writer, stream, (rep + 1) * w.batches // 2 // REPS,
                          frozen, spec, tracer, run)
        try:
            for i in range(WARMUP):
                svc.submit(QUERY, int(sources[-1 - i])).result(
                    RESULT_TIMEOUT_S)
            _window(svc, sources, seconds, kept, check, tracer, trace,
                    run)
        finally:
            svc.close()
    run.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    _check_answers(kept, sources, svc.g, spec, tracer, run)
    _writer_steps(writer, stream, w.batches, frozen, spec, tracer, run)
    stats = writer.wal.stats()
    run.wal_fsyncs, run.wal_bytes = stats["fsyncs"], stats["bytes"]
    writer.wal.close()
    # The model graph is the oracle for the last epoch and every recovery.
    expect = fingerprints[len(run.apply_s)]
    got = writer.store.current().fingerprint
    if got != expect:
        run.errors.append(f"last epoch {got[:12]} != model {expect[:12]}")
    if set(run.recovered) - {fingerprints[1]}:
        run.errors.append("a recovered epoch differs from the model")

    if trace:
        raw = _replay(svc.g, svc.proxy, spec, sources,
                      workdir / "tax.jsonl", tracer, run)
        run.layers["serve.overhead_ms"] = _ms(_pct([
            r.latency_s - raw[r.position] for r in run.requests
            if r.position in raw and r.status == STATUS_OK
        ], 50))
    return run


# ----------------------------------------------------------------------
# Numbers
# ----------------------------------------------------------------------
def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def _query_slices(run: Run) -> Tuple[float, List[List[float]]]:
    """Latencies of the requests served in full, by the equal slices of
    the window they completed in; returns the slice width too."""
    n = max(1, int(run.window_s // QUERY_SLICE_S))
    start = run.window_end - run.window_s
    width = run.window_s / n
    slices: List[List[float]] = [[] for _ in range(n)]
    for r in run.requests:
        if r.status == STATUS_OK and start <= r.done <= run.window_end:
            slices[min(int((r.done - start) / width), n - 1)].append(
                r.latency_s)
    return width, slices


def end_to_end(run: Run) -> Dict[str, float]:
    """Query figures are medians over the slices of the window."""
    width, slices = _query_slices(run)
    return {
        "setup_s": float(np.median(run.setup_s)),
        "query_qps": float(np.median([len(x) / width for x in slices])),
        "query_p50_ms": _ms(np.median([_pct(x, 50) for x in slices])),
        "apply_p50_ms": _ms(_pct(run.apply_s, 50)),
        "apply_p75_ms": _ms(_pct(run.apply_s, 75)),
        "recover_s": float(np.median(run.recover_s)),
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(run: Run) -> Dict[str, float]:
    served = [r for r in run.requests if r.status == STATUS_OK]
    _width, slices = _query_slices(run)
    out = {
        "io.load_graph_ms": _ms(np.median(run.load_s)),
        "io.graph_bytes": float(run.graph_bytes),
        "core.build_cg_ms": _ms(np.median(run.build_s)),
        "core.cg_edges": float(run.cg_edges),
        "core.cg_edge_fraction": run.cg_edge_fraction,
        "core.cg_bytes": float(run.cg_bytes),
        "core.phase1_ms": _ms(_pct([r.phase1_s for r in served], 50)),
        "core.phase2_ms": _ms(_pct([r.phase2_s for r in served], 50)),
        "core.phase1_edges": _pct([r.phase1_edges for r in served], 50),
        "core.phase2_edges": _pct([r.phase2_edges for r in served], 50),
        "core.impacted": _pct([r.impacted for r in served], 50),
        # At both workloads' rates a 2-s slice holds >= 10 samples beyond
        # its p95, and the window >= 10 beyond its p99.
        "serve.latency_p95_ms": _ms(np.median([_pct(x, 95) for x in slices])),
        "serve.latency_p99_ms": _ms(_pct([x for s in slices for x in s], 99)),
        "serve.queue_wait_ms": _ms(_pct([r.wait_s for r in served], 50)),
        "serve.service_ms": _ms(_pct([r.service_s for r in served], 50)),
        "serve.rejected": float(sum(r.status == STATUS_REJECTED
                                    for r in run.requests)),
        "serve.degraded": float(sum(r.status == STATUS_DEGRADED
                                    for r in run.requests)),
        "serve.shed": float(sum(r.shed for r in run.requests)),
        "graph.mutate_ms": _ms(np.median(run.mutate_s)),
        "evolve.apply_ms": _ms(_pct(run.apply_s, 50)),
        "evolve.wal.fsyncs": float(run.wal_fsyncs),
        "evolve.wal.bytes_per_batch": run.wal_bytes / max(1, len(run.apply_s)),
        "evolve.recover_replayed": float(run.recover_replayed),
        "evolve.recover_ms_per_batch": _ms(
            np.median(run.recover_s) / max(1, run.recover_replayed)),
        "bench.trace_overhead_pct": _trace_overhead_pct(run),
    }
    out.update(run.layers)
    return out


def _trace_overhead_pct(run: Run) -> float:
    """Throughput lost in traced slices against untraced ones."""
    done = np.sort([r.done for r in run.requests])
    rate = {True: [0, 0.0], False: [0, 0.0]}
    for start, end, traced in run.trace_slices:
        n = np.searchsorted(done, end) - np.searchsorted(done, start)
        rate[traced][0] += int(n)
        rate[traced][1] += end - start
    on, off = (n / t if t else float("nan") for n, t in
               (rate[True], rate[False]))
    return 100.0 * (off - on) / off
