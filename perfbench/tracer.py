"""In-memory spans recorded by the benchmark around calls into each layer.

The program under test carries no benchmark spans: every span here wraps a
public call (``load_graph``, ``build_cg``, ``submit``, ``two_phase``, ...)
from the benchmark's own code. Spans stay in memory while the benchmark
runs and are written out once at the end, with each layer's self time: a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

# (span id, parent id, name, start, end, attributes)
Span = Tuple[int, Optional[int], str, float, float, dict]


class Tracer:
    """Records nested spans per thread while ``enabled`` is true.

    ``enabled`` is read when a span opens, so flipping it mid-run (the
    benchmark alternates traced and untraced slices to measure the
    tracing overhead) never leaves a span half recorded.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name: str, **attrs):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, attrs)

    @contextlib.contextmanager
    def _record(self, name: str, attrs: dict) -> Iterator[None]:
        parent = getattr(self._local, "current", None)
        with self._lock:
            span_id = next(self._ids)
        self._local.current = span_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._local.current = parent
            with self._lock:
                self.spans.append((span_id, parent, name, start, end, attrs))

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self time in milliseconds."""
        with self._lock:
            spans = list(self.spans)
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, end, _attrs in spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for sid, _parent, name, start, end, _attrs in spans:
            row = out.setdefault(name, {"count": 0, "total_ms": 0.0,
                                        "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child_time[sid]) * 1e3
        return out

    def write(self, path, header: dict) -> None:
        """One JSON line per span after a header line holding self times."""
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s[3])
        t0 = spans[0][3] if spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "self_times": self.self_times()}))
            fh.write("\n")
            for sid, parent, name, start, end, attrs in spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_ms": (start - t0) * 1e3,
                    "duration_ms": (end - start) * 1e3, **attrs,
                }))
                fh.write("\n")
