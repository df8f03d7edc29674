"""The standing benchmark: one workload, one seed, one line of metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload serve-fr --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. A traced run also
writes its spans, with each layer's self time, to
``.perfbench/trace-<workload>-seed<seed>.jsonl``. The exit code is 0 only
when every operation succeeded and every answer checked was right.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Knobs that change the measured program: fault injection and the
# runtime sanitizer. The artifact cache would let a run skip input
# generation, so the benchmark never reads it.
REFUSED_ENV = ("REPRO_FAULTS", "REPRO_SANITIZE")

def environment(args) -> dict:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        sha = out.stdout.strip() or sha
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "git_sha": sha,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def _number(value: float):
    return float(value) if math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refused = [k for k in REFUSED_ENV if k in os.environ]
    if refused:
        print(f"perfbench: refusing to run with {', '.join(refused)} set",
              file=sys.stderr)
        return 2
    os.environ.pop("REPRO_CACHE_DIR", None)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    env = environment(args)
    print(json.dumps({"environment": env}))

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        run = workloads.run_workload(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), Path(tmp), tracer)
    measured = (workloads.per_layer(run) if args.trace
                else workloads.end_to_end(run))
    if args.trace:
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {"environment": env})
        for name, row in sorted(tracer.self_times().items()):
            print(f"self {name:28s} n={row['count']:6d} "
                  f"self={row['self_ms']:10.1f} ms "
                  f"total={row['total_ms']:10.1f} ms", file=sys.stderr)
    failures = run.errors + ([run.batch_error] if run.batch_error else [])
    for msg in failures:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    print(f"perfbench: {run.checked} answers checked, {run.wrong} wrong; "
          f"{run.failed} of {run.attempted} operations failed",
          file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": _number(measured[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
