"""One workload process: set up, run closed-loop jobs, report as JSON.

Started by ``run.py`` with the BLAS thread count already fixed in its
environment.  It prints ``ready`` once set-up is done, so the parent can
time process start to first runnable job.  With ``--setup-only`` it exits
there.  Otherwise it runs jobs one at a time within a window of
``--seconds`` (at least one job), and prints one JSON object as its last
line.

With ``--trace 1`` untraced and traced jobs alternate, so both see the
same machine conditions.  The per-layer numbers come from the traced jobs;
the ratio of the two kinds' job rates is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def run_jobs(workload, inputs, seconds: float, tracers: list) -> dict:
    """Closed loop: the next job starts when the previous one ends.

    A job starts only if, at the median job time so far, it would end within
    ``seconds``, so a run never overshoots its window by most of a job.  Job
    k runs under ``tracers[k % len(tracers)]``; every tracer gets at least
    one job.
    """
    jobs: list[dict] = []
    start = time.perf_counter()
    while len(jobs) < len(tracers) or (
        time.perf_counter() - start + statistics.median(j["wall"] for j in jobs) <= seconds
    ):
        tracer = tracers[len(jobs) % len(tracers)]
        tracer.job = len(jobs)
        t0 = time.perf_counter()
        try:
            with tracer.span(spans.JOB):
                failed = workload.job(inputs, tracer)
        except Exception:  # a job that raises is a failed job; keep measuring
            traceback.print_exc(file=sys.stderr)
            failed = ["raised"]
        jobs.append({"wall": time.perf_counter() - t0, "traced": tracer.on, "failed": failed})
    return {"jobs": jobs, "elapsed": time.perf_counter() - start}


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    workdir = args.out / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, workdir)
    inputs = workload.setup(args.seed)
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    result = {"versions": versions()}
    if args.trace:
        tracer = spans.Tracer()
        result["loop"] = run_jobs(workload, inputs, args.seconds, [spans.NullTracer(), tracer])
        result["layer_seconds"], result["counts"] = tracer.layer_medians()
        result["coverage_min"] = min(tracer.coverage().values())
        tracer.write(args.out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        result["loop"] = run_jobs(workload, inputs, args.seconds, [spans.NullTracer()])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
