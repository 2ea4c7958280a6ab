"""qverify benchmark: one closed-loop workload per verification route.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload hubbard-exact --seed 0 --seconds 40 --trace 0

Each workload runs in its own process (``worker.py``) with one BLAS and
OpenMP thread, so its timings do not depend on whether a second core of a
shared host happens to be free.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the run header and every metric by name with its unit.  A
full record of the run goes to ``perfbench/out/``.

The program is imported from ``src/`` of the checkout, never installed; a
directory without ``src/qverify`` is refused with exit code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
DEADLINE_S = 170.0
SETUP_SAMPLES = 5  # four set-up-only processes plus the measuring one
BLAS_THREADS = 1
COVERAGE_MIN = 0.9

sys.path.insert(0, str(HERE))
from workloads import NAMES  # noqa: E402

# Metric names and units come from BENCHMARK.json at the checkout root.  A
# per-layer "<span>.s" is the per-job median of the span's summed self time;
# the rest are counts and ratios recorded at the same calls.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchError(RuntimeError):
    pass


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def worker(self, *extra: str) -> tuple[float, str]:
        """Run one worker to completion; return its set-up time and last line."""
        a = self.args
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        cmd = [sys.executable, str(WORKER), "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace), "--out", str(OUT), *extra]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("worker ran past the deadline") from None
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
            raise BenchError(f"worker exited with code {proc.returncode}")
        # CLOCK_MONOTONIC is system-wide, so the worker's reading is comparable
        return float(lines[0].split()[1]) - t0, lines[-1]


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    setups = [runner.worker("--setup-only")[0] for _ in range(SETUP_SAMPLES - 1)]
    setup, out = runner.worker()
    setups.append(setup)
    res = json.loads(out)
    loop = res["loop"]
    metrics = {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(j["wall"] for j in loop["jobs"]),
        "jobs_per_s": len(loop["jobs"]) / loop["elapsed"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    res["setup_samples"] = setups
    return metrics, res


def per_layer(runner: Runner) -> tuple[dict, dict]:
    _, out = runner.worker()
    res = json.loads(out)
    layer_s, counts = res["layer_seconds"], res["counts"]
    walls = {mode: [j["wall"] for j in res["loop"]["jobs"] if j["traced"] == mode] for mode in (False, True)}
    rate = {mode: len(w) / sum(w) for mode, w in walls.items()}
    derived = {
        "hamlearn.build_constraints.useful_ratio": _ratio(
            counts.get("hamlearn.build_constraints.rank", 0.0),
            counts.get("hamlearn.build_constraints.rows_evaluated", 0.0),
        ),
        "hamlearn.count_curve.s_per_shuffle": _ratio(
            layer_s.get("hamlearn.count_curve", 0.0), counts.get("hamlearn.count_curve.shuffles", 0.0)
        ),
        "verifyproto.verify_energy.rounds_per_s": _ratio(
            counts.get("verifyproto.verify_energy.rounds", 0.0),
            layer_s.get("verifyproto.verify_energy", 0.0),
        ),
        "trace.overhead_frac": rate[False] / rate[True] - 1.0,
        "trace.coverage_min": res["coverage_min"],
    }
    # a layer this workload never calls reads 0
    metrics = {
        name: derived[name] if name in derived
        else layer_s.get(name[:-2], 0.0) if name.endswith(".s")
        else counts.get(name, 0.0)
        for name in PER_LAYER
    }
    return metrics, res


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "qverify" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'qverify'}", file=sys.stderr)
        return 2

    runner = Runner(args)
    try:
        metrics, res = (per_layer if args.trace else end_to_end)(runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    jobs = [j["failed"] for j in res["loop"]["jobs"]]
    failed = sum(1 for f in jobs if f)
    coverage_ok = not args.trace or metrics["trace.coverage_min"] >= COVERAGE_MIN
    units = PER_LAYER if args.trace else END_TO_END
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "cpu": _cpu_model(),
        **res["versions"],
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
    record = {"header": header, "metrics": metrics, "failed_checks": sorted({c for f in jobs for c in f}),
              "run": res}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print("# " + json.dumps(header))
    for name, value in metrics.items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    print(f"{'fail_frac':48s} {failed / len(jobs):.6g} 1  ({failed} of {len(jobs)} jobs)")
    if record["failed_checks"]:
        print("failed checks: " + ", ".join(record["failed_checks"]))
    if not coverage_ok:
        print(f"layer spans cover less than {COVERAGE_MIN:.0%} of a job")
    print(json.dumps({
        "correct": failed == 0 and coverage_ok,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
