"""Smoke test of the benchmark's Hamiltonian-learning workload.

``perfbench/workloads.py`` calls the ``hamlearn`` API the way the benchmark
runs it: one ``KRowEngine`` shared by selection, exact K and a 100-shuffle
constraint-count curve.  Running one setup and one job here, against the
package under test, catches a change that breaks those calls without
waiting for the benchmark's own self-test (``perfbench/test_counts.py``).
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_hubbard_exact_job_passes_its_checks():
    spans, workloads = _load("spans"), _load("workloads")
    workload = workloads.HubbardExact()
    inputs = workload.setup(0)
    assert workload.job(inputs, spans.NullTracer()) == []
