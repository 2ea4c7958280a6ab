"""Smoke tests of the benchmark's workloads.

``perfbench/workloads.py`` calls the package the way the benchmark runs it:
for Hamiltonian learning, one ``KRowEngine`` shared by selection, exact K
and a 100-shuffle constraint-count curve; for the cross-platform route, a
GHZ(6) campaign of three devices through a repository; for energy
verification, a 10-qubit chain against an honest prover and three
cheaters.  Running one setup and one job of each here, against the package
under test, catches a change that breaks those calls or their checks
without waiting for the benchmark's own self-test
(``perfbench/test_counts.py``).
"""

import pytest

from oracle_helpers import assert_ground_state_matches_dense, load_perfbench
from qverify.qsim import QubitBasis


def test_hubbard_exact_job_passes_its_checks():
    spans, workloads = load_perfbench("spans"), load_perfbench("workloads")
    workload = workloads.HubbardExact()
    inputs = workload.setup(0)
    assert workload.job(inputs, spans.NullTracer()) == []


def test_xplatform_job_passes_its_checks(tmp_path):
    # 5-sigma Fmax, compare bit-identity with the direct estimate, complete matrix
    spans, workloads = load_perfbench("spans"), load_perfbench("workloads")
    workload = workloads.XPlatform(tmp_path)
    inputs = workload.setup(0)
    assert workload.job(inputs, spans.NullTracer()) == []


def test_energy_verify_job_passes_its_checks():
    # honest accepted within 5 sigma, a complete transcript, and every
    # cheater rejected in more than 90% of its sessions
    spans, workloads = load_perfbench("spans"), load_perfbench("workloads")
    workload = workloads.EnergyVerify()
    inputs = workload.setup(0)
    assert workload.job(inputs, spans.NullTracer()) == []


@pytest.mark.parametrize("seed", [0, 1])
def test_energy_verify_ground_state_matches_dense_oracle(seed):
    # the 10-qubit instance (dim 1,024) lies above the dense/sparse crossover
    instance = load_perfbench("workloads").EnergyVerify().setup(seed).instance
    assert_ground_state_matches_dense(instance.matrix(), QubitBasis(instance.num_qubits))
