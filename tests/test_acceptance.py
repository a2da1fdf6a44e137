"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Each test asserts its stated numerical tolerance and its runtime budget.
"""

import gc
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from quditsim import (
    Circuit,
    ControlledAdd,
    DigitLabel,
    QuditSystem,
    Representation,
    basis_state,
    build_functional_circuit,
    circuit_unitary_oracle,
    commutator_qk,
    dense_fourier_oracle,
    dot_mod,
    entropies,
    enumerate_labels,
    index_to_label,
    k_observable_in_q_rep,
    label_to_index,
    partition,
    planewave,
    random_state,
    run_circuit,
    tensor_product,
    to_k_rep,
    to_q_rep,
    verify_translation_identity,
)
from quditsim._tensor import apply_at

Q = Representation.Q
K = Representation.K


@pytest.fixture(scope="module", autouse=True)
def _warmup():
    # touch the hot paths once so first-call overhead stays out of the budgets
    system = QuditSystem(2, 3)
    run_circuit(
        Circuit(system, (ControlledAdd(0, 1, 1),)),
        basis_state(DigitLabel((0, 0), system), Q),
    )
    to_k_rep(planewave(DigitLabel((1, 1), system)))
    partition(DigitLabel((1, 1), system))
    np.linalg.eigvalsh(np.eye(4))
    # a full collection of the whole test session's heap is many times
    # criterion 01's 1 ms budget, and whether one falls inside its window
    # depends on how many tests were collected; run it here, untimed
    gc.collect()


def _finish(name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed * 1e3:.2f} ms / budget {budget * 1e3:.0f} ms]")
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.4f}s exceeds budget {budget}s"


def test_criterion_01_partition_reproduction():
    # the two 2-qutrit partitions, exact set equality class by class
    expected_01 = [{"00", "10", "20"}, {"01", "11", "21"}, {"02", "12", "22"}]
    expected_21 = [{"00", "11", "22"}, {"01", "20", "12"}, {"10", "21", "02"}]
    system = QuditSystem(2, 3)
    start = time.perf_counter()
    got_01 = partition(DigitLabel((0, 1), system))
    got_21 = partition(DigitLabel((2, 1), system))
    elapsed = time.perf_counter() - start
    ok = [
        {q.ket() for q in cls} for cls in got_01.classes
    ] == expected_01 and [
        {q.ket() for q in cls} for cls in got_21.classes
    ] == expected_21
    _finish(
        "criterion 01", ok, "2-qutrit partitions for k=(0,1) and k=(2,1)",
        elapsed, 1e-3,
    )


def test_criterion_02_controlled_add_gate_matrix():
    # 9x9 block-diagonal form of the multiplier-2 controlled add at d=3
    shift1 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # advances by 2
    shift2 = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])  # advances by 1
    expected = np.zeros((9, 9))
    expected[0:3, 0:3] = np.eye(3)
    expected[3:6, 3:6] = shift1
    expected[6:9, 6:9] = shift2
    system = QuditSystem(2, 3)
    start = time.perf_counter()
    oracle = circuit_unitary_oracle(Circuit(system, (ControlledAdd(0, 1, 2),)))
    elapsed = time.perf_counter() - start
    ok = np.array_equal(oracle.real, expected) and np.all(oracle.imag == 0)
    _finish(
        "criterion 02", ok, "controlled-add(2) equals diag(I, T(2), T(1)) at d=3",
        elapsed, 1e-3,
    )


def _exhaustive_functional(d: int, m: int) -> bool:
    system = QuditSystem(m, d)
    circuit, _ = build_functional_circuit(m, d)
    holder0 = basis_state(DigitLabel((0,), QuditSystem(1, d)), Q)
    for k in enumerate_labels(system):
        handler = basis_state(k, Q)
        for q in enumerate_labels(system):
            start = tensor_product(tensor_product(handler, basis_state(q, Q)), holder0)
            out = run_circuit(circuit, start)
            expected_idx = (
                label_to_index(k) * system.dim + label_to_index(q)
            ) * d + dot_mod(k, q)
            amp = out.amplitudes[expected_idx]
            if abs(abs(amp) - 1.0) > 1e-12:
                return False
            rest = np.abs(out.amplitudes).sum() - abs(amp)
            if rest > 1e-12:
                return False
    return True


def test_criterion_03_functional_circuit_exhaustive():
    start = time.perf_counter()
    ok = (
        _exhaustive_functional(3, 2)   # 81 cases
        and _exhaustive_functional(2, 3)  # 64 cases
        and _exhaustive_functional(6, 1)  # 36 cases
    )
    elapsed = time.perf_counter() - start
    _finish(
        "criterion 03", ok,
        "holder ends in |k.q> for all basis handler/source pairs "
        "(d=3 m=2, d=2 m=3, d=6 m=1)",
        elapsed, 1.0,
    )


def test_criterion_04_superposed_handlers():
    d, m = 3, 2
    system = QuditSystem(m, d)
    circuit, _ = build_functional_circuit(m, d)
    holder0 = basis_state(DigitLabel((0,), QuditSystem(1, d)), Q)
    rng = np.random.default_rng(2024)
    labels = enumerate_labels(system)
    worst = 1.0
    start = time.perf_counter()
    for _ in range(50):
        handlers = random_state(system, Q, rng)
        q = labels[int(rng.integers(system.dim))]
        initial = tensor_product(
            tensor_product(handlers, basis_state(q, Q)), holder0
        )
        out = run_circuit(circuit, initial)
        reference = np.zeros(circuit.system.dim, dtype=complex)
        for k in labels:
            idx = (
                label_to_index(k) * system.dim + label_to_index(q)
            ) * d + dot_mod(k, q)
            reference[idx] = handlers.amplitudes[label_to_index(k)]
        overlap = abs(np.vdot(reference, out.amplitudes)) ** 2
        worst = min(worst, overlap)
    elapsed = time.perf_counter() - start
    _finish(
        "criterion 04", worst >= 1 - 1e-12,
        f"50 random handler states, min fidelity {worst:.15f}",
        elapsed, 1.0,
    )


def test_criterion_05_fourier_duality():
    start = time.perf_counter()
    rng = np.random.default_rng(777)

    combos = [(d, n) for d in (2, 3, 4, 5, 6) for n in range(1, 7)]
    round_trip_dev = 0.0
    count = 0
    while count < 200:
        d, n = combos[count % len(combos)]
        system = QuditSystem(n, d)
        psi = random_state(system, Q, rng)
        back = to_q_rep(to_k_rep(psi))
        round_trip_dev = max(
            round_trip_dev, float(np.max(np.abs(back.amplitudes - psi.amplitudes)))
        )
        count += 1

    planewave_dev = 0.0
    for d in range(2, 10):
        n = 1
        while d**n <= 81:
            system = QuditSystem(n, d)
            for k in enumerate_labels(system):
                delta = basis_state(k, K)
                diff = planewave(k).amplitudes - to_q_rep(delta).amplitudes
                planewave_dev = max(planewave_dev, float(np.max(np.abs(diff))))
            n += 1

    oracle_dev = 0.0
    for d in (2, 3, 4, 5, 6):
        n = 1
        while d**n <= 256:
            system = QuditSystem(n, d)
            oracle = dense_fourier_oracle(system)
            for col, k in enumerate(enumerate_labels(system)):
                diff = to_q_rep(basis_state(k, K)).amplitudes - oracle[:, col]
                oracle_dev = max(oracle_dev, float(np.max(np.abs(diff))))
            n += 1

    elapsed = time.perf_counter() - start
    ok = round_trip_dev < 1e-12 and planewave_dev < 1e-12 and oracle_dev < 1e-12
    _finish(
        "criterion 05", ok,
        f"round trip {round_trip_dev:.2e}, planewave {planewave_dev:.2e}, "
        f"dense oracle {oracle_dev:.2e}",
        elapsed, 10.0,
    )


def test_criterion_06_observable_spectrum_and_eigenstates():
    start = time.perf_counter()
    spectrum_dev = 0.0
    for d in range(2, 17):
        matrix = k_observable_in_q_rep(d).matrix
        hermitian_dev = float(np.max(np.abs(matrix - matrix.conj().T)))
        eigen_dev = float(
            np.max(np.abs(np.sort(np.linalg.eigvalsh(matrix)) - np.arange(d)))
        )
        spectrum_dev = max(spectrum_dev, hermitian_dev, eigen_dev)

    eigenstate_dev = 0.0
    for d in range(2, 10):
        n = 1
        while d**n <= 81:
            system = QuditSystem(n, d)
            kq = k_observable_in_q_rep(d).matrix
            for k in enumerate_labels(system):
                wave = planewave(k)
                for wire in range(n):
                    acted = apply_at(wave.amplitudes, d, n, (wire,), kq)
                    eigenstate_dev = max(
                        eigenstate_dev,
                        float(
                            np.max(
                                np.abs(acted - k.digits[wire] * wave.amplitudes)
                            )
                        ),
                    )
            n += 1
    elapsed = time.perf_counter() - start
    ok = spectrum_dev < 1e-10 and eigenstate_dev < 1e-10
    _finish(
        "criterion 06", ok,
        f"spectrum dev {spectrum_dev:.2e}, eigenstate dev {eigenstate_dev:.2e}",
        elapsed, 5.0,
    )


def test_criterion_07_noncommutation():
    start = time.perf_counter()
    min_norm = min(commutator_qk(d)[1] for d in range(2, 17))
    comm2, _ = commutator_qk(2)
    hand_checked = np.array([[0.0, 0.5], [-0.5, 0.0]])
    exact_dev = float(np.max(np.abs(comm2 - hand_checked)))
    elapsed = time.perf_counter() - start
    ok = min_norm > 0.1 and exact_dev < 1e-12
    _finish(
        "criterion 07", ok,
        f"min commutator norm {min_norm:.4f}, d=2 matrix dev {exact_dev:.2e}",
        elapsed, 1.0,
    )


def test_criterion_08_translation_identity():
    start = time.perf_counter()
    worst = max(
        verify_translation_identity(d, q) for d in range(2, 17) for q in range(d)
    )
    elapsed = time.perf_counter() - start
    _finish(
        "criterion 08", worst < 1e-10,
        f"max deviation {worst:.2e} over all d <= 16 (incl. 4, 6, 8, 9, 12)",
        elapsed, 5.0,
    )


def test_criterion_09_entropic_uncertainty():
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    combos = [(d, n) for d in (2, 3, 6) for n in range(1, 5)]
    min_sum = float("inf")
    for i in range(1000):
        d, n = combos[i % len(combos)]
        report = entropies(random_state(QuditSystem(n, d), Q, rng))
        min_sum = min(min_sum, report.sum)

    extreme_dev = 0.0
    for d, n in combos:
        system = QuditSystem(n, d)
        label = index_to_label(system.dim - 1, system)
        full = n * math.log(d)
        basis_report = entropies(basis_state(label, Q))
        extreme_dev = max(
            extreme_dev, abs(basis_report.h_q), abs(basis_report.h_k - full)
        )
        wave_report = entropies(planewave(label))
        extreme_dev = max(
            extreme_dev, abs(wave_report.h_q - full), abs(wave_report.h_k)
        )
    elapsed = time.perf_counter() - start
    ok = min_sum > 0 and extreme_dev < 1e-12
    _finish(
        "criterion 09", ok,
        f"min entropy sum {min_sum:.4f} over 1000 states, extremes dev {extreme_dev:.2e}",
        elapsed, 10.0,
    )


def test_criterion_10_verify_determinism():
    cmd = [sys.executable, "-m", "quditsim", "verify", "--d", "3", "--n", "2"]
    start = time.perf_counter()
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    elapsed = time.perf_counter() - start
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and json.loads(first.stdout)["all_pass"] is True
    )
    _finish(
        "criterion 10", ok,
        "verify --d 3 --n 2 run twice: byte-identical stdout, exit 0",
        elapsed, 5.0,
    )
