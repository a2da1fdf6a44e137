"""Deterministic invariant sweep backing the `verify` CLI command.

Every check is reported as {name, measured, tolerance, comparison, pass};
"comparison" is "<" for error bounds and ">" for lower bounds. Oracle-backed
checks are included only when the dimension is within the dense-oracle cap,
so the report contents depend only on (d, n, seed).
"""

from __future__ import annotations

import operator
from typing import Any

import numpy as np

from .analysis import (
    entropies,
    commutator_qk,
    k_observable_in_q_rep,
    partition,
    partition_to_dict,
    verify_translation_identity,
)
from ._tensor import apply_at
from .fourier import (
    dense_fourier_oracle,
    planewave,
    single_qudit_fourier,
    to_k_rep,
    to_q_rep,
)
from .gates import (
    Circuit,
    ControlledAdd,
    DoublyControlledAdd,
    Gate,
    SingleQuditUnitary,
    Translation,
    apply_gates,
    build_functional_circuit,
    run_circuit,
    translation_gate_matrix,
)
from .groups import (
    ORACLE_DIM_CAP,
    DigitLabel,
    QuditSystem,
    enumerate_labels,
    functional_values,
    is_prime,
)
from .states import Representation, basis_state, random_state

DEFAULT_SEED = 0

_ROUND_TRIP_STATES = 20
_ENTROPY_STATES = 100
_RANDOM_GATES = 100
_EXHAUSTIVE_DIM_CAP = 81
_FACTORIZATION_DIM_CAP = 256
_FUNCTIONAL_CASE_CAP = 2048
_COMPARISONS = {"<": operator.lt, ">": operator.gt}

# Hand-enumerated 2-qutrit partition tables used as a fixed regression
# reference when verifying d=3, n=2.
_QUTRIT_REFERENCE_PARTITIONS = {
    (0, 1): [["00", "10", "20"], ["01", "11", "21"], ["02", "12", "22"]],
    (2, 1): [["00", "11", "22"], ["01", "12", "20"], ["02", "10", "21"]],
}


def _check(
    name: str, measured: float, tolerance: float, comparison: str
) -> dict[str, Any]:
    return {
        "name": name,
        "measured": float(measured),
        "tolerance": float(tolerance),
        "comparison": comparison,
        "pass": bool(_COMPARISONS[comparison](measured, tolerance)),
    }


def _functional_size(d: int, n: int) -> int:
    """Largest m <= n with d**(2m) <= _FUNCTIONAL_CASE_CAP; 0 (no table) if d >= 46."""
    return max(m for m in range(n + 1) if d ** (2 * m) <= _FUNCTIONAL_CASE_CAP)


def _random_gate(rng: np.random.Generator, n: int, d: int) -> Gate:
    # The first two classes fit any n; the controlled adds need 2 and 3 wires.
    kinds = (Translation, SingleQuditUnitary, ControlledAdd, DoublyControlledAdd)
    kind = kinds[int(rng.integers(min(n + 1, len(kinds))))]
    if kind is SingleQuditUnitary:
        gaussian = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, _ = np.linalg.qr(gaussian)
        return SingleQuditUnitary(target=int(rng.integers(n)), matrix=q)
    if kind is Translation:
        wires = [rng.integers(n)]
    else:
        wires = rng.choice(n, size=len(kind.wire_fields), replace=False)
    digits = [rng.integers(d) for _ in kind.digit_fields]
    names = kind.wire_fields + kind.digit_fields
    return kind(**{name: int(v) for name, v in zip(names, [*wires, *digits])})


def run_verification(d: int, n: int, seed: int = DEFAULT_SEED) -> dict[str, Any]:
    """Run the invariant sweep for one (d, n) system; deterministic per seed."""
    system = QuditSystem(n, d)
    system.require_oracle_dim()
    rng = np.random.default_rng(seed)
    dim = system.dim
    checks: list[dict[str, Any]] = []

    f = single_qudit_fourier(d)
    checks.append(
        _check(
            "single_qudit_fourier_unitary",
            np.max(np.abs(f @ f.conj().T - np.eye(d))),
            1e-12,
            "<",
        )
    )

    round_trip_dev = 0.0
    norm_dev = 0.0
    for _ in range(_ROUND_TRIP_STATES):
        psi = random_state(system, Representation.Q, rng)
        phi = to_k_rep(psi)
        norm_dev = max(
            norm_dev, abs(float(np.sum(np.abs(phi.amplitudes) ** 2)) - 1.0)
        )
        back = to_q_rep(phi)
        round_trip_dev = max(
            round_trip_dev, float(np.max(np.abs(back.amplitudes - psi.amplitudes)))
        )
    checks.append(_check("fourier_round_trip", round_trip_dev, 1e-12, "<"))
    checks.append(_check("fourier_norm_preservation", norm_dev, 1e-12, "<"))

    labels = enumerate_labels(system)
    oracle = dense_fourier_oracle(system)
    kq = k_observable_in_q_rep(d).matrix
    transform_dev = oracle_dev = eigen_dev = 0.0
    waves = []
    # Per label, not one batch over np.eye(dim): a batched tensordot rounds
    # differently from per-vector calls, which would change measured values.
    for col, k in enumerate(labels):
        wave = planewave(k).amplitudes
        transformed = to_q_rep(basis_state(k, Representation.K)).amplitudes
        transform_dev = max(transform_dev, float(np.max(np.abs(wave - transformed))))
        if dim <= _FACTORIZATION_DIM_CAP:
            column_dev = float(np.max(np.abs(transformed - oracle[:, col])))
            oracle_dev = max(oracle_dev, column_dev)
        if dim <= _EXHAUSTIVE_DIM_CAP:
            waves.append(wave)
            for wire, kj in enumerate(k.digits):
                acted = apply_at(wave, d, n, (wire,), kq)
                eigen_dev = max(eigen_dev, float(np.max(np.abs(acted - kj * wave))))
    checks.append(_check("planewave_matches_transform", transform_dev, 1e-12, "<"))

    if dim <= _EXHAUSTIVE_DIM_CAP:
        gram = np.array(waves).conj() @ np.array(waves).T
        checks.append(
            _check(
                "planewave_orthonormality",
                np.max(np.abs(gram - np.eye(dim))),
                1e-12,
                "<",
            )
        )

    checks.append(
        _check(
            "dense_oracle_unitary",
            np.max(np.abs(oracle @ oracle.conj().T - np.eye(dim))),
            1e-11,
            "<",
        )
    )
    if dim <= _FACTORIZATION_DIM_CAP:
        checks.append(_check("transform_matches_dense_oracle", oracle_dev, 1e-12, "<"))

    if d * d <= ORACLE_DIM_CAP:
        dev = 0.0
        for mult in range(d):
            cadd = Circuit(QuditSystem(2, d), (ControlledAdd(0, 1, mult),))
            # One control digit j at a time: the d columns |j, c> of the
            # gate's matrix, whose only nonzero block is row block j.
            for j in range(d):
                got = apply_gates(cadd, np.eye(d * d, d, -j * d, dtype=np.complex128))
                got[j * d : (j + 1) * d] -= translation_gate_matrix(d, mult * j % d)
                dev = max(dev, float(np.max(np.abs(got))))
        checks.append(_check("controlled_add_block_structure", dev, 1e-12, "<"))

    m = _functional_size(d, n)
    if m:
        circuit, _layout = build_functional_circuit(m, d)
        sub_labels = enumerate_labels(QuditSystem(m, d))
        width = d**m
        cols = np.arange(width)
        func_dev = 0.0
        partition_mismatches = 0
        for i, k in enumerate(sub_labels):
            # One batch per handler k: column q starts in |k, q, 0>.
            starts = (i * width + cols) * d
            amps = np.zeros((circuit.system.dim, width), dtype=np.complex128)
            amps[starts, cols] = 1.0
            out = apply_gates(circuit, amps)
            # The circuit's own holder outcomes, cross-checked against the
            # partition classes through an independent code path.
            holders = np.argmax(np.abs(out), axis=0) % d
            classes = partition(k).classes
            partition_mismatches += sum(
                q not in classes[holder] for q, holder in zip(sub_labels, holders)
            )
            out[starts + functional_values(k), cols] -= 1.0
            func_dev = max(func_dev, float(np.max(np.abs(out))))
        checks.append(_check("functional_circuit_exhaustive", func_dev, 1e-12, "<"))
        checks.append(
            _check("partition_matches_circuit", float(partition_mismatches), 0.5, "<")
        )

    if d == 3 and n == 2:
        mismatches = 0
        for k_digits, expected_classes in _QUTRIT_REFERENCE_PARTITIONS.items():
            doc = partition_to_dict(partition(DigitLabel(k_digits, system)))
            if doc["classes"] != expected_classes:
                mismatches += 1
        checks.append(
            _check("qutrit_reference_partitions", float(mismatches), 0.5, "<")
        )

    checks.append(
        _check(
            "translation_identity",
            max(verify_translation_identity(d, q) for q in range(d)),
            1e-10,
            "<",
        )
    )

    checks.append(
        _check(
            "wavenumber_observable_hermitian",
            np.max(np.abs(kq - kq.conj().T)),
            1e-12,
            "<",
        )
    )
    checks.append(
        _check(
            "wavenumber_observable_spectrum",
            np.max(np.abs(np.sort(np.linalg.eigvalsh(kq)) - np.arange(d))),
            1e-10,
            "<",
        )
    )

    if dim <= _EXHAUSTIVE_DIM_CAP:
        checks.append(_check("planewave_eigenstate_relation", eigen_dev, 1e-10, "<"))

    checks.append(_check("commutator_nonzero", commutator_qk(d)[1], 0.1, ">"))

    min_sum = float("inf")
    for _ in range(_ENTROPY_STATES):
        report = entropies(random_state(system, Representation.Q, rng))
        min_sum = min(min_sum, report.sum)
    checks.append(_check("entropy_sum_positive", min_sum, 0.0, ">"))

    full_entropy = n * np.log(d)
    dev = 0.0
    for idx in {0, dim // 2, dim - 1}:
        label = labels[idx]
        basis_report = entropies(basis_state(label, Representation.Q))
        dev = max(dev, abs(basis_report.h_q))
        dev = max(dev, abs(basis_report.h_k - full_entropy))
        wave_report = entropies(planewave(label))
        dev = max(dev, abs(wave_report.h_q - full_entropy))
        dev = max(dev, abs(wave_report.h_k))
    checks.append(_check("entropy_extremes", dev, 1e-12, "<"))

    gates = tuple(_random_gate(rng, n, d) for _ in range(_RANDOM_GATES))
    out = run_circuit(
        Circuit(system, gates), random_state(system, Representation.Q, rng)
    )
    checks.append(
        _check(
            "random_circuit_norm_drift",
            abs(float(np.sum(np.abs(out.amplitudes) ** 2)) - 1.0),
            1e-10,
            "<",
        )
    )

    return {
        "d": d,
        "n": n,
        "seed": seed,
        "d_is_prime": is_prime(d),
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
