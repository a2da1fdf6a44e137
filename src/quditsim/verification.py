"""Deterministic invariant sweep backing the `verify` CLI command.

Every check is reported as {name, measured, tolerance, comparison, pass};
"comparison" is "<" for error bounds and ">" for lower bounds. The checks are
the rows of the table in `run_verification`, in report order, and a check is
reported only when its row's condition on (d, n) holds. For a given
numpy/BLAS build and thread count the report depends only on (d, n, seed);
another BLAS thread count may round a matrix product differently, which can
move a measured value in its last bits but not the checks, their tolerances
or their verdicts.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable, Iterator
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
    _basis_transforms,
    _oracle_exponents,
    _scaled_roots,
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
    _ORACLE_BLOCK,
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
_FUNCTIONAL_CASE_CAP = 2048
_COMPARISONS = {"<": operator.lt, ">": operator.gt}

# Hand-enumerated 2-qutrit partition tables used as a fixed regression
# reference when verifying d=3, n=2.
_QUTRIT_REFERENCE_PARTITIONS = {
    (0, 1): [["00", "10", "20"], ["01", "11", "21"], ["02", "12", "22"]],
    (2, 1): [["00", "11", "22"], ["01", "12", "20"], ["02", "10", "21"]],
}


def _unitarity_dev(u: np.ndarray, roots: np.ndarray | None = None) -> float:
    """max |U U† - 1| over the diagonal and upper blocks; U U† is Hermitian.

    U is u itself or, given roots, roots[u] for an exponent table u, gathered
    one row block at a time into a reused buffer, so U is never held whole.
    """
    shape = (min(len(u), _ORACLE_BLOCK), u.shape[1])
    adjoint_buf = np.empty(shape, dtype=u.dtype if roots is None else roots.dtype)
    row_buf = None if roots is None else np.empty_like(adjoint_buf)

    def rows(i: int) -> np.ndarray:
        block = u[i : i + _ORACLE_BLOCK]
        if roots is None:
            return block
        # mode="clip" writes straight into out; "raise" fills a temporary first
        return roots.take(block, out=row_buf[: len(block)], mode="clip")

    dev = 0.0
    for j in range(0, len(u), _ORACLE_BLOCK):
        row_block = rows(j)
        adjoint_cols = np.conj(row_block, out=adjoint_buf[: len(row_block)]).T
        # the diagonal block first, while row block j is still gathered
        for i in range(j, -1, -_ORACLE_BLOCK):
            block = (row_block if i == j else rows(i)) @ adjoint_cols
            if i == j:
                block[np.diag_indices(len(block))] -= 1.0
            dev = max(dev, float(np.max(np.abs(block))))
    return dev


def _oracle_rows(system: QuditSystem) -> tuple[np.ndarray, np.ndarray]:
    """The dense Fourier oracle as (exponents, roots): its row q is roots[exponents[q]].

    The source of both oracle rows of the table of checks.
    """
    return _oracle_exponents(system), _scaled_roots(system)


def _norm_dev(amplitudes: np.ndarray) -> float:
    return abs(float(np.sum(np.abs(amplitudes) ** 2)) - 1.0)


def _functional_size(d: int, n: int) -> int:
    """Largest m <= n with d**(2m) <= _FUNCTIONAL_CASE_CAP; 0 (no table) if d >= 46."""
    return max(m for m in range(n + 1) if d ** (2 * m) <= _FUNCTIONAL_CASE_CAP)


def _controlled_add_dev(d: int) -> float:
    dev = 0.0
    for mult in range(d):
        cadd = Circuit(QuditSystem(2, d), (ControlledAdd(0, 1, mult),))
        # One control digit j at a time: the d columns |j, c> of the
        # gate's matrix, whose only nonzero block is row block j.
        for j in range(d):
            got = apply_gates(cadd, np.eye(d * d, d, -j * d, dtype=np.complex128))
            got[j * d : (j + 1) * d] -= translation_gate_matrix(d, mult * j % d)
            dev = max(dev, float(np.max(np.abs(got))))
    return dev


def _qutrit_reference_mismatches(system: QuditSystem) -> int:
    return sum(
        partition_to_dict(partition(DigitLabel(k_digits, system)))["classes"]
        != expected_classes
        for k_digits, expected_classes in _QUTRIT_REFERENCE_PARTITIONS.items()
    )


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
    m = _functional_size(d, n)
    f = single_qudit_fourier(d)
    kq = k_observable_in_q_rep(d).matrix
    labels = enumerate_labels(system)
    # first, middle and last label: the indices that the spot checks sample
    spot_indices = {0, dim // 2, dim - 1}

    # The two shared passes, the round trip and the functional table, run
    # once, when the first row that reads them is measured. Rows are measured
    # in table order, which draws from rng in a fixed order: round-trip
    # states, entropy states, then the random circuit.
    @functools.cache
    def round_trip() -> dict[str, float]:
        round_trip_dev = norm_dev = 0.0
        for _ in range(_ROUND_TRIP_STATES):
            psi = random_state(system, Representation.Q, rng)
            phi = to_k_rep(psi)
            norm_dev = max(norm_dev, _norm_dev(phi.amplitudes))
            back = to_q_rep(phi)
            round_trip_dev = max(
                round_trip_dev, float(np.max(np.abs(back.amplitudes - psi.amplitudes)))
            )
        return {"round_trip": round_trip_dev, "norm": norm_dev}

    def waves() -> Iterator[np.ndarray]:
        return (planewave(k).amplitudes for k in labels)

    def transform_dev(columns: Iterable[np.ndarray]) -> float:
        # Column k against the transform of basis functional k from the shared
        # digit tree, whose bits equal to_q_rep's: each of its np.dot calls has
        # a per-label call's shape, and each product column holds one label's
        # entries (a batch over np.eye(dim) changes the shape and the rounding).
        # to_q_rep itself is compared at the spot indices, in the same max.
        dev = 0.0
        for i, (col, transform) in enumerate(zip(columns, _basis_transforms(system))):
            dev = max(dev, float(np.max(np.abs(col - transform))))
            if i in spot_indices:
                direct = to_q_rep(basis_state(labels[i], Representation.K))
                dev = max(dev, float(np.max(np.abs(direct.amplitudes - transform))))
        return dev

    def oracle_columns() -> np.ndarray:
        exponents, roots = _oracle_rows(system)
        return roots[exponents].T

    def eigen_dev() -> float:
        return max(
            float(np.max(np.abs(apply_at(wave, d, n, (wire,), kq) - kj * wave)))
            for k, wave in zip(labels, waves())
            for wire, kj in enumerate(k.digits)
        )

    @functools.cache
    def functional_table() -> dict[str, float]:
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
        return {"circuit": func_dev, "partition": partition_mismatches}

    def min_entropy_sum() -> float:
        return min(
            entropies(random_state(system, Representation.Q, rng)).sum
            for _ in range(_ENTROPY_STATES)
        )

    def entropy_extremes_dev() -> float:
        full_entropy = n * np.log(d)
        dev = 0.0
        for idx in spot_indices:
            label = labels[idx]
            basis_report = entropies(basis_state(label, Representation.Q))
            dev = max(dev, abs(basis_report.h_q))
            dev = max(dev, abs(basis_report.h_k - full_entropy))
            wave_report = entropies(planewave(label))
            dev = max(dev, abs(wave_report.h_q - full_entropy))
            dev = max(dev, abs(wave_report.h_k))
        return dev

    def random_circuit_norm_dev() -> float:
        gates = tuple(_random_gate(rng, n, d) for _ in range(_RANDOM_GATES))
        state = random_state(system, Representation.Q, rng)
        return _norm_dev(run_circuit(Circuit(system, gates), state).amplitudes)

    # (name, condition, tolerance, comparison, measure), in report order; a
    # check is measured and reported only when its condition holds
    rows = (
        ("single_qudit_fourier_unitary", True, 1e-12, "<",
         lambda: _unitarity_dev(f)),
        ("fourier_round_trip", True, 1e-12, "<",
         lambda: round_trip()["round_trip"]),
        ("fourier_norm_preservation", True, 1e-12, "<",
         lambda: round_trip()["norm"]),
        ("planewave_matches_transform", True, 1e-12, "<",
         lambda: transform_dev(waves())),
        # the conjugated planewaves, as rows, are unitary iff orthonormal
        ("planewave_orthonormality", dim <= 81, 1e-12, "<",
         lambda: _unitarity_dev(np.conj(list(waves())))),
        ("dense_oracle_unitary", True, 1e-11, "<",
         lambda: _unitarity_dev(*_oracle_rows(system))),
        ("transform_matches_dense_oracle", dim <= 256, 1e-12, "<",
         lambda: transform_dev(oracle_columns())),
        ("controlled_add_block_structure", d * d <= ORACLE_DIM_CAP, 1e-12, "<",
         lambda: _controlled_add_dev(d)),
        ("functional_circuit_exhaustive", m >= 1, 1e-12, "<",
         lambda: functional_table()["circuit"]),
        ("partition_matches_circuit", m >= 1, 0.5, "<",
         lambda: functional_table()["partition"]),
        ("qutrit_reference_partitions", (d, n) == (3, 2), 0.5, "<",
         lambda: _qutrit_reference_mismatches(system)),
        ("translation_identity", True, 1e-10, "<",
         lambda: max(verify_translation_identity(d, q) for q in range(d))),
        ("wavenumber_observable_hermitian", True, 1e-12, "<",
         lambda: np.max(np.abs(kq - kq.conj().T))),
        ("wavenumber_observable_spectrum", True, 1e-10, "<",
         lambda: np.max(np.abs(np.sort(np.linalg.eigvalsh(kq)) - np.arange(d)))),
        ("planewave_eigenstate_relation", dim <= 81, 1e-10, "<",
         eigen_dev),
        ("commutator_nonzero", True, 0.1, ">",
         lambda: commutator_qk(d)[1]),
        ("entropy_sum_positive", True, 0.0, ">",
         min_entropy_sum),
        ("entropy_extremes", True, 1e-12, "<",
         entropy_extremes_dev),
        ("random_circuit_norm_drift", True, 1e-10, "<",
         random_circuit_norm_dev),
    )
    checks = []
    for name, condition, tolerance, comparison, measure in rows:
        if condition:
            measured = float(measure())
            checks.append(
                {
                    "name": name,
                    "measured": measured,
                    "tolerance": tolerance,
                    "comparison": comparison,
                    "pass": _COMPARISONS[comparison](measured, tolerance),
                }
            )
    return {
        "d": d,
        "n": n,
        "seed": seed,
        "d_is_prime": is_prime(d),
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
