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

import operator
from typing import Any

import numpy as np

from .analysis import (
    _entropies,
    commutator_qk,
    k_observable_in_q_rep,
    partition,
    partition_to_dict,
    verify_translation_identity,
)
from ._tensor import apply_at
from .fourier import (
    _ORACLE_BLOCK,
    _oracle_exponents,
    _scaled_roots,
    _transform,
    planewave_rows,
    single_qudit_fourier,
)
from .gates import (
    Circuit,
    ControlledAdd,
    DoublyControlledAdd,
    Gate,
    SingleQuditUnitary,
    Translation,
    _unitarity_dev,
    apply_gates,
    build_functional_circuit,
    translation_gate_matrix,
)
from .groups import (
    ORACLE_DIM_CAP,
    DigitLabel,
    QuditSystem,
    enumerate_labels,
    functional_rows,
    functional_values,
    index_to_label,
    is_prime,
)
from .states import Representation, basis_state, random_state

DEFAULT_SEED = 0

_ROUND_TRIP_STATES = 20
_ENTROPY_STATES = 100
_RANDOM_GATES = 100
_FUNCTIONAL_CASE_CAP = 2048
_ONE_QUDIT_D_CAP = 256  # largest d at n = 1, where the sweep grows as d**4
_PROBES = 8  # Gaussian columns X in _oracle_pass
# rows of O per take in _oracle_pass, few since take first copies its index rows to intp
_GATHER_ROWS = 4
_COMPARISONS = {"<": operator.lt, ">": operator.gt}

# Hand-enumerated 2-qutrit partition tables used as a fixed regression
# reference when verifying d=3, n=2.
_QUTRIT_REFERENCE_PARTITIONS = {
    (0, 1): [["00", "10", "20"], ["01", "11", "21"], ["02", "12", "22"]],
    (2, 1): [["00", "11", "22"], ["01", "12", "20"], ["02", "10", "21"]],
}


def _label_digits(system: QuditSystem) -> np.ndarray:
    """Row i holds the digits of label i, the first digit most significant."""
    return np.indices((system.d,) * system.n).reshape(system.n, -1).T


def _planewave_dev(system: QuditSystem, roots: np.ndarray) -> float:
    """Max |planewave_rows row k - row k of O| over every label k, from integers.

    Both are gathers of roots, through functional_rows and through O's
    exponent table, so they differ only where the tables do, and by
    |roots[a] - roots[b]| there: the bits the complex difference would give.
    The tables are built and compared _ORACLE_BLOCK labels at a time.
    """
    digits = _label_digits(system)
    dev = 0.0
    for start in range(0, system.dim, _ORACLE_BLOCK):
        labels = slice(start, start + _ORACLE_BLOCK)
        waves = functional_rows(digits[labels], system.d)
        oracle = _oracle_exponents(system, labels)
        differ = waves != oracle
        if differ.any():
            gap = np.abs(roots[waves[differ]] - roots[oracle[differ]])
            dev = max(dev, float(np.max(gap)))
    return dev


def _oracle_pass(
    system: QuditSystem, probe_rng: np.random.Generator
) -> dict[str, float]:
    """The dense oracle O against its own unitarity, F^{⊗n} and the planewaves.

    "unitary" is max |O†O X - X| / max |X| and "transform" max |O X - F^{⊗n} X|
    / max |X|, for Gaussian columns X; "planewave" is _planewave_dev, exactly 0
    unless functional_rows and the exponent table disagree.
    """
    d, n, dim = system.d, system.n, system.dim
    roots = _scaled_roots(system)
    # the integer compare ends, with its scratch, before any complex row block
    # exists: inside the block loop it raised verify's peak RSS by about 2 MB
    # at (5, 5), (3, 7) and (2, 11)
    planewave_dev = _planewave_dev(system, roots)
    x = probe_rng.standard_normal((dim, 2 * _PROBES)).view(np.complex128)
    block_buf = np.empty((min(dim, _ORACLE_BLOCK), dim), dtype=roots.dtype)
    ox = np.empty((dim, _PROBES), dtype=roots.dtype)
    # Σ (B X)^H B over O's row blocks B is (O†O X)^H: dim²·p work, not dim³
    acc = np.zeros((_PROBES, dim), dtype=roots.dtype)
    for start in range(0, dim, _ORACLE_BLOCK):
        rows = slice(start, start + _ORACLE_BLOCK)
        exponents = _oracle_exponents(system, rows)
        block = block_buf[: len(exponents)]
        for sub in range(0, len(block), _GATHER_ROWS):
            chunk = block[sub : sub + _GATHER_ROWS]
            # take's intp copy of the exponents is one chunk; mode="clip"
            # writes straight into out, "raise" fills a temporary first
            roots.take(exponents[sub : sub + len(chunk)], out=chunk, mode="clip")
        ox[rows] = block @ x
        acc += np.conj(ox[rows]).T @ block
    # the row block is freed before the transform's scratch is made
    del block_buf, block, chunk, exponents
    fx = apply_at(x, d, n, range(n), single_qudit_fourier(d))
    scale = np.max(np.abs(x))
    return {
        "unitary": float(np.max(np.abs(acc - x.conj().T)) / scale),
        "transform": float(np.max(np.abs(ox - fx)) / scale),
        "planewave": planewave_dev,
    }


def _norm_dev(amplitudes: np.ndarray) -> float:
    return abs(float(np.sum(np.abs(amplitudes) ** 2)) - 1.0)


def _functional_size(d: int, n: int) -> int:
    """Largest m <= n with d**(2m) <= _FUNCTIONAL_CASE_CAP; 0 (no table) if d >= 46."""
    return max(m for m in range(n + 1) if d ** (2 * m) <= _FUNCTIONAL_CASE_CAP)


def _round_trip(system: QuditSystem, rng: np.random.Generator) -> dict[str, float]:
    """Max |F(F† psi) - psi| and max k-rep norm drift over raw random psi buffers."""
    round_trip_dev = norm_dev = 0.0
    for _ in range(_ROUND_TRIP_STATES):
        psi = random_state(system, Representation.Q, rng).amplitudes
        phi = _transform(psi, system, Representation.K)
        norm_dev = max(norm_dev, _norm_dev(phi))
        back = _transform(phi, system, Representation.Q)
        round_trip_dev = max(round_trip_dev, float(np.max(np.abs(back - psi))))
    return {"round_trip": round_trip_dev, "norm": norm_dev}


def _functional_table(d: int, m: int) -> dict[str, float]:
    """Every (k, q) of the m-qudit functional circuit against functional_values."""
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
    if n == 1 and d > _ONE_QUDIT_D_CAP:
        raise ValueError(
            f"one-qudit verify is capped at d = {_ONE_QUDIT_D_CAP}, got d = {d}"
        )
    rng = np.random.default_rng(seed)
    dim = system.dim
    m = _functional_size(d, n)
    kq = k_observable_in_q_rep(d).matrix
    # first, middle and last label: the ones that the spot checks sample
    spot_labels = [index_to_label(i, system) for i in sorted({0, dim // 2, dim - 1})]
    spot_digits = np.array([k.digits for k in spot_labels])

    # the round trip is rng's first draw; the oracle's probes have a generator
    # of their own, and the table draws nothing
    trip = _round_trip(system, rng)
    oracle = _oracle_pass(system, np.random.default_rng([seed, 1]))
    table = _functional_table(d, m) if m >= 1 else {}

    def planewave_dev() -> float:
        # the pass ties every planewave to the oracle; F applied to each spot
        # label's k-rep point mass is compared with that label's planewave
        dev = oracle["planewave"]
        for k, wave in zip(spot_labels, planewave_rows(system, spot_digits)):
            point = basis_state(k, Representation.K).amplitudes
            direct = _transform(point, system, Representation.Q)
            dev = max(dev, float(np.max(np.abs(direct - wave))))
        return dev

    # the two exhaustive rows build every planewave anew: the oracle pass keeps none
    def waves() -> np.ndarray:
        return planewave_rows(system, _label_digits(system))

    def eigen_dev() -> float:
        return max(
            float(np.max(np.abs(apply_at(wave, d, n, (wire,), kq) - kj * wave)))
            for k, wave in zip(_label_digits(system).tolist(), waves())
            for wire, kj in enumerate(k)
        )

    def min_entropy_sum() -> float:
        reports = (
            _entropies(random_state(system, Representation.Q, rng).amplitudes, system)
            for _ in range(_ENTROPY_STATES)
        )
        return min(report.sum for report in reports)

    def entropy_extremes_dev() -> float:
        full_entropy = n * np.log(d)
        dev = 0.0
        for label, row in zip(spot_labels, planewave_rows(system, spot_digits)):
            point = _entropies(basis_state(label, Representation.Q).amplitudes, system)
            dev = max(dev, abs(point.h_q))
            dev = max(dev, abs(point.h_k - full_entropy))
            wave = _entropies(row, system)
            dev = max(dev, abs(wave.h_q - full_entropy))
            dev = max(dev, abs(wave.h_k))
        return dev

    def random_circuit_norm_dev() -> float:
        gates = tuple(_random_gate(rng, n, d) for _ in range(_RANDOM_GATES))
        state = random_state(system, Representation.Q, rng)
        return _norm_dev(apply_gates(Circuit(system, gates), state.amplitudes))

    # (name, condition, tolerance, comparison, measure), in report order; a
    # check is measured and reported only when its condition holds
    rows = (
        ("single_qudit_fourier_unitary", True, 1e-12, "<",
         lambda: _unitarity_dev(single_qudit_fourier(d))),
        ("fourier_round_trip", True, 1e-12, "<",
         lambda: trip["round_trip"]),
        ("fourier_norm_preservation", True, 1e-12, "<",
         lambda: trip["norm"]),
        ("planewave_matches_transform", True, 1e-12, "<",
         planewave_dev),
        # the conjugated planewaves, as rows, are unitary iff orthonormal
        ("planewave_orthonormality", n >= 2 and dim <= 81, 1e-12, "<",
         lambda: _unitarity_dev(np.conj(waves()))),
        ("dense_oracle_unitary", True, 1e-11, "<",
         lambda: oracle["unitary"]),
        ("transform_matches_dense_oracle", True, 1e-12, "<",
         lambda: oracle["transform"]),
        ("controlled_add_block_structure", d * d <= ORACLE_DIM_CAP, 1e-12, "<",
         lambda: _controlled_add_dev(d)),
        ("functional_circuit_exhaustive", m >= 1, 1e-12, "<",
         lambda: table["circuit"]),
        ("partition_matches_circuit", m >= 1, 0.5, "<",
         lambda: table["partition"]),
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
