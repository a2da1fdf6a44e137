"""Observables, expectations, entropies, and basis partitions.

The wavenumber observable on one qudit is diag(0..d-1) in the k-rep; its
q-rep form is the conjugation F diag F_dagger, whose eigenvectors are the
single-qudit planewaves. Expectations contract the d x d observable against
one digit index of the state, so no d**n x d**n operator is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ._tensor import apply_at, wire_marginal
from .fourier import _transform, single_qudit_fourier
from .gates import translation_gate_matrix
from .groups import (
    DigitLabel,
    QuditSystem,
    enumerate_labels,
    functional_values,
    require_index,
)
from .states import Representation, StateVector, probabilities, require_rep


@dataclass(frozen=True, eq=False)
class SingleQuditObservable:
    """Hermitian d x d matrix together with the representation it acts in."""

    d: int
    matrix: np.ndarray
    basis_tag: Representation


@dataclass(frozen=True)
class Partition:
    """The d classes of basis labels induced by one functional label.

    classes[v] lists, in index order, every q with k.q = v (mod d).
    """

    functional: DigitLabel
    classes: tuple[tuple[DigitLabel, ...], ...]


@dataclass(frozen=True)
class EntropyReport:
    """Shannon entropies of the measurement distributions in both reps."""

    h_q: float
    h_k: float
    sum: float
    log_base: str = "e"


def k_observable_in_k_rep(d: int) -> SingleQuditObservable:
    """diag(0, 1, ..., d-1) acting on k-rep amplitudes."""
    d = QuditSystem(1, d).d
    return SingleQuditObservable(
        d, np.diag(np.arange(d, dtype=np.complex128)), Representation.K
    )


def k_observable_in_q_rep(d: int) -> SingleQuditObservable:
    """The wavenumber observable conjugated into the q-representation."""
    f = single_qudit_fourier(d)
    matrix = f @ k_observable_in_k_rep(d).matrix @ f.conj().T
    return SingleQuditObservable(d, matrix, Representation.Q)


def q_observable(d: int) -> SingleQuditObservable:
    """diag(0, 1, ..., d-1) acting on q-rep amplitudes."""
    return replace(k_observable_in_k_rep(d), basis_tag=Representation.Q)


def expect_k(state: StateVector) -> np.ndarray:
    """Per-qudit expectation of the wavenumber observable.

    Note this is the arithmetic mean of a cyclic quantity; see
    k_distributions for the full per-qudit distribution.
    """
    require_rep(state, Representation.Q)
    d, n = state.system.d, state.system.n
    kq = k_observable_in_q_rep(d).matrix
    out = np.empty(n)
    for wire in range(n):
        out[wire] = np.vdot(
            state.amplitudes, apply_at(state.amplitudes, d, n, (wire,), kq)
        ).real
    return out


def expect_q(state: StateVector) -> np.ndarray:
    """Per-qudit expectation of the digit value: sum over q of |psi(q)|^2 * q_j."""
    require_rep(state, Representation.Q)
    values = np.arange(state.system.d)
    marginals = _wire_distributions(probabilities(state), state.system)
    return np.array([float(m @ values) for m in marginals])


def k_distributions(state: StateVector) -> np.ndarray:
    """(n, d) array: row j is the marginal distribution of k_j."""
    require_rep(state, Representation.Q)
    probs = _k_probabilities(state.amplitudes, state.system)
    return _wire_distributions(probs, state.system)


def _k_probabilities(amps: np.ndarray, system: QuditSystem) -> np.ndarray:
    """The k-rep probabilities of a raw q-rep buffer, through one _transform."""
    return np.abs(_transform(amps, system, Representation.K)) ** 2


def _wire_distributions(probs: np.ndarray, system: QuditSystem) -> np.ndarray:
    """(n, d) array: row j is the marginal of digit j under flat probabilities."""
    d, n = system.d, system.n
    return np.array([wire_marginal(probs, d, n, wire) for wire in range(n)])


def commutator_qk(d: int) -> tuple[np.ndarray, float]:
    """[Q, K] in the q-representation and its Frobenius norm (always > 0)."""
    qq = q_observable(d).matrix
    kq = k_observable_in_q_rep(d).matrix
    comm = qq @ kq - kq @ qq
    return comm, float(np.linalg.norm(comm))


def shannon_entropy(probs: np.ndarray, base: float | None = None) -> float:
    """-sum p log p with 0 log 0 = 0; natural log unless a base is given."""
    if base is not None and not (0 < base < math.inf and base != 1):
        raise ValueError(f"log base must be finite, positive and not 1, got {base!r}")
    p = np.asarray(probs, dtype=float)
    p = p[p > 0]
    h = float(-(p * np.log(p)).sum()) + 0.0  # avoid -0.0 for point masses
    if base is not None:
        h /= math.log(base)
    return h


def entropies(state: StateVector, base: float | None = None) -> EntropyReport:
    """Entropy of the q-distribution and of the dual k-distribution."""
    require_rep(state, Representation.Q)
    return _entropies(state.amplitudes, state.system, base)


def _entropies(
    amps: np.ndarray, system: QuditSystem, base: float | None = None
) -> EntropyReport:
    """The EntropyReport of a raw q-rep buffer, whose k side _transform gives."""
    return _entropy_report(np.abs(amps) ** 2, _k_probabilities(amps, system), base)


def _entropy_report(
    q_probs: np.ndarray, k_probs: np.ndarray, base: float | None = None
) -> EntropyReport:
    """The EntropyReport of the q- and k-rep probabilities of one state."""
    h_q = shannon_entropy(q_probs, base)
    h_k = shannon_entropy(k_probs, base)
    label = "e" if base is None else format(base, "g")
    return EntropyReport(h_q=h_q, h_k=h_k, sum=h_q + h_k, log_base=label)


def translation_operator_k_rep(d: int, q: int) -> np.ndarray:
    """diag(exp(-2*pi*i*m*q/d)) for m = 0..d-1: the shift gate in the k-rep."""
    d = QuditSystem(1, d).d
    require_index("shift", q, d)
    phases = (np.arange(d) * q) % d
    return np.diag(np.exp(-2j * np.pi * phases / d))


def verify_translation_identity(d: int, q: int) -> float:
    """Max-entry deviation between the conjugated k-rep shift and the q-rep one.

    The exponential of the wavenumber observable is computed exactly by
    conjugating the diagonal k-rep form with F; the result should be the
    cyclic shift-by-q permutation (deviation < 1e-10 is the contract).
    """
    f = single_qudit_fourier(d)
    conjugated = f @ translation_operator_k_rep(d, q) @ f.conj().T
    return float(np.max(np.abs(conjugated - translation_gate_matrix(d, q))))


def partition(k: DigitLabel) -> Partition:
    """Split all basis labels into d classes by the value of k.q mod d."""
    classes: list[list[DigitLabel]] = [[] for _ in range(k.system.d)]
    for q, value in zip(enumerate_labels(k.system), functional_values(k).tolist()):
        classes[value].append(q)
    return Partition(k, tuple(tuple(c) for c in classes))


def partition_to_dict(part: Partition) -> dict[str, Any]:
    """JSON-ready form: {"k": [digits], "classes": [[label strings], ...]}."""
    return {
        "k": list(part.functional.digits),
        "classes": [[q.ket() for q in cls] for cls in part.classes],
    }


def entropy_to_dict(report: EntropyReport) -> dict[str, Any]:
    """JSON-ready form: {"h_q", "h_k", "sum", "log_base"}."""
    return {
        "h_q": report.h_q,
        "h_k": report.h_k,
        "sum": report.sum,
        "log_base": report.log_base,
    }
