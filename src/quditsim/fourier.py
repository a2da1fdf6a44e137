"""Fourier duality between the q- and k-representations.

Conventions: omega = exp(2*pi*i/d) is the principal d-th root of unity and
the single-qudit matrix F[q, k] = omega**(q*k) / sqrt(d) maps k-rep
amplitudes to q-rep amplitudes; the opposite direction uses F's conjugate
transpose. The n-qudit transform factorizes as one F per qudit because the
planewave phase exp(2*pi*i*(sum k_j*q_j)/d) is insensitive to reducing the
exponent sum mod d.
"""

from __future__ import annotations

import functools

import numpy as np

from ._tensor import apply_at
from .groups import _ORACLE_BLOCK, DigitLabel, QuditSystem, functional_values
from .states import Representation, StateVector, require_rep


def single_qudit_fourier(d: int) -> np.ndarray:
    """The d x d transform matrix with entries omega**(q*k) / sqrt(d)."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    exponents = np.outer(np.arange(d), np.arange(d)) % d
    return np.exp(2j * np.pi * exponents / d) / np.sqrt(d)


@functools.cache
def _fourier(d: int) -> np.ndarray:
    """single_qudit_fourier(d), built once per d and read-only, for the transforms."""
    f = single_qudit_fourier(d)
    f.setflags(write=False)
    return f


def to_q_rep(phi: StateVector) -> StateVector:
    """Transform a k-rep state to the q-representation (F on every qudit)."""
    require_rep(phi, Representation.K)
    d, n = phi.system.d, phi.system.n
    amps = apply_at(phi.amplitudes, d, n, range(n), _fourier(d))
    return StateVector(phi.system, Representation.Q, amps)


def to_k_rep(psi: StateVector) -> StateVector:
    """Transform a q-rep state to the k-representation (F dagger per qudit)."""
    require_rep(psi, Representation.Q)
    d, n = psi.system.d, psi.system.n
    f_dag = _fourier(d).conj().T
    amps = apply_at(psi.amplitudes, d, n, range(n), f_dag)
    return StateVector(psi.system, Representation.K, amps)


def planewave(k: DigitLabel) -> StateVector:
    """q-representation of the basis functional k.

    Amplitude at q is exp(2*pi*i*(k.q mod d)/d) / sqrt(d**n); equals
    to_q_rep(basis_state(k, K)) up to floating rounding.
    """
    amps = _scaled_roots(k.system)[functional_values(k)]
    return StateVector(k.system, Representation.Q, amps)


def dense_fourier_oracle(system: QuditSystem) -> np.ndarray:
    """Full d**n x d**n matrix with entry[q][k] = omega**(k.q) / sqrt(d**n).

    Brute-force evaluation of the defining formula, independent of the
    per-qudit factorized path; intended for tests, so the dimension is
    capped at ORACLE_DIM_CAP. Filled in row blocks, so no dim x dim exponent
    table exists.
    """
    system.require_oracle_dim()
    digits = np.indices((system.d,) * system.n).reshape(system.n, -1).T
    roots = _scaled_roots(system)
    oracle = np.empty((system.dim, system.dim), dtype=np.complex128)
    for i in range(0, system.dim, _ORACLE_BLOCK):
        exponents = (digits[i : i + _ORACLE_BLOCK] @ digits.T) % system.d
        oracle[i : i + _ORACLE_BLOCK] = roots[exponents]
    return oracle


def _scaled_roots(system: QuditSystem) -> np.ndarray:
    """omega**v / sqrt(d**n) for v in [0, d): every value a planewave entry takes."""
    d = system.d
    return np.exp(2j * np.pi * np.arange(d) / d) / np.sqrt(system.dim)
