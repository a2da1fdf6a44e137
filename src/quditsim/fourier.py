"""Fourier duality between the q- and k-representations.

Conventions: omega = exp(2*pi*i/d) is the principal d-th root of unity and
the single-qudit matrix F[q, k] = omega**(q*k) / sqrt(d) maps k-rep
amplitudes to q-rep amplitudes; the opposite direction uses F's conjugate
transpose. The n-qudit transform factorizes as one F per qudit because the
planewave phase exp(2*pi*i*(sum k_j*q_j)/d) is insensitive to reducing the
exponent sum mod d. F is built from the q*k mod d table groups.product_table(d),
the dense oracle from q*k products of its own. _transform alone applies F.
"""

from __future__ import annotations

import numpy as np

from ._tensor import apply_at
from .groups import DigitLabel, QuditSystem, functional_rows, product_table
from .states import Representation, StateVector, require_rep

_ORACLE_BLOCK = 256  # rows of the oracle O, and of its exponents, per block


def single_qudit_fourier(d: int) -> np.ndarray:
    """The d x d transform matrix with entries omega**(q*k) / sqrt(d), new per call."""
    d = QuditSystem(1, d).d
    # not _scaled_roots: verify checks F against the planewaves and oracle that read it
    roots = np.exp(2j * np.pi * np.arange(d) / d) / np.sqrt(d)
    return roots[product_table(d)]


def _transform(amps: np.ndarray, system: QuditSystem, to: Representation) -> np.ndarray:
    """F (to Q) or F dagger (to K) on each qudit of a raw (d**n, *batch) buffer."""
    f = single_qudit_fourier(system.d)
    f = f if to is Representation.Q else f.conj().T
    return apply_at(amps, system.d, system.n, range(system.n), f)


def to_q_rep(phi: StateVector) -> StateVector:
    """Transform a k-rep state to the q-representation (F on every qudit)."""
    require_rep(phi, Representation.K)
    amps = _transform(phi.amplitudes, phi.system, Representation.Q)
    return StateVector(phi.system, Representation.Q, amps)


def to_k_rep(psi: StateVector) -> StateVector:
    """Transform a q-rep state to the k-representation (F dagger per qudit)."""
    require_rep(psi, Representation.Q)
    amps = _transform(psi.amplitudes, psi.system, Representation.K)
    return StateVector(psi.system, Representation.K, amps)


def planewave(k: DigitLabel) -> StateVector:
    """q-representation of the basis functional k.

    Amplitude at q is exp(2*pi*i*(k.q mod d)/d) / sqrt(d**n); equals
    to_q_rep(basis_state(k, K)) up to floating rounding.
    """
    amps = planewave_rows(k.system, np.array([k.digits]))[0]
    return StateVector(k.system, Representation.Q, amps)


def planewave_rows(system: QuditSystem, digits: np.ndarray) -> np.ndarray:
    """planewave(k)'s amplitudes for each row k of a (K, n) digit array: (K, d**n)."""
    return _scaled_roots(system)[functional_rows(digits, system.d)]


def dense_fourier_oracle(system: QuditSystem) -> np.ndarray:
    """Full d**n x d**n matrix with entry[q][k] = omega**(k.q) / sqrt(d**n).

    A test oracle, capped at ORACLE_DIM_CAP, that shares no arithmetic with
    the per-qudit path. Row q is planewave(q)'s amplitudes: one gather of
    _scaled_roots through _oracle_exponents, whose uint8 or uint16 index
    table numpy reads as it is (take would first copy it to intp).
    """
    return _scaled_roots(system)[_oracle_exponents(system)]


def _oracle_exponents(system: QuditSystem, rows: slice = slice(None)) -> np.ndarray:
    """Rows `rows` of the dim x dim table of k.q mod d; O is _scaled_roots(system)[it].

    New per call, one byte per entry for d <= 256. Row q is hi[q_hi] + lo[q_lo],
    the full tables of q's first n // 2 and last n - n // 2 digits, reduced mod d
    _ORACLE_BLOCK rows at a time; at n = 1 only the rows asked for are built.
    """
    system.require_oracle_dim()
    d, n = system.d, system.n
    if n == 1:
        r = np.arange(d, dtype=np.min_scalar_type((d - 1) ** 2))
        table = np.multiply.outer(r[rows], r)
        table %= d
        return table.astype(np.min_scalar_type(d - 1), copy=False)
    # the cap forces d <= 64 once n >= 2, so a sum of two residues fits in uint8
    hi, lo = (_oracle_exponents(QuditSystem(m, d)) for m in (n // 2, n - n // 2))
    q_hi, q_lo = np.divmod(np.arange(system.dim)[rows], len(lo))
    table = np.empty((len(q_hi), len(hi), len(lo)), dtype=hi.dtype)
    for start in range(0, len(table), _ORACLE_BLOCK):
        block = slice(start, start + _ORACLE_BLOCK)
        np.add(hi[q_hi[block], :, None], lo[q_lo[block], None, :], out=table[block])
        # t - d wraps above t for t < d, so this is t mod d, faster than uint8 %
        np.minimum(table[block], table[block] - hi.dtype.type(d), out=table[block])
    return table.reshape(len(table), -1)


def _scaled_roots(system: QuditSystem) -> np.ndarray:
    """omega**v / sqrt(d**n) for v in [0, d), every planewave entry; new per call."""
    d = system.d
    return np.exp(2j * np.pi * np.arange(d) / d) / np.sqrt(system.dim)
