"""Tensor-structured helpers acting on flat length-d**n amplitude buffers.

Everything here avoids materializing d**n x d**n operators: apply_at
contracts a single-qudit matrix against each listed wire of one (d,)*n view
of a (d**n, *batch) buffer, and marginals sum that view over other wires.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


def apply_at(
    amps: np.ndarray, d: int, n: int, wires: Iterable[int], matrix: np.ndarray
) -> np.ndarray:
    """Apply a d x d matrix to each listed qudit, in order; O(d**(n+1)) per wire.

    `amps` has shape (d**n, *batch); the result has the same shape.
    """
    arr = amps.reshape((d,) * n + amps.shape[1:])
    for wire in wires:
        arr = np.moveaxis(np.tensordot(matrix, arr, axes=(1, wire)), 0, wire)
    return arr.reshape(amps.shape)


def wire_marginal(probs: np.ndarray, d: int, n: int, wire: int) -> np.ndarray:
    """Distribution of one wire's digit, from flat basis probabilities."""
    axes = tuple(a for a in range(n) if a != wire)
    return probs.reshape((d,) * n).sum(axis=axes)
