"""Tensor-structured helpers acting on flat length-d**n amplitude buffers.

Everything here avoids materializing d**n x d**n operators: single-qudit
matrices are contracted against one index of the reshaped amplitude tensor,
and marginals sum the reshaped tensor over every other index. apply_at also
takes a (d**n, *batch) buffer whose columns are separate states.
"""

from __future__ import annotations

import numpy as np


def apply_at(
    amps: np.ndarray, d: int, n: int, wire: int, matrix: np.ndarray
) -> np.ndarray:
    """Apply a d x d matrix to one qudit of every column; O(d**(n+1)) per column.

    `amps` has shape (d**n, *batch); the result has the same shape.
    """
    arr = amps.reshape((d,) * n + amps.shape[1:])
    arr = np.moveaxis(np.tensordot(matrix, arr, axes=(1, wire)), 0, wire)
    return arr.reshape(amps.shape)


def wire_marginal(probs: np.ndarray, d: int, n: int, wire: int) -> np.ndarray:
    """Distribution of one wire's digit, from flat basis probabilities."""
    axes = tuple(a for a in range(n) if a != wire)
    return probs.reshape((d,) * n).sum(axis=axes)
