"""Tensor-structured helpers acting on flat length-d**n amplitude buffers.

Everything here avoids materializing d**n x d**n operators: apply_at
contracts a single-qudit matrix against each listed wire of one (d,)*n view
of a (d**n, *batch) buffer, and marginals sum that view over other wires.
apply_at runs, per wire, the transpose, copy and dot that np.tensordot runs
on the same arguments, so its bits equal np.tensordot's; it is the package's
one contraction path.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


def apply_at(
    amps: np.ndarray, d: int, n: int, wires: Iterable[int], matrix: np.ndarray
) -> np.ndarray:
    """Apply a d x d matrix to each listed qudit, in order; O(d**(n+1)) per wire.

    `amps` has shape (d**n, *batch); the result has the same shape. Each wire
    is moved to the front and flattened to (d, -1), a copy unless already
    contiguous, multiplied by `matrix` with one np.dot and moved back: what
    np.moveaxis(np.tensordot(matrix, arr, axes=(1, wire)), 0, wire) does,
    without its argument handling, so the bits are the same.
    """
    arr = amps.reshape((d,) * n + amps.shape[1:])
    axes = tuple(range(arr.ndim))
    for wire in wires:
        front = (wire,) + axes[:wire] + axes[wire + 1 :]
        back = axes[1 : wire + 1] + (0,) + axes[wire + 1 :]
        flat = np.dot(matrix, arr.transpose(front).reshape(d, -1))
        # every wire has length d, so the front-first shape is arr.shape
        arr = flat.reshape(arr.shape).transpose(back)
    return arr.reshape(amps.shape)


def wire_marginal(probs: np.ndarray, d: int, n: int, wire: int) -> np.ndarray:
    """Distribution of one wire's digit, from flat basis probabilities."""
    axes = tuple(a for a in range(n) if a != wire)
    return probs.reshape((d,) * n).sum(axis=axes)
