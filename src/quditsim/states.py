"""Dense complex state vectors over the d**n basis, tagged q-rep or k-rep."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Sequence

import numpy as np

from .groups import DigitLabel, QuditSystem, label_to_index

NORM_TOL = 1e-10


class Representation(Enum):
    """Which dual representation the amplitudes are expressed in."""

    Q = "q"
    K = "k"


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitude vector of length d**n in a fixed representation.

    Construction copies the amplitudes into an owned read-only complex128
    buffer and rejects non-finite amplitudes and squared norms off 1 by more
    than NORM_TOL; amplitudes are stored exactly as given, never rescaled.
    The squared norm is the real part of one np.vdot(amps, amps): a sum of
    non-negative terms, non-finite whenever an amplitude is non-finite or its
    square overflows. This is the one norm check: run_circuit makes it once,
    on its output.
    """

    system: QuditSystem
    rep: Representation
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.system.dim,):
            raise ValueError(
                f"expected {self.system.dim} amplitudes, got shape {amps.shape}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        if not math.isfinite(norm_sq):
            raise ValueError(
                f"state has non-finite amplitudes: sum |a|^2 = {norm_sq!r}"
            )
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(
                f"state is not normalized: sum |a|^2 = {norm_sq!r}"
                f" (deviation {norm_sq - 1.0:+.3e})"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def require_rep(state: StateVector, rep: Representation) -> None:
    """Reject a state that is not expressed in `rep`."""
    if state.rep is not rep:
        raise ValueError(f"expected a {rep.value}-rep state, got {state.rep.value}-rep")


def basis_state(label: DigitLabel, rep: Representation) -> StateVector:
    """Unit amplitude at the label's index, zero elsewhere."""
    amps = np.zeros(label.system.dim, dtype=np.complex128)
    amps[label_to_index(label)] = 1.0
    return StateVector(label.system, rep, amps)


def from_amplitudes(
    system: QuditSystem, rep: Representation, amplitudes: Sequence[complex]
) -> StateVector:
    """Build a state from explicit amplitudes, validating length and norm."""
    return StateVector(system, rep, np.asarray(amplitudes))


def _require_compatible(f: StateVector, g: StateVector) -> None:
    if f.system != g.system:
        raise ValueError(f"state systems differ: {f.system} vs {g.system}")
    if f.rep is not g.rep:
        raise ValueError(
            f"representations differ: {f.rep.value}-rep vs {g.rep.value}-rep;"
            " transform one side first"
        )


def inner_product(f: StateVector, g: StateVector) -> complex:
    """<f|g> = sum of conj(f_i) * g_i; both states must share system and rep."""
    _require_compatible(f, g)
    return complex(np.vdot(f.amplitudes, g.amplitudes))


def tensor_product(f: StateVector, g: StateVector) -> StateVector:
    """Combined state on n_f + n_g qudits; f's qudits are most significant."""
    if f.system.d != g.system.d:
        raise ValueError(
            f"qudit dimensions differ: d={f.system.d} vs d={g.system.d}"
        )
    if f.rep is not g.rep:
        raise ValueError(
            f"representations differ: {f.rep.value}-rep vs {g.rep.value}-rep"
        )
    joined = QuditSystem(f.system.n + g.system.n, f.system.d)
    return StateVector(joined, f.rep, np.kron(f.amplitudes, g.amplitudes))


def probabilities(state: StateVector) -> np.ndarray:
    """Elementwise |amplitude|^2 in index order."""
    return np.abs(state.amplitudes) ** 2


def fidelity(f: StateVector, g: StateVector) -> float:
    """|<f|g>|^2."""
    return abs(inner_product(f, g)) ** 2


def random_state(
    system: QuditSystem, rep: Representation, rng: np.random.Generator
) -> StateVector:
    """Haar-like random state: normalized complex Gaussian amplitudes."""
    amps = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    return StateVector(system, rep, amps / np.linalg.norm(amps))


def state_to_dict(state: StateVector) -> dict[str, Any]:
    """JSON-ready form: {"n", "d", "rep", "amplitudes": [[re, im], ...]}."""
    doc = _state_doc(state)
    doc["amplitudes"] = doc["amplitudes"].tolist()
    return doc


def _state_doc(state: StateVector) -> dict[str, Any]:
    """The state's JSON layout, amplitudes as a (dim, 2) float [re, im] array."""
    return {
        "n": state.system.n,
        "d": state.system.d,
        "rep": state.rep.value,
        "amplitudes": _pairs(state.amplitudes),
    }


def _pairs(values: np.ndarray) -> np.ndarray:
    """Complex array as a float array with a trailing [re, im] axis."""
    return np.stack((values.real, values.imag), axis=-1)


def _pairs_from_json(value: Any, ndim: int, error: str) -> np.ndarray:
    """Complex `ndim`-dimensional array from nested [re, im] pairs of numbers.

    Every level must be a rectangular JSON list and every leaf a JSON number,
    an int or a float: strings, booleans and null are refused, not converted.
    """
    shape = []
    level = [value]
    for _ in range(ndim + 1):  # the ndim array levels, then the pairs
        if set(map(type, level)) != {list} or len(set(map(len, level))) != 1:
            raise ValueError(error)
        shape.append(len(level[0]))
        level = list(itertools.chain.from_iterable(level))
    if shape[-1] != 2 or not set(map(type, level)) <= {int, float}:
        raise ValueError(error)
    try:
        flat = np.array(level, dtype=np.float64)
    except OverflowError:  # an int beyond the float range
        raise ValueError(error) from None
    return flat.reshape(shape).view(np.complex128)[..., 0]


def system_from_dict(doc: Any, what: str, keys: tuple[str, ...]) -> QuditSystem:
    """The system of a JSON document that must have fields n, d and `keys`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} document must be a JSON object")
    for key in ("n", "d", *keys):
        if key not in doc:
            raise ValueError(f"{what} document missing field {key!r}")
    if type(doc["n"]) is not int or type(doc["d"]) is not int:  # bool is an int
        raise ValueError(f"{what} fields 'n' and 'd' must be integers")
    return QuditSystem(doc["n"], doc["d"])


def state_from_dict(doc: Any) -> StateVector:
    """Parse and validate the JSON state format."""
    system = system_from_dict(doc, "state", ("rep", "amplitudes"))
    try:
        rep = Representation(doc["rep"])
    except ValueError:
        raise ValueError(f"unknown representation tag {doc['rep']!r}") from None
    pairs = doc["amplitudes"]
    if not isinstance(pairs, list) or len(pairs) != system.dim:
        raise ValueError(
            f"expected {system.dim} amplitude pairs,"
            f" got {len(pairs) if isinstance(pairs, list) else type(pairs).__name__}"
        )
    amps = _pairs_from_json(pairs, 1, "amplitudes must be [re, im] pairs of numbers")
    return StateVector(system, rep, amps)
