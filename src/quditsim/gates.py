"""Structured qudit gates and circuits.

Translations, controlled adds and doubly controlled adds all add a function
of the control digits to the target digit, mod d: basis permutations done by
one gather of the amplitudes in O(d**n). Every gate sees the (d,)*n view of
its buffer, in which wire w is axis w: a translation gathers along the
target axis, and a controlled add gathers over flat indices built on that
view. Full gate matrices exist only inside the test oracle. Each gate class
holds everything specific to its kind; a gate checks that its wires are
distinct and its matrix unitary when it is built, and its Circuit checks that
it fits the system. Gates act on a raw (d**n, *batch) buffer whose columns
are separate states; apply_gates passes one such buffer from gate to gate
without checking it, and run_circuit checks the norm once, on the output
state. circuit_from_dict names the gate, as "gate i: ...", in every error
that one gate's fields raise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Union, get_args

import numpy as np

from ._tensor import apply_at
from .groups import QuditSystem, product_table, require_index
from .states import (
    Representation,
    StateVector,
    _pairs,
    _pairs_from_json,
    require_rep,
    system_from_dict,
)

UNITARY_TOL = 1e-10


def _unitarity_dev(m: np.ndarray) -> float:
    """max |M M† - 1| for a square M, in one product; nan or inf if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(m @ m.conj().T - np.eye(len(m)))))


def _add_to_digit(
    amps: np.ndarray, d: int, n: int, wires: tuple[int, ...], shift: np.ndarray
) -> np.ndarray:
    """Add shift[control digits] to the target digit of every index, mod d.

    `amps` has shape (d**n, *batch), and the result has the same shape.
    `wires` lists the controls, then the target; `shift` is a
    (d,)*len(controls) table with entries in [0, d), indexed by the control
    digits in that order. Wire w is axis w of the (d,)*n view, so wire 0 is
    the most significant digit. Without controls, one gather along the target
    axis moves every amplitude. With controls, only the target digit of each
    source index differs from its output index, so a table of index offsets
    over (control digits, target digit), broadcast onto the (d,)*n view of
    the flat indices, gives every source index, and one flat gather along
    axis 0 moves each row.
    """
    *controls, target = wires
    t = np.arange(d)
    if not controls:  # the same gather in every slice; ~3x faster than flat
        arr = amps.reshape((d,) * n + amps.shape[1:])
        return np.take(arr, (t - shift) % d, axis=target).reshape(amps.shape)
    # source minus output index for each (control digits..., target digit)
    delta = ((t - shift[..., None]) % d - t) * d ** (n - 1 - target)
    source = np.arange(d**n).reshape((d,) * n)
    source += delta.transpose(np.argsort(wires)).reshape(
        [d if w in wires else 1 for w in range(n)]
    )
    return np.take(amps, source.reshape(-1), axis=0)


def _gate_field(doc: dict[str, Any], key: str) -> Any:
    if key not in doc:
        raise ValueError(f"missing field {key!r}")
    return doc[key]


def _int_field(doc: dict[str, Any], key: str) -> int:
    value = _gate_field(doc, key)
    if type(value) is not int:  # JSON integers only: no bool, no float
        raise ValueError(f"field {key!r} must be an integer, got {value!r}")
    return value


class _GateKind:
    """What the four gate classes share.

    Each names its JSON `kind` and its wire (target last) and digit fields;
    an arithmetic gate defines shift(d), the amount added to the target digit
    indexed by the control digits. Each dataclass field is an integer JSON
    field unless the class overrides to_dict/from_dict.
    """

    kind: ClassVar[str]
    wire_fields: ClassVar[tuple[str, ...]]
    digit_fields: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        wires = self.wires  # compared with ==: an unhashable wire fails in check
        if any(w in wires[:i] for i, w in enumerate(wires)):
            raise ValueError(f"wires must be distinct, got {wires}")

    @property
    def wires(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in self.wire_fields)

    def check(self, n: int, d: int) -> None:
        """Raise ValueError unless the gate fits n qudits of dimension d."""
        for wire in self.wires:
            require_index("wire", wire, n)
        for name in self.digit_fields:
            require_index(name, getattr(self, name), d)

    def apply(self, amps: np.ndarray, d: int, n: int) -> np.ndarray:
        """The gate's action on a raw q-rep buffer of shape (d**n, *batch)."""
        return _add_to_digit(amps, d, n, self.wires, self.shift(d))

    def to_dict(self) -> dict[str, Any]:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"kind": self.kind, **values}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> Any:
        return cls(**{f.name: _int_field(doc, f.name) for f in fields(cls)})


@dataclass(frozen=True)
class Translation(_GateKind):
    """Advance the target qudit's value by a constant amount, modulo d."""

    target: int
    amount: int

    kind = "translation"
    wire_fields = ("target",)
    digit_fields = ("amount",)

    def shift(self, d: int) -> np.ndarray:
        return np.array(self.amount)


@dataclass(frozen=True)
class ControlledAdd(_GateKind):
    """Add multiplier * (control digit) to the target digit, modulo d."""

    control: int
    target: int
    multiplier: int

    kind = "cadd"
    wire_fields = ("control", "target")
    digit_fields = ("multiplier",)

    def shift(self, d: int) -> np.ndarray:
        return self.multiplier * np.arange(d) % d


@dataclass(frozen=True)
class DoublyControlledAdd(_GateKind):
    """Add the product of the two control digits to the target digit, mod d."""

    k_control: int
    j_control: int
    target: int

    kind = "ccadd"
    wire_fields = ("k_control", "j_control", "target")

    def shift(self, d: int) -> np.ndarray:
        return product_table(d)


@dataclass(frozen=True, eq=False)
class SingleQuditUnitary(_GateKind):
    """Apply an arbitrary d x d unitary to the target qudit."""

    target: int
    matrix: np.ndarray

    kind = "unitary"
    wire_fields = ("target",)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        dev = _unitarity_dev(m)
        if not dev <= UNITARY_TOL:  # nan when the product overflows
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def check(self, n: int, d: int) -> None:
        super().check(n, d)
        if self.matrix.shape != (d, d):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({d}, {d})")

    def apply(self, amps: np.ndarray, d: int, n: int) -> np.ndarray:
        return apply_at(amps, d, n, (self.target,), self.matrix)

    def to_dict(self) -> dict[str, Any]:
        matrix = _pairs(self.matrix).tolist()
        return {"kind": self.kind, "target": self.target, "matrix": matrix}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> SingleQuditUnitary:
        target = _int_field(doc, "target")
        matrix = _gate_field(doc, "matrix")
        error = "field 'matrix' must be rows of [re, im] pairs"
        return cls(target=target, matrix=_pairs_from_json(matrix, 2, error))


Gate = Union[Translation, ControlledAdd, DoublyControlledAdd, SingleQuditUnitary]
_KINDS = {cls.kind: cls for cls in get_args(Gate)}


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence over a fixed qudit system."""

    system: QuditSystem
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        n, d = self.system.n, self.system.d
        for i, gate in enumerate(self.gates):
            if not isinstance(gate, _GateKind):
                raise TypeError(f"unknown gate type {type(gate).__name__}")
            try:
                gate.check(n, d)
            except ValueError as exc:
                raise ValueError(f"gate {i}: {exc}") from None


@dataclass(frozen=True)
class FunctionalCircuitLayout:
    """Wire roles in the functional-creation circuit over 2m+1 qudits."""

    source_wires: tuple[int, ...]
    handler_wires: tuple[int, ...]
    holder_wire: int


def translation_gate_matrix(d: int, amount: int) -> np.ndarray:
    """Permutation matrix sending |c> to |c + amount mod d>."""
    d = QuditSystem(1, d).d
    require_index("amount", amount, d)
    m = np.zeros((d, d), dtype=np.complex128)
    m[(np.arange(d) + amount) % d, np.arange(d)] = 1.0
    return m


def apply_translation(state: StateVector, target: int, amount: int) -> StateVector:
    """Shift the target digit by `amount` mod d."""
    return run_circuit(Circuit(state.system, (Translation(target, amount),)), state)


def apply_controlled_add(
    state: StateVector, control: int, target: int, multiplier: int
) -> StateVector:
    """target digit += multiplier * control digit (mod d); control unchanged."""
    gate = ControlledAdd(control, target, multiplier)
    return run_circuit(Circuit(state.system, (gate,)), state)


def apply_doubly_controlled_add(
    state: StateVector, k_control: int, j_control: int, target: int
) -> StateVector:
    """target digit += (k_control digit) * (j_control digit), mod d."""
    gate = DoublyControlledAdd(k_control, j_control, target)
    return run_circuit(Circuit(state.system, (gate,)), state)


def run_circuit(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply the gates in order to a q-rep state.

    One raw amplitude buffer passes from gate to gate, and the norm is
    checked once, on the output StateVector: arithmetic gates only reorder
    amplitudes, and each unitary matrix was checked when its gate was built.
    """
    if state.system != circuit.system:
        raise ValueError(
            f"state system {state.system} does not match circuit system"
            f" {circuit.system}"
        )
    require_rep(state, Representation.Q)
    amps = apply_gates(circuit, state.amplitudes)
    return StateVector(circuit.system, Representation.Q, amps)


def apply_gates(circuit: Circuit, amps: np.ndarray) -> np.ndarray:
    """The circuit's gates, in order, on a raw (d**n, *batch) q-rep buffer."""
    d, n = circuit.system.d, circuit.system.n
    for gate in circuit.gates:
        amps = gate.apply(amps, d, n)
    return amps


def build_functional_circuit(
    m: int, d: int
) -> tuple[Circuit, FunctionalCircuitLayout]:
    """Circuit over 2m+1 wires accumulating sum_l handler_l * source_l on the holder.

    Wire order: handlers 0..m-1, sources m..2m-1, holder 2m. With basis
    handlers |k>, basis sources |q>, and the holder at |0>, the holder ends
    in |k.q mod d>; a non-zero holder simply offsets the result. The gates
    commute, so their order does not affect the outcome.
    """
    if m < 1:
        raise ValueError(f"need at least one source qudit, got m={m}")
    system = QuditSystem(2 * m + 1, d)
    handlers = tuple(range(m))
    sources = tuple(range(m, 2 * m))
    holder = 2 * m
    gates = tuple(
        DoublyControlledAdd(k_control=handlers[i], j_control=sources[i], target=holder)
        for i in range(m)
    )
    return Circuit(system, gates), FunctionalCircuitLayout(sources, handlers, holder)


def circuit_unitary_oracle(circuit: Circuit) -> np.ndarray:
    """Dense unitary: the gates applied to the identity, one batch of columns.

    Test oracle only; the dimension is capped at ORACLE_DIM_CAP.
    """
    circuit.system.require_oracle_dim()
    return apply_gates(circuit, np.eye(circuit.system.dim, dtype=np.complex128))


def circuit_to_dict(circuit: Circuit) -> dict[str, Any]:
    """JSON-ready form: {"n", "d", "gates": [{"kind", ...}, ...]}."""
    gates = [gate.to_dict() for gate in circuit.gates]
    return {"n": circuit.system.n, "d": circuit.system.d, "gates": gates}


def circuit_from_dict(doc: Any) -> Circuit:
    """Parse and validate the JSON circuit format; integer fields must be ints."""
    system = system_from_dict(doc, "circuit", ("gates",))
    if not isinstance(doc["gates"], list):
        raise ValueError("circuit field 'gates' must be a list")
    gates: list[Gate] = []
    for i, g in enumerate(doc["gates"]):
        if not isinstance(g, dict):
            raise ValueError(f"gate {i} must be a JSON object")
        try:
            kind = _gate_field(g, "kind")
            if not isinstance(kind, str) or kind not in _KINDS:
                raise ValueError(f"unknown kind {kind!r}")
            gates.append(_KINDS[kind].from_dict(g))
        except ValueError as exc:
            raise ValueError(f"gate {i}: {exc}") from None
    return Circuit(system, tuple(gates))
