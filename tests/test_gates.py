import itertools
import json
import tracemalloc

import numpy as np
import pytest

from quditsim import (
    Circuit,
    ControlledAdd,
    DigitLabel,
    DoublyControlledAdd,
    QuditSystem,
    Representation,
    SingleQuditUnitary,
    Translation,
    apply_controlled_add,
    apply_doubly_controlled_add,
    apply_translation,
    basis_state,
    build_functional_circuit,
    circuit_from_dict,
    circuit_to_dict,
    circuit_unitary_oracle,
    dense_fourier_oracle,
    dot_mod,
    enumerate_labels,
    index_to_label,
    label_to_index,
    random_state,
    run_circuit,
    single_qudit_fourier,
    tensor_product,
    translation_gate_matrix,
    translation_operator_k_rep,
)
from quditsim.gates import _unitarity_dev

Q = Representation.Q
K = Representation.K

SHIFT_BY_1_D3 = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
SHIFT_BY_2_D3 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def ket(digits, d):
    system = QuditSystem(len(digits), d)
    return basis_state(DigitLabel(tuple(digits), system), Q)


def single_ket(state):
    (idx,) = np.flatnonzero(state.amplitudes)
    assert state.amplitudes[idx] == 1
    return index_to_label(int(idx), state.system).digits


def test_translation_gate_matrix():
    assert np.array_equal(translation_gate_matrix(3, 1).real, SHIFT_BY_1_D3)
    assert np.array_equal(translation_gate_matrix(3, 2).real, SHIFT_BY_2_D3)
    for d in (2, 3, 6):
        assert np.array_equal(translation_gate_matrix(d, 0), np.eye(d))
    with pytest.raises(ValueError):
        translation_gate_matrix(3, 3)


def test_apply_translation():
    assert single_ket(apply_translation(ket((1, 0), 3), 1, 2)) == (1, 2)
    state = ket((2, 1), 3)
    assert np.array_equal(apply_translation(state, 0, 0).amplitudes, state.amplitudes)
    rng = np.random.default_rng(1)
    psi = random_state(QuditSystem(2, 5), Q, rng)
    back = apply_translation(apply_translation(psi, 1, 2), 1, 3)
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_apply_translation_errors():
    state = ket((0,), 3)
    with pytest.raises(ValueError, match="q-rep"):
        apply_translation(basis_state(DigitLabel((0,), QuditSystem(1, 3)), K), 0, 1)
    with pytest.raises(ValueError, match="wire"):
        apply_translation(state, 1, 1)
    with pytest.raises(ValueError, match="amount"):
        apply_translation(state, 0, 3)


def test_apply_controlled_add_examples():
    assert single_ket(apply_controlled_add(ket((1, 0), 3), 0, 1, 2)) == (1, 2)
    assert single_ket(apply_controlled_add(ket((2, 1), 3), 0, 1, 2)) == (2, 2)
    for digits in itertools.product(range(3), repeat=2):
        out = apply_controlled_add(ket(digits, 3), 0, 1, 0)
        assert single_ket(out) == digits


def test_apply_controlled_add_exhaustive_oracle():
    # every basis state must land exactly where digit arithmetic says
    for control, target in [(0, 1), (1, 0)]:
        for mult in range(3):
            for digits in itertools.product(range(3), repeat=2):
                out = apply_controlled_add(ket(digits, 3), control, target, mult)
                expected = list(digits)
                expected[target] = (digits[target] + mult * digits[control]) % 3
                assert single_ket(out) == tuple(expected)


def test_apply_controlled_add_errors():
    with pytest.raises(ValueError, match="distinct"):
        apply_controlled_add(ket((0, 0), 3), 1, 1, 2)
    with pytest.raises(ValueError, match="q-rep"):
        apply_controlled_add(
            basis_state(DigitLabel((0, 0), QuditSystem(2, 3)), K), 0, 1, 1
        )


def test_apply_doubly_controlled_add_exhaustive_oracle():
    for digits in itertools.product(range(3), repeat=3):
        out = apply_doubly_controlled_add(ket(digits, 3), 0, 1, 2)
        expected = (digits[0], digits[1], (digits[2] + digits[0] * digits[1]) % 3)
        assert single_ket(out) == expected


def test_apply_doubly_controlled_add_examples():
    assert single_ket(apply_doubly_controlled_add(ket((2, 1, 0), 3), 0, 1, 2)) == (2, 1, 2)
    assert single_ket(apply_doubly_controlled_add(ket((2, 2, 1), 3), 0, 1, 2)) == (2, 2, 2)
    # zero on either control leaves the target alone
    assert single_ket(apply_doubly_controlled_add(ket((0, 2, 1), 3), 0, 1, 2)) == (0, 2, 1)


def test_gate_descriptor_validation():
    with pytest.raises(ValueError, match=r"^wires must be distinct, got \(0, 0\)$"):
        ControlledAdd(0, 0, 1)
    with pytest.raises(ValueError, match=r"^wires must be distinct, got \(0, 1, 1\)$"):
        DoublyControlledAdd(0, 1, 1)
    with pytest.raises(ValueError, match="unitary"):
        SingleQuditUnitary(0, np.array([[1, 0], [1, 1]]))
    with pytest.raises(ValueError, match="square"):
        SingleQuditUnitary(0, np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        SingleQuditUnitary(0, np.array([[np.nan, 0], [0, 1]]))


def test_circuit_validation():
    system = QuditSystem(2, 3)
    with pytest.raises(ValueError, match="wire 2"):
        Circuit(system, (Translation(2, 1),))
    with pytest.raises(ValueError, match="amount 3"):
        Circuit(system, (Translation(0, 3),))
    with pytest.raises(ValueError, match="multiplier 5"):
        Circuit(system, (ControlledAdd(0, 1, 5),))
    with pytest.raises(ValueError, match="matrix shape"):
        Circuit(system, (SingleQuditUnitary(0, np.eye(2)),))
    # distinct wires are compared with ==, so an unhashable wire reaches
    # the index check's ValueError rather than a TypeError
    with pytest.raises(ValueError, match=r"^gate 0: wire \[0\] is not an integer$"):
        Circuit(system, (DoublyControlledAdd([0], 1, 2),))


S23 = QuditSystem(2, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: DigitLabel((1.5, 0), S23),
        lambda: DigitLabel((1.0, 0), S23),
        lambda: DigitLabel(("1", 0), S23),
        lambda: index_to_label(1.5, S23),
        lambda: translation_operator_k_rep(3, 0.5),
        lambda: translation_gate_matrix(3, 1.0),
        lambda: Circuit(S23, (Translation(0.5, 1),)),
        lambda: Circuit(S23, (Translation(0, 1.0),)),
        lambda: Circuit(S23, (ControlledAdd(0.0, 1, 1),)),
        lambda: Circuit(S23, (ControlledAdd(0, 1, np.float64(2)),)),
        lambda: Circuit(QuditSystem(3, 2), (DoublyControlledAdd(0, 1, 2.0),)),
        lambda: Circuit(S23, (SingleQuditUnitary(0.0, np.eye(3)),)),
    ],
    ids=[
        "digit-1.5", "digit-1.0", "digit-str", "index", "k-rep-shift",
        "shift-matrix", "translation-target", "translation-amount", "cadd-control",
        "cadd-multiplier", "ccadd-target", "unitary-target",
    ],
)
def test_non_integer_indices_rejected_at_construction(build):
    with pytest.raises(ValueError, match="is not an integer"):
        build()


def test_numpy_integer_indices_accepted():
    label = DigitLabel((np.int64(1), np.int32(2)), S23)
    assert label.digits == (1, 2) and all(type(x) is int for x in label.digits)
    gates = (Translation(np.int64(0), np.uint8(1)), ControlledAdd(np.int16(0), 1, 2))
    state = run_circuit(Circuit(S23, gates), basis_state(label, Q))
    assert state.amplitudes[label_to_index(DigitLabel((2, 0), S23))] == 1.0


# the d² x d² matrix splits into diagonal blocks T(mult*j) indexed by the
# control digit j; verify's random circuit draws no controlled add at n = 1,
# so this exhaustive check covers every multiplier at small d
@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_controlled_add_block_structure(d):
    system = QuditSystem(2, d)
    for mult in range(d):
        oracle = circuit_unitary_oracle(Circuit(system, (ControlledAdd(0, 1, mult),)))
        expected = np.zeros((d * d, d * d), dtype=complex)
        for j in range(d):
            expected[d * j : d * j + d, d * j : d * j + d] = translation_gate_matrix(
                d, (mult * j) % d
            )
        assert np.array_equal(oracle, expected)


def test_controlled_add_multiplier_two_blocks():
    oracle = circuit_unitary_oracle(
        Circuit(QuditSystem(2, 3), (ControlledAdd(0, 1, 2),))
    )
    assert np.array_equal(oracle[0:3, 0:3].real, np.eye(3))
    assert np.array_equal(oracle[3:6, 3:6].real, SHIFT_BY_2_D3)
    assert np.array_equal(oracle[6:9, 6:9].real, SHIFT_BY_1_D3)


@pytest.mark.parametrize("d,n", [(3, 2), (2, 3)])
def test_structured_gates_are_basis_permutations(d, n):
    system = QuditSystem(n, d)
    gates = [Translation(0, d - 1), ControlledAdd(0, n - 1, 1)]
    if n >= 3:
        gates.append(DoublyControlledAdd(0, 1, 2))
    for gate in gates:
        seen = set()
        for label in enumerate_labels(system):
            out = run_circuit(Circuit(system, (gate,)), basis_state(label, Q))
            seen.add(single_ket(out))
        assert len(seen) == system.dim


def test_build_functional_circuit_shape():
    circuit, layout = build_functional_circuit(2, 3)
    assert circuit.system == QuditSystem(5, 3)
    assert len(circuit.gates) == 2
    assert layout.handler_wires == (0, 1)
    assert layout.source_wires == (2, 3)
    assert layout.holder_wire == 4
    with pytest.raises(ValueError):
        build_functional_circuit(0, 3)


def run_functional(handlers, sources, d, holder_digit=0):
    m = handlers.system.n
    circuit, _ = build_functional_circuit(m, d)
    source_state = ket(sources, d)
    holder = ket((holder_digit,), d)
    start = tensor_product(tensor_product(handlers, source_state), holder)
    return circuit, run_circuit(circuit, start)


@pytest.mark.parametrize("d,m", [(3, 1), (2, 2), (5, 1)])
def test_functional_circuit_exhaustive(d, m):
    system = QuditSystem(m, d)
    for k in enumerate_labels(system):
        for q in enumerate_labels(system):
            _, out = run_functional(basis_state(k, Q), q.digits, d)
            digits = single_ket(out)
            assert digits[:m] == k.digits
            assert digits[m : 2 * m] == q.digits
            assert digits[-1] == dot_mod(k, q)


def test_functional_circuit_worked_case():
    _, out = run_functional(ket((2, 1), 3), (1, 2), 3)
    assert single_ket(out) == (2, 1, 1, 2, 1)  # holder = 2*1 + 1*2 mod 3


def test_functional_circuit_nonzero_holder_offsets():
    _, out = run_functional(ket((2, 1), 3), (1, 2), 3, holder_digit=1)
    assert single_ket(out)[-1] == 2  # dot value 1 shifted by the initial 1


def test_functional_circuit_superposed_handlers():
    # output must be sum_k b_k |k>|q>|k.q>, built here directly from indices
    rng = np.random.default_rng(41)
    d, m = 3, 2
    system = QuditSystem(m, d)
    circuit, _ = build_functional_circuit(m, d)
    for _ in range(20):
        handlers = random_state(system, Q, rng)
        q = index_to_label(int(rng.integers(system.dim)), system)
        _, out = run_functional(handlers, q.digits, d)
        expected = np.zeros(circuit.system.dim, dtype=complex)
        for k in enumerate_labels(system):
            idx = (label_to_index(k) * system.dim + label_to_index(q)) * d + dot_mod(k, q)
            expected[idx] = handlers.amplitudes[label_to_index(k)]
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_run_circuit_empty_and_mismatch():
    system = QuditSystem(2, 3)
    psi = random_state(system, Q, np.random.default_rng(2))
    out = run_circuit(Circuit(system, ()), psi)
    assert np.array_equal(out.amplitudes, psi.amplitudes)
    with pytest.raises(ValueError, match="does not match"):
        run_circuit(Circuit(QuditSystem(2, 2), ()), psi)
    with pytest.raises(ValueError, match="q-rep"):
        run_circuit(Circuit(system, ()), random_state(system, K, np.random.default_rng(3)))


def test_circuit_inverse_recovers_input():
    d, n = 3, 3
    system = QuditSystem(n, d)
    rng = np.random.default_rng(43)
    psi = random_state(system, Q, rng)
    forward = [Translation(0, 2), ControlledAdd(0, 1, 2), DoublyControlledAdd(0, 1, 2)]
    inverse = [
        DoublyControlledAdd(0, 1, 2),  # applied d-1 times undoes one application
        DoublyControlledAdd(0, 1, 2),
        ControlledAdd(0, 1, 1),
        Translation(0, 1),
    ]
    out = run_circuit(Circuit(system, tuple(forward + inverse)), psi)
    assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-12


def test_norm_preserved_through_random_circuit():
    d, n = 3, 3
    system = QuditSystem(n, d)
    rng = np.random.default_rng(47)
    gates = []
    for _ in range(100):
        choice = rng.integers(4)
        if choice == 0:
            gates.append(Translation(int(rng.integers(n)), int(rng.integers(d))))
        elif choice == 1:
            c, t = rng.choice(n, size=2, replace=False)
            gates.append(ControlledAdd(int(c), int(t), int(rng.integers(d))))
        elif choice == 2:
            a, b, c = rng.choice(n, size=3, replace=False)
            gates.append(DoublyControlledAdd(int(a), int(b), int(c)))
        else:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            unitary, _ = np.linalg.qr(g)
            gates.append(SingleQuditUnitary(int(rng.integers(n)), unitary))
    out = run_circuit(Circuit(system, tuple(gates)), random_state(system, Q, rng))
    assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1) < 1e-10


def test_run_circuit_rejects_norm_drift():
    # each gate is within UNITARY_TOL of unitary; ten of them are not
    drifting = SingleQuditUnitary(0, (1 + 4e-11) * single_qudit_fourier(2))
    system = QuditSystem(1, 2)
    with pytest.raises(ValueError, match="not normalized"):
        run_circuit(Circuit(system, (drifting,) * 10), ket((0,), 2))


def test_unitarity_dev_sees_a_change_in_the_last_row():
    # Only row dim-1 of O changes, so only row and column dim-1 of O O†
    # change. Its diagonal entry moves by about 2 * 1e-6 / sqrt(1024) =
    # 6.25e-8, past the gates' own tolerance of 1e-10 as well.
    oracle = dense_fourier_oracle(QuditSystem(10, 2))
    oracle[-1, 0] += 1e-6
    assert _unitarity_dev(oracle) >= 6e-8
    with pytest.raises(ValueError, match="not unitary"):
        SingleQuditUnitary(0, oracle)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry,dev", [(1e308 + 1e308j, "nan"), (1e200, "inf")])
def test_unitary_whose_gram_overflows_is_rejected(entry, dev):
    # finite entries whose M M† is not: the deviation is nan or inf, never a
    # pass, and numpy's overflow warning would fail the test
    with pytest.raises(ValueError, match=rf"not unitary \(deviation {dev}\)"):
        SingleQuditUnitary(0, [[entry, 0], [0, 1]])


def test_single_qudit_unitary_gate_matches_matrix():
    d, n = 3, 2
    system = QuditSystem(n, d)
    f = single_qudit_fourier(d)
    rng = np.random.default_rng(53)
    psi = random_state(system, Q, rng)
    out = run_circuit(Circuit(system, (SingleQuditUnitary(1, f),)), psi)
    expected = np.kron(np.eye(d), f) @ psi.amplitudes
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_circuit_unitary_oracle_properties():
    circuits = [
        Circuit(QuditSystem(2, 3), (ControlledAdd(0, 1, 2), Translation(1, 1))),
        Circuit(
            QuditSystem(3, 2),
            (
                ControlledAdd(0, 1, 1),
                SingleQuditUnitary(2, single_qudit_fourier(2)),
                DoublyControlledAdd(2, 0, 1),
                Translation(1, 1),
            ),
        ),
    ]
    rng = np.random.default_rng(59)
    for circuit in circuits:
        system = circuit.system
        oracle = circuit_unitary_oracle(circuit)
        assert np.max(np.abs(oracle @ oracle.conj().T - np.eye(system.dim))) < 1e-11
        for _ in range(10):
            psi = random_state(system, Q, rng)
            assert np.max(
                np.abs(oracle @ psi.amplitudes - run_circuit(circuit, psi).amplitudes)
            ) < 1e-12


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (16, 2)])
def test_gates_on_a_batch_match_per_column_calls(d, n):
    rng = np.random.default_rng(d * 10 + n)
    gaussian = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    gates = [
        Translation(n - 1, 1),
        ControlledAdd(0, n - 1, d - 1),
        SingleQuditUnitary(0, np.linalg.qr(gaussian)[0]),
    ]
    if n >= 3:
        gates.append(DoublyControlledAdd(2, 0, 1))
    dim = d**n
    batch = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    batch /= np.linalg.norm(batch, axis=0)
    for gate in gates:
        out = gate.apply(batch, d, n)
        assert out.shape == (dim, 3)
        for col in range(3):
            expected = gate.apply(batch[:, col].copy(), d, n)
            if isinstance(gate, SingleQuditUnitary):
                assert np.max(np.abs(out[:, col] - expected)) < 1e-12
            else:
                assert np.array_equal(out[:, col], expected)


def test_circuit_unitary_oracle_cap():
    with pytest.raises(ValueError, match="cap"):
        circuit_unitary_oracle(Circuit(QuditSystem(13, 2), ()))


def test_circuit_json_round_trip():
    f = single_qudit_fourier(2)
    circuit = Circuit(
        QuditSystem(3, 2),
        (
            Translation(0, 1),
            ControlledAdd(0, 1, 1),
            DoublyControlledAdd(0, 1, 2),
            SingleQuditUnitary(2, f),
        ),
    )
    # plain lists all the way down: the document survives json.dumps
    doc = json.loads(json.dumps(circuit_to_dict(circuit)))
    parsed = circuit_from_dict(doc)
    assert parsed.system == circuit.system
    assert parsed.gates[:3] == circuit.gates[:3]
    assert np.allclose(parsed.gates[3].matrix, f)


def test_circuit_json_validation():
    with pytest.raises(ValueError, match="missing field 'gates'"):
        circuit_from_dict({"n": 1, "d": 2})
    with pytest.raises(ValueError, match="unknown kind"):
        circuit_from_dict({"n": 1, "d": 2, "gates": [{"kind": "swap"}]})
    with pytest.raises(ValueError, match="missing field 'amount'"):
        circuit_from_dict({"n": 1, "d": 2, "gates": [{"kind": "translation", "target": 0}]})


def digit_reference(amps, d, n, target, controls, shift):
    """Move each amplitude to the index whose target digit gains shift(controls)."""
    digits = list(np.unravel_index(np.arange(d**n), (d,) * n))
    digits[target] = (digits[target] + shift(*(digits[c] for c in controls))) % d
    out = np.empty_like(amps)
    out[np.ravel_multi_index(tuple(digits), (d,) * n)] = amps
    return out


KERNEL_SYSTEMS = [(2, 5), (2, 8), (3, 4), (4, 4), (5, 3), (16, 3)]


@pytest.mark.parametrize("d,n", KERNEL_SYSTEMS)
def test_translation_matches_digit_reference(d, n):
    psi = random_state(QuditSystem(n, d), Q, np.random.default_rng(d * 100 + n))
    for target in range(n):
        for amount in range(d):
            got = apply_translation(psi, target, amount).amplitudes
            ref = digit_reference(psi.amplitudes, d, n, target, (), lambda: amount)
            assert np.array_equal(got, ref), (target, amount)


@pytest.mark.parametrize("d,n", KERNEL_SYSTEMS)
def test_controlled_add_matches_digit_reference(d, n):
    psi = random_state(QuditSystem(n, d), Q, np.random.default_rng(d * 100 + n))
    for control, target in itertools.permutations(range(n), 2):
        for mult in range(d):
            got = apply_controlled_add(psi, control, target, mult).amplitudes
            ref = digit_reference(
                psi.amplitudes, d, n, target, (control,), lambda c: mult * c
            )
            assert np.array_equal(got, ref), (control, target, mult)


@pytest.mark.parametrize("d,n", KERNEL_SYSTEMS)
def test_doubly_controlled_add_matches_digit_reference(d, n):
    # every ordered (k_control, j_control, target): target before, between
    # and after the controls, controls adjacent and apart, k above and below j
    psi = random_state(QuditSystem(n, d), Q, np.random.default_rng(d * 100 + n))
    for k, j, target in itertools.permutations(range(n), 3):
        got = apply_doubly_controlled_add(psi, k, j, target).amplitudes
        ref = digit_reference(
            psi.amplitudes, d, n, target, (k, j), lambda ck, cj: ck * cj
        )
        assert np.array_equal(got, ref), (k, j, target)


@pytest.mark.parametrize("d,n", KERNEL_SYSTEMS)
def test_run_circuit_matches_digit_reference(d, n):
    system = QuditSystem(n, d)
    rng = np.random.default_rng(d * 100 + n + 1)
    psi = random_state(system, Q, rng)
    gates, expected = [], psi.amplitudes
    for _ in range(30):
        a, b, c = (int(w) for w in rng.choice(n, size=3, replace=False))
        mult = int(rng.integers(d))
        gates += [
            Translation(a, mult),
            ControlledAdd(a, b, mult),
            DoublyControlledAdd(a, b, c),
        ]
        expected = digit_reference(expected, d, n, a, (), lambda: mult)
        expected = digit_reference(expected, d, n, b, (a,), lambda x: mult * x)
        expected = digit_reference(expected, d, n, c, (a, b), lambda x, y: x * y)
    out = run_circuit(Circuit(system, tuple(gates)), psi)
    assert np.array_equal(out.amplitudes, expected)


@pytest.mark.parametrize("batch", [(3,), (2, 2)])
@pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (5, 3)])
def test_controlled_adds_on_a_batch_match_digit_reference(d, n, batch):
    # every target and amount, and every wire order, on a (d**n, *batch)
    # buffer: each column is moved exactly as digit_reference moves a single
    # state, also by a translation's one-wire span
    dim = d**n
    rng = np.random.default_rng(d * 100 + n + len(batch))
    amps = rng.standard_normal((dim, *batch)) + 1j * rng.standard_normal((dim, *batch))
    cases = [
        (Translation(target, amount), (), lambda a=amount: a)
        for target in range(n)
        for amount in range(d)
    ] + [
        (ControlledAdd(control, target, mult), (control,), lambda c, m=mult: m * c)
        for control, target in itertools.permutations(range(n), 2)
        for mult in range(d)
    ] + [
        (DoublyControlledAdd(k, j, target), (k, j), lambda ck, cj: ck * cj)
        for k, j, target in itertools.permutations(range(n), 3)
    ]
    for gate, controls, shift in cases:
        out = gate.apply(amps, d, n)
        assert out.shape == amps.shape
        columns, out_columns = amps.reshape(dim, -1), out.reshape(dim, -1)
        for col in range(columns.shape[1]):
            ref = digit_reference(columns[:, col], d, n, gate.target, controls, shift)
            assert np.array_equal(out_columns[:, col], ref), (gate, col)


@pytest.mark.parametrize("d,n", [(2, 16), (16, 4)])
def test_controlled_adds_allocate_little_beyond_their_output(d, n):
    # The source index covers only the gate's span of wires, d**2 or d**3
    # entries here; an index over all d**n amplitudes would add half the
    # output's bytes again.
    w = n // 2 - 1
    amps = np.random.default_rng(d + n).standard_normal(d**n) + 0j
    for gate in (ControlledAdd(w, w + 1, 1), DoublyControlledAdd(w, w + 1, w + 2)):
        tracemalloc.start()
        try:
            out = gate.apply(amps, d, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * out.nbytes, gate
