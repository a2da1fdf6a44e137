import itertools
import math
import tracemalloc

import numpy as np
import pytest

from quditsim import groups
from quditsim import (
    DigitLabel,
    QuditSystem,
    Representation,
    basis_state,
    dense_fourier_oracle,
    dot_mod,
    enumerate_labels,
    inner_product,
    planewave,
    random_state,
    single_qudit_fourier,
    to_k_rep,
    to_q_rep,
)
from quditsim._tensor import apply_at
from quditsim.fourier import _oracle_exponents
from quditsim.groups import functional_values, product_table

Q = Representation.Q
K = Representation.K


def test_single_qudit_fourier_d2_is_hadamard():
    expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.max(np.abs(single_qudit_fourier(2) - expected)) < 1e-15


def test_single_qudit_fourier_d3_rows():
    # row q holds omega**(q*k) / sqrt(3), evaluated independently
    w = np.exp(2j * np.pi / 3)
    f = single_qudit_fourier(3)
    assert np.allclose(f[2], np.array([1, w**2, w]) / math.sqrt(3), atol=1e-14)
    assert np.allclose(f[1], np.array([1, w, w**2]) / math.sqrt(3), atol=1e-14)
    assert np.allclose(f[0], np.ones(3) / math.sqrt(3), atol=1e-14)


@pytest.mark.parametrize("d", [*range(2, 257), 1000, 2048])
def test_single_qudit_fourier_bytes_equal_exp_formula(d):
    # exp over every entry of the d x d table of q*k mod d
    r = np.arange(d)
    expected = np.exp(2j * np.pi * (np.outer(r, r) % d) / d) / np.sqrt(d)
    assert single_qudit_fourier(d).tobytes() == expected.tobytes()


def test_single_qudit_fourier_and_transforms_are_not_capped(monkeypatch):
    monkeypatch.setattr(groups, "ORACLE_DIM_CAP", 16)
    system = QuditSystem(1, 17)
    assert single_qudit_fourier(17).shape == (17, 17)
    phi = random_state(system, K, np.random.default_rng(47))
    back = to_k_rep(to_q_rep(phi))
    assert np.max(np.abs(back.amplitudes - phi.amplitudes)) < 1e-12
    with pytest.raises(ValueError, match="cap"):
        dense_fourier_oracle(system)


@pytest.mark.parametrize("d", range(2, 17))
def test_single_qudit_fourier_unitary(d):
    f = single_qudit_fourier(d)
    assert np.max(np.abs(f @ f.conj().T - np.eye(d))) < 1e-12


def test_to_q_rep_zero_functional():
    system = QuditSystem(3, 3)
    delta = basis_state(DigitLabel((0, 0, 0), system), K)
    psi = to_q_rep(delta)
    assert psi.rep is Q
    assert np.allclose(psi.amplitudes, 1 / math.sqrt(27), atol=1e-14)


def test_to_q_rep_single_qubit():
    delta = basis_state(DigitLabel((1,), QuditSystem(1, 2)), K)
    psi = to_q_rep(delta)
    assert np.allclose(
        psi.amplitudes, [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-14
    )


def test_to_k_rep_basis_origin():
    system = QuditSystem(2, 3)
    psi = basis_state(DigitLabel((0, 0), system), Q)
    phi = to_k_rep(psi)
    assert phi.rep is K
    assert np.allclose(phi.amplitudes, 1 / 3, atol=1e-14)


def test_to_k_rep_shifted_basis():
    # phi(k) for |q=(1,0)> evaluated straight from the transform sum
    system = QuditSystem(2, 3)
    psi = basis_state(DigitLabel((1, 0), system), Q)
    phi = to_k_rep(psi)
    expected = np.array(
        [np.exp(-2j * np.pi * k.digits[0] / 3) / 3 for k in enumerate_labels(system)]
    )
    assert np.max(np.abs(phi.amplitudes - expected)) < 1e-14


def test_transform_rejects_wrong_rep():
    state_q = basis_state(DigitLabel((0,), QuditSystem(1, 2)), Q)
    state_k = basis_state(DigitLabel((0,), QuditSystem(1, 2)), K)
    with pytest.raises(ValueError, match="expected a k-rep"):
        to_q_rep(state_q)
    with pytest.raises(ValueError, match="expected a q-rep"):
        to_k_rep(state_k)


@pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (4, 2), (5, 2), (6, 2)])
def test_round_trip_and_parseval(d, n):
    rng = np.random.default_rng(17)
    system = QuditSystem(n, d)
    for _ in range(10):
        psi = random_state(system, Q, rng)
        phi = to_k_rep(psi)
        assert abs(np.sum(np.abs(phi.amplitudes) ** 2) - 1) < 1e-12
        back = to_q_rep(phi)
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-12

        phi = random_state(system, K, rng)
        back = to_k_rep(to_q_rep(phi))
        assert np.max(np.abs(back.amplitudes - phi.amplitudes)) < 1e-12


def test_planewave_zero_is_uniform():
    wave = planewave(DigitLabel((0, 0), QuditSystem(2, 4)))
    assert np.allclose(wave.amplitudes, 0.25, atol=1e-14)


def test_planewave_single_qubit():
    wave = planewave(DigitLabel((1,), QuditSystem(1, 2)))
    assert np.allclose(
        wave.amplitudes, [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-14
    )


def test_planewave_qutrit_amplitude():
    # k=(2,1), q=(1,2): k.q = 1 mod 3, so the amplitude is exp(2*pi*i/3)/3
    wave = planewave(DigitLabel((2, 1), QuditSystem(2, 3)))
    assert wave.amplitudes[5] == pytest.approx(np.exp(2j * np.pi / 3) / 3)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (4, 2), (6, 2)])
def test_planewave_bitwise_from_dot_mod(d, n):
    # Pins the exact float bytes: the phase index is k.q mod d per label.
    system = QuditSystem(n, d)
    labels = enumerate_labels(system)
    for k in labels:
        phases = np.array([dot_mod(k, q) for q in labels])
        expected = np.exp(2j * np.pi * phases / d) / np.sqrt(system.dim)
        assert np.array_equal(planewave(k).amplitudes, expected)


@pytest.mark.parametrize("d,n", [(3, 2), (6, 3), (5, 5), (16, 3), (64, 1)])
def test_planewave_bitwise_from_exp_formula(d, n):
    # Pins the exact float bytes against exp over every entry of k.q mod d.
    system = QuditSystem(n, d)
    labels = enumerate_labels(system)
    for k in labels[:: max(1, len(labels) // 128)] + labels[-1:]:
        # the int64 values, as numpy 1.x would compute 2j·pi times a uint8
        # array in complex64
        phases = functional_values(k).astype(np.int64)
        expected = np.exp(2j * np.pi * phases / d) / np.sqrt(system.dim)
        assert np.array_equal(planewave(k).amplitudes, expected)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (4, 1), (6, 1), (9, 1)])
def test_planewave_matches_transform_exhaustive(d, n):
    system = QuditSystem(n, d)
    for k in enumerate_labels(system):
        direct = planewave(k).amplitudes
        via_transform = to_q_rep(basis_state(k, K)).amplitudes
        assert np.max(np.abs(direct - via_transform)) < 1e-12


@pytest.mark.parametrize("d,n", [(3, 2), (2, 3), (6, 1)])
def test_planewave_orthonormality(d, n):
    system = QuditSystem(n, d)
    waves = [planewave(k) for k in enumerate_labels(system)]
    for i, f in enumerate(waves):
        for j, g in enumerate(waves):
            expected = 1.0 if i == j else 0.0
            assert abs(inner_product(f, g) - expected) < 1e-12


def test_planewave_round_trips_to_delta():
    system = QuditSystem(2, 3)
    k = DigitLabel((2, 1), system)
    phi = to_k_rep(planewave(k))
    expected = basis_state(k, K).amplitudes
    assert np.max(np.abs(phi.amplitudes - expected)) < 1e-12


def test_dense_oracle_d2_n2_is_hadamard_kron():
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    oracle = dense_fourier_oracle(QuditSystem(2, 2))
    assert np.max(np.abs(oracle - np.kron(h, h))) < 1e-14


def test_dense_oracle_entries_match_dot_mod():
    system = QuditSystem(2, 3)
    oracle = dense_fourier_oracle(system)
    labels = enumerate_labels(system)
    for i, q in enumerate(labels):
        for j, k in enumerate(labels):
            expected = np.exp(2j * np.pi * dot_mod(k, q) / 3) / 3
            assert oracle[i, j] == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("d,n", [(3, 2), (4, 2), (2, 4)])
def test_dense_oracle_agrees_with_transform(d, n):
    rng = np.random.default_rng(23)
    system = QuditSystem(n, d)
    oracle = dense_fourier_oracle(system)
    assert np.max(np.abs(oracle @ oracle.conj().T - np.eye(system.dim))) < 1e-11
    for _ in range(20):
        phi = random_state(system, K, rng)
        via_matrix = oracle @ phi.amplitudes
        via_transform = to_q_rep(phi).amplitudes
        assert np.max(np.abs(via_matrix - via_transform)) < 1e-12


@pytest.mark.parametrize(
    "d,n", [(3, 2), (6, 2), (2, 8), (16, 2), (2, 10), (3, 6), (17, 2)]
)
def test_dense_oracle_bitwise_from_index_digits(d, n):
    rows = np.indices((d,) * n).reshape(n, -1).T
    exponents = (rows @ rows.T) % d
    expected = np.exp(2j * np.pi * exponents / d) / np.sqrt(d**n)
    assert np.array_equal(dense_fourier_oracle(QuditSystem(n, d)), expected)


@pytest.mark.parametrize(
    "d,n,dtype",
    [
        (2, 3, np.uint8),
        (16, 2, np.uint8),
        (256, 1, np.uint8),
        (257, 1, np.uint16),
        # the largest d that n = 2 allows, and systems of many digits
        (64, 2, np.uint8),
        (2, 12, np.uint8),
        (5, 5, np.uint8),
        (3, 7, np.uint8),
    ],
)
def test_oracle_exponent_table_is_the_smallest_unsigned_type(d, n, dtype):
    table = _oracle_exponents(QuditSystem(n, d))
    rows = np.indices((d,) * n).reshape(n, -1).T
    assert table.dtype == dtype
    assert np.array_equal(table, (rows @ rows.T) % d)


@pytest.mark.parametrize(
    "d,dtype",
    [
        (2, np.uint8),
        (3, np.uint8),
        (16, np.uint8),
        (255, np.uint8),
        (256, np.uint8),
        (257, np.uint16),
        (4096, np.uint16),
    ],
)
def test_product_table_is_q_times_k_mod_d_in_the_smallest_unsigned_type(d, dtype):
    r = np.arange(d)
    table = product_table(d)
    assert table.dtype == dtype
    assert np.array_equal(table, np.outer(r, r) % d)


# ragged last blocks at (3, 7), (5, 5) and (300, 1); (300, 1) is uint16
@pytest.mark.parametrize(
    "d,n", [(3, 7), (5, 5), (2, 11), (64, 2), (2, 12), (300, 1)]
)
def test_oracle_exponent_row_blocks_are_rows_of_the_full_table(d, n):
    system = QuditSystem(n, d)
    table = _oracle_exponents(system)
    for start in range(0, system.dim, 256):
        rows = slice(start, start + 256)
        block = _oracle_exponents(system, rows)
        assert block.dtype == table.dtype
        assert np.array_equal(block, table[rows])


def test_oracle_exponent_scratch_stays_below_a_quarter_table():
    # Each row is the sum of rows of two half-size tables, 64 x 64 at (4, 6),
    # reduced 256 rows at a time: the scratch is those tables, the rows'
    # digit halves and one block's reduction, about 1/16 of the result.
    system = QuditSystem(6, 4)
    tracemalloc.start()
    try:
        table = _oracle_exponents(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * table.nbytes


def test_planewave_holds_no_memory_once_deleted():
    # The roots are built per call: a process-wide cache of them kept 16.8 MB
    # alive after this wave was gone and raised the call's peak to 3x its bytes.
    label = DigitLabel((12345,), QuditSystem(1, 2**20))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        wave = planewave(label)
        nbytes = wave.amplitudes.nbytes
        del wave
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - start < 2**20
    assert peak - start < 2.5 * nbytes


def test_dense_oracle_scale_cap():
    with pytest.raises(ValueError, match="cap"):
        dense_fourier_oracle(QuditSystem(13, 2))


@pytest.mark.parametrize("d", [4, 6])
def test_non_prime_d_duality_survives(d):
    rng = np.random.default_rng(29)
    system = QuditSystem(2, d)
    for _ in range(10):
        psi = random_state(system, Q, rng)
        back = to_q_rep(to_k_rep(psi))
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-12
    for k in enumerate_labels(system):
        direct = planewave(k).amplitudes
        via_transform = to_q_rep(basis_state(k, K)).amplitudes
        assert np.max(np.abs(direct - via_transform)) < 1e-12


# Systems at which the n-qudit transform must equal, byte for byte, one
# single-wire contraction per qudit: the bench sweeps and large single states.
BYTE_SYSTEMS = [(2, 16), (3, 10), (5, 7), (16, 4), (3, 7), (5, 5), (2, 11), (64, 1)]


def _wire_by_wire(amps, d, n, wires, matrix):
    for wire in wires:
        amps = apply_at(amps, d, n, (wire,), matrix)
    return amps


@pytest.mark.parametrize("d,n", BYTE_SYSTEMS)
def test_transforms_bytes_equal_wire_by_wire(d, n):
    rng = np.random.default_rng(31)
    system = QuditSystem(n, d)
    f = single_qudit_fourier(d)
    psi = random_state(system, Q, rng)
    expected = _wire_by_wire(psi.amplitudes, d, n, range(n), f.conj().T)
    assert to_k_rep(psi).amplitudes.tobytes() == expected.tobytes()
    phi = random_state(system, K, rng)
    expected = _wire_by_wire(phi.amplitudes, d, n, range(n), f)
    assert to_q_rep(phi).amplitudes.tobytes() == expected.tobytes()


def test_single_qudit_fourier_is_fresh_and_writable():
    # each call builds a new matrix, and each transform builds its own, so a
    # caller's edit reaches no transform
    phi = random_state(QuditSystem(2, 3), K, np.random.default_rng(41))
    before = to_q_rep(phi).amplitudes.tobytes()
    f = single_qudit_fourier(3)
    assert f.flags.writeable and f is not single_qudit_fourier(3)
    f[:] = 0
    assert to_q_rep(phi).amplitudes.tobytes() == before


@pytest.mark.parametrize("d,n", BYTE_SYSTEMS)
def test_multi_wire_apply_at_on_batches(d, n):
    rng = np.random.default_rng(37)
    batch = rng.standard_normal((d**n, 3)) + 1j * rng.standard_normal((d**n, 3))
    f = single_qudit_fourier(d)
    for wires in (range(n), range(n - 1, -1, -1), (n - 1, 0, n - 1)):
        got = apply_at(batch, d, n, wires, f)
        assert got.shape == batch.shape
        assert got.tobytes() == _wire_by_wire(batch, d, n, wires, f).tobytes()


def _tensordot_chain(amps, d, n, wires, matrix):
    # the contraction apply_at must reproduce bit for bit: one tensordot
    # against each wire of the (d,)*n + batch view, moved back into place
    arr = amps.reshape((d,) * n + amps.shape[1:])
    for wire in wires:
        arr = np.moveaxis(np.tensordot(matrix, arr, axes=(1, wire)), 0, wire)
    return arr.reshape(amps.shape)


@pytest.mark.parametrize("d,n", BYTE_SYSTEMS + [(2, 1), (3, 2), (17, 2), (64, 2)])
def test_apply_at_bytes_equal_tensordot_chain(d, n):
    rng = np.random.default_rng(43)
    f = single_qudit_fourier(d)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    matrices = {"F": f, "F^dagger": f.conj().T, "QR": np.linalg.qr(z)[0]}
    assert matrices["F^dagger"].flags.f_contiguous  # the layout to_k_rep passes
    wire_lists = {
        "forward": range(n),
        "reversed": range(n - 1, -1, -1),
        "last-first-last": (n - 1, 0, n - 1),
        "first": (0,),
        "last": (n - 1,),
    }
    dim = d**n
    inputs = {}
    for batch in [(), (1,), (3,), (2, 2)]:
        shape = (dim,) + batch
        inputs[batch] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # one-hot vectors as verify's per-label sweep feeds them
    for index in {0, 1, dim // 2, dim - 1}:
        inputs[("one-hot", index)] = np.eye(1, dim, index, dtype=np.complex128)[0]
    for (mname, matrix), (wname, wires) in itertools.product(
        matrices.items(), wire_lists.items()
    ):
        for key, amps in inputs.items():
            got = apply_at(amps, d, n, wires, matrix)
            want = _tensordot_chain(amps, d, n, wires, matrix)
            assert got.shape == amps.shape
            assert got.tobytes() == want.tobytes(), (mname, wname, key)
