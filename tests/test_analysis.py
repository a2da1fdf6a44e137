import math

import numpy as np
import pytest

from quditsim import (
    DigitLabel,
    QuditSystem,
    Representation,
    basis_state,
    build_functional_circuit,
    commutator_qk,
    dot_mod,
    entropies,
    entropy_to_dict,
    enumerate_labels,
    expect_k,
    expect_q,
    from_amplitudes,
    k_distributions,
    k_observable_in_k_rep,
    k_observable_in_q_rep,
    partition,
    partition_to_dict,
    planewave,
    q_observable,
    random_state,
    run_circuit,
    shannon_entropy,
    single_qudit_fourier,
    tensor_product,
    translation_gate_matrix,
    translation_operator_k_rep,
    verify_translation_identity,
)
from quditsim._tensor import apply_at

Q = Representation.Q
K = Representation.K

# Hand-checked 2-qutrit partitions: classes of q with k.q = 0, 1, 2 (mod 3).
PARTITION_01 = [["00", "10", "20"], ["01", "11", "21"], ["02", "12", "22"]]
PARTITION_21 = [["00", "11", "22"], ["01", "12", "20"], ["02", "10", "21"]]


def test_k_observable_in_k_rep():
    obs = k_observable_in_k_rep(3)
    assert obs.basis_tag is K
    assert np.array_equal(obs.matrix, np.diag([0, 1, 2]))
    for d in (2, 3, 6):
        assert np.trace(k_observable_in_k_rep(d).matrix).real == d * (d - 1) / 2


def test_q_observable():
    obs = q_observable(2)
    assert obs.basis_tag is Q
    assert np.array_equal(obs.matrix, np.diag([0, 1]))


def test_k_observable_in_q_rep_d2():
    expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.max(np.abs(k_observable_in_q_rep(2).matrix - expected)) < 1e-14


@pytest.mark.parametrize("d", range(2, 17))
def test_k_observable_spectrum(d):
    matrix = k_observable_in_q_rep(d).matrix
    assert np.max(np.abs(matrix - matrix.conj().T)) < 1e-12
    eigenvalues = np.sort(np.linalg.eigvalsh(matrix))
    assert np.max(np.abs(eigenvalues - np.arange(d))) < 1e-10


@pytest.mark.parametrize("d,n", [(3, 2), (2, 3), (6, 1), (4, 2)])
def test_planewave_is_wavenumber_eigenstate(d, n):
    system = QuditSystem(n, d)
    kq = k_observable_in_q_rep(d).matrix
    for k in enumerate_labels(system):
        wave = planewave(k)
        for wire in range(n):
            acted = apply_at(wave.amplitudes, d, n, (wire,), kq)
            assert np.max(np.abs(acted - k.digits[wire] * wave.amplitudes)) < 1e-10


@pytest.mark.parametrize("d,n", [(3, 2), (2, 3), (6, 2)])
def test_expect_k_on_planewaves(d, n):
    system = QuditSystem(n, d)
    for k in enumerate_labels(system):
        got = expect_k(planewave(k))
        assert np.max(np.abs(got - np.array(k.digits))) < 1e-10


def test_expect_k_on_basis_states():
    system = QuditSystem(2, 3)
    for q in enumerate_labels(system):
        got = expect_k(basis_state(q, Q))
        assert np.allclose(got, 1.0, atol=1e-10)  # mean of 0,1,2


def test_expect_k_factorizes_over_products():
    sys13 = QuditSystem(1, 3)
    a = from_amplitudes(sys13, Q, [0.6, 0.8, 0.0])
    b = from_amplitudes(sys13, Q, [0.0, 1.0, 0.0])
    combined = tensor_product(a, b)
    singles = [expect_k(a)[0], expect_k(b)[0]]
    assert np.allclose(expect_k(combined), singles, atol=1e-12)


def test_expect_q():
    system = QuditSystem(2, 3)
    for q in enumerate_labels(system):
        assert np.array_equal(expect_q(basis_state(q, Q)), np.array(q.digits, float))
    uniform = from_amplitudes(QuditSystem(1, 3), Q, np.ones(3) / math.sqrt(3))
    assert expect_q(uniform)[0] == pytest.approx(1.0)
    skewed = from_amplitudes(QuditSystem(1, 2), Q, [math.sqrt(0.8), math.sqrt(0.2)])
    assert expect_q(skewed)[0] == pytest.approx(0.2)


def test_rep_enforcement():
    state_k = basis_state(DigitLabel((0,), QuditSystem(1, 2)), K)
    for fn in (expect_q, expect_k, k_distributions, entropies):
        with pytest.raises(ValueError, match="q-rep"):
            fn(state_k)


def test_k_distributions():
    system = QuditSystem(2, 3)
    dist = k_distributions(basis_state(DigitLabel((1, 2), system), Q))
    assert dist.shape == (2, 3)
    assert np.allclose(dist, 1 / 3, atol=1e-12)  # basis states spread evenly over k
    wave = planewave(DigitLabel((2, 1), system))
    dist = k_distributions(wave)
    assert np.allclose(dist[0], [0, 0, 1], atol=1e-12)
    assert np.allclose(dist[1], [0, 1, 0], atol=1e-12)


def test_commutator_d2_exact():
    # worked by hand from Q = diag(0,1) and K = [[.5,-.5],[-.5,.5]]
    comm, norm = commutator_qk(2)
    assert np.max(np.abs(comm - np.array([[0, 0.5], [-0.5, 0]]))) < 1e-12
    assert norm == pytest.approx(1 / math.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("d", range(2, 17))
def test_commutator_properties(d):
    comm, norm = commutator_qk(d)
    assert norm > 0.1
    assert np.max(np.abs(comm + comm.conj().T)) < 1e-12  # anti-Hermitian
    assert abs(np.trace(comm)) < 1e-12


def test_shannon_entropy_basics():
    assert shannon_entropy(np.array([1.0, 0.0])) == 0.0
    assert shannon_entropy(np.array([0.5, 0.5])) == pytest.approx(math.log(2))
    assert shannon_entropy(np.array([0.5, 0.5]), base=2) == pytest.approx(1.0)


def test_entropies_extremes():
    system = QuditSystem(2, 3)
    report = entropies(basis_state(DigitLabel((1, 2), system), Q))
    assert report.h_q == 0.0
    assert report.h_k == pytest.approx(math.log(9), abs=1e-12)
    assert report.sum == pytest.approx(math.log(9), abs=1e-12)

    mirror = entropies(planewave(DigitLabel((2, 1), system)))
    assert mirror.h_q == pytest.approx(math.log(9), abs=1e-12)
    assert mirror.h_k == pytest.approx(0.0, abs=1e-12)


def test_entropies_base_conversion():
    system = QuditSystem(1, 2)
    state = from_amplitudes(system, Q, [1 / math.sqrt(2)] * 2)
    nats = entropies(state)
    bits = entropies(state, base=2)
    assert bits.h_q == pytest.approx(nats.h_q / math.log(2))
    assert bits.log_base == "2"
    assert nats.log_base == "e"


# an infinite base would divide every entropy down to 0.0
@pytest.mark.parametrize("base", [1, 0, -2, math.nan, math.inf])
def test_bad_log_base_rejected(base):
    state = from_amplitudes(QuditSystem(1, 2), Q, [1 / math.sqrt(2)] * 2)
    message = f"log base must be finite, positive and not 1, got {base!r}"
    with pytest.raises(ValueError) as info:
        shannon_entropy(np.array([0.5, 0.5]), base=base)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        entropies(state, base=base)
    assert str(info.value) == message


def test_base_two_entropy_unchanged():
    # one bit, exactly: ln 2 / ln 2
    assert shannon_entropy(np.array([0.5, 0.5]), base=2) == 1.0
    assert shannon_entropy(np.array([0.25] * 4), base=2) == 2.0


# h_q + h_k is positive, and at least n ln d: the Maassen–Uffink bound for q/k
@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (6, 2)])
def test_entropy_sum_strictly_positive(d, n):
    rng = np.random.default_rng(61)
    system = QuditSystem(n, d)
    for _ in range(100):
        report = entropies(random_state(system, Q, rng))
        assert report.sum > 0
        assert report.sum >= n * np.log(d) - 1e-12


def test_translation_operator_k_rep():
    assert np.allclose(translation_operator_k_rep(2, 1), np.diag([1, -1]), atol=1e-14)
    assert np.array_equal(translation_operator_k_rep(5, 0), np.eye(5))
    t = translation_operator_k_rep(7, 3)
    assert np.max(np.abs(t @ t.conj().T - np.eye(7))) < 1e-12
    with pytest.raises(ValueError):
        translation_operator_k_rep(3, 3)


def test_verify_translation_identity():
    assert verify_translation_identity(2, 1) < 1e-12
    assert verify_translation_identity(5, 0) < 1e-12  # conjugated identity
    for d in (2, 3, 4, 6, 8, 9, 12, 16):
        for q in range(d):
            assert verify_translation_identity(d, q) < 1e-10


# every public function of a bare d takes it as QuditSystem does: an integer,
# Python or numpy, of at least 2
ONE_QUDIT_BUILDERS = {
    "single_qudit_fourier": single_qudit_fourier,
    "k_observable_in_k_rep": lambda d: k_observable_in_k_rep(d).matrix,
    "translation_operator_k_rep": lambda d: translation_operator_k_rep(d, 1),
    "commutator_qk": lambda d: commutator_qk(d)[0],
    "verify_translation_identity": lambda d: verify_translation_identity(d, 1),
    "translation_gate_matrix": lambda d: translation_gate_matrix(d, 1),
}


@pytest.mark.parametrize("name", ONE_QUDIT_BUILDERS)
@pytest.mark.parametrize("d", [2.5, 3.0, 1])
def test_one_qudit_builders_reject_bad_d(name, d):
    with pytest.raises(ValueError):
        ONE_QUDIT_BUILDERS[name](d)


@pytest.mark.parametrize("name", ONE_QUDIT_BUILDERS)
def test_one_qudit_builders_accept_numpy_integer_d(name):
    assert np.array_equal(
        ONE_QUDIT_BUILDERS[name](np.int64(3)), ONE_QUDIT_BUILDERS[name](3)
    )


def test_translation_identity_d2_is_bitflip():
    # H diag(1,-1) H equals the shift-by-1 permutation
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    conjugated = h @ np.diag([1, -1]) @ h
    assert np.max(np.abs(conjugated - translation_gate_matrix(2, 1))) < 1e-15


def test_partition_reference_tables():
    system = QuditSystem(2, 3)
    doc = partition_to_dict(partition(DigitLabel((0, 1), system)))
    assert doc == {"k": [0, 1], "classes": PARTITION_01}
    doc = partition_to_dict(partition(DigitLabel((2, 1), system)))
    assert doc == {"k": [2, 1], "classes": PARTITION_21}


def test_partition_zero_functional():
    system = QuditSystem(2, 3)
    part = partition(DigitLabel((0, 0), system))
    assert len(part.classes[0]) == 9
    assert all(len(cls) == 0 for cls in part.classes[1:])


@pytest.mark.parametrize("d,n", [(3, 2), (6, 2), (2, 4)])
def test_partition_class_sizes(d, n):
    # The image of q -> k.q is the subgroup generated by gcd(k digits, d):
    # d/g classes of size g * d**(n-1) each, the rest empty. With d prime
    # and k nonzero, g = 1 and all d classes have size d**(n-1).
    system = QuditSystem(n, d)
    for k in enumerate_labels(system):
        part = partition(k)
        assert sum(len(cls) for cls in part.classes) == system.dim
        g = math.gcd(d, *k.digits)
        occupied = [v for v, cls in enumerate(part.classes) if cls]
        assert occupied == list(range(0, d, g))
        assert all(len(part.classes[v]) == g * d ** (n - 1) for v in occupied)
        covered = [q for cls in part.classes for q in cls]
        assert len(set(covered)) == system.dim


def test_partition_equal_classes_prime_d():
    system = QuditSystem(2, 3)
    for k in enumerate_labels(system):
        if not any(k.digits):
            continue
        assert [len(cls) for cls in partition(k).classes] == [3, 3, 3]


def test_partition_classes_in_index_order():
    system = QuditSystem(2, 3)
    part = partition(DigitLabel((2, 1), system))
    for cls in part.classes:
        kets = [q.ket() for q in cls]
        assert kets == sorted(kets)


def test_partition_matches_functional_circuit():
    # class membership must agree with the holder digit produced by the circuit
    d, m = 3, 2
    system = QuditSystem(m, d)
    circuit, _ = build_functional_circuit(m, d)
    for k in enumerate_labels(system):
        classes = partition(k).classes
        for q in enumerate_labels(system):
            start = tensor_product(
                tensor_product(basis_state(k, Q), basis_state(q, Q)),
                basis_state(DigitLabel((0,), QuditSystem(1, d)), Q),
            )
            out = run_circuit(circuit, start)
            holder = int(np.flatnonzero(out.amplitudes)[0]) % d
            assert q in classes[holder]
            assert holder == dot_mod(k, q)


def test_entropy_to_dict():
    report = entropies(basis_state(DigitLabel((0, 0), QuditSystem(2, 3)), Q))
    doc = entropy_to_dict(report)
    assert set(doc) == {"h_q", "h_k", "sum", "log_base"}
    assert doc["log_base"] == "e"
    assert doc["sum"] == doc["h_q"] + doc["h_k"]
