import math

import numpy as np
import pytest

from quditsim import (
    DigitLabel,
    QuditSystem,
    Representation,
    basis_state,
    fidelity,
    from_amplitudes,
    inner_product,
    probabilities,
    random_state,
    state_from_dict,
    state_to_dict,
    tensor_product,
)

Q = Representation.Q
K = Representation.K


def test_basis_state_examples():
    e0 = basis_state(DigitLabel((0, 0), QuditSystem(2, 3)), Q)
    assert e0.amplitudes[0] == 1 and np.count_nonzero(e0.amplitudes) == 1

    e7 = basis_state(DigitLabel((2, 1), QuditSystem(2, 3)), K)
    assert e7.amplitudes[7] == 1 and e7.rep is K

    one = basis_state(DigitLabel((1,), QuditSystem(1, 2)), Q)
    assert np.allclose(one.amplitudes, [0, 1])


def test_from_amplitudes_accepts_normalized():
    s = from_amplitudes(QuditSystem(1, 2), Q, [1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert np.allclose(s.amplitudes, [1 / math.sqrt(2)] * 2)
    # single-qudit superposition factor with |b0|^2 + |b1|^2 = 1
    from_amplitudes(QuditSystem(1, 3), K, [0.6, 0.8j, 0.0])


def test_from_amplitudes_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        from_amplitudes(QuditSystem(1, 2), Q, [1.0, 1.0])
    with pytest.raises(ValueError, match="2"):  # deviation is reported
        from_amplitudes(QuditSystem(1, 2), Q, [1.0, 1.0])


@pytest.mark.parametrize(
    "amps",
    [
        [math.nan, 0.0],
        [math.inf, 0.0],
        [-math.inf, 0.0],
        [complex(math.inf, math.nan), 0.0],
        [1e200, 0.0],  # finite, but its square overflows
    ],
    ids=["nan", "inf", "-inf", "inf+nanj", "1e200"],
)
def test_from_amplitudes_rejects_non_finite(amps):
    with pytest.raises(ValueError, match="non-finite"):
        from_amplitudes(QuditSystem(1, 2), Q, amps)


def test_norm_tolerance_edges():
    system = QuditSystem(1, 2)
    with pytest.raises(ValueError, match="not normalized"):
        from_amplitudes(system, Q, [math.sqrt(1 + 2e-10), 0.0])
    with pytest.raises(ValueError, match="not normalized"):
        from_amplitudes(system, Q, [math.sqrt(1 - 2e-10), 0.0])
    from_amplitudes(system, Q, [math.sqrt(1 + 5e-11), 0.0])
    from_amplitudes(system, Q, [0.0, 1j * math.sqrt(1 - 5e-11)])


def test_from_amplitudes_rejects_wrong_length():
    with pytest.raises(ValueError, match="expected 4 amplitudes"):
        from_amplitudes(QuditSystem(2, 2), Q, [1.0, 0.0])


def test_amplitudes_are_read_only():
    s = basis_state(DigitLabel((0,), QuditSystem(1, 2)), Q)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_inner_product():
    rng = np.random.default_rng(3)
    psi = random_state(QuditSystem(2, 3), Q, rng)
    assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-10)

    sys12 = QuditSystem(1, 2)
    zero = basis_state(DigitLabel((0,), sys12), Q)
    one = basis_state(DigitLabel((1,), sys12), Q)
    assert inner_product(zero, one) == 0

    uniform = from_amplitudes(sys12, Q, [1 / math.sqrt(2)] * 2)
    assert inner_product(zero, uniform) == pytest.approx(1 / math.sqrt(2))

    f = random_state(sys12, Q, rng)
    g = random_state(sys12, Q, rng)
    assert inner_product(f, g) == pytest.approx(np.conj(inner_product(g, f)))


def test_inner_product_mismatch():
    sys12 = QuditSystem(1, 2)
    zero_q = basis_state(DigitLabel((0,), sys12), Q)
    zero_k = basis_state(DigitLabel((0,), sys12), K)
    with pytest.raises(ValueError, match="representations differ"):
        inner_product(zero_q, zero_k)
    with pytest.raises(ValueError, match="systems differ"):
        inner_product(zero_q, basis_state(DigitLabel((0,), QuditSystem(1, 3)), Q))


def test_tensor_product_basis():
    sys13 = QuditSystem(1, 3)
    zero = basis_state(DigitLabel((0,), sys13), Q)
    two = basis_state(DigitLabel((2,), sys13), Q)
    combined = tensor_product(zero, two)
    assert combined.system == QuditSystem(2, 3)
    expected = basis_state(DigitLabel((0, 2), QuditSystem(2, 3)), Q)
    assert np.array_equal(combined.amplitudes, expected.amplitudes)


def test_tensor_product_superposition_factor():
    # (b0|0> + b1|1>) (x) |2> puts b0 at label (0,2) and b1 at label (1,2)
    b0, b1 = 0.6, 0.8
    sys13 = QuditSystem(1, 3)
    factor = from_amplitudes(sys13, Q, [b0, b1, 0.0])
    two = basis_state(DigitLabel((2,), sys13), Q)
    combined = tensor_product(factor, two)
    assert combined.amplitudes[2] == pytest.approx(b0)   # index of (0,2)
    assert combined.amplitudes[5] == pytest.approx(b1)   # index of (1,2)
    assert np.count_nonzero(combined.amplitudes) == 2

    probs = probabilities(combined)
    assert probs[2] == pytest.approx(0.36)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_tensor_product_uniform():
    sys12 = QuditSystem(1, 2)
    uniform = from_amplitudes(sys12, Q, [1 / math.sqrt(2)] * 2)
    combined = tensor_product(uniform, uniform)
    assert np.allclose(combined.amplitudes, 0.5)


def test_tensor_product_mismatch():
    a = basis_state(DigitLabel((0,), QuditSystem(1, 2)), Q)
    b = basis_state(DigitLabel((0,), QuditSystem(1, 3)), Q)
    with pytest.raises(ValueError, match="dimensions differ"):
        tensor_product(a, b)
    c = basis_state(DigitLabel((0,), QuditSystem(1, 2)), K)
    with pytest.raises(ValueError, match="representations differ"):
        tensor_product(a, c)


def test_probabilities():
    e = basis_state(DigitLabel((1, 0), QuditSystem(2, 2)), Q)
    assert np.array_equal(probabilities(e), [0, 0, 1, 0])
    uniform = from_amplitudes(QuditSystem(1, 2), Q, [1 / math.sqrt(2)] * 2)
    assert np.allclose(probabilities(uniform), [0.5, 0.5])


def test_fidelity():
    sys12 = QuditSystem(1, 2)
    zero = basis_state(DigitLabel((0,), sys12), Q)
    one = basis_state(DigitLabel((1,), sys12), Q)
    uniform = from_amplitudes(sys12, Q, [1 / math.sqrt(2)] * 2)
    assert fidelity(zero, zero) == pytest.approx(1.0)
    assert fidelity(zero, one) == 0
    assert fidelity(zero, uniform) == pytest.approx(0.5)


def test_state_json_round_trip():
    rng = np.random.default_rng(5)
    for rep in (Q, K):
        state = random_state(QuditSystem(2, 3), rep, rng)
        doc = state_to_dict(state)
        parsed = state_from_dict(doc)
        assert parsed.system == state.system
        assert parsed.rep is rep
        assert np.allclose(parsed.amplitudes, state.amplitudes)


def test_state_json_validation():
    good = state_to_dict(basis_state(DigitLabel((0,), QuditSystem(1, 2)), Q))

    missing = dict(good)
    del missing["rep"]
    with pytest.raises(ValueError, match="missing field 'rep'"):
        state_from_dict(missing)

    bad_rep = dict(good, rep="x")
    with pytest.raises(ValueError, match="unknown representation"):
        state_from_dict(bad_rep)

    short = dict(good, amplitudes=good["amplitudes"][:1])
    with pytest.raises(ValueError, match="expected 2 amplitude pairs"):
        state_from_dict(short)

    unnormalized = dict(good, amplitudes=[[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="not normalized"):
        state_from_dict(unnormalized)

    with pytest.raises(ValueError, match="JSON object"):
        state_from_dict([1, 2, 3])
