"""Property tests over generated systems and labels, with Hypothesis.

Derandomized with a bounded example count, so the suite stays deterministic
and its runtime fixed.
"""

import numpy as np
import pytest

from quditsim import (
    DigitLabel,
    QuditSystem,
    Representation,
    basis_state,
    dense_fourier_oracle,
    dot_mod,
    enumerate_labels,
    label_to_index,
    planewave,
    random_state,
    to_k_rep,
    to_q_rep,
)
from quditsim.groups import functional_values

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MAX_DIM = 256

PROPERTY_SETTINGS = hypothesis.settings(
    derandomize=True, max_examples=50, deadline=None
)


@st.composite
def systems(draw):
    """A system (d, n) with d**n <= MAX_DIM."""
    # n first, so that multi-qudit systems are drawn as often as single ones
    n = draw(st.integers(1, 8))
    d = draw(st.integers(2, max(d for d in range(2, MAX_DIM + 1) if d**n <= MAX_DIM)))
    return QuditSystem(n, d)


@st.composite
def labels(draw):
    """A label k of a system drawn by systems()."""
    system = draw(systems())
    n, d = system.n, system.d
    digits = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    return DigitLabel(tuple(digits), system)


@PROPERTY_SETTINGS
@hypothesis.given(labels())
def test_functional_values_equal_dot_mod(k):
    expected = [dot_mod(k, q) for q in enumerate_labels(k.system)]
    assert functional_values(k).tolist() == expected


@PROPERTY_SETTINGS
@hypothesis.given(labels())
def test_planewave_equals_transform_of_point_mass(k):
    via_transform = to_q_rep(basis_state(k, Representation.K)).amplitudes
    assert np.max(np.abs(planewave(k).amplitudes - via_transform)) <= 1e-12


@PROPERTY_SETTINGS
@hypothesis.given(labels())
def test_dense_oracle_row_is_the_planewave(q):
    # the functional/planewave duality: row q of the character table is the
    # planewave of q, the same roots gathered by an independent index path
    row = dense_fourier_oracle(q.system)[label_to_index(q)]
    assert row.tobytes() == planewave(q).amplitudes.tobytes()


@PROPERTY_SETTINGS
@hypothesis.given(systems(), st.integers(0, 2**32 - 1))
def test_transforms_match_dense_oracle(system, seed):
    # the per-wire transforms against the brute-force character table: O
    # maps k-rep amplitudes to q-rep ones, and O† maps them back
    rng = np.random.default_rng(seed)
    oracle = dense_fourier_oracle(system)
    phi = random_state(system, Representation.K, rng)
    assert np.max(np.abs(to_q_rep(phi).amplitudes - oracle @ phi.amplitudes)) <= 1e-12
    psi = random_state(system, Representation.Q, rng)
    via_oracle = oracle.conj().T @ psi.amplitudes
    assert np.max(np.abs(to_k_rep(psi).amplitudes - via_oracle)) <= 1e-12
