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
    dot_mod,
    enumerate_labels,
    planewave,
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
def labels(draw):
    """A label k of a system (d, n) with d**n <= MAX_DIM."""
    # n first, so that multi-qudit systems are drawn as often as single ones
    n = draw(st.integers(1, 8))
    d = draw(st.integers(2, max(d for d in range(2, MAX_DIM + 1) if d**n <= MAX_DIM)))
    digits = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    return DigitLabel(tuple(digits), QuditSystem(n, d))


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
