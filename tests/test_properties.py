"""Property tests over generated systems, labels and CLI input files, with Hypothesis.

Derandomized with a bounded example count, so the suite stays deterministic
and its runtime fixed.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

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
from quditsim.cli import main
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


# what the parsers must reject where a number belongs: the float extremes,
# an integer past every float, the other JSON types and nested lists
FUZZ_LEAVES = st.one_of(
    st.sampled_from([0, 1, -1, 0.5, -0.0, 1e308, -1e308, 1e-308, 10**400]),
    st.integers(-3, 5),
    st.floats(),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
)
FUZZ_VALUES = st.recursive(
    FUZZ_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=4
)
BASIS_STATE = {"n": 1, "d": 2, "rep": "q", "amplitudes": [[1, 0], [0, 0]]}
OVERFLOW_UNITARY = [[[1e308, 1e308], [0, 0]], [[0, 0], [1, 0]]]


def _number_paths(node, path=()):
    """The key path of every number (bool included) in a JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _number_paths(child, path + (key,))
    elif not isinstance(node, str):
        yield path


@st.composite
def corrupted(draw, doc):
    """doc with up to three of its numbers replaced by FUZZ_VALUES."""
    paths = st.sampled_from(list(_number_paths(doc)))
    for *parents, last in draw(st.lists(paths, max_size=3)):
        node = doc
        for key in parents:
            node = node[key]
        node[last] = draw(FUZZ_VALUES)
    return doc


@st.composite
def cli_inputs(draw):
    """(command, state document, circuit document) for transform, analyze or run."""
    d, n = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    amps = [[0, 0] for _ in range(d**n)]
    amps[draw(st.integers(0, d**n - 1))] = draw(st.sampled_from([[1, 0], [0, -1.0]]))
    command = draw(st.sampled_from(["transform", "analyze", "run"]))
    rep = "q" if command == "run" else draw(st.sampled_from(["q", "k"]))
    state = draw(corrupted({"n": n, "d": d, "rep": rep, "amplitudes": amps}))
    if command != "run":
        return command, state, None
    matrix = [[[float(i == j), 0.0] for j in range(d)] for i in range(d)]
    gates = [{"kind": "unitary", "target": 0, "matrix": matrix},
             {"kind": "translation", "target": n - 1, "amount": 1}]
    if n == 2:
        gates.append({"kind": "cadd", "control": 0, "target": 1, "multiplier": 1})
    return command, state, draw(corrupted({"n": n, "d": d, "gates": gates}))


def _assert_exit_0_or_one_error_line(command, files, flags, codes):
    """main([command, --name path per JSON file, *flags]): exit 0 with empty
    stderr, or an exit in codes with empty stdout and one error line; no warning."""
    out, err = io.StringIO(), io.StringIO()
    # a directory per example: a function-scoped fixture would be shared by all
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for name, doc in files.items():
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            argv += [f"--{name}", path]
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv + flags)
    assert [str(w.message) for w in caught] == []
    assert code in (0, *codes), err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(cli_inputs())
@hypothesis.example(("run", BASIS_STATE, {"n": 1, "d": 2, "gates": [
    {"kind": "unitary", "target": 0, "matrix": OVERFLOW_UNITARY}]}))
def test_cli_parsers_exit_0_or_with_one_error_line(inputs):
    command, state, circuit = inputs
    files = {"in": state} if circuit is None else {"circuit": circuit, "in": state}
    flags = ["--to", "k"] if command == "transform" else []
    _assert_exit_0_or_one_error_line(command, files, flags, codes=(2,))


@st.composite
def fuzzed(draw, doc):
    """doc as it is, or corrupted(), after its n, d and rep are moved off or not."""
    if draw(st.booleans()):
        return doc
    if draw(st.booleans()):
        n, d = doc["n"], doc["d"]
        doc = {**doc, "n": draw(st.sampled_from([n, 0, n + 1, 10**400])),
               "d": draw(st.sampled_from([d, 1, d + 1]))}
        if "rep" in doc:
            doc["rep"] = draw(st.sampled_from(["q", "k", "Q", "", "qk"]))
    return draw(corrupted(doc))


@st.composite
def functional_and_ccadd_inputs(draw):
    """(command, files, flags): functional on a handler file, or run on an
    n = 3 ccadd circuit, each valid or fuzzed; d <= 5, so that a valid
    functional circuit has at most 5**5 amplitudes."""
    d = draw(st.integers(2, 5))
    one = draw(st.sampled_from([[1, 0], [0, -1.0]]))
    if draw(st.booleans()):
        m = draw(st.integers(1, 2))
        amps = [[0, 0] for _ in range(d**m)]
        amps[draw(st.integers(0, d**m - 1))] = one
        rep = draw(st.sampled_from("qk"))
        handlers = draw(fuzzed({"n": m, "d": d, "rep": rep, "amplitudes": amps}))
        digits = draw(st.one_of(
            st.lists(st.integers(0, d - 1), min_size=m, max_size=m),
            st.lists(st.integers(-1, d), max_size=m + 1),
        ))
        flags = ["--d", str(draw(st.sampled_from([d, d, 1, d + 1]))),
                 "--sources=" + ",".join(map(str, digits))]
        return "functional", {"handlers": handlers}, flags
    amps = [[0, 0] for _ in range(d**3)]
    amps[draw(st.integers(0, d**3 - 1))] = one
    state = {"n": 3, "d": d, "rep": "q", "amplitudes": amps}
    wires = draw(st.permutations([0, 1, 2]))
    gate = {"kind": "ccadd", **dict(zip(("k_control", "j_control", "target"), wires))}
    circuit = draw(fuzzed({"n": 3, "d": d, "gates": [gate]}))
    return "run", {"circuit": circuit, "in": draw(fuzzed(state))}, []


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(functional_and_ccadd_inputs())
def test_functional_and_ccadd_exit_0_or_with_one_error_line(inputs):
    command, files, flags = inputs
    _assert_exit_0_or_one_error_line(command, files, flags, codes=(1, 2))
