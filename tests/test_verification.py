import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import quditsim.fourier as fourier
import quditsim.verification as verification
from quditsim import (
    DigitLabel,
    QuditSystem,
    StateVector,
    dense_fourier_oracle,
    run_verification,
)


# (3, 6) has 729 amplitudes, so its dense oracle spans three row blocks, the
# last one ragged
@pytest.mark.parametrize("d,n", [(3, 2), (2, 1), (2, 3), (4, 2), (6, 2), (3, 6)])
def test_sweep_passes(d, n):
    report = run_verification(d, n)
    assert report["all_pass"], [c for c in report["checks"] if not c["pass"]]
    assert report["d"] == d and report["n"] == n and report["seed"] == 0


def test_report_shape():
    report = run_verification(3, 2, seed=5)
    assert report["seed"] == 5
    assert report["d_is_prime"] is True
    names = [c["name"] for c in report["checks"]]
    assert "fourier_round_trip" in names
    assert "qutrit_reference_partitions" in names  # only present for d=3, n=2
    for check in report["checks"]:
        assert set(check) == {"name", "measured", "tolerance", "comparison", "pass"}
        assert check["comparison"] in ("<", ">")


def test_reference_partition_check_only_for_qutrit_pair():
    names = [c["name"] for c in run_verification(2, 2)["checks"]]
    assert "qutrit_reference_partitions" not in names


def test_non_prime_flag():
    assert run_verification(6, 1)["d_is_prime"] is False


def test_deterministic_given_seed():
    assert run_verification(3, 2, seed=1) == run_verification(3, 2, seed=1)


def test_dimension_cap():
    with pytest.raises(ValueError, match="dimension"):
        run_verification(2, 13)


BASE_CHECKS = [
    "single_qudit_fourier_unitary",
    "fourier_round_trip",
    "fourier_norm_preservation",
    "planewave_matches_transform",
    "planewave_orthonormality",
    "dense_oracle_unitary",
    "transform_matches_dense_oracle",
    "controlled_add_block_structure",
    "functional_circuit_exhaustive",
    "partition_matches_circuit",
    "translation_identity",
    "wavenumber_observable_hermitian",
    "wavenumber_observable_spectrum",
    "planewave_eigenstate_relation",
    "commutator_nonzero",
    "entropy_sum_positive",
    "entropy_extremes",
    "random_circuit_norm_drift",
]
QUTRIT_PAIR_CHECKS = (
    BASE_CHECKS[:10] + ["qutrit_reference_partitions"] + BASE_CHECKS[10:]
)
# Above 81 amplitudes the two exhaustive planewave checks drop out, and above
# 256 the tensor-versus-oracle comparison does too.
ABOVE_EXHAUSTIVE_CAP = [
    name for name in BASE_CHECKS
    if name not in ("planewave_orthonormality", "planewave_eigenstate_relation")
]
ABOVE_FACTORIZATION_CAP = [
    name for name in ABOVE_EXHAUSTIVE_CAP if name != "transform_matches_dense_oracle"
]
# From d = 65 on, d² > 4096 drops the controlled-add check, and no functional
# size fits the case cap (d >= 46), so both functional checks drop out too.
ABOVE_CADD_CAP = [
    name for name in BASE_CHECKS
    if name not in (
        "controlled_add_block_structure",
        "functional_circuit_exhaustive",
        "partition_matches_circuit",
    )
]


@pytest.mark.parametrize(
    "d,n,names",
    [
        (2, 1, BASE_CHECKS),
        (3, 2, QUTRIT_PAIR_CHECKS),
        (2, 3, BASE_CHECKS),
        (4, 3, BASE_CHECKS),
        (2, 7, ABOVE_EXHAUSTIVE_CAP),
        (2, 9, ABOVE_FACTORIZATION_CAP),
        (65, 1, ABOVE_CADD_CAP),
    ],
)
def test_check_names_in_order(d, n, names):
    checks = run_verification(d, n)["checks"]
    assert [c["name"] for c in checks] == names
    assert len(checks) == len(names)
    # permutation gates on basis states: no rounding at all
    measured = {c["name"]: c["measured"] for c in checks}
    for name in (
        "functional_circuit_exhaustive",
        "partition_matches_circuit",
        "controlled_add_block_structure",
    ):
        assert measured.get(name, 0.0) == 0.0


@pytest.mark.parametrize("d,n,m", [(45, 1, 1), (46, 1, 0), (64, 1, 0)])
def test_functional_size_is_zero_when_no_table_fits(d, n, m):
    # d**2 handler/source cases exceed the case cap from d = 46 on
    assert verification._functional_size(d, n) == m


def test_functional_checks_drop_out_without_affordable_size(monkeypatch):
    monkeypatch.setattr(verification, "_functional_size", lambda d, n: 0)
    names = [c["name"] for c in run_verification(2, 1)["checks"]]
    assert names == [
        name for name in BASE_CHECKS
        if name not in ("functional_circuit_exhaustive", "partition_matches_circuit")
    ]


def _failing(d, n):
    return {c["name"] for c in run_verification(d, n)["checks"] if not c["pass"]}


# Each Fourier row must catch a broken planewave or oracle on its own: the
# mutations below replace a verification module global and pin the exact
# set of rows that fail.
def test_digit_reversed_planewaves_fail_the_transform_rows(monkeypatch):
    def reversed_wave(k):
        return fourier.planewave(DigitLabel(k.digits[::-1], k.system))

    monkeypatch.setattr(verification, "planewave", reversed_wave)
    assert _failing(3, 2) == {
        "planewave_matches_transform",
        "planewave_eigenstate_relation",
    }


def test_repeated_planewave_fails_orthonormality(monkeypatch):
    def repeated_wave(k):
        if k.digits == (1, 1):
            k = DigitLabel((0, 0), k.system)
        return fourier.planewave(k)

    monkeypatch.setattr(verification, "planewave", repeated_wave)
    assert _failing(3, 2) == {
        "planewave_matches_transform",
        "planewave_orthonormality",
        "planewave_eigenstate_relation",
    }


def _mutated_oracle_rows(mutate):
    """verification._oracle_rows with every oracle entry passed through mutate."""
    oracle_rows = verification._oracle_rows

    def rows(system):
        exponents, roots = oracle_rows(system)
        return exponents, mutate(roots)

    return rows


def test_conjugated_oracle_fails_only_the_column_check(monkeypatch):
    monkeypatch.setattr(verification, "_oracle_rows", _mutated_oracle_rows(np.conj))
    assert _failing(3, 2) == {"transform_matches_dense_oracle"}


@pytest.mark.parametrize(
    "d,n,failing",
    [
        (3, 2, {"dense_oracle_unitary", "transform_matches_dense_oracle"}),
        # 512 amplitudes: above the column check's 256 cap
        (2, 9, {"dense_oracle_unitary"}),
    ],
)
def test_scaled_oracle_fails_unitarity(monkeypatch, d, n, failing):
    monkeypatch.setattr(
        verification, "_oracle_rows",
        _mutated_oracle_rows(lambda roots: roots * (1 + 1e-9)),
    )
    assert _failing(d, n) == failing


# to_q_rep stays in the Fourier rows' path: the round trip reads it, and the
# two transform rows compare it with the digit tree at three labels.
@pytest.mark.parametrize(
    "d,n,failing",
    [
        (3, 2, {
            "fourier_round_trip",
            "planewave_matches_transform",
            "transform_matches_dense_oracle",
        }),
        # above the column check's 256 cap
        (3, 6, {"fourier_round_trip", "planewave_matches_transform"}),
        (5, 4, {"fourier_round_trip", "planewave_matches_transform"}),
    ],
)
def test_conjugated_to_q_rep_fails_the_transform_rows(monkeypatch, d, n, failing):
    def conjugated(phi):
        psi = fourier.to_q_rep(phi)
        return StateVector(psi.system, psi.rep, np.conj(psi.amplitudes))

    monkeypatch.setattr(verification, "to_q_rep", conjugated)
    assert _failing(d, n) == failing


def _mutated_exponents(mutate):
    """verification._oracle_rows with mutate applied to a copy of the exponents."""
    oracle_rows = verification._oracle_rows

    def rows(system):
        exponents, roots = oracle_rows(system)
        exponents = exponents.copy()
        mutate(exponents, system.d)
        return exponents, roots

    return rows


def _replace_row(table, d):
    table[5] = table[7]


def _raise_entry(table, d):
    table[3, 4] = (table[3, 4] + 1) % d


def _replace_column(table, d):
    table[:, 5] = table[:, 7]


# The Gram's strength against single corruptions of the oracle, which a
# cheaper unitarity measure must keep: at (2, 9) the row measured 1.0,
# 3.9e-3 and 3.9e-3 for these three.
@pytest.mark.parametrize("mutate", [_replace_row, _raise_entry, _replace_column])
@pytest.mark.parametrize(
    "d,n,failing",
    [
        (2, 9, {"dense_oracle_unitary"}),
        (3, 5, {"dense_oracle_unitary", "transform_matches_dense_oracle"}),
    ],
)
def test_corrupted_oracle_exponents_fail_unitarity(monkeypatch, mutate, d, n, failing):
    monkeypatch.setattr(verification, "_oracle_rows", _mutated_exponents(mutate))
    assert _failing(d, n) == failing


def readme_checks():
    """(name, condition or None) for each check the README lists, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    items = re.findall(r"^  - `([a-z_]+)`(.*(?:\n    .*)*)", readme, re.MULTILINE)
    checks = []
    for name, text in items:
        condition = re.match(r"\((.*?)\):", " ".join(text.split()))
        checks.append((name, condition and condition.group(1)))
    return checks


def test_readme_lists_every_check_in_report_order():
    listed = [name for name, _ in readme_checks()]
    # (3, 2) is the one system whose report carries every check
    names = [c["name"] for c in run_verification(3, 2)["checks"]]
    assert len(names) == 19
    assert listed == names


# Each README condition phrase, read independently of verification.py.
README_CONDITIONS = {
    "dim <= 81": lambda d, n: d**n <= 81,
    "dim <= 256": lambda d, n: d**n <= 256,
    "d² <= 4096": lambda d, n: d * d <= 4096,
    "d <= 45, so that some functional size m >= 1 keeps the table within"
    " d^(2m) <= 2048 cases": lambda d, n: d <= 45,
    "d = 3, n = 2 only": lambda d, n: (d, n) == (3, 2),
}


@pytest.mark.parametrize(
    "d,n", [(2, 1), (2, 2), (3, 2), (3, 4), (2, 7), (2, 8), (2, 9), (65, 1)]
)
def test_readme_conditions_match_the_report(d, n):
    expected = []
    holds = None
    for name, condition in readme_checks():
        if condition != "same condition":
            holds = README_CONDITIONS[condition] if condition else None
        if holds is None or holds(d, n):
            expected.append(name)
    assert [c["name"] for c in run_verification(d, n)["checks"]] == expected


def _one_product_dev(u):
    return float(np.max(np.abs(u @ u.conj().T - np.eye(len(u)))))


def test_blocked_unitarity_dev_matches_one_product():
    oracle = dense_fourier_oracle(QuditSystem(10, 2))
    assert abs(verification._unitarity_dev(oracle) - _one_product_dev(oracle)) <= 1e-15


def test_blocked_unitarity_dev_sees_a_change_in_the_last_row():
    # Only row dim-1 of O changes, so only row and column dim-1 of O O†
    # change; that column lies in the upper blocks the check keeps. Its
    # diagonal entry moves by about 2 * 1e-6 / sqrt(1024) = 6.25e-8.
    oracle = dense_fourier_oracle(QuditSystem(10, 2))
    oracle[-1, 0] += 1e-6
    dev = verification._unitarity_dev(oracle)
    assert dev >= 6e-8
    assert abs(dev - _one_product_dev(oracle)) <= 1e-15


def test_unitarity_dev_scratch_stays_below_one_oracle():
    oracle = dense_fourier_oracle(QuditSystem(11, 2))
    tracemalloc.start()
    try:
        verification._unitarity_dev(oracle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < oracle.nbytes


def test_streamed_oracle_unitarity_scratch_stays_below_half_an_oracle():
    # The streamed row holds a one-byte exponent table and two row blocks,
    # never the 16·dim² bytes of the complex oracle.
    system = QuditSystem(11, 2)
    tracemalloc.start()
    try:
        verification._unitarity_dev(*verification._oracle_rows(system))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * system.dim**2 / 2


def test_streamed_oracle_unitarity_matches_the_dense_oracle():
    for system in (QuditSystem(6, 3), QuditSystem(2, 17)):
        streamed = verification._unitarity_dev(*verification._oracle_rows(system))
        assert streamed == verification._unitarity_dev(dense_fourier_oracle(system))
