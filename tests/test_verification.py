import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import quditsim.analysis as analysis
import quditsim.fourier as fourier
import quditsim.gates as gates
import quditsim.groups as groups
import quditsim.verification as verification
from quditsim import (
    QuditSystem,
    Representation,
    index_to_label,
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


# at n = 1 the random circuit's QRs grow as d**3, and d = 4096 once never finished
def test_one_qudit_cap():
    with pytest.raises(ValueError, match="capped at d = 256, got d = 257"):
        run_verification(257, 1)


BASE_CHECKS = [
    "single_qudit_fourier_unitary",
    "fourier_round_trip",
    "fourier_norm_preservation",
    "planewave_matches_transform",
    "planewave_orthonormality",
    "dense_oracle_unitary",
    "transform_matches_dense_oracle",
    "functional_circuit_exhaustive",
    "partition_matches_circuit",
    "translation_identity",
    "planewave_eigenstate_relation",
    "entropic_uncertainty_bound",
    "entropy_extremes",
    "random_circuit_matches_reference",
]
QUTRIT_PAIR_CHECKS = (
    BASE_CHECKS[:9] + ["qutrit_reference_partitions"] + BASE_CHECKS[9:]
)
# Above 81 amplitudes the exhaustive planewave check drops out.
ABOVE_EXHAUSTIVE_CAP = [
    name for name in BASE_CHECKS if name != "planewave_orthonormality"
]
# At n = 1 the conjugated planewaves are F's bytes conjugated, so
# planewave_orthonormality would repeat single_qudit_fourier_unitary.
ONE_QUDIT_CHECKS = [name for name in BASE_CHECKS if name != "planewave_orthonormality"]
# From d = 46 on no functional size fits the case cap, so both functional
# checks drop out.
NO_FUNCTIONAL_TABLE = [
    name for name in ONE_QUDIT_CHECKS
    if name not in ("functional_circuit_exhaustive", "partition_matches_circuit")
]


@pytest.mark.parametrize(
    "d,n,names",
    [
        (2, 1, ONE_QUDIT_CHECKS),
        (3, 2, QUTRIT_PAIR_CHECKS),
        (2, 3, BASE_CHECKS),
        (4, 3, BASE_CHECKS),
        (2, 7, ABOVE_EXHAUSTIVE_CAP),
        (2, 9, ABOVE_EXHAUSTIVE_CAP),
        (65, 1, NO_FUNCTIONAL_TABLE),
    ],
)
def test_check_names_in_order(d, n, names):
    checks = run_verification(d, n)["checks"]
    assert [c["name"] for c in checks] == names
    assert len(checks) == len(names)
    # permutation gates on basis states: no rounding at all
    measured = _measured(checks)
    for name in ("functional_circuit_exhaustive", "partition_matches_circuit"):
        assert measured.get(name, 0.0) == 0.0


@pytest.mark.parametrize("d,n,m", [(45, 1, 1), (46, 1, 0), (64, 1, 0)])
def test_functional_size_is_zero_when_no_table_fits(d, n, m):
    # d**2 handler/source cases exceed the case cap from d = 46 on
    assert verification._functional_size(d, n) == m


def test_functional_checks_drop_out_without_affordable_size(monkeypatch):
    monkeypatch.setattr(verification, "_functional_size", lambda d, n: 0)
    names = [c["name"] for c in run_verification(2, 1)["checks"]]
    assert names == NO_FUNCTIONAL_TABLE


def _failing(d, n):
    return {c["name"] for c in run_verification(d, n)["checks"] if not c["pass"]}


def _measured(checks):
    return {c["name"]: c["measured"] for c in checks}


# Each Fourier row must catch a broken planewave or oracle on its own: the
# mutations below replace a module global and pin the exact set of rows that
# fail. functional_rows is the one planewave path: fourier.planewave_rows
# gathers the roots through it, and the oracle pass compares its integer
# tables with O's, so a faulty table is patched into both modules.
def _patch_functional_rows(monkeypatch, rows):
    for module in (fourier, verification):
        monkeypatch.setattr(module, "functional_rows", rows)


def test_digit_reversed_planewaves_fail_the_transform_rows(monkeypatch):
    # at (3, 2) the spot labels 00, 11 and 22 are palindromes, so the spot
    # checks alone cannot see this
    _patch_functional_rows(
        monkeypatch, lambda digits, d: groups.functional_rows(digits[:, ::-1], d)
    )
    assert _failing(3, 2) == {"planewave_matches_transform"}


def _replacing_label_4(d, n, replace):
    """functional_rows with label 4's row passed through replace(row, d)."""
    label_4 = index_to_label(4, QuditSystem(n, d)).digits

    def rows(digits, d):
        table = groups.functional_rows(digits, d)
        hit = (digits == label_4).all(axis=1)
        table[hit] = replace(table[hit], d)
        return table

    return rows


# At (3, 2) label 4 is (1, 1): its row repeated from label 0, whose k.q are
# all 0, is caught by the oracle pass and by the exhaustive row, which builds
# every planewave anew.
def test_repeated_planewave_fails_orthonormality(monkeypatch):
    _patch_functional_rows(
        monkeypatch, _replacing_label_4(3, 2, lambda row, d: np.zeros_like(row))
    )
    assert _failing(3, 2) == {"planewave_matches_transform", "planewave_orthonormality"}


# k.q + 1 mod d on one label is a global phase omega on its planewave: the
# set stays orthonormal and each wave an eigenstate, so only the oracle pass's
# row-by-row comparison sees it; at (2, 9) the exhaustive rows are not run.
@pytest.mark.parametrize("d,n", [(3, 2), (2, 9)])
def test_one_replaced_planewave_row_fails_only_the_transform_row(monkeypatch, d, n):
    _patch_functional_rows(
        monkeypatch, _replacing_label_4(d, n, lambda row, d: (row + 1) % d)
    )
    assert _failing(d, n) == {"planewave_matches_transform"}


def _mutated_roots(mutate):
    """fourier._scaled_roots, as it is now, with every root passed through mutate."""
    scaled_roots = fourier._scaled_roots

    def roots(system):
        return mutate(scaled_roots(system))

    return roots


# The oracle pass's three rows: its unitarity, its rows against the
# planewaves and its columns against F on every qudit.
ORACLE_ROWS = {
    "dense_oracle_unitary",
    "planewave_matches_transform",
    "transform_matches_dense_oracle",
}


# Mutated roots in verification reach O alone. The pass compares O's rows
# with the planewaves as integer tables, both gathered from its one roots
# array, so only the rows that read O's values see them.
def test_conjugated_oracle_fails_only_the_column_check(monkeypatch):
    # a conjugated unitary is unitary, so only the columns against F fail
    monkeypatch.setattr(verification, "_scaled_roots", _mutated_roots(np.conj))
    assert _failing(3, 2) == {"transform_matches_dense_oracle"}


SCALED_ORACLE_ROWS = ORACLE_ROWS - {"planewave_matches_transform"}


@pytest.mark.parametrize(
    "d,n,failing", [(3, 2, SCALED_ORACLE_ROWS), (2, 9, SCALED_ORACLE_ROWS)]
)
def test_scaled_oracle_fails_unitarity(monkeypatch, d, n, failing):
    monkeypatch.setattr(
        verification, "_scaled_roots",
        _mutated_roots(lambda roots: roots * (1 + 1e-9)),
    )
    assert _failing(d, n) == failing


# Roots scaled in fourier alone move every planewave but not O: the integer
# compare cannot see them, and F applied to the spot labels' point masses,
# compared with their planewaves, does. The scaled planewaves' norms also
# fail the rows that read them whole.
@pytest.mark.parametrize(
    "d,n,failing",
    [
        (3, 2, {"planewave_orthonormality", "entropy_extremes"}),
        (2, 9, {"entropy_extremes"}),
    ],
)
def test_scaled_planewave_roots_fail_the_transform_row(monkeypatch, d, n, failing):
    monkeypatch.setattr(
        fourier, "_scaled_roots", _mutated_roots(lambda roots: roots * (1 + 1e-9))
    )
    checks = run_verification(d, n)["checks"]
    assert {c["name"] for c in checks if not c["pass"]} == failing | {
        "planewave_matches_transform"
    }
    # 1e-9 of an amplitude 1/sqrt(dim)
    assert _measured(checks)["planewave_matches_transform"] >= 0.9e-9 / d ** (n / 2)


# The transform to Q stays in the Fourier rows' path: the round trip reads it,
# and planewave_matches_transform compares it with the planewaves at three labels.
@pytest.mark.parametrize(
    "d,n,failing",
    [
        (3, 2, {"fourier_round_trip", "planewave_matches_transform"}),
        (3, 6, {"fourier_round_trip", "planewave_matches_transform"}),
        (5, 4, {"fourier_round_trip", "planewave_matches_transform"}),
    ],
)
def test_conjugated_to_q_rep_fails_the_transform_rows(monkeypatch, d, n, failing):
    def conjugated(amps, system, to):
        out = fourier._transform(amps, system, to)
        return np.conj(out) if to is Representation.Q else out

    monkeypatch.setattr(verification, "_transform", conjugated)
    assert _failing(d, n) == failing


# F̄ is unitary, so single_qudit_fourier_unitary cannot see it; the oracle's
# columns against F̄ on every qudit can. The patch reaches the eigenstate row's
# F but not the F inside K, and K F̄ is not F̄ D. At d = 2, F is real and F̄ = F.
@pytest.mark.parametrize("d,n", [(3, 5), (6, 3)])
def test_conjugated_fourier_fails_the_transform_row(monkeypatch, d, n):
    monkeypatch.setattr(
        verification, "single_qudit_fourier",
        lambda d: np.conj(fourier.single_qudit_fourier(d)),
    )
    assert _failing(d, n) == {
        "transform_matches_dense_oracle",
        "planewave_eigenstate_relation",
    }


# A phase on column 1 of F keeps F unitary, commutes with the diagonal phase
# that translation_identity conjugates by F, and is missed by the spot labels
# (at (3, 4) the middle label is 1111, whose four phases multiply to 1), so
# only the oracle's columns against F see it, also at n = 1.
@pytest.mark.parametrize("d,n", [(5, 1), (7, 1), (5, 2), (3, 4)])
def test_phase_on_one_column_of_f_fails_only_the_transform_row(monkeypatch, d, n):
    single_qudit_fourier = fourier.single_qudit_fourier

    def phased(d):
        f = single_qudit_fourier(d)
        f[:, 1] *= 1j
        return f

    for module in (fourier, analysis, verification):
        monkeypatch.setattr(module, "single_qudit_fourier", phased)
    assert _failing(d, n) == {"transform_matches_dense_oracle"}


def _mutated_exponents(mutate):
    """verification._oracle_exponents with mutate applied to each new table."""

    def exponents(system, rows):
        table = fourier._oracle_exponents(system)
        mutate(table, system.d)
        return table[rows]

    return exponents


def _replace_row(table, d):
    table[5] = table[7]


def _raise_entry(table, d):
    table[3, 4] = (table[3, 4] + 1) % d


def _replace_column(table, d):
    table[:, 5] = table[:, 7]


# The Gram's strength against single corruptions of the oracle, which the
# probe keeps: at (2, 9) the row measured 0.042, 0.041 and 0.69 for these
# three, and at (3, 5) 0.063, 0.067 and 0.76. A floor of 1e-3, 1e8 times the
# tolerance, catches a weakened probe with margin.
@pytest.mark.parametrize("mutate", [_replace_row, _raise_entry, _replace_column])
@pytest.mark.parametrize("d,n,failing", [(2, 9, ORACLE_ROWS), (3, 5, ORACLE_ROWS)])
def test_corrupted_oracle_exponents_fail_unitarity(monkeypatch, mutate, d, n, failing):
    monkeypatch.setattr(verification, "_oracle_exponents", _mutated_exponents(mutate))
    checks = run_verification(d, n)["checks"]
    assert {c["name"] for c in checks if not c["pass"]} == failing
    assert _measured(checks)["dense_oracle_unitary"] >= 1e-3


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
    assert len(names) == 15
    assert listed == names


# Each README condition phrase, read independently of verification.py.
README_CONDITIONS = {
    "n >= 2 and dim <= 81": lambda d, n: n >= 2 and d**n <= 81,
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


def _probe_dev(system):
    probes = np.random.default_rng([0, 1])
    return verification._oracle_pass(system, probes)["unitary"]


# 729 and 289 amplitudes: each ends in a ragged row block
@pytest.mark.parametrize("n,d", [(6, 3), (2, 17)])
def test_oracle_probe_measures_scaled_roots(monkeypatch, n, d):
    # O†O is (1 + 1e-6)² = 1 + 2.000001e-6 times the identity
    monkeypatch.setattr(
        verification, "_scaled_roots",
        _mutated_roots(lambda roots: roots * (1 + 1e-6)),
    )
    assert _probe_dev(QuditSystem(n, d)) == pytest.approx(2e-6, rel=1e-6)


def test_oracle_probe_scratch_stays_below_a_quarter_oracle(monkeypatch):
    # Besides the one-byte exponent table, built here first, the pass holds
    # one 256-row complex block and the dim x p probe arrays O X and X (the
    # p x dim accumulator, take's intp copy of four rows' exponents and the
    # gemm results fit in the slack), never the 16·dim² bytes of the complex
    # oracle. The planewaves' integer tables are compared before the block
    # exists: compared inside the block loop, they push the peak past this bound.
    system = QuditSystem(11, 2)
    exponents = fourier._oracle_exponents(system)
    monkeypatch.setattr(
        verification, "_oracle_exponents", lambda system, rows: exponents[rows]
    )
    # made outside the trace: a generator's first seeding imports modules
    probes = np.random.default_rng([0, 1])
    tracemalloc.start()
    try:
        verification._oracle_pass(system, probes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 16 * verification._ORACLE_BLOCK * system.dim
    probe = 16 * system.dim * verification._PROBES
    assert peak < 1.1 * (block + 2 * probe) < 16 * system.dim**2 / 4


# 2048, 3125 and 4096 amplitudes; a dim x dim exponent table, 1/16 of the
# complex oracle, would push each peak past the bound
@pytest.mark.parametrize("d,n", [(2, 11), (5, 5), (4, 6)])
def test_oracle_pass_builds_its_exponents_one_row_block_at_a_time(d, n):
    # The pass as verify runs it, exponents and all: one 256-row complex
    # block, the probe arrays O X and X, and 256-row one-byte exponent
    # blocks. The next block and its reduction's scratch are built while the
    # last is held; the slack covers that third block and the accumulator.
    system = QuditSystem(n, d)
    probes = np.random.default_rng([0, 1])
    tracemalloc.start()
    try:
        verification._oracle_pass(system, probes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 16 * verification._ORACLE_BLOCK * system.dim
    probe = 16 * system.dim * verification._PROBES
    exponents = verification._ORACLE_BLOCK * system.dim
    assert peak < 1.2 * (block + 2 * probe + 2 * exponents) < 16 * system.dim**2 / 4


@pytest.mark.parametrize("d,n,seed", [(3, 2, 0), (2, 9, 5)])
def test_oracle_probe_leaves_every_other_row_bit_identical(monkeypatch, d, n, seed):
    # The probes have a generator of their own: a probe that drew from the
    # sweep's rng would move the random states of the rows after it.
    def other_rows():
        measured = _measured(run_verification(d, n, seed)["checks"])
        probe = measured["dense_oracle_unitary"]
        return probe, {
            name: value.hex() for name, value in measured.items()
            if name not in ORACLE_ROWS
        }

    probe, unpatched = other_rows()
    zeros = dict.fromkeys(("unitary", "transform", "planewave"), 0.0)
    monkeypatch.setattr(verification, "_oracle_pass", lambda system, rng: zeros)
    assert other_rows() == (0.0, unpatched)
    assert probe > 0.0


# Halved entropies put the random states' sums below n ln d and move both
# extremes of the spot labels, so exactly the two entropy rows fail.
@pytest.mark.parametrize("d,n", [(3, 2), (2, 9)])
def test_halved_entropies_fail_the_two_entropy_rows(monkeypatch, d, n):
    def halved(amps, system):
        report = analysis._entropies(amps, system)
        return analysis.EntropyReport(report.h_q / 2, report.h_k / 2, report.sum / 2)

    monkeypatch.setattr(verification, "_entropies", halved)
    assert _failing(d, n) == {"entropic_uncertainty_bound", "entropy_extremes"}


def _drifting_unitaries(monkeypatch):
    apply = gates.SingleQuditUnitary.apply
    monkeypatch.setattr(
        gates.SingleQuditUnitary, "apply",
        lambda self, amps, d, n: apply(self, amps, d, n) * (1 + 1e-6),
    )


def _transposed_matrices(monkeypatch):
    apply_at = gates.apply_at
    monkeypatch.setattr(
        gates, "apply_at",
        lambda amps, d, n, wires, matrix: apply_at(amps, d, n, wires, matrix.T),
    )


def _negated_translations(monkeypatch):
    shift = gates.Translation.shift
    monkeypatch.setattr(gates.Translation, "shift", lambda self, d: -shift(self, d) % d)


# Faults in the gate kernels that only the random circuit's independent
# reference sees. A drift is read from the raw output buffer, so it is a
# failing row, not a StateVector's "not normalized" error; a transposed
# matrix keeps every unitary unitary, and a translation run backwards keeps
# every permutation a permutation. At d = 2, -a = a mod 2 hides the last.
KERNEL_FAULTS = {
    "unitary_drift_1e-6": _drifting_unitaries,
    "apply_at_transposed": _transposed_matrices,
    "translation_negated": _negated_translations,
}


@pytest.mark.parametrize(
    "fault,d,n",
    [
        (fault, d, n)
        for fault in KERNEL_FAULTS
        for d, n in [(3, 2), (2, 5), (5, 3), (7, 1)]
        if (fault, d) != ("translation_negated", 2)
    ],
)
def test_kernel_fault_fails_only_the_reference_row(monkeypatch, fault, d, n):
    KERNEL_FAULTS[fault](monkeypatch)
    assert _failing(d, n) == {"random_circuit_matches_reference"}


def _k_built_as(conjugation):
    """k_observable_in_q_rep with its matrix replaced by conjugation(F, d)."""

    def observable(d):
        f = fourier.single_qudit_fourier(d)
        return analysis.SingleQuditObservable(d, conjugation(f, d), Representation.Q)

    return lambda monkeypatch: monkeypatch.setattr(
        verification, "k_observable_in_q_rep", observable
    )


def _conjugated_k_rep_shifts(monkeypatch):
    shift = analysis.translation_operator_k_rep
    monkeypatch.setattr(
        analysis, "translation_operator_k_rep", lambda d, q: np.conj(shift(d, q))
    )


EIGENSTATE_ROW = {"planewave_eigenstate_relation"}
# Faults in the one-qudit duality, each with the systems it is checked at and
# the one row that must fail there. K is Hermitian with the right spectrum
# under both K faults, and only K F = F diag(0..d-1) reads its eigenvectors,
# at every dim. F†DF equals F D F† at d = 2, where F is real and symmetric.
# The conjugated k-rep phase shifts the other way, which translation_identity
# sees at its generator q = 1 alone; d = 2 cannot show it.
ONE_QUDIT_FAULTS = {
    "k_as_f_dagger_d_f": (
        _k_built_as(lambda f, d: f.conj().T @ np.diag(np.arange(d)) @ f),
        [(3, 5), (5, 3), (7, 1)],
        EIGENSTATE_ROW,
    ),
    "k_with_reversed_d": (
        _k_built_as(lambda f, d: f @ np.diag(np.arange(d)[::-1]) @ f.conj().T),
        [(3, 5), (5, 3), (2, 9), (7, 1)],
        EIGENSTATE_ROW,
    ),
    "k_rep_shift_conjugated": (
        _conjugated_k_rep_shifts,
        [(3, 2), (5, 3), (7, 1)],
        {"translation_identity"},
    ),
}


@pytest.mark.parametrize(
    "fault,d,n",
    [
        (fault, d, n)
        for fault, (_, systems, _) in ONE_QUDIT_FAULTS.items()
        for d, n in systems
    ],
)
def test_one_qudit_duality_fault_fails_only_its_row(monkeypatch, fault, d, n):
    patch, _, failing = ONE_QUDIT_FAULTS[fault]
    patch(monkeypatch)
    assert _failing(d, n) == failing
