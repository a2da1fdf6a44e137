import gc
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import quditsim.analysis as analysis
import quditsim.cli as cli
import quditsim.fourier as fourier
import quditsim.verification as verification
from quditsim import (
    DigitLabel,
    QuditSystem,
    Representation,
    SingleQuditUnitary,
    basis_state,
    planewave,
    state_to_dict,
)
from quditsim.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    dumps_canonical,
    main,
)


def invoke(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, state):
    path = tmp_path / name
    path.write_text(json.dumps(state_to_dict(state)), encoding="utf-8")
    return str(path)


def basis(digits, d, rep=Representation.Q):
    return basis_state(DigitLabel(tuple(digits), QuditSystem(len(digits), d)), rep)


def test_transform_basis_to_k(tmp_path, capsys):
    path = write_state(tmp_path, "state.json", basis((0, 0), 3))
    code, out, _ = invoke(capsys, ["transform", "--in", path, "--to", "k"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["rep"] == "k"
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    assert np.allclose(amps, 1 / 3, atol=1e-12)


def test_transform_same_rep_is_noop(tmp_path, capsys):
    path = write_state(tmp_path, "state.json", basis((1, 0), 3))
    code, out, _ = invoke(capsys, ["transform", "--in", path, "--to", "q"])
    assert code == EXIT_OK
    assert json.loads(out) == json.loads((tmp_path / "state.json").read_text())


def test_transform_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(2)
    amps = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    amps /= np.linalg.norm(amps)
    from quditsim import from_amplitudes

    original = from_amplitudes(QuditSystem(2, 3), Representation.Q, amps)
    path = write_state(tmp_path, "state.json", original)

    code, out, _ = invoke(capsys, ["transform", "--in", path, "--to", "k"])
    assert code == EXIT_OK
    (tmp_path / "k.json").write_text(out)
    code, out, _ = invoke(
        capsys, ["transform", "--in", str(tmp_path / "k.json"), "--to", "q"]
    )
    assert code == EXIT_OK
    back = np.array([complex(re, im) for re, im in json.loads(out)["amplitudes"]])
    assert np.max(np.abs(back - amps)) < 1e-12


def test_transform_planewave_file_to_delta(tmp_path, capsys):
    path = write_state(
        tmp_path, "wave.json", planewave(DigitLabel((1,), QuditSystem(1, 2)))
    )
    code, out, _ = invoke(capsys, ["transform", "--in", path, "--to", "k"])
    assert code == EXIT_OK
    amps = np.array([complex(re, im) for re, im in json.loads(out)["amplitudes"]])
    assert np.max(np.abs(amps - [0, 1])) < 1e-12


def test_transform_missing_file(capsys):
    code, out, err = invoke(
        capsys, ["transform", "--in", "/nonexistent/state.json", "--to", "k"]
    )
    assert code == EXIT_IO
    assert out == ""
    assert "error" in err


def test_transform_rejects_unnormalized(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {"n": 1, "d": 2, "rep": "q", "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}
        )
    )
    code, out, err = invoke(capsys, ["transform", "--in", str(path), "--to", "k"])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "not normalized" in err


def test_transform_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = invoke(capsys, ["transform", "--in", str(path), "--to", "k"])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("case", ["state", "amplitudes", "circuit"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, case):
    deep = tmp_path / "deep.json"
    nested = "[" * 100000 + "]" * 100000
    if case == "amplitudes":
        nested = f'{{"n": 1, "d": 2, "rep": "q", "amplitudes": {nested}}}'
    deep.write_text(nested)
    state_path = write_state(tmp_path, "state.json", basis((0,), 2))
    argv = ["transform", "--in", str(deep), "--to", "k"]
    if case == "circuit":
        argv = ["run", "--circuit", str(deep), "--in", state_path]
    code, out, err = invoke(capsys, argv)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested too deeply" in err


def test_planewave_uniform(capsys):
    code, out, _ = invoke(capsys, ["planewave", "--n", "2", "--d", "3", "--k", "0,0"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["rep"] == "q"
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    assert np.allclose(amps, 1 / 3, atol=1e-12)
    assert abs(np.sum(np.abs(amps) ** 2) - 1) < 1e-12


def test_planewave_qubit(capsys):
    code, out, _ = invoke(capsys, ["planewave", "--n", "1", "--d", "2", "--k", "1"])
    assert code == EXIT_OK
    amps = np.array([complex(re, im) for re, im in json.loads(out)["amplitudes"]])
    assert np.max(np.abs(amps - [1 / math.sqrt(2), -1 / math.sqrt(2)])) < 1e-12


def test_planewave_malformed_k(capsys):
    code, out, _ = invoke(capsys, ["planewave", "--n", "2", "--d", "3", "--k", "a,b"])
    assert code == EXIT_USAGE and out == ""
    code, out, _ = invoke(capsys, ["planewave", "--n", "2", "--d", "3", "--k", "0,5"])
    assert code == EXIT_USAGE and out == ""
    code, out, _ = invoke(capsys, ["planewave", "--n", "2", "--d", "3", "--k", "1"])
    assert code == EXIT_USAGE and out == ""


def test_partition_reference_tables(capsys):
    code, out, _ = invoke(capsys, ["partition", "--n", "2", "--d", "3", "--k", "0,1"])
    assert code == EXIT_OK
    assert json.loads(out) == {
        "k": [0, 1],
        "classes": [["00", "10", "20"], ["01", "11", "21"], ["02", "12", "22"]],
    }
    code, out, _ = invoke(capsys, ["partition", "--n", "2", "--d", "3", "--k", "2,1"])
    assert json.loads(out) == {
        "k": [2, 1],
        "classes": [["00", "11", "22"], ["01", "12", "20"], ["02", "10", "21"]],
    }


@pytest.mark.parametrize("d,ket", [(10, "90"), (11, "10,0")])
def test_partition_ket_separator_starts_at_d_11(capsys, d, ket):
    code, out, _ = invoke(capsys, ["partition", "--n", "2", "--d", str(d), "--k", "1,0"])
    assert code == EXIT_OK
    # with k = (1, 0) the class of q is its first digit; the last class holds
    # the labels whose first digit is d - 1, and its first has last digit 0
    assert json.loads(out)["classes"][-1][0] == ket


def test_partition_zero_functional(capsys):
    code, out, _ = invoke(capsys, ["partition", "--n", "2", "--d", "3", "--k", "0,0"])
    assert code == EXIT_OK
    classes = json.loads(out)["classes"]
    assert len(classes[0]) == 9 and classes[1] == [] and classes[2] == []


@pytest.mark.parametrize("n", [40, 21])
def test_partition_label_cap_exits_2_before_building(capsys, n):
    k = ",".join("1" * n)
    code, out, err = invoke(capsys, ["partition", "--n", str(n), "--d", "2", "--k", k])
    assert code == EXIT_VALIDATION and out == ""
    assert err.count("\n") == 1
    assert f"label count {2**n} exceeds the cap 1048576" in err


def test_partition_huge_n_exits_2_at_once(capsys):
    argv = ["partition", "--n", "1000000000", "--d", "3", "--k", "1"]
    code, out, err = invoke(capsys, argv)
    assert code == EXIT_VALIDATION and out == ""
    assert err == "error: dimension 3**1000000000 exceeds the platform index range\n"


@pytest.mark.parametrize(
    "argv",
    [["partition", "--k", "1"], ["planewave", "--k", "1"], ["verify"]],
    ids=lambda argv: argv[0],
)
def test_system_too_large_to_index_exits_2_for_every_command(capsys, argv):
    code, out, err = invoke(capsys, argv + ["--n", "63", "--d", "2"])
    assert code == EXIT_VALIDATION and out == ""
    assert err == "error: dimension 2**63 exceeds the platform index range\n"


@pytest.mark.parametrize(
    "argv",
    [["partition", "--k", "1"], ["planewave", "--k", "1"], ["verify"]],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("n,d", [(0, 2), (2, 1), (-1, 3)])
def test_too_small_system_is_a_usage_error(capsys, argv, n, d):
    code, out, err = invoke(capsys, argv + ["--n", str(n), "--d", str(d)])
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: need d >= 2 and n >= 1, got d={d}, n={n}\n"


def test_state_file_huge_n_exits_2_at_once(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1000000000, "d": 3, "rep": "q", "amplitudes": []}')
    code, out, err = invoke(capsys, ["transform", "--in", str(path), "--to", "k"])
    assert code == EXIT_VALIDATION and out == ""
    assert err == "error: dimension 3**1000000000 exceeds the platform index range\n"


def test_functional_basis_handlers(tmp_path, capsys):
    path = write_state(tmp_path, "handlers.json", basis((2, 1), 3))
    code, out, _ = invoke(
        capsys, ["functional", "--d", "3", "--handlers", path, "--sources", "1,2"]
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["holder_probabilities"] == [0, 1, 0]
    assert doc["state"]["n"] == 5


def test_functional_superposed_handlers(tmp_path, capsys):
    # handlers (b0|0> + b1|1>) (x) |2>, sources (1,1): functionals (0,2) and
    # (1,2) give holder values 2 and 0 with weights |b0|^2 and |b1|^2
    b0, b1 = 0.6, 0.8
    amps = np.zeros(9, dtype=complex)
    amps[2] = b0  # label (0,2)
    amps[5] = b1  # label (1,2)
    from quditsim import from_amplitudes

    handlers = from_amplitudes(QuditSystem(2, 3), Representation.Q, amps)
    path = write_state(tmp_path, "handlers.json", handlers)
    code, out, _ = invoke(
        capsys, ["functional", "--d", "3", "--handlers", path, "--sources", "1,1"]
    )
    assert code == EXIT_OK
    probs = json.loads(out)["holder_probabilities"]
    assert probs[2] == pytest.approx(0.36, abs=1e-12)
    assert probs[0] == pytest.approx(0.64, abs=1e-12)
    assert probs[1] == pytest.approx(0.0, abs=1e-12)


def test_functional_zero_sources(tmp_path, capsys):
    from quditsim import from_amplitudes

    uniform = from_amplitudes(
        QuditSystem(2, 3), Representation.Q, np.ones(9) / 3
    )
    path = write_state(tmp_path, "handlers.json", uniform)
    code, out, _ = invoke(
        capsys, ["functional", "--d", "3", "--handlers", path, "--sources", "0,0"]
    )
    assert code == EXIT_OK
    assert json.loads(out)["holder_probabilities"][0] == pytest.approx(1.0)


def test_functional_dimension_mismatch(tmp_path, capsys):
    path = write_state(tmp_path, "handlers.json", basis((1, 1), 2))
    code, out, err = invoke(
        capsys, ["functional", "--d", "3", "--handlers", path, "--sources", "1,1"]
    )
    assert code == EXIT_VALIDATION
    assert "d=2" in err


def test_functional_source_errors(tmp_path, capsys):
    path = write_state(tmp_path, "handlers.json", basis((2, 1), 3))
    # out-of-range digit is a malformed argument
    code, _, _ = invoke(
        capsys, ["functional", "--d", "3", "--handlers", path, "--sources", "1,5"]
    )
    assert code == EXIT_USAGE
    # wrong count is a mismatch against the handler file
    code, _, _ = invoke(
        capsys, ["functional", "--d", "3", "--handlers", path, "--sources", "1"]
    )
    assert code == EXIT_VALIDATION


def test_run_empty_circuit(tmp_path, capsys):
    state_path = write_state(tmp_path, "state.json", basis((1, 0), 3))
    circuit_path = tmp_path / "circuit.json"
    circuit_path.write_text(json.dumps({"n": 2, "d": 3, "gates": []}))
    code, out, _ = invoke(
        capsys, ["run", "--circuit", str(circuit_path), "--in", state_path]
    )
    assert code == EXIT_OK
    assert json.loads(out) == json.loads((tmp_path / "state.json").read_text())


def test_run_controlled_add(tmp_path, capsys):
    state_path = write_state(tmp_path, "state.json", basis((1, 0), 3))
    circuit_path = tmp_path / "circuit.json"
    circuit_path.write_text(
        json.dumps(
            {
                "n": 2,
                "d": 3,
                "gates": [
                    {"kind": "cadd", "control": 0, "target": 1, "multiplier": 2}
                ],
            }
        )
    )
    code, out, _ = invoke(
        capsys, ["run", "--circuit", str(circuit_path), "--in", state_path]
    )
    assert code == EXIT_OK
    amps = np.array([complex(re, im) for re, im in json.loads(out)["amplitudes"]])
    assert amps[5] == 1  # index of (1, 2)
    assert abs(np.sum(np.abs(amps) ** 2) - 1) < 1e-10


def test_run_system_mismatch(tmp_path, capsys):
    state_path = write_state(tmp_path, "state.json", basis((1, 0, 0), 3))
    circuit_path = tmp_path / "circuit.json"
    circuit_path.write_text(json.dumps({"n": 2, "d": 3, "gates": []}))
    code, _, _ = invoke(
        capsys, ["run", "--circuit", str(circuit_path), "--in", state_path]
    )
    assert code == EXIT_VALIDATION


def test_analyze_basis_state(tmp_path, capsys):
    path = write_state(tmp_path, "state.json", basis((1, 2), 3))
    code, out, _ = invoke(capsys, ["analyze", "--in", path])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["input_rep"] == "q"
    assert doc["expect_q"] == [1, 2]
    assert doc["entropy"]["h_q"] == 0
    assert doc["entropy"]["h_k"] == pytest.approx(math.log(9), abs=1e-12)
    assert doc["entropy"]["sum"] > 0
    assert doc["d_is_prime"] is True
    assert len(doc["k_distributions"]) == 2


def test_analyze_planewave_expectations(tmp_path, capsys):
    path = write_state(
        tmp_path, "wave.json", planewave(DigitLabel((2, 1), QuditSystem(2, 3)))
    )
    code, out, _ = invoke(capsys, ["analyze", "--in", path])
    doc = json.loads(out)
    assert doc["expect_k"][0] == pytest.approx(2, abs=1e-10)
    assert doc["expect_k"][1] == pytest.approx(1, abs=1e-10)


def test_analyze_accepts_k_rep(tmp_path, capsys):
    path = write_state(tmp_path, "state.json", basis((2, 1), 3, Representation.K))
    code, out, _ = invoke(capsys, ["analyze", "--in", path])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["input_rep"] == "k"
    # a k-rep point mass analyzes as the corresponding planewave
    assert doc["expect_k"] == [pytest.approx(2, abs=1e-10), pytest.approx(1, abs=1e-10)]
    assert doc["d_is_prime"] is True


def test_analyze_non_prime_reported(tmp_path, capsys):
    path = write_state(tmp_path, "state.json", basis((0, 0), 6))
    code, out, _ = invoke(capsys, ["analyze", "--in", path])
    assert json.loads(out)["d_is_prime"] is False


# analyze reads one F† of its q-rep state for both the entropies and the
# k-distributions; a k-rep input is first transformed to q
@pytest.mark.parametrize(
    "rep,transforms",
    [
        (Representation.Q, [Representation.K]),
        (Representation.K, [Representation.Q, Representation.K]),
    ],
)
def test_analyze_transforms_to_k_once(monkeypatch, tmp_path, capsys, rep, transforms):
    seen = []
    transform = fourier._transform

    def counting(amps, system, to):
        seen.append(to)
        return transform(amps, system, to)

    for module in (fourier, analysis):
        monkeypatch.setattr(module, "_transform", counting)
    path = write_state(tmp_path, "state.json", basis((2, 1), 3, rep))
    code, _, err = invoke(capsys, ["analyze", "--in", path])
    assert code == EXIT_OK, err
    assert seen == transforms


def test_verify_passes(capsys):
    code, out, err = invoke(capsys, ["verify", "--d", "3", "--n", "2"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["all_pass"] is True
    assert report["seed"] == 0


def test_verify_non_prime(capsys):
    code, out, _ = invoke(capsys, ["verify", "--d", "6", "--n", "2"])
    assert code == EXIT_OK
    assert json.loads(out)["all_pass"] is True


# A unitary that moves the norm by 1e-6 fails verify's norm-drift row: the
# report is written and names that row, with no "not normalized" error.
def test_verify_reports_a_drifting_unitary(monkeypatch, capsys):
    apply = SingleQuditUnitary.apply
    monkeypatch.setattr(
        SingleQuditUnitary, "apply",
        lambda self, amps, d, n: apply(self, amps, d, n) * (1 + 1e-6),
    )
    code, out, err = invoke(capsys, ["verify", "--d", "3", "--n", "2"])
    assert code == EXIT_VALIDATION
    assert json.loads(out)["all_pass"] is False
    assert err == "failing checks: random_circuit_norm_drift\n"


def _mutate_fourier(monkeypatch, mutate):
    """F passed through mutate wherever the package reads it."""
    single_qudit_fourier = fourier.single_qudit_fourier
    for module in (fourier, analysis, verification):
        monkeypatch.setattr(
            module, "single_qudit_fourier", lambda d: mutate(single_qudit_fourier(d))
        )


def _phase_column_1(f):
    f[:, 1] *= 1j
    return f


def _scale_roots(monkeypatch):
    scaled_roots = fourier._scaled_roots
    monkeypatch.setattr(
        fourier, "_scaled_roots", lambda system: scaled_roots(system) * (1 + 1e-6)
    )


def _scale_unitaries(monkeypatch):
    apply = SingleQuditUnitary.apply
    monkeypatch.setattr(
        SingleQuditUnitary, "apply",
        lambda self, amps, d, n: apply(self, amps, d, n) * (1 + 1e-6),
    )


# Faults that verify must report as failing rows, never as an "error:" line.
# F is conjugated only at d >= 3, where it is not real.
VERIFY_FAULTS = {
    "f_scaled_1e-6": lambda mp: _mutate_fourier(mp, lambda f: f * (1 + 1e-6)),
    "f_scaled_1e-11": lambda mp: _mutate_fourier(mp, lambda f: f * (1 + 1e-11)),
    "roots_scaled_1e-6": _scale_roots,
    "f_conjugated": lambda mp: _mutate_fourier(mp, np.conj),
    "f_column_1_phased": lambda mp: _mutate_fourier(mp, _phase_column_1),
    "unitaries_scaled_1e-6": _scale_unitaries,
}
# the faults that move a norm or a planewave's scale
SCALE_FAULTS = {"f_scaled_1e-6", "f_scaled_1e-11", "roots_scaled_1e-6"}


@pytest.mark.parametrize("d,n", [(7, 1), (5, 3)])
@pytest.mark.parametrize("fault", VERIFY_FAULTS)
def test_verify_reports_every_fault(monkeypatch, capsys, fault, d, n):
    VERIFY_FAULTS[fault](monkeypatch)
    code, out, err = invoke(capsys, ["verify", "--d", str(d), "--n", str(n)])
    assert code == EXIT_VALIDATION, err
    report = json.loads(out)
    assert report["all_pass"] is False
    (line,) = err.splitlines()
    assert line.startswith("failing checks: ")
    failing = set(line.removeprefix("failing checks: ").split(", "))
    assert failing == {c["name"] for c in report["checks"] if not c["pass"]}
    if fault in SCALE_FAULTS:
        assert failing & {"fourier_norm_preservation", "planewave_matches_transform"}


def test_verify_dimension_cap(capsys):
    code, _, err = invoke(capsys, ["verify", "--d", "2", "--n", "13"])
    assert code == EXIT_VALIDATION
    assert "dimension" in err


def test_usage_errors(capsys):
    assert invoke(capsys, [])[0] == EXIT_USAGE
    assert invoke(capsys, ["transform", "--in", "x.json", "--to", "z"])[0] == EXIT_USAGE
    assert invoke(capsys, ["planewave", "--n", "2", "--d", "3"])[0] == EXIT_USAGE
    assert invoke(capsys, ["nonsense"])[0] == EXIT_USAGE


def test_stdout_is_single_json_document(tmp_path, capsys):
    path = write_state(tmp_path, "state.json", basis((0,), 2))
    code, out, err = invoke(capsys, ["analyze", "--in", path])
    assert code == EXIT_OK
    json.loads(out)  # whole stdout parses as one document
    assert err == ""


def test_verify_bad_arguments_are_usage_errors(capsys):
    assert invoke(capsys, ["verify", "--d", "1", "--n", "2"])[0] == EXIT_USAGE
    assert invoke(capsys, ["verify", "--d", "3", "--n", "0"])[0] == EXIT_USAGE
    assert invoke(capsys, ["verify", "--d", "2", "--n", "1", "--seed", "-1"]) == (
        EXIT_USAGE, "", "error: --seed must be non-negative, got -1\n"
    )


def _reject(doc):
    raise ValueError("rejected")


# _load_json pauses the cyclic collector while it loads and parses, and gives
# the caller's state back whether the load, the parse or neither raised
@pytest.mark.parametrize("enabled", [True, False])
def test_load_json_restores_the_collector_state(tmp_path, enabled):
    path = write_state(tmp_path, "state.json", basis((1, 0), 2))
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{", encoding="utf-8")

    def parse(doc):
        assert not gc.isenabled()
        return doc["n"]

    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert cli._load_json(path, parse) == 2
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="rejected"):
            cli._load_json(path, _reject)
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError):
            cli._load_json(str(malformed), parse)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


# `python -m quditsim` leaves through entrypoint's os._exit, after flushing:
# the same bytes and exit code as main in this process
@pytest.mark.parametrize(
    "argv,expected",
    [
        (["transform", "--in", "{path}", "--to", "k"], EXIT_OK),
        (["verify", "--d", "2", "--n", "13"], EXIT_VALIDATION),
    ],
    ids=["transform", "verify-over-cap"],
)
def test_module_run_matches_main_in_process(tmp_path, capsys, argv, expected):
    path = write_state(tmp_path, "state.json", basis((1, 0, 2), 3))
    argv = [a.format(path=path) for a in argv]
    code, out, err = invoke(capsys, argv)
    result = subprocess.run(
        [sys.executable, "-m", "quditsim", *argv], capture_output=True
    )
    assert code == expected
    assert (result.returncode, result.stdout, result.stderr) == (
        code, out.encode(), err.encode()
    )


def test_verify_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "quditsim", "verify", "--d", "3", "--n", "2"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


def test_verify_verdicts_agree_across_blas_thread_counts():
    # stdout is byte-identical for one numpy/BLAS build and thread count; a
    # different thread count may split a matrix product differently and move
    # a measured value in its last bits, but never a check or its verdict
    verdicts = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env.update(dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads
        ))
        cmd = [sys.executable, "-m", "quditsim", "verify", "--d", "3", "--n", "5"]
        result = subprocess.run(cmd, capture_output=True, env=env, check=True)
        report = json.loads(result.stdout)
        verdicts.append((report["all_pass"], [
            (c["name"], c["tolerance"], c["comparison"], c["pass"])
            for c in report["checks"]
        ]))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][0] is True


def test_commands_byte_identical_in_process(tmp_path, capsys):
    # determinism holds for every command, not just verify
    path = write_state(tmp_path, "state.json", basis((1, 2), 3))
    for argv in (
        ["planewave", "--n", "2", "--d", "3", "--k", "2,1"],
        ["partition", "--n", "2", "--d", "3", "--k", "2,1"],
        ["analyze", "--in", path],
        ["transform", "--in", path, "--to", "k"],
    ):
        _, first, _ = invoke(capsys, argv)
        _, second, _ = invoke(capsys, argv)
        assert first == second and first


# (d, n) -> sha256 of `quditsim run` stdout for golden_run_files(d, n, seed=d);
# pins the gate kernels' output bytes across refactors.
GOLDEN_RUN_SHA256 = {
    (2, 5): "9dd1c5e29ef4ebca300d35ce58d2efd770f318a602786650b7ceb62cee1b7fbc",
    (3, 4): "8dbdfd4d6b3f4447a1f81725546af00f899e45fb60facd63e27e2867b90f9dcc",
    (5, 3): "7ec0541486c16d8b9b966abb68ac8be904d213743c0c3070b2fbdf724a05d784",
    (16, 3): "af645ed86937e77c699e5019ec316e9892ee2d142c37c7e323d547231da97f4d",
}

# sha256 of stdout for exact outputs (ket strings, 0 and 1): no digit depends
# on BLAS or libm. Pins the serializer's bytes across refactors.
GOLDEN_PARTITION_SHA256 = {
    (3, "2,0,1,1"): "267f98abee76a99113a2650e486c23845dc7e182d8eb4e46df66c94cdd5b5448",
    (12, "5,7"): "bdf3d3629663151be008463df3423b08803a3c86f5a605884d618d46794be2cf",
    (2, "1,0,1,1,1"): "c377148c8859d5003c8cfca6d2b31171ee794fb1c0e3de92d78a168dbec4f56a",
}
# (d, handler basis digits, sources) -> sha256 of `quditsim functional` stdout
GOLDEN_FUNCTIONAL_SHA256 = {
    (3, (2, 1), "1,2"): "fcf7d8628fa7366564c97f10aeb7430faa921b6ec187909266d81c4b8a2dab0a",
    (5, (4, 3), "2,4"): "02174495abcb26b83f4f23d5c44d983597c2f7284e2d626e44d818491be05707",
    (2, (1,), "1"): "4c5989b12bbc100e1c482397b99cbcae2e32ea1c3060d52d57966eef91ec773a",
}
# (d, m, rep, sources) -> sha256 of `quditsim functional` stdout on
# signed_handler_file(d, m, rep, seed=d + m); negative handler amplitudes
# leave signed zeros in the output state, which print as -0.
GOLDEN_FUNCTIONAL_SIGNED_SHA256 = {
    (3, 2, "q", "1,2"): "d57488a7295775b50ee42a28c66ce2c1d1f0eebc4b9bd91f794797487902d6fe",
    (2, 4, "q", "1,0,1,1"): "2a9baa2e9551e4edc2dd6fea62f60ed65678ba35edd521d7ca2bf84546c7fc05",
    (5, 1, "q", "3"): "ff000a20eae7a580efc759448e245352c202f467e00c68d53e14bb2662ad0f3a",
    (4, 2, "k", "3,1"): "930ade178580cd08ac4e63e2dc80b25492f877767140f9b8b8926e1c16ba3f7f",
}

# (target rep, d = 2 basis digits) -> sha256 of `quditsim transform` stdout for
# the basis state in the other rep; ("q", 0, 1, 0) is the k-rep point mass at
# k = (0, 1, 0) sent to q. At most one digit is 1, so each amplitude is one
# entry of F (or F dagger) times real powers of 1/sqrt(2), and the zero
# entries add exactly: no digit depends on the BLAS summation order.
GOLDEN_TRANSFORM_SHA256 = {
    ("k", (0, 0, 0)): "4da4b272d1b70330f6cdf7eb950ac9d41d9498b92e1ba0cc3d3a830878e304e4",
    ("k", (0, 1, 0, 0, 0, 0)): "d73599456460452884e4c5bb3502631e54aac016702f87ff7d1ca57d9048b6c8",
    ("q", (1,)): "07437bbc16fb50177c38fc055ce1cec4cdca454084ff2f0153533576517c93e7",
    ("q", (0, 0, 0, 1)): "f795dd8cd6ab27edb576c2d1d8484d8bb885c400e51db418159ba4687d21f811",
}
# (d = 2 digits of k) -> sha256 of `quditsim planewave` stdout; every phase is
# exp(0) or exp(i pi), read off a two-entry table.
GOLDEN_PLANEWAVE_SHA256 = {
    "0,0,1": "4c719a23327ad0393401e6b1beec73ce3a8e3fa0f0196bde1b08334829356c30",
    "1,0,1,1,1": "c7c51a7cdef50ba3c75e35d37c46dacc1bb0f8f1068d26440ddc4b945bb353dc",
    "0,1,1,0,1,0,0,1": "2204dcf3c87f19c987e5a03cc1872ba4eadb0cf686152a1818e5a49cf37b962f",
}


def golden_run_files(tmp_path, d, n, seed, count=40):
    """Seeded state and four-kind circuit files whose run output is exact.

    The norm uses math.fsum and the unitaries are monomial (a permutation
    times phases in {1, i, -1, -i}), so every output amplitude is one input
    amplitude times a unit phase: no digit depends on the BLAS summation order.
    """
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal(d**n), rng.standard_normal(d**n)
    norm = math.sqrt(math.fsum((re * re).tolist() + (im * im).tolist()))
    amps = [[x / norm, y / norm] for x, y in zip(re.tolist(), im.tolist())]
    phases = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    gates = []
    for i in range(count):
        a, b, c = (int(w) for w in rng.choice(n, size=3, replace=False))
        kind = ("translation", "cadd", "ccadd", "unitary")[i % 4]
        if kind == "translation":
            gates.append({"kind": kind, "target": a, "amount": int(rng.integers(d))})
        elif kind == "cadd":
            gates.append({"kind": kind, "control": a, "target": b,
                          "multiplier": int(rng.integers(d))})
        elif kind == "ccadd":
            gates.append({"kind": kind, "k_control": a, "j_control": b, "target": c})
        else:
            rows = [[[0.0, 0.0] for _ in range(d)] for _ in range(d)]
            for col, row in enumerate(rng.permutation(d).tolist()):
                rows[row][col] = phases[int(rng.integers(4))]
            gates.append({"kind": kind, "target": a, "matrix": rows})
    state_path, circuit_path = tmp_path / "state.json", tmp_path / "circuit.json"
    state_path.write_text(json.dumps({"n": n, "d": d, "rep": "q", "amplitudes": amps}))
    circuit_path.write_text(json.dumps({"n": n, "d": d, "gates": gates}))
    return str(state_path), str(circuit_path)


@pytest.mark.parametrize("d,n", sorted(GOLDEN_RUN_SHA256))
def test_run_stdout_matches_golden_sha256(tmp_path, capsys, d, n):
    state_path, circuit_path = golden_run_files(tmp_path, d, n, seed=d)
    code, out, err = invoke(capsys, ["run", "--circuit", circuit_path, "--in", state_path])
    assert code == EXIT_OK, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_RUN_SHA256[(d, n)]


NAN_UNITARY = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
NON_UNITARY = [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]
STRING_AND_BOOL_UNITARY = [[["1", 0], [0, 0]], [[0, 0], [True, 0]]]


@pytest.mark.parametrize(
    "n,gate",
    [
        (True, {"kind": "translation", "target": 0, "amount": 1}),
        (1, {"kind": "translation", "target": 0, "amount": 1.7}),
        (2, {"kind": "translation", "target": True, "amount": 1}),
        (2, {"kind": "cadd", "control": 0, "target": 1, "multiplier": 1.0}),
        (3, {"kind": "ccadd", "k_control": "0", "j_control": 1, "target": 2}),
        (1, {"kind": "unitary", "target": 0, "matrix": [5, 6]}),
        (1, {"kind": "unitary", "target": 0, "matrix": NAN_UNITARY}),
        (2, {"kind": "cadd", "control": 1, "target": 1, "multiplier": 1}),
        (3, {"kind": "ccadd", "k_control": 0, "j_control": 2, "target": 0}),
        (1, {"kind": "unitary", "target": 0, "matrix": NON_UNITARY}),
        (1, {"kind": "unitary", "target": 0, "matrix": [[[1, 0], [0, 0]]]}),
        (1, {"kind": "unitary", "target": 0, "matrix": STRING_AND_BOOL_UNITARY}),
    ],
    ids=["bool-n", "float-amount", "bool-target", "integral-float-multiplier",
         "string-wire", "flat-matrix", "nan-matrix", "cadd-same-wire",
         "ccadd-repeated-wire", "non-unitary", "one-by-two-matrix",
         "string-and-bool-matrix"],
)
def test_run_rejects_malformed_circuit_fields(tmp_path, capsys, n, gate):
    # the state matches the system a lax parser would read (true as n=1)
    state_path = write_state(tmp_path, "state.json", basis((0,) * int(n), 2))
    circuit_path = tmp_path / "circuit.json"
    circuit_path.write_text(json.dumps({"n": n, "d": 2, "gates": [gate]}))
    code, out, err = invoke(
        capsys, ["run", "--circuit", str(circuit_path), "--in", state_path]
    )
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if type(n) is int:  # bool-n is a header error, not a gate's
        assert err.startswith("error: gate 0: "), err


def test_run_rejects_a_circuit_whose_norm_drifts(tmp_path, capsys):
    # (1 + 4e-11) H passes the unitarity check; ten of them drift by ~8e-10
    h = (1 + 4e-11) / math.sqrt(2)
    gate = {"kind": "unitary", "target": 0,
            "matrix": [[[h, 0.0], [h, 0.0]], [[h, 0.0], [-h, 0.0]]]}
    state_path = write_state(tmp_path, "state.json", basis((0,), 2))
    circuit_path = tmp_path / "circuit.json"
    circuit_path.write_text(json.dumps({"n": 1, "d": 2, "gates": [gate] * 10}))
    code, out, err = invoke(
        capsys, ["run", "--circuit", str(circuit_path), "--in", state_path]
    )
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.count("\n") == 1 and "not normalized" in err


def test_transform_rejects_nan_amplitude(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"n": 1, "d": 2, "rep": "q", "amplitudes": [[NaN, 0], [1, 0]]}')
    code, out, err = invoke(capsys, ["transform", "--in", str(path), "--to", "k"])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "non-finite" in err and err.count("\n") == 1


def test_overflowing_amplitude_is_one_stderr_line(tmp_path):
    # 1e200 is finite but its square is not; in a fresh process no numpy
    # overflow warning may reach stderr beside the one error line
    path = tmp_path / "big.json"
    path.write_text('{"n": 1, "d": 2, "rep": "q", "amplitudes": [[1e200, 0], [0, 0]]}')
    cmd = [sys.executable, "-m", "quditsim", "analyze", "--in", str(path)]
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert result.returncode == EXIT_VALIDATION
    assert result.stdout == ""
    assert result.stderr == (
        "error: state has non-finite amplitudes: sum |a|^2 = inf\n"
    )


@pytest.mark.parametrize(
    "entry,dev", [([1e308, 1e308], "nan"), ([1e200, 0], "inf")], ids=["nan", "inf"]
)
def test_unitary_whose_gram_overflows_is_one_stderr_line(tmp_path, entry, dev):
    # finite entries whose M M† overflows are rejected when the circuit is
    # parsed; in a fresh process no numpy warning reaches stderr
    state_path = write_state(tmp_path, "state.json", basis((0,), 2))
    circuit_path = tmp_path / "circuit.json"
    matrix = [[entry, [0, 0]], [[0, 0], [1, 0]]]
    circuit_path.write_text(json.dumps(
        {"n": 1, "d": 2, "gates": [{"kind": "unitary", "target": 0, "matrix": matrix}]}
    ))
    cmd = [sys.executable, "-m", "quditsim", "run", "--circuit", str(circuit_path),
           "--in", state_path]
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert result.returncode == EXIT_VALIDATION
    assert result.stdout == ""
    assert result.stderr == f"error: gate 0: matrix is not unitary (deviation {dev})\n"


@pytest.mark.parametrize(
    "element",
    ["{}", "null", "1" + "0" * 399],
    ids=["object", "null", "400-digit-integer"],
)
def test_transform_rejects_non_number_amplitude(tmp_path, capsys, element):
    path = tmp_path / "bad.json"
    path.write_text(
        f'{{"n": 1, "d": 2, "rep": "q", "amplitudes": [[{element}, 0], [1, 0]]}}'
    )
    code, out, err = invoke(capsys, ["transform", "--in", str(path), "--to", "k"])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,amplitudes",
    [
        (["transform", "--to", "q"], '[["1", 0], [false, "0"]]'),
        (["analyze"], '[[" 1e0 ", 0], [0, 0]]'),
    ],
    ids=["transform", "analyze"],
)
def test_string_and_boolean_amplitudes_exit_2(tmp_path, capsys, argv, amplitudes):
    # float() would read each of these leaves as a number; JSON does not
    path = tmp_path / "lax.json"
    path.write_text(f'{{"n": 1, "d": 2, "rep": "q", "amplitudes": {amplitudes}}}')
    code, out, err = invoke(capsys, [argv[0], "--in", str(path), *argv[1:]])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == "error: amplitudes must be [re, im] pairs of numbers\n"


def test_non_finite_payload_exits_2(monkeypatch, capsys):
    check = {"name": "x", "measured": math.nan, "tolerance": 1.0,
             "comparison": "<", "pass": True}
    monkeypatch.setattr(
        cli, "run_verification",
        lambda d, n, seed: {"d": d, "n": n, "checks": [check], "all_pass": True},
    )
    code, out, err = invoke(capsys, ["verify", "--d", "2", "--n", "1"])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "non-finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("d,k", sorted(GOLDEN_PARTITION_SHA256))
def test_partition_stdout_matches_golden_sha256(capsys, d, k):
    n = str(len(k.split(",")))
    code, out, err = invoke(capsys, ["partition", "--n", n, "--d", str(d), "--k", k])
    assert code == EXIT_OK, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_PARTITION_SHA256[(d, k)]


@pytest.mark.parametrize("d,handlers,sources", sorted(GOLDEN_FUNCTIONAL_SHA256))
def test_functional_stdout_matches_golden_sha256(tmp_path, capsys, d, handlers, sources):
    path = write_state(tmp_path, "handlers.json", basis(handlers, d))
    code, out, err = invoke(
        capsys, ["functional", "--d", str(d), "--handlers", path, "--sources", sources]
    )
    assert code == EXIT_OK, err
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN_FUNCTIONAL_SHA256[(d, handlers, sources)]


def signed_handler_file(tmp_path, d, m, rep, seed):
    """A seeded handler state of random signs whose functional output is exact.

    Each amplitude is real or imaginary, zero or a power of 1/2, and the
    squares are powers of 1/4 that sum to exactly 1: |a| and every marginal
    sum are exact, so no digit depends on libm or the summation order.
    """
    rng = np.random.default_rng(seed)
    squares = [1.0]
    while len(squares) + 3 <= d**m:
        w = squares.pop(int(rng.integers(len(squares))))
        squares += [w / 4] * 4
    mags = [math.sqrt(w) for w in squares] + [0.0] * (d**m - len(squares))
    amps = []
    for mag in rng.permutation(mags).tolist():
        value = mag * float(rng.choice([-1.0, 1.0]))
        amps.append([0.0, value] if rng.integers(2) else [value, 0.0])
    path = tmp_path / "handlers.json"
    path.write_text(json.dumps({"n": m, "d": d, "rep": rep, "amplitudes": amps}))
    return str(path)


@pytest.mark.parametrize("d,m,rep,sources", sorted(GOLDEN_FUNCTIONAL_SIGNED_SHA256))
def test_functional_signed_zeros_match_golden_sha256(tmp_path, capsys, d, m, rep, sources):
    path = signed_handler_file(tmp_path, d, m, rep, seed=d + m)
    code, out, err = invoke(
        capsys, ["functional", "--d", str(d), "--handlers", path, "--sources", sources]
    )
    assert code == EXIT_OK, err
    assert "[-0, " in out or ", -0]" in out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN_FUNCTIONAL_SIGNED_SHA256[(d, m, rep, sources)]


@pytest.mark.parametrize("to,digits", sorted(GOLDEN_TRANSFORM_SHA256))
def test_transform_stdout_matches_golden_sha256(tmp_path, capsys, to, digits):
    source = Representation.Q if to == "k" else Representation.K
    path = write_state(tmp_path, "state.json", basis(digits, 2, source))
    code, out, err = invoke(capsys, ["transform", "--in", path, "--to", to])
    assert code == EXIT_OK, err
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN_TRANSFORM_SHA256[(to, digits)]


@pytest.mark.parametrize("k", sorted(GOLDEN_PLANEWAVE_SHA256))
def test_planewave_stdout_matches_golden_sha256(capsys, k):
    n = str(len(k.split(",")))
    code, out, err = invoke(capsys, ["planewave", "--n", n, "--d", "2", "--k", k])
    assert code == EXIT_OK, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_PLANEWAVE_SHA256[k]


def old_emit(obj):
    """The recursive emitter that defined the canonical format, kept as reference."""
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(old_emit, obj)) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {old_emit(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    return json.dumps(obj)


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--in", "{q}", "--to", "k"],
        ["transform", "--in", "{k}", "--to", "q"],
        ["transform", "--in", "{q}", "--to", "q"],
        ["planewave", "--n", "3", "--d", "3", "--k", "2,0,1"],
        ["analyze", "--in", "{q}"],
        ["analyze", "--in", "{k}"],
        ["verify", "--d", "3", "--n", "2"],
        ["run", "--circuit", "{circuit}", "--in", "{run}"],
        ["partition", "--n", "3", "--d", "3", "--k", "2,0,1"],
        ["functional", "--d", "3", "--handlers", "{handlers}", "--sources", "1,2"],
    ],
    ids=lambda argv: "-".join(a for a in argv if not a.startswith(("-", "{"))),
)
def test_stdout_is_canonical_form_of_its_own_parse(tmp_path, capsys, argv):
    # Machine-independent: whatever digits BLAS and libm give, stdout must be
    # exactly the reference emitter's bytes for the document it parses to.
    # parse_int=float keeps "-0" as -0.0, and ints print the same as floats.
    from quditsim import from_amplitudes

    rng = np.random.default_rng(5)
    paths = {}
    for name, m in (("q", 3), ("k", 3), ("handlers", 2)):
        amps = rng.standard_normal(3**m) + 1j * rng.standard_normal(3**m)
        rep = Representation.K if name == "k" else Representation.Q
        state = from_amplitudes(QuditSystem(m, 3), rep, amps / np.linalg.norm(amps))
        paths[name] = write_state(tmp_path, f"{name}.json", state)
    paths["run"], paths["circuit"] = golden_run_files(tmp_path, 3, 3, seed=3)
    code, out, err = invoke(capsys, [a.format(**paths) for a in argv])
    assert code == EXIT_OK, err
    assert out == old_emit(json.loads(out, parse_int=float)) + "\n"


def test_dumps_canonical_literal_bytes():
    payload = {
        "floats": [0.1, 1.0, -0.0, 5e-324, 1e300, np.float64(0.25), -2.5],
        "scalars": [True, False, None, -7, 0],
        3: 'q"é',
        "nested": (1, (2.5, []), {}),
        "50%": {"a%sb%%": "%.17g%", "%d": 0.5},
    }
    assert dumps_canonical(payload) == (
        '{"floats": [0.10000000000000001, 1, -0, 4.9406564584124654e-324, '
        '1.0000000000000001e+300, 0.25, -2.5], '
        '"scalars": [true, false, null, -7, 0], '
        '"3": "q\\"\\u00e9", '
        '"nested": [1, [2.5, []], {}], '
        '"50%": {"a%sb%%": "%.17g%", "%d": 0.5}}'
    )


@pytest.mark.parametrize(
    "array",
    [
        np.array(-0.0),
        np.zeros(0),
        np.array([0.1, -0.0, 5e-324]),
        np.array([[1.0, 1e300], [-2.5, 1 / 3]]),
        np.zeros((0, 2)),
        np.zeros((2, 0)),
        np.array([0.1, 2.5], dtype=np.float32),
    ],
    ids=["0d", "empty", "vector", "2x2", "0x2", "2x0", "float32"],
)
def test_dumps_canonical_float_array_leaf_equals_its_list(array):
    payload = {"a": array, "b": [array, 0.5]}
    listed = {"a": array.tolist(), "b": [array.tolist(), 0.5]}
    assert dumps_canonical(payload) == old_emit(listed)


@pytest.mark.parametrize(
    "value,text",
    [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")],
)
def test_dumps_canonical_rejects_non_finite(value, text):
    with pytest.raises(ValueError) as info:
        dumps_canonical({"checks": [[0.5, value]]})
    assert str(info.value) == f"non-finite float {text} in payload"


@pytest.mark.parametrize(
    "payload,text",
    [
        ([0.5, math.inf, math.nan], "inf"),
        ({"a": [-math.inf], "b": math.nan}, "-inf"),
        ({"a": np.array([[0.5, math.nan]]), "b": math.inf}, "nan"),
        ({"a": 0.5, "b": np.array([math.inf, math.nan])}, "inf"),
    ],
    ids=["list", "dict", "array-first", "array-second"],
)
def test_dumps_canonical_names_first_non_finite_in_document_order(payload, text):
    with pytest.raises(ValueError) as info:
        dumps_canonical(payload)
    assert str(info.value) == f"non-finite float {text} in payload"


@pytest.mark.parametrize(
    "array",
    [np.arange(3), np.array([True, False]), np.array([1 + 2j]), np.zeros((2, 2), int)],
    ids=["int", "bool", "complex", "int-2d"],
)
def test_dumps_canonical_rejects_non_float_arrays(array):
    with pytest.raises(TypeError):
        dumps_canonical({"values": array})


@pytest.mark.parametrize(
    "exc,message",
    [
        (MemoryError(), "out of memory"),
        (MemoryError("Unable to allocate 8.00 TiB"), "Unable to allocate 8.00 TiB"),
    ],
)
def test_memory_error_exits_2(monkeypatch, capsys, exc, message):
    def too_large(label):
        raise exc

    monkeypatch.setattr(cli, "planewave", too_large)
    code, out, err = invoke(
        capsys, ["planewave", "--n", "40", "--d", "2", "--k", ",".join("0" * 40)]
    )
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == f"error: {message}\n"
