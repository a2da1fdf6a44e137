"""Tests of the benchmark itself, on shrunken workloads.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrink every workload and the sample counts; keep outputs in tmp_path."""
    monkeypatch.setattr(workloads, "IO_SYSTEMS", ((2, 3), (3, 2)))
    monkeypatch.setattr(workloads, "IO_PLANEWAVE", (2, 3))
    monkeypatch.setattr(workloads, "IO_PARTITION", (3, 2))
    monkeypatch.setattr(workloads, "IO_FUNCTIONAL", (3, 1))
    monkeypatch.setattr(workloads, "CIRCUIT_SYSTEMS", ((2, 4), (16, 3)))
    monkeypatch.setattr(workloads, "CIRCUIT_GATES", 12)
    monkeypatch.setattr(workloads, "VERIFY_SYSTEMS", ((2, 2), (3, 2)))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(run, "IMPORT_SAMPLES", 1)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    return tmp_path


def bench_main(capsys, *args: str) -> dict:
    assert run.main(["--seconds", "0", *args]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_inputs_depend_only_on_the_seed(small):
    def files(seed, name):
        invs = workloads.generate("io_roundtrip", seed, small / name)
        return [inv.argv[0] for inv in invs], {
            p.name: p.read_bytes() for p in sorted((small / name).iterdir())
        }

    assert files(3, "a") == files(3, "b")
    assert files(3, "a")[1] != files(4, "c")[1]


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_checks_accept_the_cli_outputs(small, workload):
    for inv in workloads.generate(workload, 7, small / "in"):
        code, out = tracing.run_cli(inv.argv)
        assert checks.check_output(inv.ref, code, out) == [], inv.argv


def test_checks_reject_a_perturbed_amplitude(small):
    inv = workloads.generate("io_roundtrip", 7, small / "in")[0]
    code, out = tracing.run_cli(inv.argv)
    doc = json.loads(out)
    doc["amplitudes"][3][1] += 1e-9
    assert checks.check_output(inv.ref, code, json.dumps(doc).encode())
    assert checks.check_output(inv.ref, 2, out) == ["exit code 2, expected 0"]


def test_replay_circuit_matches_dense_oracle():
    from quditsim import circuit_from_dict, circuit_unitary_oracle

    rng = np.random.default_rng(0)
    for d, n in ((2, 3), (3, 3), (4, 3)):
        gates = workloads.random_gates(rng, d, n, 16)
        oracle = circuit_unitary_oracle(circuit_from_dict({"n": n, "d": d, "gates": gates}))
        amps = workloads.random_amplitudes(rng, d**n)
        assert np.allclose(checks.replay_circuit(amps, d, n, gates), oracle @ amps, atol=1e-12)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_run_reports_every_declared_metric(small, capsys, workload, trace):
    result = bench_main(capsys, "--workload", workload, "--seed", "5", "--trace", trace)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("per_layer" if trace == "1" else "end_to_end")


def test_perturbed_output_is_counted_as_failed(small, capsys, monkeypatch):
    real = run.run_python

    def perturbing(pyargs, out_path, cwd):
        result = real(pyargs, out_path, cwd)
        if "transform" in pyargs:
            doc = json.loads(out_path.read_bytes())
            doc["amplitudes"][0][0] += 1e-6
            out_path.write_text(json.dumps(doc))
        return result

    monkeypatch.setattr(run, "run_python", perturbing)
    result = bench_main(capsys, "--workload", "io_roundtrip", "--seed", "5", "--trace", "0")
    assert result["correct"] is False
    # every pass perturbs all four transform outputs the same way: the first
    # pass fails the reference check, the second repeats the first's bytes
    assert result["failed"] == 4


def test_traced_replay_is_faithful_and_restores_the_package(small):
    import quditsim.cli

    argvs = [inv.argv for inv in workloads.generate("circuit_long", 1, small / "in")]
    argvs += [inv.argv for inv in workloads.generate("verify_sweep", 1, small / "in")]
    originals = dict(vars(quditsim.cli))
    load = json.load
    tracer = tracing.Tracer()
    for i, argv in enumerate(argvs):
        assert tracing.replay(argv)[1:] == tracing.replay(argv, tracer, i)[1:]
    assert dict(vars(quditsim.cli)) == originals and json.load is load
    metrics = tracing.layer_metrics(tracer)
    # the two circuits have 12 gates each, a quarter of them unitaries
    assert sum(1 for name, _, _, _, inv in tracer.spans
               if name == "gates.unitary" and inv in (0, 1)) == 2 * 3
    assert metrics["verification.checks"][0] > 0
    assert sum(v for k, (v, _) in metrics.items() if k.endswith(".share")) == pytest.approx(1)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["a", 0.0, 10.0, None, 0],
        ["b", 2.0, 5.0, 0, 0],
        ["c", 3.0, 4.0, 1, 0],
        ["b", 6.0, 7.0, 0, 0],
    ]
    self_s, calls = tracer.self_times()
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert calls == {"a": 1, "b": 2, "c": 1}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "io_roundtrip",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
