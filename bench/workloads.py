"""Seeded input generator for the benchmark workloads.

Each workload is a fixed list of `quditsim` invocations over files written
from the seed alone. An `Invocation` carries the argv the CLI receives and the
reference data the output checks need; the CLI itself sees only the files and
the argv.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

# Why each workload exists; printed with every result.
WHY = {
    "io_roundtrip": (
        "64k-amplitude states through transform/analyze: serialization, parsing"
        " and start-up dominate, compute is ~2%; gate kernels are not reached"
    ),
    "circuit_long": (
        "1000-gate random circuits on 64k-amplitude states, d up to 16:"
        " gate kernels carry most in-process time"
    ),
    "verify_sweep": (
        "verify at dimension 2048-3125: dense oracles and thousands of"
        " small-state planewave/run_circuit calls, almost no I/O"
    ),
}

IO_SYSTEMS = ((2, 16), (3, 10), (4, 8), (5, 7))
IO_PLANEWAVE = (2, 16)
IO_PARTITION = (3, 9)
IO_FUNCTIONAL = (3, 2)  # (d, m): handler state on m qudits of dimension d
CIRCUIT_SYSTEMS = ((2, 16), (3, 10), (5, 7), (16, 4))
CIRCUIT_GATES = 1000
VERIFY_SYSTEMS = ((3, 7), (5, 5), (2, 11))
GATE_KINDS = ("translation", "cadd", "ccadd", "unitary")


@dataclass
class Invocation:
    """One CLI call: `python -m quditsim <argv>` and what its output must be."""

    argv: list[str]
    ref: dict[str, Any] = field(repr=False)

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def random_amplitudes(rng: np.random.Generator, dim: int) -> np.ndarray:
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amps / np.linalg.norm(amps)


def pairs(values: np.ndarray) -> list:
    """Complex array as nested [re, im] lists (any shape)."""
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _write_json(path: Path, doc: Any) -> str:
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    return str(path)


def _write_state(path: Path, d: int, n: int, rep: str, amps: np.ndarray) -> str:
    return _write_json(
        path, {"n": n, "d": d, "rep": rep, "amplitudes": pairs(amps)}
    )


def _digits_arg(digits: np.ndarray) -> str:
    return ",".join(str(int(x)) for x in digits)


def random_gates(
    rng: np.random.Generator, d: int, n: int, count: int
) -> list[dict[str, Any]]:
    """`count` gates in equal parts of the four kinds, in shuffled order."""
    kinds = [GATE_KINDS[i % len(GATE_KINDS)] for i in range(count)]
    gates = []
    for i in rng.permutation(count):
        kind = kinds[i]
        a, b, c = (int(w) for w in rng.choice(n, size=3, replace=False))
        if kind == "translation":
            gates.append({"kind": kind, "target": a, "amount": int(rng.integers(d))})
        elif kind == "cadd":
            gates.append(
                {
                    "kind": kind,
                    "control": a,
                    "target": b,
                    "multiplier": int(rng.integers(d)),
                }
            )
        elif kind == "ccadd":
            gates.append({"kind": kind, "k_control": a, "j_control": b, "target": c})
        else:
            gaussian = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, _ = np.linalg.qr(gaussian)
            gates.append({"kind": kind, "target": a, "matrix": pairs(q)})
    return gates


def build_io_roundtrip(rng: np.random.Generator, workdir: Path) -> list[Invocation]:
    invocations = []
    for i, (d, n) in enumerate(IO_SYSTEMS):
        q_amps = random_amplitudes(rng, d**n)
        k_amps = random_amplitudes(rng, d**n)
        q_path = _write_state(workdir / f"q_{d}_{n}.json", d, n, "q", q_amps)
        k_path = _write_state(workdir / f"k_{d}_{n}.json", d, n, "k", k_amps)
        invocations.append(
            Invocation(
                ["transform", "--in", q_path, "--to", "k"],
                {"kind": "transform", "d": d, "n": n, "rep": "q", "amps": q_amps},
            )
        )
        invocations.append(
            Invocation(
                ["transform", "--in", k_path, "--to", "q"],
                {"kind": "transform", "d": d, "n": n, "rep": "k", "amps": k_amps},
            )
        )
        # analyze alternates between the two representations' files
        rep, path, amps = ("q", q_path, q_amps) if i % 2 == 0 else ("k", k_path, k_amps)
        invocations.append(
            Invocation(
                ["analyze", "--in", path],
                {"kind": "analyze", "d": d, "n": n, "rep": rep, "amps": amps},
            )
        )
    d, n = IO_PLANEWAVE
    k = rng.integers(d, size=n)
    invocations.append(
        Invocation(
            ["planewave", "--n", str(n), "--d", str(d), "--k", _digits_arg(k)],
            {"kind": "planewave", "d": d, "n": n, "k": k},
        )
    )
    d, n = IO_PARTITION
    k = rng.integers(d, size=n)
    invocations.append(
        Invocation(
            ["partition", "--n", str(n), "--d", str(d), "--k", _digits_arg(k)],
            {"kind": "partition", "d": d, "n": n, "k": k},
        )
    )
    d, m = IO_FUNCTIONAL
    handlers = random_amplitudes(rng, d**m)
    sources = rng.integers(d, size=m)
    h_path = _write_state(workdir / "handlers.json", d, m, "q", handlers)
    invocations.append(
        Invocation(
            ["functional", "--d", str(d), "--handlers", h_path,
             "--sources", _digits_arg(sources)],
            {"kind": "functional", "d": d, "m": m, "handlers": handlers,
             "sources": sources},
        )
    )
    return invocations


def build_circuit_long(rng: np.random.Generator, workdir: Path) -> list[Invocation]:
    invocations = []
    for d, n in CIRCUIT_SYSTEMS:
        amps = random_amplitudes(rng, d**n)
        gates = random_gates(rng, d, n, CIRCUIT_GATES)
        s_path = _write_state(workdir / f"state_{d}_{n}.json", d, n, "q", amps)
        c_path = _write_json(
            workdir / f"circuit_{d}_{n}.json", {"n": n, "d": d, "gates": gates}
        )
        invocations.append(
            Invocation(
                ["run", "--circuit", c_path, "--in", s_path],
                {"kind": "run", "d": d, "n": n, "amps": amps, "gates": gates},
            )
        )
    return invocations


def build_verify_sweep(rng: np.random.Generator, workdir: Path) -> list[Invocation]:
    invocations = []
    for d, n in VERIFY_SYSTEMS:
        seed = int(rng.integers(2**31 - 1))
        invocations.append(
            Invocation(
                ["verify", "--d", str(d), "--n", str(n), "--seed", str(seed)],
                {"kind": "verify", "d": d, "n": n, "seed": seed},
            )
        )
    return invocations


BUILDERS = {
    "io_roundtrip": build_io_roundtrip,
    "circuit_long": build_circuit_long,
    "verify_sweep": build_verify_sweep,
}


def generate(workload: str, seed: int, workdir: Path) -> list[Invocation]:
    """Write the workload's input files into `workdir` and list its invocations."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](np.random.default_rng(seed), workdir)
