"""In-process traced replay of workload invocations.

The replay calls `quditsim.cli.main` with the same argv the subprocesses get,
after replacing, in every `quditsim` module namespace, the public functions
listed in TRACED with wrappers that record a span per call. Nothing under
`src/` changes; the replacements are undone when `installed` exits. The
package reaches every listed function through a module-level name, so every
call to one is traced.

`run_circuit` is replaced by a wrapper that applies the gates one at a time,
each as a one-gate circuit through the public API, so per-kind gate time is
measured without reaching into the gate kernels. `json.load` is wrapped as
`cli.load_json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# defining module -> public functions whose calls get a span "<module>.<name>"
TRACED = {
    "cli": ("dumps_canonical",),
    "states": ("state_from_dict", "state_to_dict"),
    "gates": ("circuit_from_dict",),
    "fourier": ("to_k_rep", "to_q_rep", "planewave"),
    "analysis": (
        "entropies", "expect_q", "expect_k", "k_distributions",
        "partition", "partition_to_dict",
    ),
    "verification": ("run_verification",),
}
GATE_KINDS = {
    "Translation": "translation",
    "ControlledAdd": "cadd",
    "DoublyControlledAdd": "ccadd",
    "SingleQuditUnitary": "unitary",
}
SPANS = (
    "cli.load_json",
    *(f"{module}.{fname}" for module, fnames in TRACED.items() for fname in fnames),
    "gates.run_circuit",
    *(f"gates.{kind}" for kind in GATE_KINDS.values()),
)
COUNTERS = {
    "cli.load_json.bytes": "bytes",
    "cli.dumps_canonical.bytes": "bytes",
    "states.amplitudes": "count",
    **{f"gates.{kind}.computed_bytes": "bytes" for kind in GATE_KINDS.values()},
    "verification.checks": "count",
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, invocation id]."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.invocation: int | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> list[Any]:
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.invocation]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list[Any]) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time (span minus its children) and calls."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - covered[i]
            calls[name] += 1
        return self_s, calls

    def to_json(self) -> list[dict[str, Any]]:
        keys = ("name", "start", "end", "parent", "invocation")
        return [dict(zip(keys, rec)) for rec in self.spans]


def _count_amplitudes(counts: dict, args: tuple, result: Any) -> None:
    if isinstance(result, dict):
        counts["states.amplitudes"] += len(result["amplitudes"])
    else:
        counts["states.amplitudes"] += result.system.dim


def _count_dumped(counts: dict, args: tuple, result: str) -> None:
    counts["cli.dumps_canonical.bytes"] += len(result)


def _count_loaded(counts: dict, args: tuple, result: Any) -> None:
    counts["cli.load_json.bytes"] += os.fstat(args[0].fileno()).st_size


def _count_checks(counts: dict, args: tuple, result: dict) -> None:
    counts["verification.checks"] += len(result["checks"])


AFTER = {
    "cli.dumps_canonical": _count_dumped,
    "states.state_from_dict": _count_amplitudes,
    "states.state_to_dict": _count_amplitudes,
    "verification.run_verification": _count_checks,
}


def _gate_by_gate(tracer: Tracer, run_circuit: Callable, circuit_type: type) -> Callable:
    def traced(circuit: Any, state: Any) -> Any:
        rec = tracer.open("gates.run_circuit")
        try:
            if not circuit.gates:
                return run_circuit(circuit, state)
            for gate in circuit.gates:
                kind = GATE_KINDS[type(gate).__name__]
                one_gate = circuit_type(circuit.system, (gate,))
                gate_rec = tracer.open(f"gates.{kind}")
                try:
                    state = run_circuit(one_gate, state)
                finally:
                    tracer.close(gate_rec)
                # computed, not measured: every amplitude read once, written once
                tracer.counts[f"gates.{kind}.computed_bytes"] += 2 * state.amplitudes.nbytes
            return state
        finally:
            tracer.close(rec)

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route calls to the TRACED functions through `tracer` while active."""
    import quditsim.cli
    import quditsim.gates

    wrappers: dict[int, tuple[Callable, Callable]] = {}
    for modname, names in TRACED.items():
        module = sys.modules[f"quditsim.{modname}"]
        for fname in names:
            name = f"{modname}.{fname}"
            orig = getattr(module, fname)
            wrappers[id(orig)] = (orig, tracer.wrap(name, orig, AFTER.get(name)))
    orig = quditsim.gates.run_circuit
    wrappers[id(orig)] = (orig, _gate_by_gate(tracer, orig, quditsim.gates.Circuit))

    saved: list[tuple[Any, str, Any]] = []
    modules = [m for key, m in sorted(sys.modules.items()) if key.startswith("quditsim.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, entry[1])
    saved.append((json, "load", json.load))
    json.load = tracer.wrap("cli.load_json", json.load, _count_loaded)
    try:
        yield tracer
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    """`quditsim.cli.main(argv)` in this process; returns (exit code, stdout)."""
    from quditsim.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().encode()


def replay(
    argv: list[str], tracer: Tracer | None = None, invocation: int = 0
) -> tuple[float, int, str]:
    """Run one argv in-process, traced if a tracer is given.

    Returns the wall seconds, the exit code and the sha256 of stdout.
    """
    if tracer is None:
        start = time.perf_counter()
        code, out = run_cli(argv)
        return time.perf_counter() - start, code, hashlib.sha256(out).hexdigest()
    tracer.invocation = invocation
    with installed(tracer):
        start = time.perf_counter()
        rec = tracer.open(f"cli.cmd.{argv[0]}")
        try:
            code, out = run_cli(argv)
        finally:
            tracer.close(rec)
        seconds = time.perf_counter() - start
    return seconds, code, hashlib.sha256(out).hexdigest()


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced replay: self seconds, calls, counters, shares."""
    self_s, calls = tracer.self_times()
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        metrics[f"{name}.s"] = (self_s.get(name, 0.0), "s")
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name, unit in COUNTERS.items():
        metrics[name] = (tracer.counts[name], unit)
    # cli.cmd.* self time is argument parsing and handler glue: the cli layer
    total = sum(self_s.values())
    for layer in TRACED:
        busy = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        metrics[f"layer.{layer}.share"] = (busy / total if total else 0.0, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics
