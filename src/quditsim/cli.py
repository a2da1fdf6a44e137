"""One-shot command-line front end emitting canonical JSON on stdout.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 I/O error.
Diagnostics go to stderr; stdout carries exactly one JSON document. Floats
are serialized with 17 significant digits so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import sys
from collections.abc import Callable
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from ._tensor import wire_marginal
from .analysis import (
    _entropy_report,
    _k_probabilities,
    _wire_distributions,
    entropy_to_dict,
    expect_k,
    expect_q,
    partition,
    partition_to_dict,
)
from .fourier import planewave, to_q_rep, to_k_rep
from .gates import apply_gates, build_functional_circuit, circuit_from_dict, run_circuit
from .groups import DigitLabel, QuditSystem, is_prime
from .states import (
    Representation,
    StateVector,
    _state_doc,
    basis_state,
    probabilities,
    state_from_dict,
)
from .verification import DEFAULT_SEED, run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


class UsageError(Exception):
    """Malformed command arguments; maps to exit code 1."""


_EXIT_CODES = {
    UsageError: EXIT_USAGE,
    OSError: EXIT_IO,
    ValueError: EXIT_VALIDATION,
    MemoryError: EXIT_VALIDATION,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> Any:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _template(obj: Any, floats: list[Any]) -> str:
    """`obj` as canonical JSON with a %.17g slot per float, in document order.

    Each slot's value is appended to `floats`; every other `%` is doubled. A
    float ndarray is one leaf: its template follows from its shape alone.
    Strings take json.dumps's own encoder for a str, without its per-call setup.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj).replace("%", "%%")
    if isinstance(obj, float):
        floats.append(obj)
        return "%.17g"
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        floats.extend(obj.ravel().tolist())
        template = "%.17g"
        for size in reversed(obj.shape):
            template = "[" + ", ".join([template] * size) + "]"
        return template
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_template(v, floats) for v in obj]) + "]"
    if isinstance(obj, dict):
        items = [
            f"{_template(str(k), floats)}: {_template(v, floats)}"
            for k, v in obj.items()
        ]
        return "{" + ", ".join(items) + "}"
    return json.dumps(obj)  # int, bool or None: no "%" to double; else TypeError


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-digit floats.

    Lists, tuples, dicts and float ndarrays nest; other leaves are encoded
    as json.dumps encodes them. Raises ValueError naming the first
    non-finite float.
    """
    floats: list[Any] = []
    template = _template(obj, floats)
    bad = next(itertools.filterfalse(math.isfinite, floats), None)
    if bad is not None:
        raise ValueError(f"non-finite float {bad!r} in payload")
    return template % tuple(floats)


def _load_json(path: str, parse: Callable[[Any], Any]) -> Any:
    """parse(the JSON document in path), with the cyclic collector paused.

    json.load makes one new list per amplitude, 65536 for a 64k-amplitude
    state, and each would count towards a collection that has no cycle to
    free. The document is dropped before the collector's state is restored,
    whether or not the load or the parse raised.
    """
    enabled = gc.isenabled()
    gc.disable()
    doc = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:  # json's decoder recurses once per nesting level
                raise ValueError(f"{path}: JSON nested too deeply") from None
        return parse(doc)
    finally:
        doc = None
        if enabled:
            gc.enable()


def _parse_digit_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated digits, got {text!r}") from None


def _system_from_args(n: int, d: int) -> QuditSystem:
    """n < 1 or d < 2 is a usage error; a system too large to index, exit 2."""
    if d < 2 or n < 1:
        raise UsageError(f"need d >= 2 and n >= 1, got d={d}, n={n}")
    return QuditSystem(n, d)


def _label_from_args(n: int, d: int, digit_text: str) -> DigitLabel:
    digits = _parse_digit_list(digit_text)
    system = _system_from_args(n, d)
    try:
        return DigitLabel(digits, system)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_transform(args: argparse.Namespace) -> tuple[Any, int]:
    state = _load_json(args.infile, state_from_dict)
    target = Representation(args.to)
    if state.rep is target:
        out = state
    elif target is Representation.Q:
        out = to_q_rep(state)
    else:
        out = to_k_rep(state)
    return _state_doc(out), EXIT_OK


def _cmd_planewave(args: argparse.Namespace) -> tuple[Any, int]:
    label = _label_from_args(args.n, args.d, args.k)
    return _state_doc(planewave(label)), EXIT_OK


def _cmd_partition(args: argparse.Namespace) -> tuple[Any, int]:
    label = _label_from_args(args.n, args.d, args.k)
    return partition_to_dict(partition(label)), EXIT_OK


def _cmd_functional(args: argparse.Namespace) -> tuple[Any, int]:
    handlers = _load_json(args.handlers, state_from_dict)
    if handlers.system.d != args.d:
        raise ValueError(
            f"handler state has d={handlers.system.d}, expected d={args.d}"
        )
    m, d = handlers.system.n, args.d
    sources = _parse_digit_list(args.sources)
    if any(not 0 <= x < d for x in sources):
        raise UsageError(f"source digits must lie in [0, {d})")
    # a count mismatch against the handler file is a validation error (exit 2)
    source = basis_state(DigitLabel(sources, QuditSystem(m, d)), Representation.Q)
    holder = np.eye(1, d, dtype=np.complex128)[0]
    # The amplitude list gives the functional coefficients whether the file
    # is tagged q or k, so a k-rep file is accepted verbatim. kron, not a
    # zero-filled scatter: (a+bi)(0+0j) keeps the signed zeros the output prints.
    circuit, layout = build_functional_circuit(m, d)
    start = np.kron(np.kron(handlers.amplitudes, source.amplitudes), holder)
    out = StateVector(circuit.system, Representation.Q, apply_gates(circuit, start))
    holder_probs = wire_marginal(
        probabilities(out), d, circuit.system.n, layout.holder_wire
    )
    return {
        "state": _state_doc(out),
        "holder_probabilities": holder_probs,
    }, EXIT_OK


def _cmd_run(args: argparse.Namespace) -> tuple[Any, int]:
    circuit = _load_json(args.circuit, circuit_from_dict)
    state = _load_json(args.infile, state_from_dict)
    return _state_doc(run_circuit(circuit, state)), EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> tuple[Any, int]:
    state = _load_json(args.infile, state_from_dict)
    input_rep = state.rep.value
    if state.rep is Representation.K:
        state = to_q_rep(state)
    # one F† serves both what entropies and k_distributions would compute
    k_probs = _k_probabilities(state.amplitudes, state.system)
    report = _entropy_report(probabilities(state), k_probs)
    return {
        "n": state.system.n,
        "d": state.system.d,
        "input_rep": input_rep,
        "expect_q": expect_q(state),
        "expect_k": expect_k(state),
        "k_distributions": _wire_distributions(k_probs, state.system),
        "entropy": entropy_to_dict(report),
        "d_is_prime": is_prime(state.system.d),
    }, EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> tuple[Any, int]:
    _system_from_args(args.n, args.d)
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    report = run_verification(args.d, args.n, seed=args.seed)
    if report["all_pass"]:
        return report, EXIT_OK
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    print(f"failing checks: {', '.join(failing)}", file=sys.stderr)
    return report, EXIT_VALIDATION


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quditsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="Fourier-transform a state file")
    p.add_argument("--in", dest="infile", required=True, metavar="STATE_JSON")
    p.add_argument("--to", required=True, choices=["q", "k"])
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("planewave", help="q-rep state of one basis functional")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", required=True, metavar="DIGITS")
    p.set_defaults(handler=_cmd_planewave)

    p = sub.add_parser("partition", help="basis classes induced by a functional")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", required=True, metavar="DIGITS")
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser(
        "functional", help="run the functional-creation circuit on handler state"
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--handlers", required=True, metavar="STATE_JSON")
    p.add_argument("--sources", required=True, metavar="DIGITS")
    p.set_defaults(handler=_cmd_functional)

    p = sub.add_parser("run", help="apply a circuit file to a state file")
    p.add_argument("--circuit", required=True, metavar="CIRCUIT_JSON")
    p.add_argument("--in", dest="infile", required=True, metavar="STATE_JSON")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("analyze", help="expectations, distributions, entropies")
    p.add_argument("--in", dest="infile", required=True, metavar="STATE_JSON")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("verify", help="run the invariant sweep for one system")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"seed for randomized sweeps (default {DEFAULT_SEED})",
    )
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, code = args.handler(args)
        text = dumps_canonical(payload)
    except tuple(_EXIT_CODES) as exc:
        fallback = "out of memory" if isinstance(exc, MemoryError) else ""
        print(f"error: {str(exc) or fallback}", file=sys.stderr)
        return next(c for kind, c in _EXIT_CODES.items() if isinstance(exc, kind))
    sys.stdout.write(text + "\n")
    return code


def entrypoint() -> None:
    """The console script: main, then exit without the interpreter's teardown.

    A one-shot process has nothing to finalize once its output is flushed.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
