"""Output checks against independent numpy references.

None of these call into `quditsim`: transforms are checked against
`np.fft.fftn`/`ifftn(norm="ortho")`, circuits against an index-gather/einsum
replay, partitions against `k.q mod d` over all labels. Each check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

AMP_TOL = 1e-12  # transforms, planewaves, functional outputs
RUN_TOL = 1e-10  # 1000 gates accumulate more rounding
STAT_TOL = 1e-9  # expectations and entropies summed over 64k terms


def _amplitudes(doc: Any) -> np.ndarray:
    arr = np.asarray(doc, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"amplitudes have shape {arr.shape}, expected (N, 2)")
    return arr[:, 0] + 1j * arr[:, 1]


def _max_dev(got: Any, expected: np.ndarray) -> float:
    got = np.asarray(got)
    if got.shape != expected.shape:
        return float("inf")
    return float(np.max(np.abs(got - expected), initial=0.0))


def _compare(problems: list[str], what: str, got: Any, expected: Any, tol: float) -> None:
    dev = _max_dev(got, np.asarray(expected))
    if not dev <= tol:
        problems.append(f"{what}: deviation {dev:.3e} > {tol:.0e}")


def _state(problems: list[str], doc: Any, d: int, n: int, rep: str) -> np.ndarray:
    for key, want in (("n", n), ("d", d), ("rep", rep)):
        if doc.get(key) != want:
            problems.append(f"state field {key!r} is {doc.get(key)!r}, expected {want!r}")
    return _amplitudes(doc["amplitudes"])


def _digits(d: int, n: int) -> np.ndarray:
    """(n, d**n) array: column i holds the big-endian digits of index i."""
    return np.indices((d,) * n).reshape(n, -1)


def _dot_mod(k: np.ndarray, d: int, n: int) -> np.ndarray:
    return (np.asarray(k) @ _digits(d, n)) % d


def _marginals(probs: np.ndarray, d: int, n: int) -> np.ndarray:
    t = probs.reshape((d,) * n)
    return np.array(
        [t.sum(axis=tuple(a for a in range(n) if a != w)) for w in range(n)]
    )


def _entropy(probs: np.ndarray) -> float:
    p = probs[probs > 0]
    return float(-(p * np.log(p)).sum())


def _is_prime(d: int) -> bool:
    return d >= 2 and all(d % f for f in range(2, int(d**0.5) + 1))


def check_transform(ref: dict, doc: Any) -> list[str]:
    d, n = ref["d"], ref["n"]
    shape = (d,) * n
    x = ref["amps"].reshape(shape)
    if ref["rep"] == "q":
        to, expected = "k", np.fft.fftn(x, norm="ortho")
    else:
        to, expected = "q", np.fft.ifftn(x, norm="ortho")
    problems: list[str] = []
    got = _state(problems, doc, d, n, to)
    _compare(problems, "transform amplitudes", got, expected.reshape(-1), AMP_TOL)
    return problems


def check_analyze(ref: dict, doc: Any) -> list[str]:
    d, n = ref["d"], ref["n"]
    shape = (d,) * n
    x = ref["amps"].reshape(shape)
    psi = x if ref["rep"] == "q" else np.fft.ifftn(x, norm="ortho")
    p_q = np.abs(psi.reshape(-1)) ** 2
    p_k = np.abs(np.fft.fftn(psi, norm="ortho").reshape(-1)) ** 2
    values = np.arange(d)
    k_dist = _marginals(p_k, d, n)
    h_q, h_k = _entropy(p_q), _entropy(p_k)
    problems: list[str] = []
    for key, want in (("n", n), ("d", d), ("input_rep", ref["rep"]),
                      ("d_is_prime", _is_prime(d))):
        if doc.get(key) != want:
            problems.append(f"analyze field {key!r} is {doc.get(key)!r}, expected {want!r}")
    _compare(problems, "expect_q", doc["expect_q"], _marginals(p_q, d, n) @ values, STAT_TOL)
    _compare(problems, "expect_k", doc["expect_k"], k_dist @ values, STAT_TOL)
    _compare(problems, "k_distributions", doc["k_distributions"], k_dist, AMP_TOL)
    entropy = doc["entropy"]
    _compare(problems, "entropy",
             [entropy["h_q"], entropy["h_k"], entropy["sum"]],
             [h_q, h_k, h_q + h_k], STAT_TOL)
    if entropy.get("log_base") != "e":
        problems.append(f"entropy log_base is {entropy.get('log_base')!r}")
    return problems


def replay_circuit(amps: np.ndarray, d: int, n: int, gates: list[dict]) -> np.ndarray:
    """Apply the circuit's gate documents by index gather and einsum."""
    shape = (d,) * n
    psi = amps.reshape(shape)
    grid = np.ogrid[tuple(slice(0, d) for _ in range(n))]
    flat = np.arange(d**n).reshape(shape)
    axes = list(range(n))
    for gate in gates:
        kind, t = gate["kind"], gate["target"]
        if kind == "unitary":
            u = np.asarray(gate["matrix"], dtype=float)
            u = u[..., 0] + 1j * u[..., 1]
            out_axes = axes.copy()
            out_axes[t] = n
            psi = np.einsum(u, [n, t], psi, axes, out_axes)
            continue
        if kind == "translation":
            shift = gate["amount"]
        elif kind == "cadd":
            shift = gate["multiplier"] * grid[gate["control"]]
        elif kind == "ccadd":
            shift = grid[gate["k_control"]] * grid[gate["j_control"]]
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
        # |.., x_t, ..> goes to |.., x_t + shift, ..>, so out[y] = psi[y_t - shift]
        source = flat + ((grid[t] - shift) % d - grid[t]) * d ** (n - 1 - t)
        psi = psi.reshape(-1)[source]
    return psi.reshape(-1)


def check_run(ref: dict, doc: Any) -> list[str]:
    d, n = ref["d"], ref["n"]
    problems: list[str] = []
    got = _state(problems, doc, d, n, "q")
    expected = replay_circuit(ref["amps"], d, n, ref["gates"])
    _compare(problems, "run amplitudes", got, expected, RUN_TOL)
    return problems


def check_planewave(ref: dict, doc: Any) -> list[str]:
    d, n = ref["d"], ref["n"]
    phase = _dot_mod(ref["k"], d, n)
    expected = np.exp(2j * np.pi * phase / d) / np.sqrt(d**n)
    problems: list[str] = []
    got = _state(problems, doc, d, n, "q")
    _compare(problems, "planewave amplitudes", got, expected, AMP_TOL)
    return problems


def check_partition(ref: dict, doc: Any) -> list[str]:
    d, n, k = ref["d"], ref["n"], ref["k"]
    digits = _digits(d, n)
    sep = "" if d <= 10 else ","
    kets = [sep.join(map(str, col)) for col in digits.T.tolist()]
    values = _dot_mod(k, d, n)
    expected = [[kets[i] for i in np.flatnonzero(values == v)] for v in range(d)]
    problems: list[str] = []
    if doc.get("k") != [int(x) for x in k]:
        problems.append(f"partition k is {doc.get('k')!r}")
    if doc.get("classes") != expected:
        problems.append("partition classes differ from k.q mod d")
    return problems


def check_functional(ref: dict, doc: Any) -> list[str]:
    d, m = ref["d"], ref["m"]
    handlers, sources = ref["handlers"], np.asarray(ref["sources"])
    holder = _dot_mod(sources, d, m)  # k.q for every handler label k
    source_index = int(sources @ d ** np.arange(m - 1, -1, -1))
    expected = np.zeros(d ** (2 * m + 1), dtype=complex)
    expected[(np.arange(d**m) * d**m + source_index) * d + holder] = handlers
    probs = np.bincount(holder, weights=np.abs(handlers) ** 2, minlength=d)
    problems: list[str] = []
    got = _state(problems, doc["state"], d, 2 * m + 1, "q")
    _compare(problems, "functional state", got, expected, AMP_TOL)
    _compare(problems, "holder_probabilities", doc["holder_probabilities"], probs, AMP_TOL)
    return problems


def check_verify(ref: dict, doc: Any) -> list[str]:
    problems: list[str] = []
    for key in ("d", "n", "seed"):
        if doc.get(key) != ref[key]:
            problems.append(f"verify field {key!r} is {doc.get(key)!r}, expected {ref[key]!r}")
    checks = doc.get("checks") or []
    failing = [c.get("name") for c in checks if c.get("pass") is not True]
    if not checks or failing or doc.get("all_pass") is not True:
        problems.append(f"verify did not pass: failing={failing}, checks={len(checks)}")
    return problems


CHECKERS = {
    "transform": check_transform,
    "analyze": check_analyze,
    "run": check_run,
    "planewave": check_planewave,
    "partition": check_partition,
    "functional": check_functional,
    "verify": check_verify,
}


def check_output(ref: dict, returncode: int, stdout: bytes) -> list[str]:
    """All problems with one invocation's exit code and stdout (exit 0 expected)."""
    if returncode != 0:
        return [f"exit code {returncode}, expected 0"]
    try:
        doc = json.loads(stdout)
        return CHECKERS[ref["kind"]](ref, doc)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
