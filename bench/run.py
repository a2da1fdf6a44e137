"""Seeded end-to-end benchmark of the quditsim CLI.

    python3 bench/run.py --workload io_roundtrip --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. Every invocation is `python -m quditsim`
with PYTHONPATH set to this checkout's `src/`, one at a time (closed loop,
one client), with BLAS/OpenMP threads capped at the CPU count.

--trace 0 measures the end-to-end metrics with tracing off: passes over the
workload's invocation list, each after SETUP_SAMPLES `quditsim --help` runs,
repeat while the next one fits in --seconds (at least MIN_PASSES). wall_s
sums each invocation's median wall time over the passes.
--trace 1 reports the per-layer metrics: rounds of one untraced subprocess
pass followed by an untraced and a traced in-process replay of each
invocation (see tracing.py) repeat while the next one fits in --seconds (at
least one).

Every output is checked against an independent numpy reference (checks.py)
outside the timed interval; later passes must repeat the first pass's stdout
byte for byte. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The lines before it print the same metrics, the machine and the workload's
reason for existing. Inputs live in .bench_work/ and are removed at exit;
the spans of the last traced replay are written to .bench_work/spans-*.json.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The sibling modules load numpy, so they are imported inside functions, after
# main() has capped the BLAS threads.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 5  # `quditsim --help` runs before each pass; setup_s is their median
IMPORT_SAMPLES = 7  # `-c pass` and `-c "import quditsim"` runs per traced run
MIN_PASSES = 3  # per-invocation medians need three samples to shed one outlier
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SUBCOMMANDS = ("transform", "planewave", "partition", "functional", "run", "analyze", "verify")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_python(pyargs: list[str], out_path: Path, cwd: Path) -> tuple[int, float, int]:
    """One child interpreter; returns (exit code, wall seconds, ru_maxrss in KiB).

    stdout goes to `out_path`, stderr next to it with the suffix ".err".
    """
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *pyargs],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            env=child_env(), cwd=cwd,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class Run:
    """One benchmark run: inputs, tallies of checked executions, samples."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        import workloads

        self.workdir = workdir
        self.invocations = workloads.generate(workload, seed, workdir / "in")
        (workdir / "out").mkdir()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str | None] = [None] * len(self.invocations)
        self.walls: list[list[float]] = [[] for _ in self.invocations]
        self.max_rss_kib = 0

    def tally(self, what: str, problems: list[str], out_path: Path | None = None) -> None:
        """Count one checked execution; a failed child's stderr goes with its problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
            if out_path is not None:
                err = out_path.with_suffix(".err").read_text(errors="replace").strip()
                if err:
                    self.problems.append(f"{what}: stderr ends {err[-300:]!r}")

    def sample(self, pyargs: list[str], expect_prefix: bytes) -> float:
        out_path = self.workdir / "sample.txt"
        code, wall, _ = run_python(pyargs, out_path, self.workdir)
        out = out_path.read_bytes()
        problems = [] if code == 0 and out.startswith(expect_prefix) else [
            f"exit {code}, stdout {out[:80]!r}"]
        self.tally(" ".join(pyargs), problems, out_path)
        return wall

    def subprocess_pass(self) -> None:
        """Every invocation once as `python -m quditsim`; checks run after timing."""
        import checks

        results = []
        for i, inv in enumerate(self.invocations):
            out_path = self.workdir / "out" / f"{i}.json"
            code, wall, rss = run_python(["-m", "quditsim", *inv.argv], out_path, self.workdir)
            self.walls[i].append(wall)
            self.max_rss_kib = max(self.max_rss_kib, rss)
            results.append((code, out_path))
        for i, (inv, (code, out_path)) in enumerate(zip(self.invocations, results)):
            stdout = out_path.read_bytes()
            digest = hashlib.sha256(stdout).hexdigest()
            if self.digests[i] is None:
                problems = checks.check_output(inv.ref, code, stdout)
                self.digests[i] = digest
            elif code != 0 or digest != self.digests[i]:
                problems = [f"exit {code}; stdout differs from the first pass"]
            else:
                problems = []
            self.tally(f"invocation {i} ({inv.subcommand})", problems, out_path)

    def check_replay(self, label: str, i: int, code: int, digest: str) -> None:
        problems = [] if code == 0 and digest == self.digests[i] else [
            f"exit {code}; stdout differs from the subprocess's"]
        self.tally(f"{label} replay of invocation {i}", problems)


def measure(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    """Passes with set-up samples between them, while the next one fits in `seconds`."""
    setup: list[float] = []
    start = time.perf_counter()
    passes, longest = 0, 0.0
    while passes < MIN_PASSES or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        setup += [run.sample(["-m", "quditsim", "--help"], b"usage:")
                  for _ in range(SETUP_SAMPLES)]
        run.subprocess_pass()
        passes += 1
        longest = max(longest, time.perf_counter() - began)
    print(f"passes: {passes} over {len(run.invocations)} invocations; "
          f"setup samples: {len(setup)}")
    for inv, walls in zip(run.invocations, run.walls):
        print(f"  {statistics.median(walls):8.4f} s  {' '.join(inv.argv[:5])}")
    return {
        "wall_s": (sum(statistics.median(w) for w in run.walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (run.max_rss_kib / 1024, "MB"),
    }


def measure_traced(run: Run, workload: str, seed: int, seconds: float) -> dict[str, tuple[float, str]]:
    import tracing

    sys.path.insert(0, str(SRC))
    import quditsim
    import quditsim.cli  # noqa: F401

    if not Path(quditsim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"quditsim imported from {quditsim.__file__}, not {SRC}")
    which = "import quditsim, sys; sys.stdout.write(quditsim.__file__)"
    python_s = [run.sample(["-c", "pass"], b"") for _ in range(IMPORT_SAMPLES)]
    import_s = [run.sample(["-c", which], str(SRC).encode()) for _ in range(IMPORT_SAMPLES)]

    rounds: list[dict[str, tuple[float, str]]] = []
    start = time.perf_counter()
    longest = 0.0
    while not rounds or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        run.subprocess_pass()
        tracer = tracing.Tracer()
        total = {"untraced": 0.0, "traced": 0.0}
        for i, inv in enumerate(run.invocations):
            # Alternate which replay goes first, so neither always meets a
            # cold heap.
            for label in ("untraced", "traced")[:: 1 if i % 2 == 0 else -1]:
                seconds, code, digest = tracing.replay(
                    inv.argv, tracer if label == "traced" else None, i)
                total[label] += seconds
                run.check_replay(label, i, code, digest)
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = (total["traced"] / total["untraced"], "ratio")
        rounds.append(metrics)
        longest = max(longest, time.perf_counter() - began)

    spans_path = WORK / f"spans-{workload}-{seed}.json"
    spans_path.write_text(json.dumps(tracer.to_json()))
    print(f"rounds: {len(rounds)}; spans of the last round: {spans_path}")

    metrics = {"import.python_s": (statistics.median(python_s), "s"),
               "import.quditsim_s": (statistics.median(import_s), "s")}
    for name, (_, unit) in rounds[0].items():
        metrics[name] = (statistics.median(r[name][0] for r in rounds), unit)
    for sub in SUBCOMMANDS:
        walls = [w for inv, ws in zip(run.invocations, run.walls)
                 if inv.subcommand == sub for w in ws]
        metrics[f"cli.cmd.{sub}.wall_p50_s"] = (statistics.median(walls) if walls else 0.0, "s")
    return metrics


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _size_bytes(size: str) -> int:
    """Cache size as sysfs prints it ("2048K", "32M") in bytes."""
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}
    return int(size[:-1]) * scale[size[-1]] if size[-1] in scale else int(size)


def machine(run: Run) -> dict[str, object]:
    import numpy as np

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    caches = cache_sizes()
    state_dims = [inv.ref["d"] ** inv.ref["n"] for inv in run.invocations if "n" in inv.ref]
    largest = 16 * max(state_dims)
    level = next((name for name, size in sorted(caches.items())
                  if largest <= _size_bytes(size)), None)
    note = f"largest state buffer {largest / 2**20:.2f} MiB (16 B per amplitude)"
    note += (f" fits in {level}: bytes are reported as computed, and no bandwidth"
             " or roofline figure is claimed" if level else " exceeds every cache")
    if any(inv.subcommand == "verify" for inv in run.invocations):
        note += (f"; verify's dense d**n x d**n oracles reach"
                 f" {16 * max(state_dims) ** 2 / 2**20:.0f} MiB")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "working_sets": note,
    }


def main(argv: list[str] | None = None) -> int:
    # Before numpy loads, here and in every child: no more threads than CPUs.
    for var in THREAD_VARS:
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quditsim" / "__init__.py").is_file():
        print(f"error: no quditsim sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "quditsim"), quiet=1)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, workdir)
        print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
        print(f"machine: {json.dumps(machine(run))}")
        if args.trace:
            metrics = measure_traced(run, args.workload, args.seed, args.seconds)
        else:
            metrics = measure(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics["failed_ratio"] = (run.failed / run.attempted, "ratio")
    for problem in run.problems[:20]:
        print(f"FAILED {problem}")
    print(f"failed_ratio: {run.failed}/{run.attempted} checked executions")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
