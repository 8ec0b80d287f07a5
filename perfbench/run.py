"""Closed-loop benchmark of the ``dfq`` package in ``src/`` of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--ops K]

One process, one thread: each op starts only after the previous one has
returned and been checked. BLAS is capped at one thread before numpy loads.

``--trace 0`` measures set-up in separate fresh interpreters, then runs ops
for ``--seconds`` and prints the end-to-end metrics. Their times are
calibrated against a fixed probe timed before every op, because the host's
CPU speed drifts with its neighbours' load. ``--trace 1`` runs a
fixed number of ops (the workload's ``trace_ops``) without spans, then the
same ops again under the span recorder, and prints the per-layer metrics.
``--ops K`` fixes the op count in either mode. The last line of standard
output is one JSON object; see perfbench/README.md for every metric.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5
SETUP_PROBES = 51  # probes before each set-up sample
SETUP_TIMEOUT_S = 60
CAL_WINDOW = 100  # probes on either side of an op that gauge the host's speed
# Times are reported at the host speed where the probe takes this long.
PROBE_REFERENCE_S = 1e-3


def _timed_setup(workload: str, seed: int, work_dir: Path):
    """Import ``dfq`` from this checkout and build the workload's ops."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports dfq

    ops = workloads.setup(workload, seed, work_dir)
    elapsed = time.perf_counter() - start
    expected = (SRC / "dfq" / "__init__.py").resolve()
    if Path(workloads.dfq.__file__).resolve() != expected:
        raise SystemExit(f"imported dfq from {workloads.dfq.__file__}, expected {expected}")
    return ops, elapsed


def _setup_sample(workload: str, seed: int) -> float:
    """Set-up time in a fresh interpreter, as the child process measures it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1])


class Measured(NamedTuple):
    latencies: list[float]  # seconds per op, in op order
    probes: list[float]  # seconds of the reference probe taken before each op
    failed: int


def make_probe():
    """A fixed kernel that does not use ``dfq``; returns a timer for it.

    Forty small numpy calls in a Python loop, about 1 ms: the same mix of
    interpreter and tiny-array work that ``dfq``'s ops spend their time on.
    """
    import numpy as np

    eye, ones = np.eye(2), np.ones(4)

    def probe() -> float:
        start = time.perf_counter()
        for _ in range(40):
            np.cumsum(np.kron(eye, eye) @ ones)
        return time.perf_counter() - start

    return probe


def run_ops(ops, count=None, seconds=None, recorder=None, counts=None, probe=None) -> Measured:
    """Closed loop over ``ops``: runs exactly ``count`` ops, or ops until
    ``seconds`` have passed.

    Only the call into ``dfq`` is timed. The output check follows it; the
    reference probe, when given, runs just before it.
    """
    latencies: list[float] = []
    probes: list[float] = []
    failed = 0
    start = time.perf_counter()
    index = 0
    while (index < count) if count is not None else (time.perf_counter() - start < seconds):
        op = ops[index % len(ops)]
        if probe is not None:
            probes.append(probe())
        t0 = time.perf_counter()
        try:
            output = recorder.record_op(index, op.run) if recorder else op.run()
        except Exception:  # a failed op is counted, and the loop goes on
            latencies.append(time.perf_counter() - t0)
            traceback.print_exc(file=sys.stderr)
            failed += 1
        else:
            latencies.append(time.perf_counter() - t0)
            if not op.check(output, counts):
                failed += 1
        index += 1
    return Measured(latencies, probes, failed)


def calibrated(times: list[float], speed: list[float]) -> list[float]:
    """Each time rescaled to the host speed at which the probe takes ``PROBE_REFERENCE_S``.

    ``speed[i]`` is the probe time taken next to ``times[i]``; the median of
    the ``CAL_WINDOW`` entries on either side gauges the host's speed there.
    """
    out = []
    for index, value in enumerate(times):
        near = sorted(speed[max(0, index - CAL_WINDOW): index + CAL_WINDOW + 1])
        out.append(value * PROBE_REFERENCE_S / near[len(near) // 2])
    return out


def typical_per_input(latencies: list[float], pool_size: int) -> list[float]:
    """Each input's median latency over its repeats; op ``i`` ran input ``i % pool_size``."""
    repeats: dict[int, list[float]] = {}
    for index, value in enumerate(latencies):
        repeats.setdefault(index % pool_size, []).append(value)
    return [statistics.median(values) for values in repeats.values()]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment() -> dict:
    import numpy

    loc = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "dfq").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "src_dfq_loc": loc,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="run exactly this many ops")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "dfq" / "__init__.py").is_file():
        print(f"no dfq package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be positive")

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        ops, setup_in_process = _timed_setup(args.workload, args.seed, work_dir)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.setup_only:
        print(repr(setup_in_process))
        return 0
    try:
        run = _traced_run if args.trace else _plain_run
        result, info = run(args, ops)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info, "env": environment()}))
    print(json.dumps(result))
    return 0


def _result(latencies: list[float], failed: int, correct: bool, metrics: dict) -> dict:
    return {
        "correct": correct and failed == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _plain_run(args, ops):
    import workloads

    probe = make_probe()
    setup, setup_probes = [], []
    for _ in range(SETUP_SAMPLES):
        setup_probes.append([probe() for _ in range(SETUP_PROBES)])
        setup.append(_setup_sample(args.workload, args.seed))
    warm = run_ops(ops, count=workloads.WORKLOADS[args.workload].cycle, probe=probe)
    measured = run_ops(ops, count=args.ops, seconds=args.seconds, probe=probe)
    latencies = typical_per_input(calibrated(measured.latencies, measured.probes), len(ops))
    setup_s = [
        sample * PROBE_REFERENCE_S / statistics.median(near)
        for sample, near in zip(setup, setup_probes)
    ]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "op_ms_p90": (percentile(latencies, 0.9) * 1e3, "ms"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "ops": len(measured.latencies),
        "failed_share": measured.failed / len(measured.latencies),
        "latency_samples": len(latencies),
        "setup_samples_s": setup,
        "probe_median_ms": statistics.median(measured.probes) * 1e3,
        "wall_ops_per_s": len(measured.latencies) / sum(measured.latencies),
        "wall_op_ms_p50": statistics.median(measured.latencies) * 1e3,
        "wall_op_ms_p90": percentile(measured.latencies, 0.9) * 1e3,
    }
    return _result(measured.latencies, measured.failed, warm.failed == 0, metrics), info


def _traced_run(args, ops):
    import spans
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    count = args.ops or spec.trace_ops
    warm = run_ops(ops, count=spec.cycle)
    untraced = run_ops(ops, count=count)
    recorder = spans.SpanRecorder()
    counts: Counter = Counter()
    recorder.install()
    try:
        traced = run_ops(ops, count=count, recorder=recorder, counts=counts)
    finally:
        recorder.uninstall()
    spans_path = OUT_DIR / f"spans-{args.workload}.tsv"
    recorder.write(spans_path)
    ratio = sum(untraced.latencies) / sum(traced.latencies)
    metrics = spans.layer_metrics(recorder, count, counts, ratio)
    info = {"ops": count, "failed_share": traced.failed / count, "spans": len(recorder.spans),
            "spans_file": str(spans_path.relative_to(ROOT))}
    correct = warm.failed == 0 and untraced.failed == 0
    return _result(traced.latencies, traced.failed, correct, metrics), info


if __name__ == "__main__":
    sys.exit(main())
