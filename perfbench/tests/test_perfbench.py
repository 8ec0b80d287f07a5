"""Tests for the benchmark: tiny runs of every workload, output checks that
can be made to fail, and agreement between traced and untraced runs.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import dfq  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "statevector.calls_per_pair",
    "attacks.trials_per_op",
    "protocol.pairs_per_op",
    "protocol.sessions_per_op",
    "protocol.transcript_bytes_per_op",
    "efficiency.participant_qubits_per_run",
    "cli.bytes_written_per_op",
)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(*args: str) -> dict:
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_at_tiny_size(name):
    ops = workloads.WORKLOADS[name].cycle
    res = result("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "0",
                 "--ops", str(ops))
    assert res["correct"] is True
    assert (res["attempted"], res["failed"]) == (ops, 0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


def _wrong(op):
    """The same op with an expectation no correct output can meet."""
    if isinstance(op, workloads.AttackedOp):
        return dataclasses.replace(op, expected=dfq.Verdict.ALL_EQUAL)
    if isinstance(op, workloads.HonestOp):
        flipped = {
            dfq.Verdict.ALL_EQUAL: dfq.Verdict.NOT_ALL_EQUAL,
            dfq.Verdict.NOT_ALL_EQUAL: dfq.Verdict.ALL_EQUAL,
        }
        return dataclasses.replace(op, expected=flipped[op.expected])
    if isinstance(op, workloads.DetectionOp):
        return dataclasses.replace(op, per_group_reference=0.9)
    return dataclasses.replace(op, qubits_per_run=150.0)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checks_fail_on_wrong_expectations(name, tmp_path):
    ops = workloads.setup(name, 7, tmp_path)[: workloads.WORKLOADS[name].cycle]
    failed = run.run_ops(ops, count=len(ops)).failed
    assert failed == 0
    failed = run.run_ops([_wrong(op) for op in ops], count=len(ops)).failed
    assert failed == len(ops)


def test_swapped_detection_reference_fails_intercept_ops(tmp_path):
    ops = [op for op in workloads.setup("detection-mc", 7, tmp_path)[:9]
           if isinstance(op.model, dfq.InterceptResend)]
    swapped = [dataclasses.replace(op, per_group_reference=workloads.MEASURE_RATE) for op in ops]
    failed = run.run_ops(swapped, count=len(swapped)).failed
    assert failed == len(swapped) == 4


def test_reports_check_rejects_wrong_xi_and_histogram(tmp_path, monkeypatch):
    op = workloads.setup("reports", 7, tmp_path)[0]
    failed = run.run_ops([dataclasses.replace(op, xi="1/14")], count=1).failed
    assert failed == 1
    monkeypatch.setitem(workloads.FIGURE_DISTRIBUTIONS, "fig2", (0.0, 1.0, 0.0, 0.0))
    failed = run.run_ops([op], count=1).failed
    assert failed == 1


def test_traced_and_untraced_runs_report_the_same_op_count():
    plain = result("--workload", "honest-sessions", "--seed", "3", "--seconds", "1",
                   "--trace", "0", "--ops", "4")
    traced = result("--workload", "honest-sessions", "--seed", "3", "--seconds", "1",
                    "--trace", "1", "--ops", "4")
    assert plain["attempted"] == traced["attempted"] == 4
    assert traced["correct"] is True and traced["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected


@pytest.mark.parametrize("name,ops", [("honest-sessions", 4), ("detection-mc", 9), ("reports", 2)])
def test_exact_counts_repeat_for_a_seed(name, ops):
    args = ("--workload", name, "--seed", "11", "--seconds", "1", "--trace", "1", "--ops", str(ops))
    first, second = result(*args), result(*args)
    for metric in EXACT_COUNTS:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert any(first["metrics"][metric]["value"] > 0 for metric in EXACT_COUNTS)


def test_exits_nonzero_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "honest-sessions", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_recorder_wraps_names_where_callers_resolve_them():
    originals = (dfq.protocol.apply_family_noise, dfq.attacks.measure_logical,
                 dfq.encoding.apply_full_unitary, dfq.run_protocol)
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        wrapped = (dfq.protocol.apply_family_noise, dfq.attacks.measure_logical,
                   dfq.encoding.apply_full_unitary, dfq.run_protocol)
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
    finally:
        recorder.uninstall()
    assert (dfq.protocol.apply_family_noise, dfq.attacks.measure_logical,
            dfq.encoding.apply_full_unitary, dfq.run_protocol) == originals


def test_self_time_subtracts_direct_children():
    recorder = spans.SpanRecorder()
    recorder.spans = [
        ["protocol.f", 0.0, 10.0, -1, 0],
        ["encoding.g", 1.0, 4.0, 0, 0],
        ["encoding.h", 2.0, 3.0, 1, 0],
        ["statevector.k", 5.0, 6.0, 0, 0],
    ]
    stats = recorder.summary()
    assert stats["protocol.f"]["self"] == 6.0
    assert stats["encoding.g"]["self"] == 2.0
    assert stats["encoding.h"]["self"] == 1.0
    assert [stats[n]["entries"] for n in ("protocol.f", "encoding.g", "encoding.h")] == [1, 1, 0]


def test_calibration_rescales_to_the_reference_probe_time():
    latencies = [2.0] * 300 + [4.0] * 300
    # The host runs at half the reference speed, then at a quarter of it.
    probes = [2 * run.PROBE_REFERENCE_S] * 300 + [4 * run.PROBE_REFERENCE_S] * 300
    scaled = run.calibrated(latencies, probes)
    assert scaled[0] == scaled[-1] == 1.0


def test_typical_latency_is_each_inputs_median_repeat():
    assert run.typical_per_input([3.0, 1.0, 2.0, 5.0, 4.0, 6.0], 2) == [3.0, 5.0]
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0
