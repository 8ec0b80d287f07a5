"""Outside-in span recorder for the traced benchmark run.

``SpanRecorder.install`` swaps every public function of each ``dfq`` module
for a timing wrapper, in every ``dfq`` module namespace that holds it. The
modules import names directly (``from .encoding import apply_family_noise``),
so the wrapper has to replace the name where the caller resolves it, for
example ``dfq.protocol.apply_family_noise``, not only where it is defined.
Nothing under ``src/`` is edited, and the untraced run never imports this
module.

Spans (name, start, end, parent, op id) are kept in memory and written out
when the run ends. A span's self time is its duration minus the durations of
its direct children; the calls are synchronous and single-threaded, so the
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = "dfq"
LAYERS = ("statevector", "encoding", "attacks", "protocol", "efficiency", "figures", "cli")
# Private functions that are counted but get no span of their own: one call
# is one single-group Monte Carlo trial.
COUNTED = {"attacks._single_group_trial": "trials"}
# Spans whose result size is tallied: the pairs TP prepares per session.
TALLIED = {"protocol.tp_prepare_sequence": "pairs"}
OP_SPAN = "bench.op"


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[types.ModuleType, str, object]] = []

    def _span(self, name: str, fn, tally: str | None = None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if tally is not None:
                self.counts[tally] += len(result)
            return result

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                qualified = f"{layer}.{name}"
                if qualified in COUNTED:
                    wrappers[fn] = self._counter(COUNTED[qualified], fn)
                elif not name.startswith("_"):
                    wrappers[fn] = self._span(qualified, fn, TALLIED.get(qualified))
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    self._undo.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()

    def record_op(self, op_id: int, call):
        """Run one benchmark op under a root span tagged with its op id."""
        self._op = op_id
        try:
            return self._span(OP_SPAN, call)()
        finally:
            self._op = -1

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, and entries.

        An entry is a call from outside the span's own layer.
        """
        spans = self.spans
        children = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                children[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0, "entries": 0}
        )
        for index, (name, start, end, parent, _op) in enumerate(spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - children[index]
            layer = name.split(".", 1)[0]
            if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
                entry["entries"] += 1
        return dict(stats)

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated rows, times in µs from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as out:
            out.write("index\tname\tstart_us\tend_us\tparent\top\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(
                    f"{index}\t{name}\t{(start - origin) * 1e6:.3f}\t{(end - origin) * 1e6:.3f}"
                    f"\t{parent}\t{op}\n"
                )


def layer_metrics(
    recorder: SpanRecorder, ops: int, op_counts: Counter, overhead_ratio: float
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    stats = recorder.summary()

    def get(name: str, field: str) -> float:
        return stats.get(name, {}).get(field, 0)

    def per_op(name: str, field: str, scale: float = 1.0) -> float:
        return get(name, field) * scale / ops

    def per_call_us(name: str) -> float:
        calls = get(name, "calls")
        return get(name, "total") * 1e6 / calls if calls else 0.0

    pairs = recorder.counts["pairs"] + recorder.counts["trials"]
    statevector_entries = sum(s["entries"] for n, s in stats.items() if n.startswith("statevector."))
    cli_self = sum(s["self"] for n, s in stats.items() if n.startswith("cli."))
    ms = 1e3
    return {
        "encoding.noise_calls_per_op": (per_op("encoding.apply_family_noise", "calls"), "count"),
        "encoding.noise_us_per_call": (per_call_us("encoding.apply_family_noise"), "us"),
        "encoding.readout_calls_per_op": (per_op("encoding.measure_logical", "calls"), "count"),
        "encoding.readout_us_per_call": (per_call_us("encoding.measure_logical"), "us"),
        "encoding.sift_calls_per_op": (per_op("encoding.sift_measure_and_resend", "calls"), "count"),
        "encoding.sift_us_per_call": (per_call_us("encoding.sift_measure_and_resend"), "us"),
        "statevector.calls_per_pair": (statevector_entries / pairs if pairs else 0.0, "count"),
        "statevector.apply_full_unitary_us_per_call": (
            per_call_us("statevector.apply_full_unitary"), "us"),
        "statevector.measure_computational_us_per_call": (
            per_call_us("statevector.measure_computational"), "us"),
        "attacks.apply_attack_calls_per_op": (per_op("attacks.apply_attack", "calls"), "count"),
        "attacks.apply_attack_us_per_call": (per_call_us("attacks.apply_attack"), "us"),
        "attacks.mc_self_ms_per_op": (per_op("attacks.monte_carlo_detection", "self", ms), "ms"),
        "attacks.trials_per_op": (recorder.counts["trials"] / ops, "count"),
        "protocol.prepare_ms_per_op": (per_op("protocol.tp_prepare_sequence", "self", ms), "ms"),
        "protocol.participant_ms_per_op": (per_op("protocol.participant_process", "self", ms), "ms"),
        "protocol.classify_ms_per_op": (per_op("protocol.tp_classify_and_check", "self", ms), "ms"),
        "protocol.verify_ms_per_op": (per_op("protocol.participant_verify_tp", "self", ms), "ms"),
        "protocol.compare_ms_per_op": (per_op("protocol.tp_compare", "self", ms), "ms"),
        "protocol.run_self_ms_per_op": (per_op("protocol.run_protocol", "self", ms), "ms"),
        "protocol.sessions_per_op": (per_op("protocol.tp_prepare_sequence", "calls"), "count"),
        "protocol.pairs_per_op": (recorder.counts["pairs"] / ops, "count"),
        "protocol.transcript_bytes_per_op": (op_counts["transcript_bytes"] / ops, "bytes"),
        "efficiency.measure_preparation_ms_per_op": (
            per_op("efficiency.measure_preparation", "total", ms), "ms"),
        "efficiency.participant_qubits_per_run": (op_counts["participant_qubits"] / ops, "qubits"),
        "figures.run_scenario_us_per_call": (per_call_us("figures.run_scenario"), "us"),
        "cli.self_ms_per_op": (cli_self * ms / ops, "ms"),
        "cli.bytes_written_per_op": (op_counts["bytes_written"] / ops, "bytes"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
