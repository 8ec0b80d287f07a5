"""The four benchmark workloads: seeded inputs, the timed call and its output check.

Every op is built in set-up from the workload seed, so the same seed gives
the same ops in the same order. ``run`` is the only part that is timed; it
calls ``dfq``'s public API and returns the raw output. ``check`` runs
outside the timed region and returns whether the output is correct. When a
``Counter`` is passed to ``check`` (traced runs only), it also adds the
op's exact output counts that the per-layer metrics need.

Monte Carlo outputs are checked within ``WINDOW_SIGMAS`` binomial standard
errors of the reference rate. The window is 6 sigma rather than 4: comparing
two commits takes tens of runs per workload, hundreds of ops per run and two
checks per op, and at 4 sigma a correct program would fail some of them.
At 6 sigma the worst per-check false-alarm rate is about 7e-7 (exact
binomial, 100 trials).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dfq
import dfq.cli
from dfq import (
    BasisKind,
    Entangle,
    EncodingFamily,
    EntangleParams,
    InterceptResend,
    LogicalBasis,
    LogicalValue,
    MeasureResend,
    ProtocolConfig,
    Secret,
    ThetaPolicy,
    Verdict,
)

WINDOW_SIGMAS = 6.0

FAMILIES = (EncodingFamily.DEPHASING, EncodingFamily.ROTATION)
N, L, DELTA = 3, 8, 1.0  # the paper's operating point

# Per-group detection rates at a control check (paper): intercept-resend
# with a Z-value fake is caught 1/4 of the time, measure-resend in the
# traffic family's Z basis 1/20.
INTERCEPT_RATE = 0.25
MEASURE_RATE = 0.05
MC_TRIALS = 100

EFFICIENCY_RUNS = 10
FIGURE_SHOTS = 10_000
# Outcome distributions of the six reference scenarios, in the order
# 00, 01, 10, 11 (independent of the noise angle).
FIGURE_DISTRIBUTIONS = {
    "fig1": (0.0, 0.0, 0.0, 1.0),
    "fig2": (0.0, 0.5, 0.0, 0.5),
    "fig3": (0.0, 0.5, 0.5, 0.0),
    "fig4": (0.0, 0.5, 0.5, 0.0),
    "fig5": (0.25, 0.25, 0.25, 0.25),
    "fig6": (0.25, 0.25, 0.25, 0.25),
}
OUTCOMES = ("00", "01", "10", "11")


def within_window(estimate: float, reference: float, trials: int) -> bool:
    """True when ``estimate`` lies within the window around ``reference``."""
    sigma = math.sqrt(reference * (1.0 - reference) / trials)
    return abs(estimate - reference) <= WINDOW_SIGMAS * sigma + 1e-12


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**32))


@dataclass(frozen=True)
class HonestOp:
    """One unattacked ``run_protocol``; the verdict must match the secrets."""

    config: ProtocolConfig
    secrets: tuple[Secret, ...]
    expected: Verdict

    def run(self):
        return dfq.run_protocol(self.config, list(self.secrets))

    def check(self, output, counts: Counter | None = None) -> bool:
        result, transcript = output
        if counts is not None:
            counts["transcript_bytes"] += len(transcript.to_jsonl().encode())
        return result.verdict is self.expected or self._explained(result.verdict, transcript)

    def _explained(self, verdict: Verdict, transcript) -> bool:
        # An honest session legitimately aborts when fewer than 2l SIFT pairs
        # were prepared in Z (binomial, about 4e-5 of runs at n=3, l=8,
        # delta=1); accept that verdict only with the tally that explains it.
        tallies = transcript.find("case_tally")
        return (
            verdict is Verdict.ABORTED_INSUFFICIENT_PARTICLES
            and bool(tallies)
            and tallies[-1]["case2_count"] < 2 * self.config.l
        )


@dataclass(frozen=True)
class AttackedOp(HonestOp):
    """One attacked ``run_protocol``; the channel check must abort it."""

    expected: Verdict = Verdict.ABORTED_INSECURE_CHANNEL

    def _explained(self, verdict: Verdict, transcript) -> bool:
        # The attack can pass every control check unseen (about 1e-6 of runs
        # for measure-resend and the probe); only then may the verdict differ.
        checks = transcript.find("case1_check")
        return bool(checks) and all(event["errors"] == 0 for event in checks)


@dataclass(frozen=True)
class DetectionOp:
    """One ``monte_carlo_detection`` call; estimates must match the reference."""

    config: ProtocolConfig
    model: object
    m: int
    trials: int
    seed: int
    per_group_reference: float

    def run(self):
        rng = np.random.default_rng(self.seed)
        return dfq.monte_carlo_detection(self.config, self.model, self.trials, rng, m=self.m)

    def check(self, report, counts: Counter | None = None) -> bool:
        overall_reference = 1.0 - (1.0 - self.per_group_reference) ** self.m
        return (
            report.trials == self.trials
            and report.m == self.m
            and within_window(report.per_group_estimate, self.per_group_reference, self.trials)
            and within_window(report.overall_estimate, overall_reference, self.trials)
        )


@dataclass(frozen=True)
class ReportsOp:
    """``dfq efficiency`` then ``dfq repro-figures``, in process."""

    work_dir: Path
    efficiency_seed: int
    figures_seed: int
    xi: str = "1/15"
    qubits_per_run: float = 5 * N * L

    def run(self):
        eff_out = self.work_dir / "efficiency"
        fig_out = self.work_dir / "figures"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            codes = (
                dfq.cli.main(
                    ["efficiency", "--n", str(N), "--l", str(L), "--runs", str(EFFICIENCY_RUNS),
                     "--seed", str(self.efficiency_seed), "--out", str(eff_out)]
                ),
                dfq.cli.main(
                    ["repro-figures", "--shots", str(FIGURE_SHOTS),
                     "--seed", str(self.figures_seed), "--out", str(fig_out)]
                ),
            )
        return codes, stdout.getvalue()

    def check(self, output, counts: Counter | None = None) -> bool:
        codes, stdout = output
        eff_out = self.work_dir / "efficiency"
        fig_out = self.work_dir / "figures"
        try:
            if counts is not None:
                counts["bytes_written"] += sum(
                    p.stat().st_size for d in (eff_out, fig_out) for p in d.rglob("*") if p.is_file()
                )
            if codes != (0, 0):
                return False
            report = json.loads((eff_out / "efficiency.json").read_text())
            mean = report["measured"]["mean_participant_qubits"]
            if counts is not None:
                counts["participant_qubits"] += mean
            # Each run's count is 2*Binomial(5nl, 1/2), variance 5nl.
            sigma = math.sqrt(5 * N * L / EFFICIENCY_RUNS)
            if report["xi"] != self.xi or abs(mean - self.qubits_per_run) > WINDOW_SIGMAS * sigma:
                return False
            return self._figures_ok(stdout, fig_out)
        except (OSError, ValueError, KeyError):
            return False
        finally:
            shutil.rmtree(eff_out, ignore_errors=True)
            shutil.rmtree(fig_out, ignore_errors=True)

    def _figures_ok(self, stdout: str, fig_out: Path) -> bool:
        # The CLI's own PASS/FAIL verdict is a 4-sigma test per outcome; a
        # correct program prints FAIL on about 7e-4 of calls, so the lines
        # must be well formed and the histograms are judged here at 6 sigma.
        lines = {line.split(" ", 1)[0]: line for line in stdout.splitlines()}
        for fig_id, probs in FIGURE_DISTRIBUTIONS.items():
            line = lines.get(fig_id, "")
            if line != f"{fig_id} PASS" and not line.startswith(f"{fig_id} FAIL ("):
                return False
            rows = (fig_out / f"{fig_id}.csv").read_text().split()[1:]
            hist = {outcome: int(count) for outcome, count in (row.split(",") for row in rows)}
            if sum(hist.values()) != FIGURE_SHOTS:
                return False
            for outcome, p in zip(OUTCOMES, probs):
                if p in (0.0, 1.0):
                    if hist.get(outcome, 0) != p * FIGURE_SHOTS:
                        return False
                elif not within_window(hist.get(outcome, 0) / FIGURE_SHOTS, p, FIGURE_SHOTS):
                    return False
        return True


def _config(family: EncodingFamily, seed: int, attack=dfq.NO_ATTACK) -> ProtocolConfig:
    return ProtocolConfig(
        family=family, n=N, l=L, delta=DELTA, theta_policy=ThetaPolicy.random(),
        seed=seed, attack=attack, tolerable_error_rate=0.0,
    )


def _z_basis(family: EncodingFamily) -> LogicalBasis:
    return LogicalBasis(BasisKind.Z, family)


def build_honest(rng: np.random.Generator, work_dir: Path) -> list[HonestOp]:
    """Families alternate; secrets alternate between all-equal and one-bit-off."""
    ops = []
    for i in range(100):
        base = [int(b) for b in rng.integers(0, 2, L)]
        rows = [list(base) for _ in range(N)]
        equal = (i // 2) % 2 == 0
        if not equal:
            rows[int(rng.integers(N))][int(rng.integers(L))] ^= 1
        ops.append(
            HonestOp(
                config=_config(FAMILIES[i % 2], _seed(rng)),
                secrets=tuple(Secret(tuple(row)) for row in rows),
                expected=Verdict.ALL_EQUAL if equal else Verdict.NOT_ALL_EQUAL,
            )
        )
    return ops


def _attacks(family: EncodingFamily) -> list:
    return [
        InterceptResend(fake_family=family, fake_value=LogicalValue.ZERO),
        MeasureResend(_z_basis(family)),
        Entangle(EntangleParams.copy_first_qubit()),
    ]


def build_attacked(rng: np.random.Generator, work_dir: Path) -> list[AttackedOp]:
    """Intercept-resend, measure-resend (Z) and the CNOT probe, both families."""
    ops = []
    for i in range(120):
        family = FAMILIES[(i // 3) % 2]
        secrets = tuple(Secret.random(L, rng) for _ in range(N))
        ops.append(AttackedOp(_config(family, _seed(rng), _attacks(family)[i % 3]), secrets))
    return ops


def build_detection(rng: np.random.Generator, work_dir: Path) -> list[DetectionOp]:
    """{intercept, measure-Z} x {dephasing, rotation} x m in {1, 10}, plus the
    dephasing CNOT probe at m=1.

    The rotation-family probe is left out: its Monte Carlo rate (about 0.124
    at uniform theta) and ``entangling_attack_analysis`` (0, which omits the
    return-leg noise once the probe has left the codespace) disagree, so
    neither is a valid reference yet.
    """
    probe = Entangle(EntangleParams.copy_first_qubit())
    # The analysis gives the control-check failure rate; the fair coin
    # sends half the groups to the control check.
    probe_rate = 0.5 * dfq.entangling_attack_analysis(probe.params, EncodingFamily.DEPHASING)[0]
    cases = []
    for family in FAMILIES:
        for m in (1, 10):
            cases.append((family, _attacks(family)[0], m, INTERCEPT_RATE))
            cases.append((family, _attacks(family)[1], m, MEASURE_RATE))
    cases.append((EncodingFamily.DEPHASING, probe, 1, probe_rate))
    ops = []
    for i in range(12 * len(cases)):
        family, model, m, rate = cases[i % len(cases)]
        ops.append(DetectionOp(ProtocolConfig(family=family), model, m, MC_TRIALS, _seed(rng), rate))
    return ops


def build_reports(rng: np.random.Generator, work_dir: Path) -> list[ReportsOp]:
    return [ReportsOp(work_dir, _seed(rng), _seed(rng)) for _ in range(100)]


@dataclass(frozen=True)
class Workload:
    build: object
    cycle: int  # ops per rotation over the workload's cases
    trace_ops: int  # fixed op count of a traced run


WORKLOADS = {
    "honest-sessions": Workload(build_honest, cycle=4, trace_ops=48),
    "attacked-sessions": Workload(build_attacked, cycle=6, trace_ops=60),
    "detection-mc": Workload(build_detection, cycle=9, trace_ops=18),
    "reports": Workload(build_reports, cycle=1, trace_ops=16),
}


def setup(name: str, seed: int, work_dir: Path) -> list:
    """First-use set-up: fill the codeword cache and build the seeded ops."""
    for family in EncodingFamily:
        for value in LogicalValue:
            dfq.prepare(family, value)
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    return WORKLOADS[name].build(np.random.default_rng(seed), work_dir)
