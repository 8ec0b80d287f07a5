"""Acceptance gate: nine independently checkable claims about the simulator.

Each test prints exactly one ``criterion k: PASS/FAIL`` line (bypassing
pytest capture) and then asserts, so the verdicts are visible in any run.
All randomness is seeded; the statistical checks use 4-sigma windows
around closed-form values and fail deterministically if the code drifts.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import probes
import pytest
from circuit_reference import equal_up_to_global_phase

from dfq.attacks import (
    EntangleParams,
    InterceptResend,
    MeasureResend,
    entangling_attack_analysis,
    monte_carlo_detection,
)
from dfq.cli import main as cli_main
from dfq.efficiency import ideal_report, measure_preparation
from dfq.encoding import (
    Z_DP,
    EncodingFamily,
    LogicalValue,
    apply_family_noise,
    prepare,
)
from dfq.figures import FIGURE_IDS, check_histogram, expected_distribution, run_scenario
from dfq.protocol import (
    ProtocolConfig,
    Secret,
    SharedKey,
    Verdict,
    encode_announcement,
    run_protocol,
    tp_compare,
)


def report(capsys, number, ok, text):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_codewords_survive_collective_noise(capsys):
    """All eight codewords are invariant under their family's channel for
    50 random angles each, to 1e-10 (up to a global phase)."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    ok = True
    for value in LogicalValue:
        dp = prepare(EncodingFamily.DEPHASING, value)
        rot = prepare(EncodingFamily.ROTATION, value)
        thetas = rng.uniform(0.0, 2.0 * np.pi, 50)
        noisy = apply_family_noise(np.tile(dp, (50, 1)), EncodingFamily.DEPHASING, thetas)
        ok &= all(equal_up_to_global_phase(dp, row, 1e-10) for row in noisy)
        noisy = apply_family_noise(np.tile(rot, (50, 1)), EncodingFamily.ROTATION, thetas)
        deviation = float(np.max(np.abs(noisy - rot)))
        worst = max(worst, deviation)
        ok &= deviation < 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(capsys, 1, ok, f"8 codewords x 50 angles invariant to 1e-10 ({elapsed:.2f}s)")


def test_criterion_2_comparison_logic_matches_direct_oracle(capsys):
    """1000 random masked-announcement instances (n <= 6, l <= 16) decode to
    the same verdict and difference counts as direct secret comparison."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        l = int(rng.integers(1, 17))
        secrets = [Secret.random(l, rng) for _ in range(n)]
        if rng.random() < 0.5:  # force frequent all-equal instances
            secrets = [secrets[0]] * n
        key = SharedKey.random(l, rng)
        m_rows = [[int(b) for b in rng.integers(0, 2, l)] for _ in range(n)]
        r_rows = [
            encode_announcement(secret, key, m_row)
            for secret, m_row in zip(secrets, m_rows)
        ]
        result = tp_compare(r_rows, m_rows)
        all_equal = all(s.bits == secrets[0].bits for s in secrets)
        expected_c = tuple(
            sum(secrets[i].bits[j] ^ secrets[i + 1].bits[j] for i in range(n - 1))
            for j in range(l)
        )
        ok &= result.verdict is (Verdict.ALL_EQUAL if all_equal else Verdict.NOT_ALL_EQUAL)
        ok &= result.c == expected_c
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(capsys, 2, ok, f"1000 random instances match the direct comparison ({elapsed:.2f}s)")


def test_criterion_3_honest_runs_reach_correct_verdicts(capsys):
    """Per family at n=3, l=8, delta=1, random angles: 100/100 equal-secret
    runs say AllEqual, 100/100 one-bit-off runs say NotAllEqual, and every
    control check sees a zero error rate."""
    start = time.perf_counter()
    master = 2024
    seeds = np.random.SeedSequence(master).generate_state(400)
    rng = np.random.default_rng(master)
    index = 0
    ok = True
    for family in EncodingFamily:
        for mode in ("equal", "diff"):
            for _ in range(100):
                secret = Secret.random(8, rng)
                if mode == "equal":
                    secrets = [secret] * 3
                    want = Verdict.ALL_EQUAL
                else:
                    bits = list(secret.bits)
                    bits[int(rng.integers(0, 8))] ^= 1
                    secrets = [secret, Secret(tuple(bits)), secret]
                    want = Verdict.NOT_ALL_EQUAL
                config = ProtocolConfig(family=family, n=3, l=8, delta=1.0, seed=int(seeds[index]))
                index += 1
                result, transcript = run_protocol(config, secrets)
                ok &= result.verdict is want
                ok &= all(ev["errors"] == 0 for ev in transcript.find("case1_check"))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report(capsys, 3, ok, f"400/400 honest runs correct, all control checks clean ({elapsed:.1f}s)")


def test_criterion_4_intercept_resend_detection(capsys):
    """Intercept-resend lands within 4 sigma of 1/4 per group at 1e5 trials
    and of 1 - (3/4)^10 for ten attacked groups."""
    start = time.perf_counter()
    config = ProtocolConfig(family=EncodingFamily.DEPHASING, seed=404)
    model = InterceptResend(fake_family=EncodingFamily.DEPHASING)
    rng = np.random.default_rng(404)
    single = monte_carlo_detection(config, model, 100_000, rng)
    sigma1 = np.sqrt(0.25 * 0.75 / single.trials)
    ok = abs(single.per_group_estimate - 0.25) < 4 * sigma1
    multi = monte_carlo_detection(config, model, 20_000, rng, m=10)
    p10 = 1.0 - 0.75**10
    sigma10 = np.sqrt(p10 * (1.0 - p10) / multi.trials)
    ok &= abs(multi.overall_estimate - p10) < 4 * sigma10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(
        capsys, 4, ok,
        f"per-group {single.per_group_estimate:.4f} ~ 0.25, "
        f"m=10 {multi.overall_estimate:.4f} ~ {p10:.4f} ({elapsed:.1f}s)",
    )


def test_criterion_5_measure_resend_detection(capsys):
    """Measure-resend lands within 4 sigma of 1/20 per group at 1e5 trials
    and of 1 - (19/20)^m for m = 5 and m = 20."""
    start = time.perf_counter()
    config = ProtocolConfig(family=EncodingFamily.DEPHASING, seed=505)
    model = MeasureResend(basis=Z_DP)
    rng = np.random.default_rng(505)
    single = monte_carlo_detection(config, model, 100_000, rng)
    sigma1 = np.sqrt(0.05 * 0.95 / single.trials)
    ok = abs(single.per_group_estimate - 0.05) < 4 * sigma1
    summary = [f"per-group {single.per_group_estimate:.4f} ~ 0.05"]
    for m, trials in ((5, 20_000), (20, 10_000)):
        multi = monte_carlo_detection(config, model, trials, rng, m=m)
        p = 1.0 - 0.95**m
        sigma = np.sqrt(p * (1.0 - p) / trials)
        ok &= abs(multi.overall_estimate - p) < 4 * sigma
        summary.append(f"m={m} {multi.overall_estimate:.4f} ~ {p:.4f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(capsys, 5, ok, ", ".join(summary) + f" ({elapsed:.1f}s)")


def test_criterion_6_undetected_probes_learn_nothing(capsys):
    """Across 1002 entangling unitaries (900 Haar draws, 50 codespace-stealth
    draws per family, the identity per family), every probe with detection
    probability below 1e-9 also has probe distinguishability below 1e-6."""
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    ok = True
    silent = 0
    checked = 0
    for _ in range(900):
        params = probes.haar_random(rng)
        family = EncodingFamily.DEPHASING if rng.random() < 0.5 else EncodingFamily.ROTATION
        detection, distinguishability = entangling_attack_analysis(params, family)
        checked += 1
        if detection < 1e-9:
            silent += 1
            ok &= distinguishability < 1e-6
    for family in EncodingFamily:
        for _ in range(50):
            params = probes.codespace_stealth(family, rng)
            detection, distinguishability = entangling_attack_analysis(params, family)
            checked += 1
            ok &= detection < 1e-9  # stealth draws must actually be silent
            if detection < 1e-9:
                silent += 1
                ok &= distinguishability < 1e-6
    for family in EncodingFamily:
        detection, distinguishability = entangling_attack_analysis(
            EntangleParams.identity(), family
        )
        checked += 1
        silent += 1
        ok &= detection < 1e-12 and distinguishability < 1e-9
    elapsed = time.perf_counter() - start
    ok &= silent >= 100
    ok &= elapsed < 60.0
    report(
        capsys, 6, ok,
        f"{checked} probes, {silent} silent ones all below 1e-6 leakage ({elapsed:.1f}s)",
    )


def test_criterion_7_reference_distributions(capsys):
    """The six reference scenarios reproduce their outcome distributions
    within 4 sigma at 1e4 shots, independent of the noise angle."""
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    theta_rng = np.random.default_rng(708)
    ok = True
    for fig_id in FIGURE_IDS:
        expected = expected_distribution(fig_id)
        status, _ = check_histogram(run_scenario(fig_id, 10_000, rng), expected)
        ok &= status == "PASS"
        for theta in theta_rng.uniform(0.0, 2.0 * np.pi, 20):
            drift = np.max(np.abs(np.array(expected_distribution(fig_id, theta)) - expected))
            ok &= drift < 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report(capsys, 7, ok, f"fig1..fig6 within 4 sigma at 1e4 shots, angle-independent ({elapsed:.1f}s)")


def test_criterion_8_qubit_efficiency(capsys):
    """The qubit efficiency is exactly 1/15 for every (n, l) tried, and the
    measured participant preparation count over 1000 runs sits within
    4 sigma of 5nl."""
    start = time.perf_counter()
    ok = True
    for n in (2, 3, 5, 8):
        for l in (1, 4, 8, 16):
            ok &= ideal_report(n, l).xi == Fraction(1, 15)
    measured = measure_preparation(3, 8, runs=1000, seed=808)
    deviation = abs(measured.mean_participant_qubits - 120.0)
    ok &= deviation < 4 * measured.stderr
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(
        capsys, 8, ok,
        f"xi = 1/15 on a 4x4 grid; measured {measured.mean_participant_qubits:.2f}"
        f" ~ 120 qubits ({elapsed:.1f}s)",
    )


def test_criterion_9_cli_reruns_are_byte_identical(capsys, tmp_path, monkeypatch):
    """Running every subcommand twice with the same seed rewrites byte-for-byte
    identical report files."""
    start = time.perf_counter()
    monkeypatch.delenv("DFQ_SEED", raising=False)
    commands = {
        "run": ["run", "--trials", "3", "--l", "4", "--seed", "91"],
        "attack-sweep": [
            "attack-sweep", "--model", "intercept-resend",
            "--m-values", "1,3", "--trials", "2000", "--seed", "92",
        ],
        "repro-figures": ["repro-figures", "--shots", "2000", "--seed", "93"],
        "efficiency": ["efficiency", "--runs", "100", "--seed", "94"],
    }
    ok = True
    for name, args in commands.items():
        out = tmp_path / name
        ok &= cli_main(args + ["--out", str(out)]) == 0
        first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        ok &= cli_main(args + ["--out", str(out)]) == 0
        second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        ok &= first == second and len(first) > 0
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(capsys, 9, ok, f"all four subcommands rewrite identical bytes ({elapsed:.1f}s)")
