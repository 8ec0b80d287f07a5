"""The random stream at the paper's operating point (n=3, l=8, delta=1,
random angles) stays put: full-size transcripts and preparation counts
hash to the values frozen in ``data/transcript_digests.json``, Monte Carlo
detection reports equal those frozen in ``data/detection_reports.json``,
and the batched participant coins draw what a pair-by-pair loop draws.

The digests were written by the version whose participant stage drew its
coins one scalar ``rng.random()`` call at a time. The digests under
``tolerant_transcripts`` run three attacks at a tolerance that lets them
past the channel check, so steps 4 and 5 run under attack; they were written
by the version whose step 4 looked recorded bits up in a position-keyed dict
and asked a callback for TP's claimed values. The detection reports
were written by the version whose harness ran noise, the attack and a
readout on every row it drew; those of the X-value fake and of measure-resend
in the other family's bases, by the version whose pair pass carried every
pair as 8 amplitudes, a probe's included."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfq.attacks import (
    BLOCK_ROWS,
    NO_ATTACK,
    AttackModel,
    Entangle,
    EntangleParams,
    InterceptResend,
    MeasureResend,
    monte_carlo_detection,
)
from dfq.efficiency import measure_preparation
from dfq.encoding import X_DP, X_R, Z_DP, Z_R, EncodingFamily, LogicalValue
from dfq.protocol import ProtocolConfig, Secret, ThetaPolicy, participant_draws, run_protocol

DIGESTS = Path(__file__).parent / "data" / "transcript_digests.json"
DETECTION = Path(__file__).parent / "data" / "detection_reports.json"

_Z_BASIS = {EncodingFamily.DEPHASING: Z_DP, EncodingFamily.ROTATION: Z_R}
_X_BASIS = {EncodingFamily.DEPHASING: X_DP, EncodingFamily.ROTATION: X_R}
_OTHER = {EncodingFamily.DEPHASING: EncodingFamily.ROTATION, EncodingFamily.ROTATION: EncodingFamily.DEPHASING}
ATTACKS = {
    "none": lambda family: NO_ATTACK,
    "intercept": lambda family: InterceptResend(fake_family=family),
    "measure-z": lambda family: MeasureResend(_Z_BASIS[family]),
    "cnot-probe": lambda family: Entangle(EntangleParams.copy_first_qubit()),
}
SEEDS = (71, 72, 73)
TRANSCRIPT_CASES = [(family, attack, seed) for family in EncodingFamily for attack in ATTACKS for seed in SEEDS]
# A probe that swings |00> and |01> (probe |0>) by a small angle: cos 0.96, sin 0.28.
WEAK_PROBE = np.eye(8)
WEAK_PROBE[0, 0] = WEAK_PROBE[2, 2] = 0.96
WEAK_PROBE[0, 2], WEAK_PROBE[2, 0] = -0.28, 0.28
# attack -> (model per family, tolerable error rate)
TOLERANT_ATTACKS = {
    "intercept": (ATTACKS["intercept"], 0.6),
    "measure-z": (ATTACKS["measure-z"], 0.3),
    "weak-probe": (lambda family: Entangle(EntangleParams(WEAK_PROBE, "weak")), 0.3),
}
TOLERANT_CASES = [
    (family, attack, seed) for family in EncodingFamily for attack in TOLERANT_ATTACKS for seed in SEEDS
]
PREPARATION_SEEDS = (81, 82)

DETECTION_MODELS = {
    **ATTACKS,
    "intercept-cross": lambda family: InterceptResend(fake_family=_OTHER[family]),
    "measure-x": lambda family: MeasureResend(_X_BASIS[family]),
    "intercept-plus": lambda family: InterceptResend(fake_family=family, fake_value=LogicalValue.PLUS),
    "measure-z-cross": lambda family: MeasureResend(_Z_BASIS[_OTHER[family]]),
    "measure-x-cross": lambda family: MeasureResend(_X_BASIS[_OTHER[family]]),
}
# Models whose cases were appended after the grid below was frozen: they come
# last, so every earlier case keeps its place in DETECTION_CASES, and its seed.
_LATER_MODELS = ("intercept-plus", "measure-z-cross", "measure-x-cross")
THETAS = {"random": ThetaPolicy.random(), "fixed": ThetaPolicy.fixed(0.7)}
# (trials, m) beyond the grid: a single trial, an overall loop whose second
# block is ragged (700 * 7 rows), and a per-group loop past one block.
DETECTION_EDGES = ((1, 7), (700, 7), (BLOCK_ROWS + 3, 1))
DETECTION_CASES = [
    (family, model, m, theta, 200)
    for family in EncodingFamily
    for model in DETECTION_MODELS
    if model not in _LATER_MODELS
    for m in (0, 1, 7)
    for theta in THETAS
] + [
    (family, model, m, "random", trials)
    for family in EncodingFamily
    for model in ("intercept", "measure-z", "cnot-probe")
    for trials, m in DETECTION_EDGES
] + [
    (family, model, m, theta, 200)
    for family in EncodingFamily
    for model in _LATER_MODELS
    for m in (0, 1, 7)
    for theta in THETAS
]


def case_id(family: EncodingFamily, attack: str, seed: int) -> str:
    return f"{family.value}-{attack}-{seed}"


def run_transcript(family: EncodingFamily, attack: AttackModel, seed: int, tolerance: float = 0.0) -> str:
    config = ProtocolConfig(
        family=family,
        n=3,
        l=8,
        delta=1.0,
        theta_policy=ThetaPolicy.random(),
        seed=seed,
        attack=attack,
        tolerable_error_rate=tolerance,
    )
    _, transcript = run_protocol(config, [Secret.from_string("10110010")] * 3)
    return transcript.to_jsonl()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def transcript_digest(family: EncodingFamily, attack: str, seed: int) -> str:
    return digest(run_transcript(family, ATTACKS[attack](family), seed))


def tolerant_transcript(family: EncodingFamily, attack: str, seed: int) -> str:
    model, tolerance = TOLERANT_ATTACKS[attack]
    return run_transcript(family, model(family), seed, tolerance)


def detection_id(family: EncodingFamily, model: str, m: int, theta: str, trials: int) -> str:
    return f"{family.value}-{model}-m{m}-{theta}-{trials}"


def detection_report(family: EncodingFamily, model: str, m: int, theta: str, trials: int) -> dict:
    # one generator per case, seeded by the case's place in the table
    seed = 900 + DETECTION_CASES.index((family, model, m, theta, trials))
    config = ProtocolConfig(family=family, theta_policy=THETAS[theta], seed=seed)
    rng = np.random.default_rng(seed)
    return monte_carlo_detection(config, DETECTION_MODELS[model](family), trials, rng, m=m).to_dict()


def preparation(seed: int) -> dict:
    return measure_preparation(3, 8, 50, seed).to_dict()


def _frozen() -> dict:
    return json.loads(DIGESTS.read_text())


def test_digest_file_covers_every_case():
    frozen = _frozen()
    assert sorted(frozen["transcripts"]) == sorted(case_id(*case) for case in TRANSCRIPT_CASES)
    assert sorted(frozen["measured_preparation"]) == [str(s) for s in PREPARATION_SEEDS]


def test_tolerant_digest_file_covers_every_case():
    assert sorted(_frozen()["tolerant_transcripts"]) == sorted(case_id(*case) for case in TOLERANT_CASES)


@pytest.mark.parametrize("family,attack,seed", TRANSCRIPT_CASES, ids=[case_id(*c) for c in TRANSCRIPT_CASES])
def test_transcript_digest_is_frozen(family, attack, seed):
    assert transcript_digest(family, attack, seed) == _frozen()["transcripts"][case_id(family, attack, seed)]


@pytest.mark.parametrize("family,attack,seed", TOLERANT_CASES, ids=[case_id(*c) for c in TOLERANT_CASES])
def test_tolerant_transcript_digest_is_frozen(family, attack, seed):
    text = tolerant_transcript(family, attack, seed)
    assert digest(text) == _frozen()["tolerant_transcripts"][case_id(family, attack, seed)]


def _invalid_remaining_at_step5(events: list[dict]) -> list[int]:
    """Per session that reaches step 5: how many retained pairs left after
    step 4 hold an invalid recorded bit."""
    counts = []
    for participant in sorted({e["participant"] for e in events if "participant" in e}):
        mine = {e["event"]: e for e in events if e.get("participant") == participant}
        if "step5" not in mine:
            continue
        bits = dict(map(tuple, mine["participant_record"]["sift_bits"]))
        remaining = set(mine["case_tally"]["case2_positions"]) - set(mine["step4"]["test_positions"])
        counts.append(sum(bits[p] is None for p in remaining))
    return counts


def test_tolerant_cases_run_steps_4_and_5_under_attack():
    """Same-family intercept-resend passes the channel check and is caught at
    step 4; at least one case reaches step 5 with an invalid recorded bit
    among the remaining retained pairs, which step 5 must skip."""
    invalid_at_step5 = 0
    for family, attack, seed in TOLERANT_CASES:
        events = [json.loads(line) for line in tolerant_transcript(family, attack, seed).splitlines()]
        verdict = events[-1]["verdict"]
        if attack == "intercept":
            assert verdict == "AbortedDishonestTP"
        invalid_at_step5 += sum(_invalid_remaining_at_step5(events))
    assert invalid_at_step5 > 0


def test_detection_file_covers_every_case():
    assert sorted(json.loads(DETECTION.read_text())) == sorted(detection_id(*c) for c in DETECTION_CASES)


@pytest.mark.parametrize("case", DETECTION_CASES, ids=[detection_id(*c) for c in DETECTION_CASES])
def test_detection_report_is_frozen(case):
    assert detection_report(*case) == json.loads(DETECTION.read_text())[detection_id(*case)]


@pytest.mark.parametrize("seed", PREPARATION_SEEDS)
def test_measured_preparation_is_frozen(seed):
    assert preparation(seed) == _frozen()["measured_preparation"][str(seed)]


def scalar_coins(rng: np.random.Generator, count: int) -> tuple[list[int], list[float]]:
    """Reference: one ``rng.random()`` per coin, each SIFT coin followed by its pair's uniform."""
    positions, uniforms = [], []
    for index in range(count):
        if rng.random() >= 0.5:
            positions.append(index)
            uniforms.append(rng.random())
    return positions, uniforms


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 200)))
def test_batched_coins_match_the_scalar_loop(seed, count):
    reference = np.random.default_rng(seed)
    batched = np.random.default_rng(seed)
    positions, uniforms = scalar_coins(reference, count)
    sifted, drawn, permutation = participant_draws(batched, count)
    assert sifted.dtype == bool and len(sifted) == count
    assert np.flatnonzero(sifted).tolist() == positions
    assert drawn.tolist() == uniforms
    assert permutation.tolist() == reference.permutation(count).tolist()
    assert batched.random() == reference.random()
