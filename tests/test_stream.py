"""The random stream at the paper's operating point (n=3, l=8, delta=1,
random angles) stays put: full-size transcripts and preparation counts
hash to the values frozen in ``data/transcript_digests.json``, and the
batched participant coins draw what a pair-by-pair loop draws.

The digests were written by the version whose participant stage drew its
coins one scalar ``rng.random()`` call at a time."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfq.attacks import NO_ATTACK, Entangle, EntangleParams, InterceptResend, MeasureResend
from dfq.efficiency import measure_preparation
from dfq.encoding import Z_DP, Z_R, EncodingFamily
from dfq.protocol import ProtocolConfig, Secret, ThetaPolicy, participant_coins, run_protocol

DIGESTS = Path(__file__).parent / "data" / "transcript_digests.json"

_Z_BASIS = {EncodingFamily.DEPHASING: Z_DP, EncodingFamily.ROTATION: Z_R}
ATTACKS = {
    "none": lambda family: NO_ATTACK,
    "intercept": lambda family: InterceptResend(fake_family=family),
    "measure-z": lambda family: MeasureResend(_Z_BASIS[family]),
    "cnot-probe": lambda family: Entangle(EntangleParams.copy_first_qubit()),
}
SEEDS = (71, 72, 73)
TRANSCRIPT_CASES = [(family, attack, seed) for family in EncodingFamily for attack in ATTACKS for seed in SEEDS]
PREPARATION_SEEDS = (81, 82)


def case_id(family: EncodingFamily, attack: str, seed: int) -> str:
    return f"{family.value}-{attack}-{seed}"


def transcript_digest(family: EncodingFamily, attack: str, seed: int) -> str:
    config = ProtocolConfig(
        family=family,
        n=3,
        l=8,
        delta=1.0,
        theta_policy=ThetaPolicy.random(),
        seed=seed,
        attack=ATTACKS[attack](family),
    )
    _, transcript = run_protocol(config, [Secret.from_string("10110010")] * 3)
    return hashlib.sha256(transcript.to_jsonl().encode()).hexdigest()


def preparation(seed: int) -> dict:
    return measure_preparation(3, 8, 50, seed).to_dict()


def _frozen() -> dict:
    return json.loads(DIGESTS.read_text())


def test_digest_file_covers_every_case():
    frozen = _frozen()
    assert sorted(frozen["transcripts"]) == sorted(case_id(*case) for case in TRANSCRIPT_CASES)
    assert sorted(frozen["measured_preparation"]) == [str(s) for s in PREPARATION_SEEDS]


@pytest.mark.parametrize("family,attack,seed", TRANSCRIPT_CASES, ids=[case_id(*c) for c in TRANSCRIPT_CASES])
def test_transcript_digest_is_frozen(family, attack, seed):
    assert transcript_digest(family, attack, seed) == _frozen()["transcripts"][case_id(family, attack, seed)]


@pytest.mark.parametrize("seed", PREPARATION_SEEDS)
def test_measured_preparation_is_frozen(seed):
    assert preparation(seed) == _frozen()["measured_preparation"][str(seed)]


def scalar_coins(rng: np.random.Generator, count: int) -> tuple[list[int], list[float]]:
    """Reference: one ``rng.random()`` per coin, then one per SIFT pair's uniform."""
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
    sifted, drawn = participant_coins(batched, count)
    assert sifted.dtype == bool and len(sifted) == count
    assert np.flatnonzero(sifted).tolist() == positions
    assert drawn.tolist() == uniforms
    assert batched.random() == reference.random()
