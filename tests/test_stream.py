"""The random stream stays put: the frozen transcripts under ``data/`` are
written again byte for byte, by ``dfq`` and by the specification in
``spec`` alone; full-size transcripts at the paper's operating point (n=3,
l=8, delta=1, random angles) and preparation counts hash to the values
frozen in ``data/transcript_digests.json``; Monte Carlo detection reports
equal those frozen in ``data/detection_reports.json``; and the batched
participant coins draw what a pair-by-pair loop draws.

The digests were written by the version whose participant stage drew its
coins one scalar ``rng.random()`` call at a time. The digests under
``tolerant_transcripts`` run three attacks at a tolerance that lets them
past the channel check, so steps 4 and 5 run under attack; they were written
by the version whose step 4 looked recorded bits up in a position-keyed dict
and asked a callback for TP's claimed values. The digests under
``ending_transcripts`` reach the run endings no case above reaches; they
were written by the version whose ``_run_session`` recorded its events as
it ran each step. The detection reports
were written by the version whose harness ran noise, the attack and a
readout on every row it drew; those of the X-value fake and of measure-resend
in the other family's bases, by the version whose pair pass carried every
pair as 8 amplitudes, a probe's included; those at the shared-pass limit,
by the version that kept each draw block's rows apart until a pass
concatenated them."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import session_reference as reference
import spec
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
from dfq.protocol import (
    ProtocolConfig,
    Secret,
    ThetaPolicy,
    Verdict,
    participant_draws,
    participant_sift_count,
    run_protocol,
)

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "transcript_digests.json"
DETECTION = DATA / "detection_reports.json"
GOLDEN = "golden_transcript.jsonl"

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
# ending -> (families, config fields, secrets, verdict, the event that ends the
# run): NotAllEqual with the last secret one bit off; at delta 0, session 3
# keeps too few Z pairs at step 3; under a rotation-X measure-resend, the one
# Z pair left after step 4 holds an invalid reading, so step 5 aborts. Rotation
# has no step-5 case: its Z decode table has no invalid reading.
ENDINGS = {
    "not-all-equal": (
        tuple(EncodingFamily), {"seed": 71}, ["10110010", "10110010", "10110011"],
        Verdict.NOT_ALL_EQUAL, "comparison",
    ),
    "step3-abort": (
        tuple(EncodingFamily), {"delta": 0.0, "seed": 71}, ["10110010"] * 3,
        Verdict.ABORTED_INSUFFICIENT_PARTICLES, "case_tally",
    ),
    "step5-abort": (
        (EncodingFamily.DEPHASING,),
        {"n": 2, "l": 1, "seed": 11, "attack": MeasureResend(X_R), "tolerable_error_rate": 0.9},
        ["1", "1"], Verdict.ABORTED_INSUFFICIENT_PARTICLES, "step5",
    ),
}
ENDING_CASES = [(family, ending) for ending, (families, *_) in ENDINGS.items() for family in families]


def _rotation_run(attack: AttackModel, tolerance: float, seed: int) -> tuple[ProtocolConfig, list[str]]:
    config = ProtocolConfig(
        family=EncodingFamily.ROTATION, n=2, l=2, delta=0.5, theta_policy=ThetaPolicy.random(),
        seed=seed, attack=attack, tolerable_error_rate=tolerance,
    )
    return config, ["10"] * 2


# frozen file -> (config, secrets). The golden run is small, so any change to
# the event stream, field order or generator use shows in it; the two rotation
# runs pin the interleaved angle and attack draws of leg 1 under random
# angles, and carry three-qubit probe states through noise and readout.
FROZEN_FILES = {
    GOLDEN: (
        ProtocolConfig(family=EncodingFamily.DEPHASING, n=2, l=1, delta=0.0,
                       theta_policy=ThetaPolicy.fixed(0.7), seed=424244),
        ["1", "1"],
    ),
    "transcript_rotation_measure_resend.jsonl": _rotation_run(MeasureResend(Z_R), 0.3, 515151),
    "transcript_rotation_cnot_probe.jsonl": _rotation_run(
        Entangle(EntangleParams.copy_first_qubit()), 0.5, 626262
    ),
}

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
# (trials, m) at the shared-pass limit: trials * (1 + m) exactly BLOCK_ROWS
# (one pass for the call), then one row over it (one pass per block).
DETECTION_BOUNDARIES = ((BLOCK_ROWS // 4, 3), (1, BLOCK_ROWS))
BOUNDARY_CASES = [
    (family, model, m, "random", trials)
    for family in EncodingFamily
    for model in ("intercept", "measure-z", "cnot-probe")
    for trials, m in DETECTION_BOUNDARIES
]
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
] + BOUNDARY_CASES


def case_id(family: EncodingFamily, attack: str, seed: int) -> str:
    return f"{family.value}-{attack}-{seed}"


def ending_id(family: EncodingFamily, ending: str) -> str:
    return f"{family.value}-{ending}"


def frozen_config(section: str, case: tuple) -> tuple[ProtocolConfig, list[Secret]]:
    """The config and secrets of a frozen run, by its section and case."""
    if section == "files":
        config, secrets = FROZEN_FILES[case[0]]
    elif section == "ending_transcripts":
        family, ending = case
        _, fields, secrets, _, _ = ENDINGS[ending]
        config = ProtocolConfig(family=family, theta_policy=ThetaPolicy.random(), **fields)
    else:
        family, attack, seed = case
        model, tolerance = (ATTACKS[attack], 0.0) if section == "transcripts" else TOLERANT_ATTACKS[attack]
        config = ProtocolConfig(
            family=family, n=3, l=8, delta=1.0, theta_policy=ThetaPolicy.random(), seed=seed,
            attack=model(family), tolerable_error_rate=tolerance,
        )
        secrets = ["10110010"] * 3
    return config, [Secret.from_string(s) for s in secrets]


def frozen_run(section: str, case: tuple):
    return run_protocol(*frozen_config(section, case))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def frozen_key(section: str, case: tuple) -> str:
    """The run's name in its frozen file or digest section."""
    if section == "files":
        return case[0]
    return (ending_id if section == "ending_transcripts" else case_id)(*case)


def frozen_run_id(section: str, case: tuple) -> str:
    return f"{section}:{frozen_key(section, case)}"


def frozen_text_matches(section: str, case: tuple, text: str) -> bool:
    """Whether ``text`` is the frozen transcript, or hashes to its frozen digest."""
    if section == "files":
        # golden_transcript.jsonl was written with one more newline at its end
        return text + "\n" * (case[0] == GOLDEN) == (DATA / case[0]).read_text()
    return digest(text) == _frozen()[section][frozen_key(section, case)]


# every frozen transcript, by its section in the digest file
FROZEN_RUNS = (
    [("transcripts", case) for case in TRANSCRIPT_CASES]
    + [("tolerant_transcripts", case) for case in TOLERANT_CASES]
    + [("ending_transcripts", case) for case in ENDING_CASES]
)
# the frozen files, then every digested run
SPEC_RUNS = [("files", (name,)) for name in FROZEN_FILES] + FROZEN_RUNS


def detection_id(family: EncodingFamily, model: str, m: int, theta: str, trials: int) -> str:
    return f"{family.value}-{model}-m{m}-{theta}-{trials}"


def detection_report(
    family: EncodingFamily, model: str, m: int, theta: str, trials: int, harness=monte_carlo_detection
) -> dict:
    # one generator per case, seeded by the case's place in the table
    seed = 900 + DETECTION_CASES.index((family, model, m, theta, trials))
    config = ProtocolConfig(family=family, theta_policy=THETAS[theta], seed=seed)
    rng = np.random.default_rng(seed)
    return harness(config, DETECTION_MODELS[model](family), trials, rng, m=m).to_dict()


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


@pytest.mark.parametrize("name", FROZEN_FILES)
def test_frozen_file_is_reproduced(name):
    _, transcript = frozen_run("files", (name,))
    assert frozen_text_matches("files", (name,), transcript.to_jsonl())


@pytest.mark.parametrize("family,attack,seed", TRANSCRIPT_CASES, ids=[case_id(*c) for c in TRANSCRIPT_CASES])
def test_transcript_digest_is_frozen(family, attack, seed):
    case = ("transcripts", (family, attack, seed))
    assert frozen_text_matches(*case, frozen_run(*case)[1].to_jsonl())


@pytest.mark.parametrize("family,attack,seed", TOLERANT_CASES, ids=[case_id(*c) for c in TOLERANT_CASES])
def test_tolerant_transcript_digest_is_frozen(family, attack, seed):
    case = ("tolerant_transcripts", (family, attack, seed))
    assert frozen_text_matches(*case, frozen_run(*case)[1].to_jsonl())


def test_ending_digest_file_covers_every_case():
    assert sorted(_frozen()["ending_transcripts"]) == sorted(ending_id(*case) for case in ENDING_CASES)


@pytest.mark.parametrize("family,ending", ENDING_CASES, ids=[ending_id(*c) for c in ENDING_CASES])
def test_ending_transcript_digest_is_frozen(family, ending):
    _, _, _, verdict, last_event = ENDINGS[ending]
    result, transcript = frozen_run("ending_transcripts", (family, ending))
    assert result.verdict is verdict
    assert transcript.events[-2]["event"] == last_event
    assert frozen_text_matches("ending_transcripts", (family, ending), transcript.to_jsonl())


@pytest.mark.parametrize("section,case", SPEC_RUNS, ids=[frozen_run_id(*run) for run in SPEC_RUNS])
def test_spec_writes_the_frozen_transcript(section, case):
    """The specification alone, without ``dfq``'s session code, writes every
    frozen transcript byte for byte."""
    _, events = spec.run(*frozen_config(section, case))
    assert frozen_text_matches(section, case, spec.to_jsonl(events))


def _name(verdict: Verdict | None) -> str | None:
    return verdict.value if verdict else None


@pytest.mark.parametrize("section,case", FROZEN_RUNS, ids=[frozen_run_id(*run) for run in FROZEN_RUNS])
def test_records_hold_what_the_transcript_shows(section, case):
    result, transcript = frozen_run(section, case)
    sessions = transcript.sessions
    events = transcript.events
    participants = sorted({e["participant"] for e in events if "participant" in e})
    assert participants == list(range(1, len(sessions) + 1))
    for participant, session in enumerate(sessions, 1):
        mine = {e["event"]: e for e in events if e.get("participant") == participant}
        case1, tally = mine["case1_check"], mine["case_tally"]
        assert (session.case.case1_errors, session.case.case1_total) == (case1["errors"], case1["total"])
        assert session.case.case2_positions.tolist() == tally["case2_positions"]
        assert _name(session.case.abort) == tally["abort"]
        assert session.tp_qubits == 2 * mine["tp_prepare"]["pairs"]
        assert session.participant_qubits == 2 * mine["participant_record"]["operations"].count("SIFT")
        if session.check is None:
            assert "step4" not in mine
        else:
            step4 = mine["step4"]
            assert session.check.test_positions.tolist() == step4["test_positions"]
            assert session.check.error_rate == step4["error_rate"]
            assert _name(session.check.abort) == step4["abort"]
        if session.message_positions is None:
            assert "step5" not in mine and session.r_bits is None
        else:
            step5 = mine["step5"]
            assert session.message_positions.tolist() == step5["message_positions"]
            assert (session.r_bits, _name(session.abort)) == (step5["r"], step5["abort"])
    # only the last session can abort, and its abort is the run's verdict
    assert all(s.abort is None for s in sessions[:-1])
    if sessions[-1].abort is None:
        assert len(sessions) == events[0]["n"] and events[-2]["event"] == "comparison"
    else:
        assert sessions[-1].abort is result.verdict
    summary = events[-1]
    assert sum(s.tp_qubits for s in sessions) == summary["tp_qubits_prepared"]
    assert sum(s.participant_qubits for s in sessions) == summary["participant_qubits_prepared"]


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
    for case in TOLERANT_CASES:
        events = frozen_run("tolerant_transcripts", case)[1].events
        if case[1] == "intercept":
            assert events[-1]["verdict"] == "AbortedDishonestTP"
        invalid_at_step5 += sum(_invalid_remaining_at_step5(events))
    assert invalid_at_step5 > 0


@pytest.mark.parametrize("l", [1, 2])
def test_step5_skips_invalid_readings_as_the_spec_does(l):
    """Dephasing traffic under a rotation-X measure-resend at tolerance 0.9,
    where step 5 often meets invalid readings among the retained pairs left
    after step 4 (in 42 of 51 step-5 sessions at l=1, 14 of 14 at l=2). Each
    run equals the spec's, and the case is reached."""
    reached = 0
    for seed in range(300):
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, n=2, l=l, seed=seed,
                                attack=MeasureResend(X_R), tolerable_error_rate=0.9)
        secrets = [Secret((1,) * l)] * 2
        result, transcript = run_protocol(config, secrets)
        expected, events = spec.run(config, secrets)
        assert result == expected and transcript.events == events
        reached += sum(count > 0 for count in _invalid_remaining_at_step5(events))
    assert reached > 0


def test_detection_file_covers_every_case():
    assert sorted(json.loads(DETECTION.read_text())) == sorted(detection_id(*c) for c in DETECTION_CASES)


@pytest.mark.parametrize("case", DETECTION_CASES, ids=[detection_id(*c) for c in DETECTION_CASES])
def test_detection_report_is_frozen(case):
    assert detection_report(*case) == json.loads(DETECTION.read_text())[detection_id(*case)]


@pytest.mark.parametrize("case", BOUNDARY_CASES, ids=[detection_id(*c) for c in BOUNDARY_CASES])
def test_boundary_report_matches_one_pass_per_block(case):
    expected = detection_report(*case, harness=reference.monte_carlo_detection_per_block)
    assert detection_report(*case) == expected


@pytest.mark.parametrize("seed", PREPARATION_SEEDS)
def test_measured_preparation_is_frozen(seed):
    assert preparation(seed) == _frozen()["measured_preparation"][str(seed)]


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 200)))
def test_batched_coins_match_the_scalar_loop(seed, count):
    reference = np.random.default_rng(seed)
    batched = np.random.default_rng(seed)
    positions, uniforms = spec.scalar_coins(reference, count)
    sifted, drawn, permutation = participant_draws(batched, count)
    assert sifted.dtype == bool and len(sifted) == count
    assert np.flatnonzero(sifted).tolist() == positions
    assert drawn.tolist() == uniforms
    assert permutation.tolist() == reference.permutation(count).tolist()
    assert batched.random() == reference.random()


@pytest.mark.parametrize("count", [1, 2, 5, 15, 40, 80])
def test_sift_count_makes_the_draws_of_the_session_coins(count):
    # TP's sequence takes one 32-bit half-word per bit, so an odd-length one
    # leaves a half-word buffered in the generator; the count must keep it.
    for seed in range(300):
        counted, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
        counted.integers(0, 2, 7)
        drawn.integers(0, 2, 7)
        assert counted.bit_generator.state["has_uint32"] == 1
        sifted, _, _ = participant_draws(drawn, count)
        assert participant_sift_count(counted, count) == np.count_nonzero(sifted)
        assert counted.bit_generator.state == drawn.bit_generator.state
