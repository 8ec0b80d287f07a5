"""Test-only reference: the session stages as they ran before the one-pass session.

``sift_rows``, ``ParticipantRecord``, ``participant_stage_rows``,
``participant_process_rows``, ``tp_classify_rows`` and ``_run_session`` are
kept verbatim (``participant_draws`` now takes one generator, and forced
coins come from ``forced_participant_draws``) from the version that
simulated every pair of a session, the resent SIFT pairs included, and read
SIFT and CTRL pairs with two sampler calls. ``session_stages`` runs that
version's steps 1-3 for one session. Tests check that the one-pass session
draws the same stream and gives the same records, case outcomes and
transcripts.

``tp_prepare_sequence`` is TP's step 1 as it was before it drew both
bases' bits with one call: one call per basis, then a ``concatenate``. The
sessions below run it, and a test checks that the one-call form draws the
same values and leaves the generator in the same state.

``CaseOutcome``, ``HonestyCheck`` and ``participant_verify_tp`` are kept
verbatim from the version whose steps 3-5 worked on Python lists: the case
outcome carries eager ``case1_details``, and step 4 looks recorded bits up
in a position-keyed dict and asks a ``reveal`` callback for TP's claimed
values. The one change is ``_bit(claimed)`` for ``claimed.bit``: that
property of ``LogicalValue`` is gone from ``dfq``, and ``_bit`` is its body.
The ``_run_session`` below runs them, so the session tests compare the
array steps against these.

``_SessionResult`` and ``run_protocol`` are kept verbatim from the version
whose session returned only its abort, r and m bits and qubit counts and
recorded its own events, and whose run loop summed those; this
``run_protocol`` runs the ``_run_session`` above, so a test compares whole
runs, transcripts included, against it.

``ProtocolTranscript`` is kept verbatim from the version whose transcript
was an append-only event log, each event recorded as the run went; the
``run_protocol`` above records into it, so that test compares the events
``dfq`` renders from its session records against the events as recorded.

``draw_session_forced`` is ``draw_session`` with every participant coin
pinned to one operation: the all-CTRL and all-SIFT sessions are test data,
not a protocol option.

``rotation_noise_reference`` and ``sample_outcomes_reference`` are the
rotation branch of ``apply_family_noise`` and ``sample_outcomes`` as they
were before those kernels ran along the pair axis, and
``monte_carlo_detection_per_block`` is the Monte Carlo harness that made
one ``pair_pass`` per draw block and one generator call per per-row input.
Tests check that the kernels match bit for bit and that the harness gives
equal reports.

``pair_pass`` is kept verbatim from the version that carried every pair as
a row of 8 amplitudes, the probe's included, whatever the attack; the
per-block harness runs it. Tests check that the pass on 4-amplitude rows
reads the same channel bits and values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from dfq.attacks import (
    BLOCK_ROWS,
    AttackModel,
    DetectionReport,
    _binomial_stderr,
    closed_form_detection,
)

from dfq.encoding import (
    _BASES,
    _ROTATION_SIGNS,
    CODEWORD_ROWS,
    DECODE,
    INVALID,
    PAIR_NAMES,
    PAIR_ROWS,
    VALUE_NAMES,
    VALUES,
    EncodingFamily,
    LogicalValue,
    apply_family_noise,
    measure_rows,
    sample_outcomes,
)
from dfq.protocol import (
    ComparisonResult,
    Operation,
    ProtocolConfig,
    Secret,
    SessionDraws,
    SessionRecord,
    SharedKey,
    Verdict,
    encode_announcement,
    participant_draws,
    tp_compare,
)
from dfq.statevector import RandomSource

_OPERATION_NAMES = (Operation.CTRL.value, Operation.SIFT.value)  # indexed by the sift flag


_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _render(entry: dict) -> dict:
    return {key: value() if callable(value) else value for key, value in entry.items()}


class ProtocolTranscript:
    """Append-only event log; one JSON object per line when serialized.

    A field may be recorded as a zero-argument callable returning its JSON
    value: it is called each time the event is read, so a run that reads
    only its summary never builds the per-pair lists. ``events``, ``find``
    and ``to_jsonl`` all render through ``_render``, and ``events`` and
    ``find`` return fresh dicts, so changing one leaves the log as recorded.
    ``run_protocol`` puts each session's ``SessionRecord`` on ``sessions``,
    which none of the three reads.
    """

    def __init__(self) -> None:
        self._entries: list[dict] = []
        self.sessions: list[SessionRecord] = []

    def record(self, event: str, **fields) -> None:
        entry: dict = {"event": event}
        entry.update(fields)
        self._entries.append(entry)

    @property
    def events(self) -> list[dict]:
        return [_render(e) for e in self._entries]

    def find(self, event: str) -> list[dict]:
        return [_render(e) for e in self._entries if e["event"] == event]

    def to_jsonl(self) -> str:
        return "".join(_JSON_ENCODER.encode(_render(e)) + "\n" for e in self._entries)


@dataclass
class CaseOutcome:
    """TP-side result of sorting one returned sequence."""

    case1_errors: int
    case1_total: int
    case2_positions: list[int]
    abort: Verdict | None
    case1_details: list[tuple[int, str, str, str]] = field(default_factory=list)

    @property
    def error_rate(self) -> float:
        return self.case1_errors / self.case1_total if self.case1_total else 0.0


@dataclass
class HonestyCheck:
    """Participant-side result of the step-4 check on TP."""

    error_rate: float
    test_positions: list[int]
    revealed: list[LogicalValue]
    remaining: list[int]


def _bit(value: LogicalValue) -> int:
    """Classical bit carried by a Z-basis value."""
    if value is LogicalValue.ZERO:
        return 0
    if value is LogicalValue.ONE:
        return 1
    raise ValueError(f"{value.value} carries no classical bit")


def participant_verify_tp(
    case2_positions: list[int],
    sift_bits: dict[int, int | None],
    reveal,
    family: EncodingFamily,
    l: int,
    rng: RandomSource,
) -> HonestyCheck:
    """Step 4: spot-check TP's announced initial values against recorded bits.

    ``reveal`` is called with the chosen test positions and must return
    TP's claimed initial values for them. The dephasing protocol tests
    exactly ``l`` pairs, the rotation one half of the retained set. A
    recorded bit that is missing or invalid counts as a mismatch.
    """
    count = len(case2_positions)
    num_tests = l if family is EncodingFamily.DEPHASING else count // 2
    if num_tests < 1 or num_tests > count:
        raise ValueError(f"cannot select {num_tests} test pairs from {count} retained pairs")
    picks = rng.choice(count, size=num_tests, replace=False)
    test_positions = sorted(int(case2_positions[k]) for k in picks)
    revealed = list(reveal(test_positions))
    if len(revealed) != num_tests:
        raise ValueError("reveal did not answer every test position")
    mismatches = 0
    for position, claimed in zip(test_positions, revealed):
        bit = sift_bits.get(position)
        if bit is None or bit != _bit(claimed):
            mismatches += 1
    chosen = set(test_positions)
    remaining = [p for p in case2_positions if p not in chosen]
    return HonestyCheck(mismatches / num_tests, test_positions, revealed, remaining)


def tp_prepare_sequence(config: ProtocolConfig, rng: RandomSource) -> np.ndarray:
    """Step 1: the shuffled sequence TP sends to one participant.

    Returns the prepared value index of every position (an index into
    ``VALUES``); ``CODEWORD_ROWS[family][values]`` are the pairs themselves.
    """
    z_bits = rng.integers(0, 2, config.num_z_pairs)
    x_bits = rng.integers(0, 2, config.num_x_pairs)
    # value indices: 0/1 are zero/one, 2/3 are plus/minus
    values = np.concatenate([z_bits, 2 + x_bits])
    order = rng.permutation(len(values))
    return values[order]


def forced_participant_draws(
    rng: RandomSource, count: int, operation: Operation
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``participant_draws`` with every coin pinned to ``operation``: no coin is
    drawn, each SIFT pair still draws its uniform, then the permutation."""
    sifted = np.full(count, operation is Operation.SIFT)
    return sifted, rng.random(np.count_nonzero(sifted)), rng.permutation(count)


def draw_session_forced(config: ProtocolConfig, rng: RandomSource, operation: Operation) -> SessionDraws:
    """``draw_session``'s draws in its order, with the participant's coins pinned."""
    values = tp_prepare_sequence(config, rng)
    count = len(values)
    if config.attack.draws:
        thetas_out, attack_uniforms = config.theta_policy.sample_with_uniforms(rng, count)
    else:
        thetas_out, attack_uniforms = config.theta_policy.sample(rng, count), None
    sifted, sift_uniforms, permutation = forced_participant_draws(rng, count, operation)
    thetas_back = config.theta_policy.sample(rng, count)
    return SessionDraws(values, thetas_out, attack_uniforms, sifted, sift_uniforms,
                        permutation, thetas_back, rng.random(count - len(sift_uniforms)))


def sift_rows(
    rows: np.ndarray, family: EncodingFamily, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Computational measurement of each row: (decoded bit or INVALID, channel bit pair).

    The bit is decoded with the family's Z table; the pair index selects the
    product state in PAIR_ROWS that gets sent back.
    """
    k = sample_outcomes(rows, uniforms)
    return DECODE[_BASES[family][0]][k], k >> 1


@dataclass
class ParticipantRecord:
    """Participant-side bookkeeping for one session."""

    # per incoming pair: True for SIFT, False for CTRL. Left out of ==, which an
    # array cannot answer; sift_bits and permutation determine it.
    sifted: np.ndarray = field(compare=False)
    sift_bits: dict[int, int | None]
    sift_raw: dict[int, str]
    permutation: list[int]  # outgoing slot j carried incoming pair permutation[j]


def participant_stage_rows(
    rows: np.ndarray,
    family: EncodingFamily,
    sifted: np.ndarray,
    uniforms: np.ndarray,
    permutations: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step 2's array work on the (T, N, 8) rows of T trials, given their draws.

    SIFT pairs are read out with ``sift_rows`` and replaced by the product
    state read; then each trial's rows are reordered by its permutation.
    Returns the outgoing (T, N, 8) rows and, for the SIFT pairs in trial
    then position order, the decoded bit (or INVALID) and channel bit pair.
    """
    bits, pairs = sift_rows(rows[sifted], family, uniforms)
    processed = rows.copy()
    processed[sifted] = PAIR_ROWS[pairs]
    return processed[np.arange(len(rows))[:, None], permutations], bits, pairs


def participant_process_rows(
    rows: np.ndarray,
    family: EncodingFamily,
    rng: RandomSource,
    force_operation: Operation | None = None,
) -> tuple[np.ndarray, ParticipantRecord]:
    """Step 2 on one session's (N, 8) rows: per-pair coin, sift measurements
    and the outgoing shuffle, as one trial of ``participant_draws`` and
    ``participant_stage_rows``."""
    if force_operation is None:
        sifted, uniforms, permutation = participant_draws(rng, len(rows))
    else:
        sifted, uniforms, permutation = forced_participant_draws(rng, len(rows), force_operation)
    outgoing, bits, pairs = participant_stage_rows(
        rows[None], family, sifted[None], uniforms, permutation[None]
    )
    positions = np.flatnonzero(sifted).tolist()
    record = ParticipantRecord(
        sifted,
        dict(zip(positions, [None if b == INVALID else b for b in bits.tolist()])),
        dict(zip(positions, [PAIR_NAMES[p] for p in pairs.tolist()])),
        permutation.tolist(),
    )
    return outgoing[0], record


def tp_classify_rows(
    returned: np.ndarray,
    record_permutation: list[int],
    record_sifted: np.ndarray,
    values: np.ndarray,
    config: ProtocolConfig,
    rng: RandomSource,
) -> CaseOutcome:
    """Step 3 on (N, 8) rows: undo the shuffle, measure CTRL pairs, tally the three cases.

    ``values`` holds the prepared value index of every position and
    ``record_sifted`` the announced operations (True for SIFT). CTRL pairs
    are read in position order, one uniform each. Checks fire in order:
    channel error rate first, retained-pair count second. Only the announced
    permutation and operations cross the classical channel; the sift bits
    stay with the participant.
    """
    total = len(values)
    if len(returned) != total or sorted(record_permutation) != list(range(total)):
        raise ValueError("announced permutation is not a bijection over the sequence")
    if len(record_sifted) != total:
        raise ValueError("announced operations do not cover the sequence")
    restored = np.empty_like(returned)
    restored[record_permutation] = returned
    sifted = np.asarray(record_sifted, dtype=bool)
    positions = np.flatnonzero(~sifted)
    prepared = values[positions]
    outcomes, got = measure_rows(
        restored[positions], config.family, prepared >= 2, rng.random(len(positions))
    )
    measured = len(positions)
    errors = int(np.count_nonzero(got != prepared))
    details = [
        (position, VALUE_NAMES[want], "invalid" if read == INVALID else VALUE_NAMES[read],
         PAIR_NAMES[k >> 1])
        for position, want, read, k in zip(
            positions.tolist(), prepared.tolist(), got.tolist(), outcomes.tolist()
        )
    ]
    # SIFT on a Z pair is case 2 (retained); SIFT on an X pair is case 3 (dropped).
    case2 = np.flatnonzero(sifted & (values < 2)).tolist()
    rate = errors / measured if measured else 0.0
    abort: Verdict | None = None
    if rate > config.tolerable_error_rate:
        abort = Verdict.ABORTED_INSECURE_CHANNEL
    elif len(case2) < 2 * config.l:
        abort = Verdict.ABORTED_INSUFFICIENT_PARTICLES
    return CaseOutcome(errors, measured, case2, abort, details)


@dataclass
class _SessionResult:
    abort: Verdict | None
    r_bits: list[int] | None
    m_bits: list[int] | None
    tp_qubits: int
    participant_qubits: int


def _run_session(
    config: ProtocolConfig,
    secret: Secret,
    key: SharedKey,
    rng: RandomSource,
    transcript: ProtocolTranscript,
    participant: int,
) -> _SessionResult:
    family = config.family
    values = tp_prepare_sequence(config, rng)
    value_list = values.tolist()
    count = len(value_list)
    transcript.record(
        "tp_prepare",
        participant=participant,
        pairs=count,
        bases=["Z" if v < 2 else "X" for v in value_list],
        values=[VALUE_NAMES[v] for v in value_list],
    )
    tp_qubits = 2 * count

    attack = config.attack
    if attack.draws:
        thetas_out, uniforms = config.theta_policy.sample_with_uniforms(rng, count)
    else:
        thetas_out, uniforms = config.theta_policy.sample(rng, count), None
    in_flight = attack.apply_rows(apply_family_noise(CODEWORD_ROWS[family][values], family, thetas_out), uniforms)
    transcript.record(
        "channel", participant=participant, leg="tp_to_p", thetas=thetas_out.tolist()
    )

    outgoing, record = participant_process_rows(in_flight, family, rng)
    participant_qubits = 2 * len(record.sift_bits)
    operations = [_OPERATION_NAMES[sift] for sift in record.sifted.tolist()]
    transcript.record(
        "participant_record",
        participant=participant,
        operations=operations,
        sift_bits=[[pos, record.sift_bits[pos]] for pos in sorted(record.sift_bits)],
        sift_raw=[[pos, record.sift_raw[pos]] for pos in sorted(record.sift_raw)],
    )

    thetas_back = config.theta_policy.sample(rng, count)
    returned = apply_family_noise(outgoing, family, thetas_back)
    transcript.record(
        "channel", participant=participant, leg="p_to_tp", thetas=thetas_back.tolist()
    )

    z_positions = [pos for pos, v in enumerate(value_list) if v < 2]
    transcript.record("tp_announce_z_positions", participant=participant, positions=z_positions)
    transcript.record(
        "participant_announce",
        participant=participant,
        permutation=record.permutation,
        operations=operations,
    )

    case = tp_classify_rows(returned, record.permutation, record.sifted, values, config, rng)
    transcript.record(
        "case1_check",
        participant=participant,
        results=[list(d) for d in case.case1_details],
        errors=case.case1_errors,
        total=case.case1_total,
        error_rate=case.error_rate,
    )
    transcript.record(
        "case_tally",
        participant=participant,
        case2_count=len(case.case2_positions),
        case2_positions=case.case2_positions,
        abort=case.abort.value if case.abort else None,
    )
    if case.abort is not None:
        return _SessionResult(case.abort, None, None, tp_qubits, participant_qubits)

    def reveal(positions: list[int]) -> list[LogicalValue]:
        return [VALUES[value_list[p]] for p in positions]

    check = participant_verify_tp(
        case.case2_positions, record.sift_bits, reveal, family, config.l, rng
    )
    abort = Verdict.ABORTED_DISHONEST_TP if check.error_rate > 0.0 else None
    transcript.record(
        "step4",
        participant=participant,
        test_positions=check.test_positions,
        revealed=[v.value for v in check.revealed],
        error_rate=check.error_rate,
        abort=abort.value if abort else None,
    )
    if abort is not None:
        return _SessionResult(abort, None, None, tp_qubits, participant_qubits)

    # An invalid recorded bit that survived step 4 is useless for masking;
    # the participant skips such pairs when picking message pairs.
    usable = [p for p in check.remaining if record.sift_bits[p] is not None]
    if len(usable) < config.l:
        transcript.record(
            "step5",
            participant=participant,
            message_positions=[],
            r=[],
            abort=Verdict.ABORTED_INSUFFICIENT_PARTICLES.value,
        )
        return _SessionResult(
            Verdict.ABORTED_INSUFFICIENT_PARTICLES, None, None, tp_qubits, participant_qubits
        )
    picks = rng.choice(len(usable), size=config.l, replace=False)
    message_positions = sorted(int(usable[k]) for k in picks)
    message_bits = [record.sift_bits[p] for p in message_positions]
    r_bits = encode_announcement(secret, key, message_bits)
    transcript.record(
        "step5",
        participant=participant,
        message_positions=message_positions,
        r=r_bits,
        abort=None,
    )
    m_bits = [value_list[p] for p in message_positions]  # a Z value index is its bit
    return _SessionResult(None, r_bits, m_bits, tp_qubits, participant_qubits)


def run_protocol(
    config: ProtocolConfig, secrets: list[Secret]
) -> tuple[ComparisonResult, ProtocolTranscript]:
    """Run every session and the final comparison on the generator seeded with
    ``config.seed``; never raises on aborts."""
    if len(secrets) != config.n:
        raise ValueError(f"need {config.n} secrets, got {len(secrets)}")
    if any(len(s) != config.l for s in secrets):
        raise ValueError(f"every secret must be {config.l} bits long")
    rng = np.random.default_rng(config.seed)
    transcript = ProtocolTranscript()
    transcript.record(
        "run_config",
        family=config.family.value,
        n=config.n,
        l=config.l,
        delta=config.delta,
        theta_policy=config.theta_policy.to_dict(),
        seed=config.seed,
        attack=config.attack.to_dict(),
        tolerable_error_rate=config.tolerable_error_rate,
    )
    key = SharedKey.random(config.l, rng)
    r_rows: list[list[int]] = []
    m_rows: list[list[int]] = []
    tp_qubits = 0
    participant_qubits = 0
    verdict: Verdict | None = None
    for i in range(config.n):
        session = _run_session(config, secrets[i], key, rng, transcript, i + 1)
        tp_qubits += session.tp_qubits
        participant_qubits += session.participant_qubits
        if session.abort is not None:
            verdict = session.abort
            break
        r_rows.append(session.r_bits)
        m_rows.append(session.m_bits)
    if verdict is None:
        result = tp_compare(r_rows, m_rows)
        transcript.record(
            "comparison",
            u=[list(row) for row in result.u],
            c=list(result.c),
            verdict=result.verdict.value,
        )
    else:
        result = ComparisonResult((), (), verdict)
    transcript.record(
        "run_summary",
        tp_qubits_prepared=tp_qubits,
        participant_qubits_prepared=participant_qubits,
        verdict=result.verdict.value,
    )
    return result, transcript



def session_stages(
    config: ProtocolConfig, rng: RandomSource, force_operation: Operation | None = None
) -> tuple[np.ndarray, ParticipantRecord, CaseOutcome]:
    """Steps 1-3 of ``_run_session`` above, with the participant's coins pinned
    by ``force_operation`` if given: (prepared values, record, case outcome)."""
    family = config.family
    values = tp_prepare_sequence(config, rng)
    count = len(values)
    attack = config.attack
    if attack.draws:
        thetas_out, uniforms = config.theta_policy.sample_with_uniforms(rng, count)
    else:
        thetas_out, uniforms = config.theta_policy.sample(rng, count), None
    in_flight = attack.apply_rows(apply_family_noise(CODEWORD_ROWS[family][values], family, thetas_out), uniforms)
    outgoing, record = participant_process_rows(in_flight, family, rng, force_operation)
    thetas_back = config.theta_policy.sample(rng, count)
    returned = apply_family_noise(outgoing, family, thetas_back)
    case = tp_classify_rows(returned, record.permutation, record.sifted, values, config, rng)
    return values, record, case


def rotation_noise_reference(rows: np.ndarray, thetas) -> np.ndarray:
    """The rotation branch of ``apply_family_noise``, one pair per leading index."""
    count, dim = rows.shape
    thetas = np.asarray(thetas, dtype=float)
    # [[c, -s], [s, c]] on a qubit axis: c * t + (-s, s) * t with that axis reversed
    c = np.cos(thetas)[:, None, None, None]
    s = np.sin(thetas)[:, None] * _ROTATION_SIGNS
    t = rows.reshape(count, 2, 2, dim // 4)
    t = c * t + s[:, :, None, None] * t[:, ::-1]
    t = c * t + s[:, None, :, None] * t[:, :, ::-1]
    return t.reshape(count, dim)


def sample_outcomes_reference(rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``sample_outcomes`` with one temporary per step and ``count_nonzero``."""
    probs = rows.real**2 + rows.imag**2
    cum = np.cumsum(probs, axis=1)
    k = np.count_nonzero(cum <= (uniforms * cum[:, -1])[:, None], axis=1)
    return np.minimum(k, rows.shape[1] - 1)


def pair_pass(
    family: EncodingFamily,
    model: AttackModel,
    values: np.ndarray,
    ctrl: np.ndarray,
    thetas_out: np.ndarray,
    attack_uniforms: np.ndarray | None,
    thetas_back: np.ndarray,
    uniforms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The pair physics of a round, for pairs prepared with value indices ``values``.

    Every pair crosses the outbound leg (one angle each) and the attack
    (``attack_uniforms`` if the model draws). A CTRL pair (``ctrl`` set) then
    crosses the return leg, taking the next angle of ``thetas_back`` (one per
    CTRL pair, in row order), and is read in its preparation basis; a SIFT
    pair is read in Z as it arrived. Returns the outcome index and decoded
    value index (INVALID for a codespace escape) of every pair, one uniform each.
    """
    rows = apply_family_noise(CODEWORD_ROWS[family][values], family, thetas_out)
    rows = model.apply_rows(rows, attack_uniforms)
    c = np.flatnonzero(ctrl)
    rows[c] = apply_family_noise(rows[c], family, thetas_back)
    return measure_rows(rows, family, ctrl & (values >= 2), uniforms)


def _simulate_groups(
    family: EncodingFamily, model: AttackModel, theta_policy, count: int, rng: RandomSource, sift: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` independent attacked pairs: (control-check hit, control-or-sift hit) each."""
    is_x = rng.random(count) >= 0.8
    values = 2 * is_x + (rng.random(count) >= 0.5)
    thetas = theta_policy.sample(rng, count)
    attack_uniforms = rng.random(count) if model.draws else None
    ctrl = rng.random(count) < 0.5
    uniforms = rng.random(count)
    thetas_back = theta_policy.sample(rng, int(np.count_nonzero(ctrl)))
    r = np.flatnonzero(ctrl | (sift & ~is_x))
    _, read = pair_pass(
        family, model, values[r], ctrl[r], thetas[r],
        None if attack_uniforms is None else attack_uniforms[r], thetas_back, uniforms[r],
    )
    wrong = np.zeros(count, dtype=bool)
    wrong[r] = read != values[r]
    return wrong & ctrl, wrong


def monte_carlo_detection_per_block(
    config: ProtocolConfig, model: AttackModel, trials: int, rng: RandomSource, m: int = 1
) -> DetectionReport:
    """``monte_carlo_detection`` with one ``pair_pass`` per draw block (no guards)."""
    family = config.family
    policy = config.theta_policy
    case1_hits = 0
    sift_hits = 0
    for start in range(0, trials, BLOCK_ROWS):
        case1, inclusive = _simulate_groups(
            family, model, policy, min(BLOCK_ROWS, trials - start), rng, sift=True
        )
        case1_hits += int(np.count_nonzero(case1))
        sift_hits += int(np.count_nonzero(inclusive))
    # Round r owns rows r*m .. r*m + m - 1 and is detected if any of them hits.
    detected = np.zeros(trials, dtype=bool)
    total_rows = trials * m
    for start in range(0, total_rows, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, total_rows)
        case1, _ = _simulate_groups(family, model, policy, stop - start, rng, sift=False)
        detected[(start + np.flatnonzero(case1)) // m] = True
    overall_hits = int(np.count_nonzero(detected))
    try:
        cf_group = closed_form_detection(model, family, 1)
        cf_overall = closed_form_detection(model, family, m)
    except ValueError:
        cf_group = None
        cf_overall = None
    p_group = case1_hits / trials
    p_overall = overall_hits / trials
    p_sift = sift_hits / trials
    return DetectionReport(
        model=model.name,
        family=family.value,
        m=m,
        trials=trials,
        per_group_estimate=p_group,
        per_group_stderr=_binomial_stderr(p_group, trials),
        overall_estimate=p_overall,
        overall_stderr=_binomial_stderr(p_overall, trials),
        closed_form_per_group=cf_group,
        closed_form_overall=cf_overall,
        sift_inclusive_estimate=p_sift,
        sift_inclusive_stderr=_binomial_stderr(p_sift, trials),
    )
