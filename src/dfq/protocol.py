"""End-to-end execution of the two private comparison protocols.

A third party (TP) with full quantum ability helps n participants decide
whether their l-bit secrets are all equal, without learning the secrets
and without the participants revealing them to each other. Participants
only ever measure and prepare computational product states; the logical
codewords keep everything alive on a collectively noisy channel.

One session between TP and participant i runs:

1. TP prepares ceil(4*l*(1+delta)) pairs in the family's logical Z basis
   and ceil(l*(1+delta)) in its X basis, values uniform, order shuffled,
   and sends them over the noisy channel.
2. For each pair the participant flips a fair coin: CTRL reflects the pair
   untouched, SIFT measures both qubits computationally, records the
   decoded bit and sends back a fresh product state instead. The outgoing
   sequence is reordered by a uniformly random permutation.
3. TP announces which sequence positions held Z pairs; the participant
   announces the permutation and the per-pair operations. TP undoes the
   permutation and sorts pairs: CTRL pairs are measured in their
   preparation basis and any wrong value counts as a channel error
   (rate above the tolerance aborts the run); SIFT pairs prepared in Z
   are retained (fewer than 2*l of them aborts); SIFT pairs prepared in X
   are dropped.
4. The participant picks test pairs from the retained set (l of them for
   the dephasing protocol, half for the rotation one); TP reveals the
   initial values and any disagreement with the recorded bits aborts the
   run as evidence of a dishonest TP.
5. The participant picks l message pairs from the rest and announces
   r_j = key_j XOR secret_j XOR recorded_bit_j.
6. After all sessions TP forms u_{i,j} = prepared_bit XOR r_{i,j} and the
   pairwise sums C_j; all C_j zero means all secrets are equal.

The pre-shared key comes from a stub standing in for a semi-quantum key
distribution session among the participants; TP never sees it, so the
announced r values look uniform to TP no matter what the secrets are.

Every run is driven by one seeded Generator, and the transcript of
events replays byte for byte given the same config, secrets and seed.

A session moves its pairs through the stages as (N, 8) arrays of rows (see
``dfq.encoding``). ``participant_process`` and ``tp_classify_and_check``
are the same stages for lists of StateVectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .attacks import NO_ATTACK, AttackModel, attack_to_dict
from .encoding import (
    CODEWORD_ROWS,
    INVALID,
    PAIR_NAMES,
    PAIR_ROWS,
    VALUE_NAMES,
    VALUES,
    EncodingFamily,
    LogicalValue,
    apply_family_noise,
    from_row,
    measure_rows,
    sift_rows,
    to_rows,
)
from .statevector import RandomSource, StateVector

__all__ = [
    "Operation",
    "ThetaPolicy",
    "ProtocolConfig",
    "Secret",
    "SharedKey",
    "draw_shared_key",
    "ParticipantRecord",
    "ProtocolTranscript",
    "Verdict",
    "CaseOutcome",
    "HonestyCheck",
    "ComparisonResult",
    "tp_prepare_sequence",
    "participant_coins",
    "participant_process",
    "participant_process_rows",
    "tp_classify_and_check",
    "tp_classify_rows",
    "participant_verify_tp",
    "encode_announcement",
    "tp_compare",
    "run_protocol",
]


class Operation(Enum):
    CTRL = "CTRL"
    SIFT = "SIFT"


_OPERATION_NAMES = (Operation.CTRL.value, Operation.SIFT.value)  # indexed by the sift flag


class Verdict(str, Enum):
    ALL_EQUAL = "AllEqual"
    NOT_ALL_EQUAL = "NotAllEqual"
    ABORTED_INSECURE_CHANNEL = "AbortedInsecureChannel"
    ABORTED_INSUFFICIENT_PARTICLES = "AbortedInsufficientParticles"
    ABORTED_DISHONEST_TP = "AbortedDishonestTP"


@dataclass(frozen=True)
class ThetaPolicy:
    """Noise angle source: one draw per pair per channel crossing."""

    kind: str
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "random"):
            raise ValueError(f"theta policy kind must be 'fixed' or 'random', got {self.kind!r}")
        if not math.isfinite(self.value):
            raise ValueError(f"theta policy value must be finite, got {self.value}")

    def sample(self, rng: RandomSource, count: int) -> np.ndarray:
        """One angle per pair for ``count`` pairs."""
        if self.kind == "fixed":
            return np.full(count, self.value)
        return rng.uniform(0.0, 2.0 * math.pi, count)

    def sample_with_uniforms(self, rng: RandomSource, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Angles plus one more uniform per pair, in the order of a pair-by-pair
        loop that draws the angle, then the uniform."""
        if self.kind == "fixed":
            return self.sample(rng, count), rng.random(count)
        draws = rng.random(2 * count)
        # uniform(0, 2 pi) is 2 pi times the generator's next double
        return 2.0 * math.pi * draws[0::2], draws[1::2]

    @classmethod
    def fixed(cls, value: float) -> "ThetaPolicy":
        return cls("fixed", float(value))

    @classmethod
    def random(cls) -> "ThetaPolicy":
        return cls("random")

    def to_dict(self) -> dict:
        if self.kind == "fixed":
            return {"kind": "fixed", "value": self.value}
        return {"kind": "random"}

    @classmethod
    def from_dict(cls, data: dict) -> "ThetaPolicy":
        if not isinstance(data, dict) or "kind" not in data:
            raise ValueError("theta policy must be an object with a 'kind' field")
        extra = set(data) - {"kind", "value"}
        if extra:
            raise ValueError(f"unknown theta policy fields: {sorted(extra)}")
        if data["kind"] == "fixed":
            value = data.get("value", 0.0)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError("theta policy value must be a number")
            return cls.fixed(value)
        if data["kind"] == "random":
            return cls.random()
        raise ValueError(f"unknown theta policy kind {data['kind']!r}")


def _ceil_count(x: float) -> int:
    # Ceiling that forgives float dust just below an integer (e.g. 24.000000000000004).
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest)
    return math.ceil(x)


@dataclass(frozen=True)
class ProtocolConfig:
    family: EncodingFamily
    n: int = 3
    l: int = 8
    delta: float = 1.0
    theta_policy: ThetaPolicy = ThetaPolicy.random()
    seed: int = 0
    attack: AttackModel = NO_ATTACK
    tolerable_error_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least two participants")
        if self.l < 1:
            raise ValueError("secrets must be at least one bit long")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"delta must be finite and non-negative, got {self.delta}")
        if not 0.0 <= self.tolerable_error_rate < 1.0:
            raise ValueError("tolerable_error_rate must be in [0, 1)")
        try:
            self.pairs_per_participant
        except OverflowError as exc:
            raise ValueError(f"delta={self.delta} with l={self.l} overflows the pair budget") from exc

    @property
    def num_z_pairs(self) -> int:
        return _ceil_count(4 * self.l * (1.0 + self.delta))

    @property
    def num_x_pairs(self) -> int:
        return _ceil_count(self.l * (1.0 + self.delta))

    @property
    def pairs_per_participant(self) -> int:
        return self.num_z_pairs + self.num_x_pairs


def _check_bits(bits: tuple[int, ...]) -> None:
    if len(bits) < 1:
        raise ValueError("need at least one bit")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")


@dataclass(frozen=True)
class Secret:
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_bits(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    @classmethod
    def random(cls, l: int, rng: RandomSource) -> "Secret":
        return cls(tuple(int(b) for b in rng.integers(0, 2, l)))

    @classmethod
    def from_string(cls, text: str) -> "Secret":
        return cls(tuple(int(c) for c in text))


@dataclass(frozen=True)
class SharedKey:
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_bits(self.bits)

    def __len__(self) -> int:
        return len(self.bits)


def draw_shared_key(l: int, rng: RandomSource) -> SharedKey:
    """Stub for the participants' key-distribution session; TP never sees it."""
    return SharedKey(tuple(int(b) for b in rng.integers(0, 2, l)))


@dataclass
class ParticipantRecord:
    """Participant-side bookkeeping for one session."""

    # per incoming pair: True for SIFT, False for CTRL. Left out of ==, which an
    # array cannot answer; sift_bits and permutation determine it.
    sifted: np.ndarray = field(compare=False)
    sift_bits: dict[int, int | None]
    sift_raw: dict[int, str]
    permutation: list[int]  # outgoing slot j carried incoming pair permutation[j]

    @property
    def operations(self) -> list[Operation]:
        return [Operation.SIFT if sift else Operation.CTRL for sift in self.sifted.tolist()]


class ProtocolTranscript:
    """Append-only event log; one JSON object per line when serialized."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def record(self, event: str, **fields) -> None:
        entry: dict = {"event": event}
        entry.update(fields)
        self.events.append(entry)

    def find(self, event: str) -> list[dict]:
        return [e for e in self.events if e["event"] == event]

    def to_jsonl(self) -> str:
        return "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in self.events)


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


@dataclass
class ComparisonResult:
    u: tuple[tuple[int, ...], ...]
    c: tuple[int, ...]
    verdict: Verdict


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


def participant_coins(rng: RandomSource, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The coins of ``count`` pairs: (SIFT mask, measurement uniform of each SIFT pair).

    Pair by pair, a coin of at least 0.5 means SIFT and the next draw is that
    pair's uniform. Every candidate draw comes from one vectorised call; the
    generator is then rewound and moved on by exactly the draws used, so it
    ends where a loop of scalar ``rng.random()`` calls would leave it.
    """
    bit_generator = rng.bit_generator
    state = bit_generator.state
    draws = iter(rng.random(2 * count).tolist())
    sifted: list[bool] = []
    uniforms: list[float] = []
    for _ in range(count):
        sift = next(draws) >= 0.5
        sifted.append(sift)
        if sift:
            uniforms.append(next(draws))
    bit_generator.state = state
    rng.random(count + len(uniforms))
    return np.array(sifted, dtype=bool), np.array(uniforms, dtype=float)


def participant_process_rows(
    rows: np.ndarray,
    family: EncodingFamily,
    rng: RandomSource,
    force_operation: Operation | None = None,
) -> tuple[np.ndarray, ParticipantRecord]:
    """Step 2 on (N, 8) rows: per-pair coin, sift measurements and the outgoing shuffle.

    The coins come from ``participant_coins``. ``force_operation`` pins every
    coin for tests.
    """
    count = len(rows)
    if force_operation is None:
        sifted, uniforms = participant_coins(rng, count)
    else:
        sifted = np.full(count, force_operation is Operation.SIFT)
        uniforms = rng.random(np.count_nonzero(sifted))
    positions = np.flatnonzero(sifted).tolist()
    bits, pairs = sift_rows(rows[sifted], family, uniforms)
    processed = rows.copy()
    processed[sifted] = PAIR_ROWS[pairs]
    permutation = rng.permutation(count)
    record = ParticipantRecord(
        sifted,
        dict(zip(positions, [None if b == INVALID else b for b in bits.tolist()])),
        dict(zip(positions, [PAIR_NAMES[p] for p in pairs.tolist()])),
        permutation.tolist(),
    )
    return processed[permutation], record


def participant_process(
    particles_in: list[StateVector],
    family: EncodingFamily,
    rng: RandomSource,
    force_operation: Operation | None = None,
) -> tuple[list[StateVector], ParticipantRecord]:
    """Step 2 on StateVectors; CTRL pairs come back as the very objects received.

    ``force_operation`` pins every coin for tests.
    """
    rows, record = participant_process_rows(to_rows(particles_in), family, rng, force_operation)
    sifted = record.sifted.tolist()
    outgoing = [
        from_row(row, 2) if sifted[source] else particles_in[source]
        for source, row in zip(record.permutation, rows)
    ]
    return outgoing, record


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


def tp_classify_and_check(
    returned: list[StateVector],
    record_permutation: list[int],
    record_operations: list[Operation],
    values: np.ndarray,
    config: ProtocolConfig,
    rng: RandomSource,
) -> CaseOutcome:
    """Step 3 on StateVectors and a list of operations; ``values`` is what
    ``tp_prepare_sequence`` returned."""
    sifted = np.array([op is not Operation.CTRL for op in record_operations], dtype=bool)
    return tp_classify_rows(to_rows(returned), record_permutation, sifted, values, config, rng)


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
        if bit is None or bit != claimed.bit:
            mismatches += 1
    chosen = set(test_positions)
    remaining = [p for p in case2_positions if p not in chosen]
    return HonestyCheck(mismatches / num_tests, test_positions, revealed, remaining)


def encode_announcement(secret: Secret, key: SharedKey, message_bits: list[int]) -> list[int]:
    """Step 5: r_j = key_j XOR secret_j XOR recorded_bit_j."""
    if not len(secret) == len(key) == len(message_bits):
        raise ValueError("secret, key and message bits must have equal length")
    if any(b not in (0, 1) for b in message_bits):
        raise ValueError("message bits must be 0 or 1")
    return [k ^ x ^ m for x, k, m in zip(secret.bits, key.bits, message_bits)]


def tp_compare(r_rows: list[list[int]], m_rows: list[list[int]]) -> ComparisonResult:
    """Step 6: unmask against TP's own bit records and sum adjacent XORs."""
    n = len(r_rows)
    if n < 2 or len(m_rows) != n:
        raise ValueError("need announcement and bit-record rows for at least two participants")
    l = len(r_rows[0])
    for row in (*r_rows, *m_rows):
        if len(row) != l:
            raise ValueError("all rows must have the same length")
        if any(b not in (0, 1) for b in row):
            raise ValueError("rows must contain bits")
    u = tuple(tuple(m ^ r for m, r in zip(m_row, r_row)) for m_row, r_row in zip(m_rows, r_rows))
    c = tuple(sum(u[i][j] ^ u[i + 1][j] for i in range(n - 1)) for j in range(l))
    verdict = Verdict.ALL_EQUAL if all(v == 0 for v in c) else Verdict.NOT_ALL_EQUAL
    return ComparisonResult(u, c, verdict)


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
    config: ProtocolConfig,
    secrets: list[Secret],
    rng: RandomSource | None = None,
) -> tuple[ComparisonResult, ProtocolTranscript]:
    """Run every session and the final comparison; never raises on aborts."""
    if len(secrets) != config.n:
        raise ValueError(f"need {config.n} secrets, got {len(secrets)}")
    if any(len(s) != config.l for s in secrets):
        raise ValueError(f"every secret must be {config.l} bits long")
    if rng is None:
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
        attack=attack_to_dict(config.attack),
        tolerable_error_rate=config.tolerable_error_rate,
    )
    key = draw_shared_key(config.l, rng)
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
