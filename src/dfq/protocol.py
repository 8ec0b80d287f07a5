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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .attacks import NO_ATTACK, AttackModel, apply_attack, attack_to_dict
from .encoding import (
    BasisKind,
    EncodingFamily,
    LogicalBasis,
    LogicalValue,
    apply_family_noise,
    basis_for,
    measure_logical,
    prepare,
    sift_measure_and_resend,
)
from .statevector import RandomSource, StateVector

__all__ = [
    "Operation",
    "ThetaPolicy",
    "ProtocolConfig",
    "Secret",
    "SharedKey",
    "draw_shared_key",
    "LogicalParticle",
    "ParticipantRecord",
    "ProtocolTranscript",
    "Verdict",
    "CaseOutcome",
    "HonestyCheck",
    "ComparisonResult",
    "tp_prepare_sequence",
    "participant_process",
    "tp_classify_and_check",
    "participant_verify_tp",
    "encode_announcement",
    "tp_compare",
    "run_protocol",
]


class Operation(Enum):
    CTRL = "CTRL"
    SIFT = "SIFT"


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

    def sample(self, rng: RandomSource) -> float:
        if self.kind == "fixed":
            return self.value
        return float(rng.uniform(0.0, 2.0 * math.pi))

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


@dataclass(frozen=True)
class LogicalParticle:
    """One prepared pair plus TP's private descriptor of it."""

    state: StateVector
    basis: LogicalBasis
    value: LogicalValue
    original_index: int


@dataclass
class ParticipantRecord:
    """Participant-side bookkeeping for one session."""

    operations: list[Operation]
    sift_bits: dict[int, int | None]
    sift_raw: dict[int, str]
    permutation: list[int]  # outgoing slot j carried incoming pair permutation[j]


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


def tp_prepare_sequence(config: ProtocolConfig, rng: RandomSource) -> list[LogicalParticle]:
    """Step 1: the shuffled sequence TP sends to one participant."""
    z_bits = rng.integers(0, 2, config.num_z_pairs)
    x_bits = rng.integers(0, 2, config.num_x_pairs)
    values = [LogicalValue.ZERO if b == 0 else LogicalValue.ONE for b in z_bits]
    values += [LogicalValue.PLUS if b == 0 else LogicalValue.MINUS for b in x_bits]
    order = rng.permutation(len(values))
    sequence = []
    for position, source in enumerate(order):
        value = values[int(source)]
        sequence.append(
            LogicalParticle(
                state=prepare(config.family, value),
                basis=basis_for(config.family, value),
                value=value,
                original_index=position,
            )
        )
    return sequence


def participant_process(
    particles_in: list[StateVector],
    family: EncodingFamily,
    rng: RandomSource,
    force_operation: Operation | None = None,
) -> tuple[list[StateVector], ParticipantRecord]:
    """Step 2: per-pair coin, sift measurements and the outgoing shuffle.

    ``force_operation`` pins every coin for tests.
    """
    operations: list[Operation] = []
    sift_bits: dict[int, int | None] = {}
    sift_raw: dict[int, str] = {}
    processed: list[StateVector] = []
    for index, state in enumerate(particles_in):
        if force_operation is not None:
            op = force_operation
        else:
            op = Operation.CTRL if rng.random() < 0.5 else Operation.SIFT
        operations.append(op)
        if op is Operation.SIFT:
            bit, fresh = sift_measure_and_resend(state, family, rng)
            sift_bits[index] = bit
            sift_raw[index] = format(int(np.argmax(np.abs(fresh.amps))), "02b")
            processed.append(fresh)
        else:
            processed.append(state)
    permutation = [int(j) for j in rng.permutation(len(particles_in))]
    outgoing = [processed[j] for j in permutation]
    return outgoing, ParticipantRecord(operations, sift_bits, sift_raw, permutation)


def tp_classify_and_check(
    returned: list[StateVector],
    record_permutation: list[int],
    record_operations: list[Operation],
    descriptors: list[LogicalParticle],
    config: ProtocolConfig,
    rng: RandomSource,
) -> CaseOutcome:
    """Step 3: undo the shuffle, measure CTRL pairs, tally the three cases.

    Checks fire in order: channel error rate first, retained-pair count
    second. Only the announced permutation and operations cross the
    classical channel; the sift bits stay with the participant.
    """
    total = len(descriptors)
    if len(returned) != total or sorted(record_permutation) != list(range(total)):
        raise ValueError("announced permutation is not a bijection over the sequence")
    if len(record_operations) != total:
        raise ValueError("announced operations do not cover the sequence")
    restored: list[StateVector | None] = [None] * total
    for slot, source in enumerate(record_permutation):
        restored[source] = returned[slot]
    errors = 0
    measured = 0
    case2: list[int] = []
    details: list[tuple[int, str, str, str]] = []
    for particle in descriptors:
        position = particle.original_index
        operation = record_operations[position]
        if operation is Operation.CTRL:
            outcome = measure_logical(restored[position], particle.basis, rng)
            measured += 1
            got = outcome.value.value if outcome.value is not None else "invalid"
            if outcome.value is not particle.value:
                errors += 1
            details.append((position, particle.value.value, got, outcome.raw))
        elif particle.basis.kind is BasisKind.Z:
            case2.append(position)
        # SIFT on an X pair is case 3: dropped.
    rate = errors / measured if measured else 0.0
    abort: Verdict | None = None
    if rate > config.tolerable_error_rate:
        abort = Verdict.ABORTED_INSECURE_CHANNEL
    elif len(case2) < 2 * config.l:
        abort = Verdict.ABORTED_INSUFFICIENT_PARTICLES
    return CaseOutcome(errors, measured, case2, abort, details)


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
    sequence = tp_prepare_sequence(config, rng)
    transcript.record(
        "tp_prepare",
        participant=participant,
        pairs=len(sequence),
        bases=[p.basis.kind.value for p in sequence],
        values=[p.value.value for p in sequence],
    )
    tp_qubits = 2 * len(sequence)

    thetas_out = []
    in_flight = []
    for particle in sequence:
        theta = config.theta_policy.sample(rng)
        thetas_out.append(theta)
        state = apply_family_noise(particle.state, family, theta)
        state, _ = apply_attack(config.attack, state, rng)
        in_flight.append(state)
    transcript.record("channel", participant=participant, leg="tp_to_p", thetas=thetas_out)

    outgoing, record = participant_process(in_flight, family, rng)
    participant_qubits = 2 * sum(1 for op in record.operations if op is Operation.SIFT)
    transcript.record(
        "participant_record",
        participant=participant,
        operations=[op.value for op in record.operations],
        sift_bits=[[pos, record.sift_bits[pos]] for pos in sorted(record.sift_bits)],
        sift_raw=[[pos, record.sift_raw[pos]] for pos in sorted(record.sift_raw)],
    )

    thetas_back = []
    returned = []
    for state in outgoing:
        theta = config.theta_policy.sample(rng)
        thetas_back.append(theta)
        returned.append(apply_family_noise(state, family, theta))
    transcript.record("channel", participant=participant, leg="p_to_tp", thetas=thetas_back)

    z_positions = [p.original_index for p in sequence if p.basis.kind is BasisKind.Z]
    transcript.record("tp_announce_z_positions", participant=participant, positions=z_positions)
    transcript.record(
        "participant_announce",
        participant=participant,
        permutation=record.permutation,
        operations=[op.value for op in record.operations],
    )

    case = tp_classify_and_check(
        returned, record.permutation, record.operations, sequence, config, rng
    )
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

    by_position = {p.original_index: p for p in sequence}

    def reveal(positions: list[int]) -> list[LogicalValue]:
        return [by_position[p].value for p in positions]

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
    m_bits = [by_position[p].value.bit for p in message_positions]
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
