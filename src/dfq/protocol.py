"""End-to-end execution of the two private comparison protocols.

A third party (TP) with full quantum ability helps n participants decide
whether their l-bit secrets are all equal, without the participants
revealing them to each other. TP learns more than the verdict: whenever
the recorded message bits match its prepared ones, as in every honest run
that reaches step 6, its u_i XOR u_{i+1} equals s_i XOR s_{i+1}, so it
learns every adjacent XOR of the secrets (see step 6). Participants
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
   run as evidence of a dishonest TP. An invalid recorded reading (a
   codespace escape) counts as a disagreement.
5. The participant skips the untested retained pairs whose recorded
   reading is invalid, picks l message pairs from the usable rest and
   announces r_j = key_j XOR secret_j XOR recorded_bit_j. Fewer than l
   usable pairs abort the run (AbortedInsufficientParticles).
6. After all sessions TP forms u_{i,j} = prepared_bit XOR r_{i,j} and the
   pairwise sums C_j; all C_j zero means all secrets are equal.

The pre-shared key comes from a stub standing in for a semi-quantum key
distribution session among the participants; TP never sees it, so the
announced r values alone look uniform to TP no matter what the secrets
are. Unmasked with TP's own bit records they give u_i = key XOR s_i, and
the key cancels in the pairwise sums; a participant colluding with TP hands
it the key, and then u_i XOR key is every s_i.

Every run is driven by one Generator seeded with ``config.seed``, and the
transcript of events replays byte for byte given the same config and secrets.
A session's steps return one ``SessionRecord``: its draws, the channel bits
and readings, the ``CaseOutcome``, the ``HonestyCheck``, the message
positions, r bits and abort. ``run_protocol`` returns the records in a
``ProtocolTranscript``, which renders its events from them (and from the
config and the comparison) each time it is read: a caller that reads only
the records, as ``dfq run`` does without ``write_transcripts``, builds no
event.

A session first makes every draw of steps 1-3 (``draw_session``), then runs
``session_pass``, one ``dfq.attacks.pair_pass`` over its rows: the pass the
Monte Carlo harness runs too. Every pair crosses leg 1 and the attack. TP
never measures the product states returned for SIFT pairs, so they are not
simulated; the permutation only moves the leg-2 angles onto the CTRL pairs.
One ``measure_rows`` call reads every pair.

Steps 3-5 then read the session's arrays, the prepared and the decoded
value index per position: TP's tally, the step-4 check of TP's claimed
values against the participant's readings and step 5's pick of message
pairs are index and mask operations on them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .attacks import NO_ATTACK, AttackModel, _check_rows, pair_pass
from .encoding import INVALID, PAIR_NAMES, VALUE_NAMES, EncodingFamily

__all__ = [
    "ThetaPolicy",
    "ProtocolConfig",
    "Secret",
    "SharedKey",
    "ProtocolTranscript",
    "Verdict",
    "CaseOutcome",
    "HonestyCheck",
    "ComparisonResult",
    "tp_prepare_sequence",
    "participant_draws",
    "SessionDraws",
    "draw_session",
    "session_pass",
    "SessionRecord",
    "tp_tally",
    "participant_verify_tp",
    "encode_announcement",
    "tp_compare",
    "run_protocol",
]


# Name tables for the transcript, looked up with whole index arrays.
# _OPERATION_NAMES is indexed by the sift flag.
_OPERATION_NAMES = np.array(["CTRL", "SIFT"], dtype=object)
_BASIS_NAMES = np.array(["Z", "X"], dtype=object)  # by value index >> 1
_VALUE_NAMES = np.array([*VALUE_NAMES, "invalid"], dtype=object)  # INVALID (-1) is "invalid"
_PAIR_NAMES = np.array(PAIR_NAMES, dtype=object)  # by the channel bits read
_BITS = np.array([0, 1, None], dtype=object)  # a Z reading's bit; INVALID (-1) is None


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
        if self.kind == "random" and self.value != 0.0:
            raise ValueError(f"a random theta policy takes no value, got {self.value}")

    @property
    def draws(self) -> int:
        """Doubles drawn per angle: one for a random angle, none for a fixed one."""
        return int(self.kind == "random")

    def angles(self, doubles: np.ndarray | None, count: int) -> np.ndarray:
        """``count`` angles: the fixed value, or uniform(0, 2 pi) as 2 pi times each double."""
        if self.kind == "fixed":
            return np.full(count, self.value)
        return 2.0 * math.pi * doubles

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """One angle per pair for ``count`` pairs."""
        return self.angles(rng.random(self.draws * count), count)

    def sample_with_uniforms(self, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Angles and one more uniform per pair, drawn pair by pair: the angle, then the uniform."""
        doubles = rng.random((self.draws + 1) * count).reshape(count, self.draws + 1)
        return self.angles(doubles[:, 0], count), doubles[:, -1]

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
            if "value" in data:
                raise ValueError("a random theta policy takes no 'value' field")
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
            pairs = self.pairs_per_participant
        except OverflowError:  # the budget is infinite as a float
            pairs = math.inf
        _check_rows(("n", self.n), (f"pairs per participant (l={self.l}, delta={self.delta})", pairs))

    # computed once per config: every session's tp_prepare_sequence reads them
    @cached_property
    def num_z_pairs(self) -> int:
        return _ceil_count(4 * self.l * (1.0 + self.delta))

    @cached_property
    def num_x_pairs(self) -> int:
        return _ceil_count(self.l * (1.0 + self.delta))

    @property
    def pairs_per_participant(self) -> int:
        return self.num_z_pairs + self.num_x_pairs


@dataclass(frozen=True)
class Secret:
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) < 1:
            raise ValueError("need at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    @classmethod
    def random(cls, l: int, rng: np.random.Generator) -> "Secret":
        return cls(tuple(int(b) for b in rng.integers(0, 2, l)))

    @classmethod
    def from_string(cls, text: str) -> "Secret":
        return cls(tuple(int(c) for c in text))


class SharedKey(Secret):
    """The participants' pre-shared key; TP never sees it. ``SharedKey.random``
    stands in for their key-distribution session. Never equal to a ``Secret``."""


# CaseOutcome and HonestyCheck hold position arrays, which have no single
# truth value, so they compare by identity; compare their fields instead.
@dataclass(eq=False)
class CaseOutcome:
    """TP-side result of sorting one returned sequence."""

    case1_errors: int
    case1_total: int
    case2_positions: np.ndarray  # retained (SIFT on a Z pair) positions, ascending
    abort: Verdict | None

    @property
    def error_rate(self) -> float:
        return self.case1_errors / self.case1_total if self.case1_total else 0.0


@dataclass(eq=False)
class HonestyCheck:
    """Participant-side result of the step-4 check on TP."""

    error_rate: float
    test_positions: np.ndarray  # ascending
    remaining: np.ndarray  # the retained positions not tested, in retained order

    @property
    def abort(self) -> Verdict | None:
        return Verdict.ABORTED_DISHONEST_TP if self.error_rate > 0.0 else None


@dataclass
class ComparisonResult:
    u: tuple[tuple[int, ...], ...]
    c: tuple[int, ...]
    verdict: Verdict


def tp_prepare_sequence(config: ProtocolConfig, rng: np.random.Generator) -> np.ndarray:
    """Step 1: the shuffled sequence TP sends to one participant.

    Returns the prepared value index of every position (an index into
    ``VALUES``); ``CODEWORD_ROWS[family][values]`` are the pairs themselves.
    """
    # value indices: 0/1 are zero/one, 2/3 are plus/minus. One call draws the
    # same stream as one per basis: each bit takes one 32-bit word. Shuffling
    # in place makes the swaps, from the same draws, that permuting by
    # ``rng.permutation(len(values))`` makes.
    values = rng.integers(0, 2, config.num_z_pairs + config.num_x_pairs)
    values[config.num_z_pairs:] += 2
    rng.shuffle(values)
    return values


def participant_draws(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step 2's random draws for one session of ``count`` pairs, in the participant's order.

    Pair by pair, a coin of at least 0.5 means SIFT and the next draw is that
    pair's uniform; then the outgoing permutation. The coins are walked in
    vectorised calls, each drawing the fewest doubles the rest of the walk can
    use: one per coin left, plus one when a SIFT coin still waits for its
    uniform. So no call draws past the walk's last use, and the generator ends
    where a loop of scalar ``rng.random()`` calls would leave it. Returns the
    SIFT mask, the measurement uniform of every SIFT pair in position order,
    and the permutation.
    """
    sifted: list[bool] = []
    uniforms: list[float] = []
    waiting = False  # the last coin was SIFT and its uniform is not drawn yet
    while len(sifted) < count or waiting:
        for double in rng.random(count - len(sifted) + waiting).tolist():
            if waiting:
                uniforms.append(double)
                waiting = False
            else:
                waiting = double >= 0.5
                sifted.append(waiting)
    return np.array(sifted, dtype=bool), np.array(uniforms, dtype=float), rng.permutation(count)


@dataclass
class SessionDraws:
    """Every random input of one session up to TP's control readout, drawn by ``draw_session``."""

    values: np.ndarray  # prepared value index per position
    thetas_out: np.ndarray  # leg-1 angle per position
    attack_uniforms: np.ndarray | None  # one per position, for attacks that draw
    sifted: np.ndarray  # the participant's coin per position, True for SIFT
    sift_uniforms: np.ndarray  # one per SIFT position, in position order
    permutation: np.ndarray  # outgoing slot s carries position permutation[s]
    thetas_back: np.ndarray  # leg-2 angle per outgoing slot
    ctrl_uniforms: np.ndarray  # TP's readout uniform per CTRL position, in position order


def draw_session(config: ProtocolConfig, rng: np.random.Generator) -> SessionDraws:
    """Steps 1-3's draws for one session, in the order the stages consume them: TP's
    sequence, the leg-1 angles (with the attack's uniforms), the participant's
    coins and permutation, the leg-2 angles, then TP's readout uniforms, so the
    stream does not depend on the array pass."""
    values = tp_prepare_sequence(config, rng)
    count = len(values)
    if config.attack.draws:
        thetas_out, attack_uniforms = config.theta_policy.sample_with_uniforms(rng, count)
    else:
        thetas_out, attack_uniforms = config.theta_policy.sample(rng, count), None
    sifted, sift_uniforms, permutation = participant_draws(rng, count)
    thetas_back = config.theta_policy.sample(rng, count)
    return SessionDraws(values, thetas_out, attack_uniforms, sifted, sift_uniforms,
                        permutation, thetas_back, rng.random(count - len(sift_uniforms)))


def session_pass(config: ProtocolConfig, draws: SessionDraws) -> tuple[np.ndarray, np.ndarray]:
    """Steps 1-3's pair physics for one session: ``pair_pass`` over its rows.

    The participant reads each SIFT pair as it arrives. Each CTRL pair
    crosses leg 2 with the angle of the outgoing slot that carried it, then
    TP reads it in its preparation basis. Returns the channel bits read (an
    index into ``PAIR_NAMES``) and the decoded value index (INVALID for a
    codespace escape) per position: the participant's reading at SIFT
    positions, TP's at CTRL positions.
    """
    sifted = draws.sifted
    ctrl = ~sifted
    slot = np.empty_like(draws.permutation)
    slot[draws.permutation] = np.arange(len(slot))
    uniforms = np.empty(len(slot))
    uniforms[sifted] = draws.sift_uniforms
    uniforms[ctrl] = draws.ctrl_uniforms
    return pair_pass(config.family, config.attack, draws.values, ctrl, draws.thetas_out,
                     draws.attack_uniforms, draws.thetas_back[slot[ctrl]], uniforms)


def tp_tally(
    read: np.ndarray, sifted: np.ndarray, values: np.ndarray, config: ProtocolConfig
) -> CaseOutcome:
    """Step 3's tally: count CTRL errors and sort the three cases.

    ``read`` is TP's decoded value per position (only CTRL positions are
    looked at), ``values`` the prepared one and ``sifted`` the announced
    operations, a bool array (True for SIFT), each over the whole sequence
    in TP's order. The channel error rate is checked before the
    retained-pair count.
    """
    ctrl = ~sifted
    measured = int(np.count_nonzero(ctrl))
    errors = int(np.count_nonzero(read[ctrl] != values[ctrl]))
    # SIFT on a Z pair is case 2 (retained); SIFT on an X pair is case 3 (dropped).
    case2 = np.flatnonzero(sifted & (values < 2))
    rate = errors / measured if measured else 0.0
    abort: Verdict | None = None
    if rate > config.tolerable_error_rate:
        abort = Verdict.ABORTED_INSECURE_CHANNEL
    elif len(case2) < 2 * config.l:
        abort = Verdict.ABORTED_INSUFFICIENT_PARTICLES
    return CaseOutcome(errors, measured, case2, abort)


def participant_verify_tp(
    case2_positions: np.ndarray, recorded: np.ndarray, claimed: np.ndarray,
    family: EncodingFamily, l: int, rng: np.random.Generator,
) -> HonestyCheck:
    """Step 4: spot-check TP's claimed initial values against recorded bits.

    ``recorded`` and ``claimed`` are value indices per sequence position: the
    participant's decoded reading (INVALID for a codespace escape) and the
    value TP claims it prepared; only the tested positions are read, from
    ``case2_positions``, which holds at least ``2 * l`` (step 3 aborts
    otherwise). The dephasing protocol tests exactly ``l`` pairs, the
    rotation one half of the retained set. An invalid reading, or a claim
    that is not a Z value, counts as a mismatch.
    """
    count = len(case2_positions)
    num_tests = l if family is EncodingFamily.DEPHASING else count // 2
    picks = rng.choice(count, size=num_tests, replace=False)
    tests = np.sort(case2_positions[picks])
    mismatches = int(np.count_nonzero(recorded[tests] != claimed[tests]))
    untested = np.ones(count, dtype=bool)
    untested[picks] = False
    return HonestyCheck(mismatches / num_tests, tests, case2_positions[untested])


def encode_announcement(secret: Secret, key: SharedKey, message_bits: list[int]) -> list[int]:
    """Step 5: r_j = key_j XOR secret_j XOR recorded_bit_j, for one recorded bit
    (0 or 1) per bit of the secret and of the key, which are as long."""
    return [k ^ x ^ m for x, k, m in zip(secret.bits, key.bits, message_bits)]


def tp_compare(r_rows: list[list[int]], m_rows: list[list[int]]) -> ComparisonResult:
    """Step 6: unmask against TP's own bit records and sum adjacent XORs, for
    rows of l bits each, one per participant (two or more) in both lists."""
    n = len(r_rows)
    l = len(r_rows[0])
    u = tuple(tuple(m ^ r for m, r in zip(m_row, r_row)) for m_row, r_row in zip(m_rows, r_rows))
    c = tuple(sum(u[i][j] ^ u[i + 1][j] for i in range(n - 1)) for j in range(l))
    verdict = Verdict.ALL_EQUAL if all(v == 0 for v in c) else Verdict.NOT_ALL_EQUAL
    return ComparisonResult(u, c, verdict)


@dataclass(eq=False)
class SessionRecord:
    """What one session computed, returned by ``_run_session``; the transcript
    renders the session's events from it, so treat it as read-only.

    ``check`` is None if step 3 aborted. ``message_positions`` (ascending) and
    ``r_bits`` are None unless step 5 ran, and empty if step 5 aborted.
    """

    draws: SessionDraws
    pairs: np.ndarray  # channel bits read per position, an index into PAIR_NAMES
    read: np.ndarray  # decoded value index per position (see ``session_pass``)
    case: CaseOutcome
    check: HonestyCheck | None = None
    message_positions: np.ndarray | None = None
    r_bits: list[int] | None = None
    abort: Verdict | None = None

    @property
    def tp_qubits(self) -> int:
        return 2 * len(self.draws.values)

    @property
    def participant_qubits(self) -> int:
        return 2 * len(self.draws.sift_uniforms)  # one uniform per SIFT pair


def _run_session(
    config: ProtocolConfig, secret: Secret, key: SharedKey, rng: np.random.Generator
) -> SessionRecord:
    """Steps 1-5 of one session, up to the step that aborts it."""
    draws = draw_session(config, rng)
    pairs, read = session_pass(config, draws)
    values = draws.values
    case = tp_tally(read, draws.sifted, values, config)
    session = SessionRecord(draws, pairs, read, case, abort=case.abort)
    if case.abort is not None:
        return session
    # TP's claimed values are the prepared ones; the tested positions are SIFT
    # positions, where ``read`` holds the participant's readings.
    check = participant_verify_tp(case.case2_positions, read, values, config.family, config.l, rng)
    session.check, session.abort = check, check.abort
    if session.abort is not None:
        return session
    # An invalid recorded bit that survived step 4 is useless for masking;
    # the participant skips such pairs when picking message pairs.
    usable = check.remaining[read[check.remaining] != INVALID]
    if len(usable) < config.l:
        session.message_positions, session.r_bits = usable[:0], []
        session.abort = Verdict.ABORTED_INSUFFICIENT_PARTICLES
        return session
    picks = rng.choice(len(usable), size=config.l, replace=False)
    session.message_positions = np.sort(usable[picks])
    # a Z value index is its bit, for the reading and the prepared value alike
    session.r_bits = encode_announcement(secret, key, read[session.message_positions].tolist())
    return session


def _name(verdict: Verdict | None) -> str | None:
    return verdict.value if verdict else None


def _session_events(participant: int, session: SessionRecord) -> list[dict]:
    """One session's events in step order, up to the step that ended it."""
    draws, pairs, read, case = session.draws, session.pairs, session.read, session.case
    values, sifted = draws.values, draws.sifted
    sift_positions, ctrl = np.flatnonzero(sifted), np.flatnonzero(~sifted)
    operations = _OPERATION_NAMES[sifted.view(np.int8)].tolist()

    def event(name: str, **fields) -> dict:
        return {"event": name, "participant": participant, **fields}

    def at_sift_positions(names: np.ndarray, codes: np.ndarray) -> list[list]:
        return list(map(list, zip(sift_positions.tolist(), names[codes[sift_positions]].tolist())))

    case1_results = zip(ctrl.tolist(), _VALUE_NAMES[values[ctrl]].tolist(),
                        _VALUE_NAMES[read[ctrl]].tolist(), _PAIR_NAMES[pairs[ctrl]].tolist())
    events = [
        event("tp_prepare", pairs=len(values), bases=_BASIS_NAMES[values >> 1].tolist(),
              values=_VALUE_NAMES[values].tolist()),
        event("channel", leg="tp_to_p", thetas=draws.thetas_out.tolist()),
        event("participant_record", operations=operations, sift_bits=at_sift_positions(_BITS, read),
              sift_raw=at_sift_positions(_PAIR_NAMES, pairs)),
        event("channel", leg="p_to_tp", thetas=draws.thetas_back.tolist()),
        event("tp_announce_z_positions", positions=np.flatnonzero(values < 2).tolist()),
        # a list of its own: no two returned events share one
        event("participant_announce", permutation=draws.permutation.tolist(),
              operations=operations.copy()),
        event("case1_check", results=list(map(list, case1_results)), errors=case.case1_errors,
              total=case.case1_total, error_rate=case.error_rate),
        event("case_tally", case2_count=len(case.case2_positions),
              case2_positions=case.case2_positions.tolist(), abort=_name(case.abort)),
    ]
    check = session.check
    if check is not None:
        tests = check.test_positions
        events.append(event("step4", test_positions=tests.tolist(),
                            revealed=_VALUE_NAMES[values[tests]].tolist(),
                            error_rate=check.error_rate, abort=_name(check.abort)))
    if session.r_bits is not None:
        events.append(event("step5", message_positions=session.message_positions.tolist(),
                            r=list(session.r_bits), abort=_name(session.abort)))
    return events


_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"))


@dataclass(eq=False)
class ProtocolTranscript:
    """One run's event log, rendered from its records on every read; one JSON
    object per line when serialized.

    ``sessions`` holds each session's ``SessionRecord`` in run order, a
    session's participant number being its 1-based position. ``events``,
    ``find`` and ``to_jsonl`` build every event afresh from the config, the
    records and the result: a caller that reads none of them builds no event,
    and changing a returned event leaves the transcript as it was.
    """

    config: ProtocolConfig
    sessions: list[SessionRecord]
    result: ComparisonResult

    @property
    def events(self) -> list[dict]:
        config, sessions, result = self.config, self.sessions, self.result
        events = [{
            "event": "run_config", "family": config.family.value, "n": config.n, "l": config.l,
            "delta": config.delta, "theta_policy": config.theta_policy.to_dict(), "seed": config.seed,
            "attack": config.attack.to_dict(), "tolerable_error_rate": config.tolerable_error_rate,
        }]
        for participant, session in enumerate(sessions, 1):
            events += _session_events(participant, session)
        if sessions[-1].abort is None:
            events.append({"event": "comparison", "u": [list(row) for row in result.u],
                           "c": list(result.c), "verdict": result.verdict.value})
        events.append({
            "event": "run_summary",
            "tp_qubits_prepared": sum(s.tp_qubits for s in sessions),
            "participant_qubits_prepared": sum(s.participant_qubits for s in sessions),
            "verdict": result.verdict.value,
        })
        return events

    def find(self, event: str) -> list[dict]:
        return [e for e in self.events if e["event"] == event]

    def to_jsonl(self) -> str:
        return "".join(_JSON_ENCODER.encode(e) + "\n" for e in self.events)


def run_protocol(
    config: ProtocolConfig, secrets: list[Secret]
) -> tuple[ComparisonResult, ProtocolTranscript]:
    """Run every session and the final comparison on the generator seeded with
    ``config.seed``; never raises on aborts. Each session's ``SessionRecord``
    is on the returned transcript's ``sessions`` list, in run order."""
    if len(secrets) != config.n:
        raise ValueError(f"need {config.n} secrets, got {len(secrets)}")
    if any(len(s) != config.l for s in secrets):
        raise ValueError(f"every secret must be {config.l} bits long")
    rng = np.random.default_rng(config.seed)
    key = SharedKey.random(config.l, rng)
    sessions: list[SessionRecord] = []
    for secret in secrets:
        sessions.append(_run_session(config, secret, key, rng))
        if sessions[-1].abort is not None:
            result = ComparisonResult((), (), sessions[-1].abort)
            break
    else:
        # a Z value index is its bit, so TP's bit records are its prepared values there
        result = tp_compare([s.r_bits for s in sessions],
                            [s.draws.values[s.message_positions].tolist() for s in sessions])
    return result, ProtocolTranscript(config, sessions, result)
