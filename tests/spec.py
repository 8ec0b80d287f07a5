"""An executable specification of a run, written from the steps 1-6 of the
``dfq.protocol`` module docstring.

Each session takes its random inputs from ``draw_session`` (or from
``draw_session_forced``), so the random stream stays that function's. The
pair physics then runs on the session's rows in the order the steps give:
leg 1 and the attack on every pair, after which a row holds 4 amplitudes,
or 8 if the attack adjoined a probe; the participant's Z reading of each
SIFT pair and the product state resent for it, at the same width with the
probe slot in |0>; the outgoing permutation; leg 2 on every slot; TP
undoing the permutation and reading each CTRL pair in its preparation
basis. Steps 3-6 are loops over Python lists, and each event is a dict
built as its step runs, so the transcript written here goes through none of
``dfq``'s session records or rendering.

``scalar_coins`` is the participant's coin walk one ``rng.random()`` call
at a time, as the docstring's step 2 reads.
"""

from __future__ import annotations

import json

import numpy as np

from dfq.encoding import (
    CODEWORD_ROWS,
    INVALID,
    PAIR_DIM,
    PAIR_NAMES,
    PAIR_ROWS,
    VALUE_NAMES,
    EncodingFamily,
    apply_family_noise,
    measure_rows,
)
from dfq.protocol import ComparisonResult, SharedKey, Verdict, draw_session


def scalar_coins(rng: np.random.Generator, count: int) -> tuple[list[int], list[float]]:
    """Step 2's coins pair by pair: a coin of at least 0.5 is SIFT, and a SIFT
    coin is followed by its pair's measurement uniform. Returns the SIFT
    positions and their uniforms."""
    positions, uniforms = [], []
    for index in range(count):
        if rng.random() >= 0.5:
            positions.append(index)
            uniforms.append(rng.random())
    return positions, uniforms


def readings(config, draws) -> tuple[list[int], list[int]]:
    """Steps 1-3's pair physics: the channel bits read (an index into
    ``PAIR_NAMES``) and the decoded value index (INVALID for a codespace
    escape) per position, the participant's at SIFT positions and TP's at
    CTRL ones."""
    family = config.family
    rows = apply_family_noise(CODEWORD_ROWS[family][draws.values], family, draws.thetas_out)
    rows = config.attack.apply_rows(rows, draws.attack_uniforms)
    sift, ctrl = np.flatnonzero(draws.sifted), np.flatnonzero(~draws.sifted)
    sift_bits, sift_read = measure_rows(rows[sift], family, np.zeros(len(sift), bool), draws.sift_uniforms)
    rows[sift] = 0.0
    rows[sift, ::rows.shape[1] // PAIR_DIM] = PAIR_ROWS[sift_bits]
    returned = apply_family_noise(rows[draws.permutation], family, draws.thetas_back)
    restored = np.empty_like(returned)
    restored[draws.permutation] = returned
    ctrl_bits, ctrl_read = measure_rows(restored[ctrl], family, draws.values[ctrl] >= 2, draws.ctrl_uniforms)
    pairs, read = np.empty(len(rows), int), np.empty(len(rows), int)
    pairs[sift], read[sift] = sift_bits, sift_read
    pairs[ctrl], read[ctrl] = ctrl_bits, ctrl_read
    return pairs.tolist(), read.tolist()


def tally(config, draws, read: list[int]) -> tuple[int, int, list[int], Verdict | None]:
    """Step 3: CTRL errors, CTRL pairs, the retained (SIFT on Z) positions and the abort."""
    values, sifted = draws.values.tolist(), draws.sifted.tolist()
    ctrl = [p for p, sift in enumerate(sifted) if not sift]
    errors = sum(read[p] != values[p] for p in ctrl)
    retained = [p for p, sift in enumerate(sifted) if sift and values[p] < 2]
    abort = None
    if ctrl and errors / len(ctrl) > config.tolerable_error_rate:
        abort = Verdict.ABORTED_INSECURE_CHANNEL
    elif len(retained) < 2 * config.l:
        abort = Verdict.ABORTED_INSUFFICIENT_PARTICLES
    return errors, len(ctrl), retained, abort


def _name(value: int) -> str:
    return "invalid" if value == INVALID else VALUE_NAMES[value]


def session(config, draws, secret, key, rng, participant: int, events: list[dict]):
    """Steps 1-5 of one session, appending its events: (abort, r bits, TP's bit records)."""
    def event(name: str, **fields) -> None:
        events.append({"event": name, "participant": participant, **fields})

    values, sifted = draws.values.tolist(), draws.sifted.tolist()
    pairs, read = readings(config, draws)
    operations = ["SIFT" if sift else "CTRL" for sift in sifted]
    sifts = [p for p, sift in enumerate(sifted) if sift]
    event("tp_prepare", pairs=len(values), bases=["Z" if v < 2 else "X" for v in values],
          values=[VALUE_NAMES[v] for v in values])
    event("channel", leg="tp_to_p", thetas=draws.thetas_out.tolist())
    event("participant_record", operations=operations,
          sift_bits=[[p, None if read[p] == INVALID else read[p]] for p in sifts],
          sift_raw=[[p, PAIR_NAMES[pairs[p]]] for p in sifts])
    event("channel", leg="p_to_tp", thetas=draws.thetas_back.tolist())
    event("tp_announce_z_positions", positions=[p for p, v in enumerate(values) if v < 2])
    event("participant_announce", permutation=draws.permutation.tolist(), operations=list(operations))

    errors, total, retained, abort = tally(config, draws, read)
    results = [[p, VALUE_NAMES[values[p]], _name(read[p]), PAIR_NAMES[pairs[p]]]
               for p, sift in enumerate(sifted) if not sift]
    event("case1_check", results=results, errors=errors, total=total,
          error_rate=errors / total if total else 0.0)
    event("case_tally", case2_count=len(retained), case2_positions=retained,
          abort=abort and abort.value)
    if abort:
        return abort, None, None

    # step 4: TP reveals the prepared values of the test pairs; an invalid
    # reading matches no Z value
    num_tests = config.l if config.family is EncodingFamily.DEPHASING else len(retained) // 2
    tests = sorted(retained[k] for k in rng.choice(len(retained), size=num_tests, replace=False))
    rate = sum(read[p] != values[p] for p in tests) / num_tests
    abort = Verdict.ABORTED_DISHONEST_TP if rate > 0 else None
    event("step4", test_positions=tests, revealed=[VALUE_NAMES[values[p]] for p in tests],
          error_rate=rate, abort=abort and abort.value)
    if abort:
        return abort, None, None

    # step 5: message pairs from the untested retained ones with a valid reading
    usable = [p for p in retained if p not in tests and read[p] != INVALID]
    if len(usable) < config.l:
        abort = Verdict.ABORTED_INSUFFICIENT_PARTICLES
        event("step5", message_positions=[], r=[], abort=abort.value)
        return abort, None, None
    messages = sorted(usable[k] for k in rng.choice(len(usable), size=config.l, replace=False))
    r = [k ^ s ^ read[p] for k, s, p in zip(key.bits, secret.bits, messages)]
    event("step5", message_positions=messages, r=r, abort=None)
    return None, r, [values[p] for p in messages]


def run(config, secrets) -> tuple[ComparisonResult, list[dict]]:
    """A whole run on the generator seeded with ``config.seed``: the result and the events."""
    rng = np.random.default_rng(config.seed)
    events = [{
        "event": "run_config", "family": config.family.value, "n": config.n, "l": config.l,
        "delta": config.delta, "theta_policy": config.theta_policy.to_dict(), "seed": config.seed,
        "attack": config.attack.to_dict(), "tolerable_error_rate": config.tolerable_error_rate,
    }]
    key = SharedKey.random(config.l, rng)
    r_rows, m_rows = [], []
    tp_qubits = participant_qubits = 0
    abort = None
    for participant, secret in enumerate(secrets, 1):
        draws = draw_session(config, rng)
        tp_qubits += 2 * len(draws.values)
        participant_qubits += 2 * int(draws.sifted.sum())
        abort, r, m = session(config, draws, secret, key, rng, participant, events)
        if abort:
            break
        r_rows.append(r)
        m_rows.append(m)
    if abort:
        result = ComparisonResult((), (), abort)
    else:
        # step 6: u = TP's bit record XOR r, and C_j sums adjacent differences
        u = [[m ^ r for m, r in zip(m_row, r_row)] for m_row, r_row in zip(m_rows, r_rows)]
        c = [sum(u[i][j] ^ u[i + 1][j] for i in range(len(u) - 1)) for j in range(config.l)]
        verdict = Verdict.NOT_ALL_EQUAL if any(c) else Verdict.ALL_EQUAL
        result = ComparisonResult(tuple(map(tuple, u)), tuple(c), verdict)
        events.append({"event": "comparison", "u": u, "c": c, "verdict": verdict.value})
    events.append({"event": "run_summary", "tp_qubits_prepared": tp_qubits,
                   "participant_qubits_prepared": participant_qubits, "verdict": result.verdict.value})
    return result, events


def to_jsonl(events: list[dict]) -> str:
    return "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in events)
