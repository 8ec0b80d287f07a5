"""Test-only references: earlier forms of code that ``dfq`` has replaced,
and the forced-coin session draws.

``tp_prepare_sequence`` is TP's step 1 as it was before it drew both
bases' bits with one call: one call per basis, then a ``concatenate``. A
test checks that the one-call form draws the same values and leaves the
generator in the same state; ``draw_session_forced`` runs it.

``draw_session_forced`` is ``draw_session`` with every participant coin
pinned to one operation: no coin is drawn, and each SIFT pair still draws
its uniform. The all-CTRL and all-SIFT sessions are test data, not a
protocol option.

``rotation_noise_reference`` and ``sample_outcomes_reference`` are the
rotation branch of ``apply_family_noise`` and ``sample_outcomes`` as they
were before those kernels ran along the pair axis, and
``monte_carlo_detection_per_block`` is the Monte Carlo harness that made
one ``pair_pass`` per draw block and one generator call per per-row input.
Tests check that the kernels match bit for bit and that the harness gives
equal reports.

``pair_pass`` is the version that carried every pair as a row of 8
amplitudes, the probe's included, whatever the attack: it widens the
codewords with the probe in |0> (``probe_zero``, which the tests use to
widen rows too), hands ``Entangle``, which adjoins the probe itself, the
pair columns of those rows, and widens the 4-wide rows that the other
kinds return. The per-block harness runs it. Tests check that the pass on
4-amplitude rows reads the same channel bits and values.

The session itself is checked against ``spec``, not against an earlier
version of it.
"""

from __future__ import annotations

import numpy as np

from dfq.attacks import (
    BLOCK_ROWS,
    AttackModel,
    DetectionReport,
    Entangle,
    _binomial_stderr,
    closed_form_detection,
)
from dfq.encoding import (
    _ROTATION_SIGNS,
    CODEWORD_ROWS,
    ROW_DIM,
    EncodingFamily,
    apply_family_noise,
    measure_rows,
)
from dfq.protocol import Operation, ProtocolConfig, SessionDraws
from dfq.statevector import RandomSource


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


def draw_session_forced(config: ProtocolConfig, rng: RandomSource, operation: Operation) -> SessionDraws:
    """``draw_session``'s draws in its order, with the participant's coins pinned."""
    values = tp_prepare_sequence(config, rng)
    count = len(values)
    if config.attack.draws:
        thetas_out, attack_uniforms = config.theta_policy.sample_with_uniforms(rng, count)
    else:
        thetas_out, attack_uniforms = config.theta_policy.sample(rng, count), None
    sifted = np.full(count, operation is Operation.SIFT)
    sift_uniforms, permutation = rng.random(np.count_nonzero(sifted)), rng.permutation(count)
    thetas_back = config.theta_policy.sample(rng, count)
    return SessionDraws(values, thetas_out, attack_uniforms, sifted, sift_uniforms,
                        permutation, thetas_back, rng.random(count - len(sift_uniforms)))


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


def probe_zero(rows: np.ndarray) -> np.ndarray:
    """(N, 8) rows as they are, and (N, 4) pair rows with the probe in |0>."""
    if rows.shape[1] == ROW_DIM:
        return rows
    wide = np.zeros((len(rows), ROW_DIM), dtype=complex)
    wide[:, 0::2] = rows
    return wide


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
    pair is read in Z as it arrived. Returns the channel bits read and the
    decoded value index (INVALID for a codespace escape) of every pair, one
    uniform each.
    """
    rows = apply_family_noise(probe_zero(CODEWORD_ROWS[family][values]), family, thetas_out)
    if isinstance(model, Entangle):
        rows = model.apply_rows(rows[:, 0::2], attack_uniforms)
    else:
        rows = probe_zero(model.apply_rows(rows, attack_uniforms))
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
