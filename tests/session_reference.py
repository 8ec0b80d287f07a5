"""Test-only references: earlier forms of code that ``dfq`` has replaced,
and the forced-coin session draws.

``tp_prepare_sequence`` is TP's step 1 as it was before it drew both
bases' bits with one call: one call per basis, then a ``concatenate``. A
test checks that the one-call form draws the same values and leaves the
generator in the same state; ``draw_session_forced`` runs it.

``draw_session_forced`` is ``draw_session`` with every participant coin
pinned to one operation, CTRL or SIFT: no coin is drawn, and each SIFT pair still draws
its uniform. The all-CTRL and all-SIFT sessions are test data, not a
protocol option.

``rotation_noise_reference`` and ``sample_outcomes_reference`` are the
rotation branch of ``apply_family_noise`` and ``sample_outcomes`` as they
were before those kernels ran along the pair axis; tests check that the
kernels match them bit for bit.

The session and the Monte Carlo harness are checked against ``spec``, not
against earlier versions of them.
"""

from __future__ import annotations

import numpy as np

from dfq.encoding import _ROTATION_SIGNS
from dfq.protocol import ProtocolConfig, SessionDraws


def tp_prepare_sequence(config: ProtocolConfig, rng: np.random.Generator) -> np.ndarray:
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


def draw_session_forced(config: ProtocolConfig, rng: np.random.Generator, sift: bool) -> SessionDraws:
    """``draw_session``'s draws in its order, with every participant coin
    pinned to SIFT if ``sift`` is true and to CTRL if not."""
    values = tp_prepare_sequence(config, rng)
    count = len(values)
    if config.attack.draws:
        thetas_out, attack_uniforms = config.theta_policy.sample_with_uniforms(rng, count)
    else:
        thetas_out, attack_uniforms = config.theta_policy.sample(rng, count), None
    sifted = np.full(count, sift)
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
