"""Reference circuit scenarios with published outcome histograms.

Six fixed scenarios exercise one travelling pair end to end: prepare a
minus codeword (or the fake zero codeword an intercepting eavesdropper
would substitute), hit both qubits with a noise gate, then read out the
way the protocol would. CTRL pairs get the family's X-basis readout;
SIFT pairs are measured bare. The per-qubit noise gate is RZ(pi/5) for
the dephasing family and RY(pi/5) for the rotation family, and every
expected distribution is independent of that angle, which is the whole
point of the encodings.

    fig1  dephasing  genuine  CTRL   100% "11"
    fig2  dephasing  faked    CTRL   50/50 on "01"/"11"
    fig3  dephasing  genuine  SIFT   50/50 on "01"/"10"
    fig4  rotation   genuine  CTRL   50/50 on "01"/"10"
    fig5  rotation   faked    CTRL   uniform over all four
    fig6  rotation   genuine  SIFT   uniform over all four

The distributions come from the same codewords, noise stage and X readout
as every other pair (``dfq.encoding``): RZ(theta) on both qubits is the
dephasing channel at theta, and RY(theta), a rotation by theta/2, is the
rotation channel at theta/2.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from types import MappingProxyType

import numpy as np

from .encoding import (
    PAIR_NAMES,
    EncodingFamily,
    LogicalValue,
    apply_family_noise,
    prepare,
    read_x,
)

NOISE_ANGLE = math.pi / 5.0
DEFAULT_SHOTS = 10_000
MIN_SHOTS_FOR_CHECK = 100

# fig_id -> (family, the codeword on the channel, SIFT flag). The protocol
# prepares minus in every scenario; in fig2 and fig5 an intercepting
# eavesdropper has put zero on the channel in its place.
SCENARIOS = MappingProxyType({
    "fig1": (EncodingFamily.DEPHASING, LogicalValue.MINUS, False),
    "fig2": (EncodingFamily.DEPHASING, LogicalValue.ZERO, False),
    "fig3": (EncodingFamily.DEPHASING, LogicalValue.MINUS, True),
    "fig4": (EncodingFamily.ROTATION, LogicalValue.MINUS, False),
    "fig5": (EncodingFamily.ROTATION, LogicalValue.ZERO, False),
    "fig6": (EncodingFamily.ROTATION, LogicalValue.MINUS, True),
})

FIGURE_IDS = tuple(SCENARIOS)


def expected_distribution(fig_id: str, theta: float = NOISE_ANGLE) -> list[float]:
    """Exact outcome probabilities in the order 00, 01, 10, 11."""
    family, sent, sift = SCENARIOS[fig_id]
    angle = theta if family is EncodingFamily.DEPHASING else theta / 2.0
    rows = apply_family_noise(prepare(family, sent)[None, :], family, [angle])
    if not sift:
        rows = read_x(rows, family)
    probs = rows.real**2 + rows.imag**2
    return probs[0].tolist()


# Each scenario's expected_distribution at NOISE_ANGLE, computed once per process.
EXPECTED = MappingProxyType({f: tuple(expected_distribution(f)) for f in FIGURE_IDS})


def run_scenario(fig_id: str, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Sample the scenario's measurement ``shots`` times from ``EXPECTED``;
    the count of each outcome in the order 00, 01, 10, 11."""
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = np.array(EXPECTED[fig_id])
    return rng.multinomial(shots, probs / probs.sum())


def check_histogram(counts: np.ndarray, expected: Sequence[float]) -> tuple[str, str]:
    """Compare outcome counts against probabilities at four binomial sigmas.

    Returns ("PASS"|"FAIL"|"SKIPPED", detail). Histograms with fewer than
    100 shots are skipped rather than judged on hopeless statistics.
    """
    counts = np.asarray(counts).tolist()
    shots = sum(counts)
    if shots < MIN_SHOTS_FOR_CHECK:
        return "SKIPPED", f"needs at least {MIN_SHOTS_FOR_CHECK} shots, got {shots}"
    for outcome, observed, p in zip(PAIR_NAMES, counts, expected):
        mean = p * shots
        sigma = math.sqrt(shots * p * (1.0 - p))
        if sigma == 0.0:
            if observed != round(mean):
                return "FAIL", f"outcome {outcome}: expected exactly {round(mean)}, got {observed}"
        elif abs(observed - mean) > 4.0 * sigma:
            return "FAIL", (
                f"outcome {outcome}: {observed} is more than 4 sigma from {mean:.1f}"
            )
    return "PASS", ""
