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
from dataclasses import dataclass
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
from .protocol import Operation

NOISE_ANGLE = math.pi / 5.0
DEFAULT_SHOTS = 10_000
MIN_SHOTS_FOR_CHECK = 100

_SCENARIOS: dict[str, tuple[EncodingFamily, LogicalValue, LogicalValue | None, Operation]] = {
    "fig1": (EncodingFamily.DEPHASING, LogicalValue.MINUS, None, Operation.CTRL),
    "fig2": (EncodingFamily.DEPHASING, LogicalValue.MINUS, LogicalValue.ZERO, Operation.CTRL),
    "fig3": (EncodingFamily.DEPHASING, LogicalValue.MINUS, None, Operation.SIFT),
    "fig4": (EncodingFamily.ROTATION, LogicalValue.MINUS, None, Operation.CTRL),
    "fig5": (EncodingFamily.ROTATION, LogicalValue.MINUS, LogicalValue.ZERO, Operation.CTRL),
    "fig6": (EncodingFamily.ROTATION, LogicalValue.MINUS, None, Operation.SIFT),
}

FIGURE_IDS = tuple(_SCENARIOS)


@dataclass(frozen=True)
class FigureScenario:
    fig_id: str
    family: EncodingFamily
    prepared: LogicalValue
    fake: LogicalValue | None  # codeword substituted on the channel, if any
    operation: Operation
    shots: int = DEFAULT_SHOTS

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError("shots must be positive")

    @classmethod
    def from_id(cls, fig_id: str, shots: int = DEFAULT_SHOTS) -> "FigureScenario":
        if fig_id not in _SCENARIOS:
            raise ValueError(f"unknown scenario {fig_id!r}; known: {list(_SCENARIOS)}")
        family, prepared, fake, operation = _SCENARIOS[fig_id]
        return cls(fig_id, family, prepared, fake, operation, shots)


def all_scenarios(shots: int = DEFAULT_SHOTS) -> list[FigureScenario]:
    return [FigureScenario.from_id(fig_id, shots) for fig_id in FIGURE_IDS]


@dataclass(frozen=True)
class Histogram:
    """Shot counts per two-bit outcome; only outcomes that occurred appear."""

    counts: dict[str, int]
    shots: int

    def __post_init__(self) -> None:
        if any(v <= 0 for v in self.counts.values()):
            raise ValueError("histogram rows must have positive counts")
        if sum(self.counts.values()) != self.shots:
            raise ValueError("histogram counts do not add up to the shot count")


def expected_distribution(scenario: FigureScenario, theta: float = NOISE_ANGLE) -> list[float]:
    """Exact outcome probabilities in the order 00, 01, 10, 11."""
    family = scenario.family
    sent = scenario.fake if scenario.fake is not None else scenario.prepared
    angle = theta if family is EncodingFamily.DEPHASING else theta / 2.0
    rows = apply_family_noise(prepare(family, sent)[None, :], family, [angle])
    if scenario.operation is Operation.CTRL:
        rows = read_x(rows, family)
    probs = rows.real**2 + rows.imag**2
    return [float(p) for p in probs[0]]


# Each scenario's expected_distribution at NOISE_ANGLE, computed once per process.
EXPECTED = MappingProxyType({f: tuple(expected_distribution(FigureScenario.from_id(f))) for f in FIGURE_IDS})


def run_scenario(scenario: FigureScenario, rng: np.random.Generator, expected: list[float]) -> Histogram:
    """Sample the scenario's measurement ``shots`` times from ``expected``, its
    ``expected_distribution``."""
    probs = np.array(expected)
    draws = rng.multinomial(scenario.shots, probs / probs.sum())
    counts = {PAIR_NAMES[k]: int(c) for k, c in enumerate(draws) if c > 0}
    return Histogram(counts, scenario.shots)


def check_histogram(hist: Histogram, expected: list[float]) -> tuple[str, str]:
    """Compare counts against probabilities at four binomial sigmas.

    Returns ("PASS"|"FAIL"|"SKIPPED", detail). Histograms with fewer than
    100 shots are skipped rather than judged on hopeless statistics.
    """
    if hist.shots < MIN_SHOTS_FOR_CHECK:
        return "SKIPPED", f"needs at least {MIN_SHOTS_FOR_CHECK} shots, got {hist.shots}"
    for k, p in enumerate(expected):
        outcome = PAIR_NAMES[k]
        observed = hist.counts.get(outcome, 0)
        mean = p * hist.shots
        sigma = math.sqrt(hist.shots * p * (1.0 - p))
        if sigma == 0.0:
            if observed != round(mean):
                return "FAIL", f"outcome {outcome}: expected exactly {round(mean)}, got {observed}"
        elif abs(observed - mean) > 4.0 * sigma:
            return "FAIL", (
                f"outcome {outcome}: {observed} is more than 4 sigma from {mean:.1f}"
            )
    return "PASS", ""
