"""Qubit accounting for the comparison protocols.

At the paper-convention operating point (delta = 0) each compared secret
bit costs five logical pairs from TP -- four checked or sifted in the Z
basis and one in X -- which is ten physical qubit preparations, plus an
expected five more from the participant re-preparing half the pairs.
That puts the qubit efficiency at

    xi = n*l / (10*n*l + 5*n*l) = 1/15

independent of n and l. The measured counterpart makes a session's
preparation draws -- TP's shuffled sequence and the participant's sift
coins, on the protocol's own stream -- and counts the participant
preparations those coins call for, which fluctuate with the coin. The
coins are those a session draws, from ``participant_draws``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .attacks import _check_rows
from .encoding import EncodingFamily
from .protocol import ProtocolConfig, participant_draws, tp_prepare_sequence

PAIRS_PER_SECRET_BIT = 5  # four Z pairs plus one X pair at delta = 0


@dataclass(frozen=True)
class EfficiencyReport:
    """Ideal-count qubit budget for one protocol run."""

    n: int
    l: int
    qubits_prepared_by_tp: int
    qubits_prepared_by_participants: int
    compared_bits: int
    xi: Fraction

    def to_dict(self) -> dict:
        xi = self.xi
        return {**asdict(self), "xi": f"{xi.numerator}/{xi.denominator}", "xi_float": float(xi)}


def ideal_report(n: int, l: int) -> EfficiencyReport:
    # n = 1 is pointless as a protocol but fine as accounting: the ratio
    # does not depend on n or l.
    if n < 1 or l < 1:
        raise ValueError("need n >= 1 participants and l >= 1 bits")
    tp = 2 * PAIRS_PER_SECRET_BIT * n * l
    participants = PAIRS_PER_SECRET_BIT * n * l
    return EfficiencyReport(
        n=n,
        l=l,
        qubits_prepared_by_tp=tp,
        qubits_prepared_by_participants=participants,
        compared_bits=n * l,
        xi=Fraction(n * l, tp + participants),
    )


@dataclass(frozen=True)
class MeasuredPreparation:
    """Participant preparation counts observed over repeated delta=0 runs."""

    runs: int
    mean_participant_qubits: float
    expected_participant_qubits: float
    stderr: float

    def to_dict(self) -> dict:
        return asdict(self)


def measure_preparation(n: int, l: int, runs: int, seed: int) -> MeasuredPreparation:
    """Count participant preparations over ``runs`` delta=0 preparation stages.

    Each run makes the preparation draws of all n sessions (TP's shuffled
    sequence, then the per-pair sift coin); abort logic is
    deliberately out of scope since every preparation happens before any
    check fires within a session. Each sifted pair costs the participant
    two qubits, so the per-run expectation is 5*n*l with binomial spread.

    Only the draws decide the count: the SIFT mask that
    ``participant_draws`` returns, so it does not depend on the encoding
    family. Each run draws on its own generator, one session after another.
    """
    if n < 1 or l < 1:
        raise ValueError("need n >= 1 participants and l >= 1 bits")
    if runs < 1:
        raise ValueError("runs must be positive")
    # the pair budget only depends on l and delta, so n=1 accounting can
    # borrow a two-party config and still loop n preparation stages
    config = ProtocolConfig(family=EncodingFamily.DEPHASING, n=max(n, 2), l=l, delta=0.0)
    count = config.pairs_per_participant
    _check_rows(("runs", runs), ("n", n), ("pairs per participant (delta=0)", count))
    total = 0
    for run_seed in np.random.SeedSequence(seed).generate_state(runs):
        rng = np.random.default_rng(int(run_seed))
        for _ in range(n):
            tp_prepare_sequence(config, rng)
            sifted, _, _ = participant_draws(rng, count)
            total += 2 * np.count_nonzero(sifted)
    expected = float(PAIRS_PER_SECRET_BIT * n * l)
    # Per-run count is 2*Binomial(5*n*l, 1/2), so its variance is 5*n*l.
    stderr = math.sqrt(PAIRS_PER_SECRET_BIT * n * l / runs)
    return MeasuredPreparation(runs, total / runs, expected, stderr)
