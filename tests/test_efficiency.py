import math
from fractions import Fraction

import numpy as np
import pytest

from spec import scalar_coins

from dfq import efficiency
from dfq.efficiency import (
    PAIRS_PER_SECRET_BIT,
    MeasuredPreparation,
    ideal_report,
    measure_preparation,
)
from dfq.encoding import EncodingFamily
from dfq.protocol import ProtocolConfig, tp_prepare_sequence


def test_ratio_is_one_fifteenth_for_any_size():
    for n in (2, 3, 5, 8):
        for l in (1, 4, 16):
            report = ideal_report(n, l)
            assert report.xi == Fraction(1, 15)
            assert report.qubits_prepared_by_tp == 10 * n * l
            assert report.qubits_prepared_by_participants == 5 * n * l
            assert report.compared_bits == n * l


def test_report_serialization():
    data = ideal_report(3, 8).to_dict()
    assert data["xi"] == "1/15"
    assert data["xi_float"] == pytest.approx(1 / 15)


def test_single_party_accounting_is_allowed():
    # useless as a protocol, but the ratio is n-independent arithmetic
    assert ideal_report(1, 1).xi == Fraction(1, 15)
    measured = measure_preparation(1, 2, runs=40, seed=3)
    assert measured.expected_participant_qubits == 10.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        ideal_report(0, 8)
    with pytest.raises(ValueError):
        ideal_report(3, 0)
    with pytest.raises(ValueError):
        measure_preparation(3, 8, 0, seed=1)
    for n in (0, -1):
        with pytest.raises(ValueError, match="need n >= 1 participants"):
            measure_preparation(n, 8, 10, seed=1)
    for l in (0, -1):
        with pytest.raises(ValueError, match="need n >= 1 participants and l >= 1 bits"):
            measure_preparation(3, l, 10, seed=1)


def test_rows_past_the_bound_are_refused_before_any_draw(monkeypatch):
    def draw(*args):
        raise AssertionError("a preparation draw ran")

    monkeypatch.setattr(efficiency, "tp_prepare_sequence", draw)
    monkeypatch.setattr(efficiency, "participant_draws", draw)
    monkeypatch.setattr(efficiency.np.random, "SeedSequence", draw)
    # runs * n * pairs per participant: 10**9 * 3 * 40 rows at delta = 0
    with pytest.raises(ValueError, match=r"runs \* n \* pairs per participant \(delta=0\) "
                                         r"= 1000000000 \* 3 \* 40 = 120000000000 pair rows"):
        measure_preparation(3, 8, 10**9, 0)


def test_measured_preparations_track_ideal_count():
    measured = measure_preparation(3, 8, runs=300, seed=5)
    assert measured.expected_participant_qubits == 120.0
    assert measured.stderr == pytest.approx((120 / 300) ** 0.5)
    deviation = abs(measured.mean_participant_qubits - 120.0)
    assert deviation < 4 * measured.stderr


@pytest.mark.parametrize(
    "args,expected",
    [
        ((3, 8, 50, 7), MeasuredPreparation(50, 120.92, 120.0, 1.5491933384829668)),
        ((2, 3, 40, 11), MeasuredPreparation(40, 29.75, 30.0, 0.8660254037844386)),
    ],
)
def test_measured_preparation_is_frozen_for_a_seed(args, expected):
    # pins the draw order of the preparation and sift-coin stages
    assert measure_preparation(*args) == expected


def per_run_preparation(n, l, runs, seed):
    """Reference: one run and one session at a time, each session's SIFTs
    counted from the specification's pair-by-pair coin walk."""
    if runs < 1:
        raise ValueError("runs must be positive")
    seeds = np.random.SeedSequence(seed).generate_state(runs)
    total = 0
    for run_seed in seeds:
        rng = np.random.default_rng(int(run_seed))
        # the pair budget only depends on l and delta, so n=1 accounting can
        # borrow a two-party config and still loop n preparation stages
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, n=max(n, 2), l=l, delta=0.0,
                                seed=int(run_seed))
        for _ in range(n):
            count = len(tp_prepare_sequence(config, rng))
            total += 2 * len(scalar_coins(rng, count)[0])
            rng.permutation(count)  # the outgoing permutation ends the session's draws
    expected = float(PAIRS_PER_SECRET_BIT * n * l)
    # Per-run count is 2*Binomial(5*n*l, 1/2), so its variance is 5*n*l.
    stderr = math.sqrt(PAIRS_PER_SECRET_BIT * n * l / runs)
    return MeasuredPreparation(runs, total / runs, expected, stderr)


@pytest.mark.parametrize("l", [1, 8])
@pytest.mark.parametrize("n", [1, 3])
def test_count_is_what_the_per_run_loop_counts(n, l):
    # the per-run reference walks the coins one draw at a time; the count walks
    # the batched draws. l = 1 and 8 give 5 (odd) and 40 pairs per session.
    assert measure_preparation(n, l, 235, 23) == per_run_preparation(n, l, 235, 23)
