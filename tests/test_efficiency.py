from fractions import Fraction

import pytest

from dfq.efficiency import MeasuredPreparation, ideal_report, measure_preparation
from dfq.encoding import EncodingFamily


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


def test_measured_preparations_track_ideal_count():
    measured = measure_preparation(3, 8, runs=300, seed=5)
    assert measured.expected_participant_qubits == 120.0
    assert measured.stderr == pytest.approx((120 / 300) ** 0.5)
    deviation = abs(measured.mean_participant_qubits - 120.0)
    assert deviation < 4 * measured.stderr


def test_measurement_is_deterministic():
    a = measure_preparation(2, 4, runs=50, seed=9)
    b = measure_preparation(2, 4, runs=50, seed=9)
    assert a == b


@pytest.mark.parametrize(
    "args,expected",
    [
        (
            (3, 8, 50, 7, EncodingFamily.DEPHASING),
            MeasuredPreparation(50, 120.92, 120.0, 1.5491933384829668),
        ),
        (
            (2, 3, 40, 11, EncodingFamily.ROTATION),
            MeasuredPreparation(40, 29.75, 30.0, 0.8660254037844386),
        ),
    ],
)
def test_measured_preparation_is_frozen_for_a_seed(args, expected):
    # pins the draw order of the preparation and sift-coin stages
    assert measure_preparation(*args) == expected
