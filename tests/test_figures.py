import numpy as np
import pytest
from circuit_reference import (
    apply_readout,
    apply_single,
    build_codeword,
    probabilities,
    ry,
    rz,
)

from dfq.encoding import BasisKind, EncodingFamily, LogicalBasis, LogicalValue
from dfq.figures import (
    FIGURE_IDS,
    NOISE_ANGLE,
    SCENARIOS,
    check_histogram,
    expected_distribution,
    run_scenario,
)

# Frozen outcome distributions over ("00", "01", "10", "11").
EXPECTED = {
    "fig1": [0.0, 0.0, 0.0, 1.0],
    "fig2": [0.0, 0.5, 0.0, 0.5],
    "fig3": [0.0, 0.5, 0.5, 0.0],
    "fig4": [0.0, 0.5, 0.5, 0.0],
    "fig5": [0.25, 0.25, 0.25, 0.25],
    "fig6": [0.25, 0.25, 0.25, 0.25],
}


def test_the_six_scenarios_exist():
    assert FIGURE_IDS == tuple(f"fig{k}" for k in range(1, 7))
    families, sent, sift = zip(*SCENARIOS.values())
    assert families == (EncodingFamily.DEPHASING,) * 3 + (EncodingFamily.ROTATION,) * 3
    # every scenario ships the minus codeword; in the "fake" ones the
    # attacker has put a zero on the channel in its place
    minus, zero = LogicalValue.MINUS, LogicalValue.ZERO
    assert sent == (minus, zero, minus, minus, zero, minus)
    assert sift == (False, False, True, False, False, True)
    with pytest.raises(TypeError):
        SCENARIOS["fig7"] = SCENARIOS["fig1"]


@pytest.mark.parametrize("fig_id", list(EXPECTED))
def test_expected_distribution_oracles(fig_id):
    np.testing.assert_allclose(expected_distribution(fig_id), EXPECTED[fig_id], atol=1e-12)


def _circuit_distribution(fig_id, theta):
    """The scenario run gate by gate: the sent codeword's circuit, RZ(theta)
    or RY(theta) on both qubits, then the X readout circuit for CTRL."""
    family, sent, sift = SCENARIOS[fig_id]
    state = build_codeword(family, sent)
    gate = rz(theta) if family is EncodingFamily.DEPHASING else ry(theta)
    state = apply_single(apply_single(state, gate, 1), gate, 2)
    if not sift:
        state = apply_readout(state, LogicalBasis(BasisKind.X, family))
    return probabilities(state)


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_distributions_match_the_gate_circuits(fig_id):
    thetas = [NOISE_ANGLE, *np.random.default_rng(53).uniform(-2 * np.pi, 2 * np.pi, 50)]
    for theta in thetas:
        got = expected_distribution(fig_id, theta)
        assert all(type(p) is float for p in got)
        np.testing.assert_allclose(got, _circuit_distribution(fig_id, theta), rtol=0, atol=1e-15)


@pytest.mark.parametrize("fig_id", ["fig1", "fig2", "fig3"])
def test_dephasing_zero_outcomes_are_exactly_zero(fig_id):
    rng = np.random.default_rng(54)
    for theta in [NOISE_ANGLE, *rng.uniform(-2 * np.pi, 2 * np.pi, 50)]:
        got = expected_distribution(fig_id, theta)
        zeros = [p for p, frozen in zip(got, EXPECTED[fig_id]) if frozen == 0.0]
        assert zeros == [0.0] * len(zeros)


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_counts_cover_every_outcome_and_add_up_to_the_shots(fig_id):
    counts = run_scenario(fig_id, 333, np.random.default_rng(55))
    assert counts.shape == (4,) and counts.dtype.kind == "i"
    assert counts.sum() == 333 and (counts >= 0).all()
    # an outcome the scenario cannot produce is counted as zero
    impossible = np.array(EXPECTED[fig_id]) == 0.0
    assert (counts[impossible] == 0).all()


@pytest.mark.parametrize("shots", [0, -3])
def test_shots_must_be_positive(shots):
    rng = np.random.default_rng(56)
    with pytest.raises(ValueError, match="shots must be positive"):
        run_scenario("fig1", shots, rng)
    # refused before the first draw
    assert rng.random() == np.random.default_rng(56).random()


class TestHistogramCheck:
    def test_flags_shifted_distribution(self):
        bad = np.array([3000, 2000, 2500, 2500])
        status, detail = check_histogram(bad, [0.25, 0.25, 0.25, 0.25])
        assert (status, detail) == ("FAIL", "outcome 00: 3000 is more than 4 sigma from 2500.0")
        # 4 sigma at 10^4 shots and p = 1/4 is 173.2 counts
        assert check_histogram([2673, 2327, 2500, 2500], [0.25] * 4) == ("PASS", "")
        assert check_histogram([2674, 2326, 2500, 2500], [0.25] * 4)[0] == "FAIL"

    def test_exact_rows_need_exact_counts(self):
        wrong = np.array([1, 0, 0, 9999])
        status, detail = check_histogram(wrong, [0.0, 0.0, 0.0, 1.0])
        assert (status, detail) == ("FAIL", "outcome 00: expected exactly 0, got 1")

    def test_small_samples_are_skipped(self):
        half = [0.0, 0.5, 0.5, 0.0]
        assert check_histogram([0, 40, 59, 0], half) == ("SKIPPED", "needs at least 100 shots, got 99")
        assert check_histogram([0, 41, 59, 0], half) == ("PASS", "")

