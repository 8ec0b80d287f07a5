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
    DEFAULT_SHOTS,
    FIGURE_IDS,
    NOISE_ANGLE,
    FigureScenario,
    Histogram,
    all_scenarios,
    check_histogram,
    expected_distribution,
    run_scenario,
)
from dfq.protocol import Operation

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
    scenarios = {s.fig_id: s for s in all_scenarios()}
    assert scenarios["fig1"].family is EncodingFamily.DEPHASING
    assert scenarios["fig4"].family is EncodingFamily.ROTATION
    # every scenario ships the minus codeword; the "fake" ones have the
    # attacker substitute a zero before the return trip
    assert all(s.prepared is LogicalValue.MINUS for s in scenarios.values())
    assert scenarios["fig2"].fake is LogicalValue.ZERO
    assert scenarios["fig5"].fake is LogicalValue.ZERO
    assert scenarios["fig3"].operation is Operation.SIFT
    assert scenarios["fig6"].operation is Operation.SIFT


@pytest.mark.parametrize("fig_id", list(EXPECTED))
def test_expected_distribution_oracles(fig_id):
    scenario = FigureScenario.from_id(fig_id)
    np.testing.assert_allclose(
        expected_distribution(scenario), EXPECTED[fig_id], atol=1e-12
    )


def _circuit_distribution(scenario, theta):
    """The scenario run gate by gate: the sent codeword's circuit, RZ(theta)
    or RY(theta) on both qubits, then the X readout circuit for CTRL."""
    sent = scenario.fake if scenario.fake is not None else scenario.prepared
    state = build_codeword(scenario.family, sent)
    gate = rz(theta) if scenario.family is EncodingFamily.DEPHASING else ry(theta)
    state = apply_single(apply_single(state, gate, 1), gate, 2)
    if scenario.operation is Operation.CTRL:
        state = apply_readout(state, LogicalBasis(BasisKind.X, scenario.family))
    return probabilities(state)


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_distributions_match_the_gate_circuits(fig_id):
    scenario = FigureScenario.from_id(fig_id)
    thetas = [NOISE_ANGLE, *np.random.default_rng(53).uniform(-2 * np.pi, 2 * np.pi, 50)]
    for theta in thetas:
        got = expected_distribution(scenario, theta)
        assert all(type(p) is float for p in got)
        np.testing.assert_allclose(got, _circuit_distribution(scenario, theta), rtol=0, atol=1e-15)


@pytest.mark.parametrize("fig_id", ["fig1", "fig2", "fig3"])
def test_dephasing_zero_outcomes_are_exactly_zero(fig_id):
    scenario = FigureScenario.from_id(fig_id)
    rng = np.random.default_rng(54)
    for theta in [NOISE_ANGLE, *rng.uniform(-2 * np.pi, 2 * np.pi, 50)]:
        got = expected_distribution(scenario, theta)
        zeros = [p for p, frozen in zip(got, EXPECTED[fig_id]) if frozen == 0.0]
        assert zeros == [0.0] * len(zeros)


def test_distributions_do_not_depend_on_noise_angle():
    rng = np.random.default_rng(50)
    for scenario in all_scenarios():
        reference = expected_distribution(scenario, NOISE_ANGLE)
        for theta in rng.uniform(0, 2 * np.pi, 20):
            np.testing.assert_allclose(
                expected_distribution(scenario, theta), reference, atol=1e-10
            )


def test_fig1_is_deterministic():
    scenario = FigureScenario.from_id("fig1")
    hist = run_scenario(scenario, np.random.default_rng(51), expected_distribution(scenario))
    assert hist.counts == {"11": DEFAULT_SHOTS}


def test_faked_channels_leak_detectable_outcomes():
    """The two insecure scenarios put weight on outcomes that decode to
    plus even though minus was shipped — that weight is the detector."""
    fig2 = expected_distribution(FigureScenario.from_id("fig2"))
    assert fig2[1] > 0.0  # "01" decodes plus under the dephasing X readout
    fig5 = expected_distribution(FigureScenario.from_id("fig5"))
    assert fig5[0] > 0.0 and fig5[3] > 0.0  # "00"/"11" decode plus under rotation


def test_sampled_histograms_match_expectations():
    rng = np.random.default_rng(52)
    for scenario in all_scenarios(20_000):
        expected = expected_distribution(scenario)
        status, _ = check_histogram(run_scenario(scenario, rng, expected), expected)
        assert status == "PASS", scenario.fig_id


class TestHistogramCheck:
    def test_flags_shifted_distribution(self):
        bad = Histogram({"00": 3000, "01": 2000, "10": 2500, "11": 2500}, 10_000)
        status, detail = check_histogram(bad, [0.25, 0.25, 0.25, 0.25])
        assert status == "FAIL"
        assert "00" in detail

    def test_exact_rows_need_exact_counts(self):
        wrong = Histogram({"11": 9999, "00": 1}, 10_000)
        status, _ = check_histogram(wrong, [0.0, 0.0, 0.0, 1.0])
        assert status == "FAIL"

    def test_small_samples_are_skipped(self):
        tiny = Histogram({"01": 40, "10": 59}, 99)
        status, _ = check_histogram(tiny, [0.0, 0.5, 0.5, 0.0])
        assert status == "SKIPPED"

    def test_counts_must_sum_to_shots(self):
        with pytest.raises(ValueError):
            Histogram({"00": 5}, 10)
        with pytest.raises(ValueError):
            Histogram({"00": 0, "11": 10}, 10)  # zero entries are dropped upstream


def test_histograms_are_reproducible():
    scenario = FigureScenario.from_id("fig5")
    expected = expected_distribution(scenario)
    a = run_scenario(scenario, np.random.default_rng(77), expected)
    b = run_scenario(scenario, np.random.default_rng(77), expected)
    assert a.counts == b.counts
