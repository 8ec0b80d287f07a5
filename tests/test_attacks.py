"""Eavesdropping models: closed forms, Monte Carlo agreement and the
entangling-probe analysis."""

import tracemalloc

import numpy as np
import probes
import pytest
import spec
from circuit_reference import decode_pair, float_bits, to_rows

import dfq.attacks
from dfq.attacks import (
    BLOCK_ROWS,
    MAX_ROWS,
    NO_ATTACK,
    Entangle,
    EntangleParams,
    InterceptResend,
    MeasureResend,
    attack_from_dict,
    closed_form_detection,
    entangling_attack_analysis,
    monte_carlo_detection,
    pair_pass,
)
from dfq.encoding import (
    ALL_BASES,
    CODEWORD_ROWS,
    DECODE,
    INVALID,
    PAIR_NAMES,
    PAIR_ROWS,
    VALUE_INDEX,
    X_DP,
    X_R,
    Z_DP,
    Z_R,
    BasisKind,
    EncodingFamily,
    LogicalValue,
    apply_family_noise,
    measure_rows,
    read_x,
)
from dfq.protocol import ProtocolConfig, Secret, ThetaPolicy, Verdict, run_protocol


def _rows(family, value, count=1):
    return np.tile(CODEWORD_ROWS[family][VALUE_INDEX[value]], (count, 1))


def _z_outcomes(rows, family, uniforms):
    """What a Z-basis measure-resend reads from ``rows`` with these uniforms."""
    return measure_rows(rows, family, np.zeros(len(rows), dtype=bool), uniforms)


class TestApplyAttack:
    def test_no_attack_passes_state_through(self):
        rows = _rows(EncodingFamily.DEPHASING, LogicalValue.PLUS)
        assert NO_ATTACK.apply_rows(rows, None) is rows
        assert NO_ATTACK.kind == "none"

    def test_intercept_resend_substitutes_fake(self):
        rows = _rows(EncodingFamily.DEPHASING, LogicalValue.ONE)
        model = InterceptResend(fake_family=EncodingFamily.DEPHASING)
        out = model.apply_rows(rows, None)
        np.testing.assert_allclose(out, _rows(EncodingFamily.DEPHASING, LogicalValue.ZERO))
        # the genuine pair stays with the eavesdropper, untouched
        np.testing.assert_array_equal(rows, _rows(EncodingFamily.DEPHASING, LogicalValue.ONE))

    def test_measure_resend_collapses(self):
        model = MeasureResend(basis=Z_DP)
        uniforms = np.random.default_rng(2).random(30)
        rows = _rows(EncodingFamily.DEPHASING, LogicalValue.PLUS, 30)
        pairs, values = _z_outcomes(rows, EncodingFamily.DEPHASING, uniforms)
        out = model.apply_rows(rows, uniforms)
        assert {PAIR_NAMES[p] for p in pairs} == {"01", "10"}
        np.testing.assert_array_equal(out, CODEWORD_ROWS[EncodingFamily.DEPHASING][values])
        assert out.shape == (30, 4)  # no probe joins

    def test_entangle_expands_to_three_qubits(self):
        model = Entangle(EntangleParams.copy_first_qubit())
        out = model.apply_rows(_rows(EncodingFamily.DEPHASING, LogicalValue.ONE), None)
        # |10> with probe copying qubit 1 becomes |10>|1>
        assert out.shape == (1, 8)
        np.testing.assert_allclose(np.abs(out[0, 5]), 1.0, atol=1e-12)

    @pytest.mark.parametrize("count", (1, 80, BLOCK_ROWS + 1))
    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_leg_one_noise_commutes_with_adjoining_the_probe(self, family, count):
        """Leg-1 noise then the probe in |0> gives the rows that the probe
        in |0> then noise gives: the pair entries bit for bit, signed zeros
        included, and zeros of either sign at probe |1>. After the probe's
        unitary both orders give equal rows, so an entangled pair is the one
        a pass that carried the probe from preparation on would see."""
        rng = np.random.default_rng(61 + count)
        pool = np.vstack([*CODEWORD_ROWS.values(), PAIR_ROWS])
        rows = pool[rng.integers(0, len(pool), count)]
        probe_models = (EntangleParams.copy_first_qubit(), probes.haar_random(rng))
        for thetas in (rng.uniform(-7.0, 7.0, count), np.full(count, np.pi / 2), np.zeros(count)):
            narrow = apply_family_noise(rows, family, thetas)
            wide = apply_family_noise(to_rows(rows), family, thetas)
            assert np.array_equal(float_bits(wide[:, 0::2]), float_bits(narrow))
            assert not wide[:, 1::2].any()
            for params in probe_models:
                joined = Entangle(params).apply_rows(narrow, None)
                np.testing.assert_array_equal(joined, wide @ params.unitary.T)

    def test_measure_resend_forwards_invalid_outcomes_raw(self):
        """Cross-family eavesdropping: a computational readout of rotation
        traffic lands outside the dephasing codespace, and the collapsed
        product state travels on unchanged."""
        model = MeasureResend(basis=Z_DP)
        uniforms = np.random.default_rng(6).random(200)
        rows = _rows(EncodingFamily.ROTATION, LogicalValue.ZERO, 200)
        pairs, values = _z_outcomes(rows, EncodingFamily.DEPHASING, uniforms)
        out = model.apply_rows(rows, uniforms)
        assert (values == INVALID).all()
        assert {PAIR_NAMES[p] for p in pairs} == {"00", "11"}
        np.testing.assert_allclose(out, PAIR_ROWS[pairs])

    @pytest.mark.parametrize("count", (400, BLOCK_ROWS + 1))
    @pytest.mark.parametrize("basis", ALL_BASES)
    def test_measure_resend_forwards_each_row_by_its_own_reading(self, basis, count):
        """Codewords of both families, dephasing's turned by rotation noise, so
        that every reading of the basis occurs, escapes included. Each row
        forwards the codeword of the value ``measure_rows`` decodes in the
        basis, or the product state of the channel bits it reads, bit for
        bit whichever the other rows read."""
        model = MeasureResend(basis=basis)
        rng = np.random.default_rng(9)
        pool = np.vstack(list(CODEWORD_ROWS.values()))
        rows = apply_family_noise(pool[rng.integers(0, len(pool), count)], EncodingFamily.ROTATION,
                                  rng.uniform(0, 7, count))
        uniforms = rng.random(count)
        x_mask = np.full(count, basis.kind is BasisKind.X)
        pairs, values = measure_rows(rows, basis.family, x_mask, uniforms)
        out = model.apply_rows(rows, uniforms)
        assert set(values.tolist()) == set(DECODE[basis].tolist())
        expected = np.where((values == INVALID)[:, None], PAIR_ROWS[pairs],
                            CODEWORD_ROWS[basis.family][values])
        assert np.array_equal(float_bits(out), float_bits(expected))

    def test_fake_zero_on_rotation_x_traffic_is_a_coin_over_four(self):
        """The signature of intercept-resend against the rotation family:
        a control check on what should be logical minus sees all four raw
        outcomes equally, and the even-parity pair of them decodes wrong."""
        model = InterceptResend(fake_family=EncodingFamily.ROTATION)
        forwarded = model.apply_rows(_rows(EncodingFamily.ROTATION, LogicalValue.MINUS), None)
        read = read_x(forwarded, EncodingFamily.ROTATION)[0]
        probs = np.abs(read) ** 2
        np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-12)
        verdicts = {raw: decode_pair(X_R, raw) for raw in ("00", "01", "10", "11")}
        caught = {raw for raw, v in verdicts.items() if v is not LogicalValue.MINUS}
        assert caught == {"00", "11"}
        rng = np.random.default_rng(8)
        pairs, _ = measure_rows(
            np.tile(forwarded, (4000, 1)), EncodingFamily.ROTATION, np.ones(4000, dtype=bool),
            rng.random(4000),
        )
        hits = sum(PAIR_NAMES[p] in caught for p in pairs)
        sigma = (4000 * 0.25) ** 0.5
        assert abs(hits - 2000) < 4 * sigma


class TestClosedForms:
    def test_intercept_resend_per_group(self):
        model = InterceptResend(fake_family=EncodingFamily.DEPHASING)
        assert closed_form_detection(model, EncodingFamily.DEPHASING, 1) == 0.25

    def test_measure_resend_per_group(self):
        model = MeasureResend(basis=Z_R)
        assert closed_form_detection(model, EncodingFamily.ROTATION, 1) == 0.05

    def test_multi_group_compounding(self):
        model = InterceptResend(fake_family=EncodingFamily.DEPHASING)
        ten = closed_form_detection(model, EncodingFamily.DEPHASING, 10)
        assert ten == pytest.approx(1 - 0.75**10)
        assert ten == pytest.approx(0.9436865, abs=1e-6)
        assert closed_form_detection(model, EncodingFamily.DEPHASING, 0) == 0.0

    def test_monotone_in_m(self):
        model = MeasureResend(basis=Z_DP)
        values = [
            closed_form_detection(model, EncodingFamily.DEPHASING, m) for m in range(8)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_error_paths(self):
        model = InterceptResend(fake_family=EncodingFamily.DEPHASING)
        with pytest.raises(ValueError):
            closed_form_detection(model, EncodingFamily.DEPHASING, -1)
        with pytest.raises(ValueError):
            closed_form_detection(model, EncodingFamily.ROTATION, 1)  # family mismatch
        with pytest.raises(ValueError):
            closed_form_detection(
                InterceptResend(
                    fake_family=EncodingFamily.DEPHASING, fake_value=LogicalValue.PLUS
                ),
                EncodingFamily.DEPHASING,
                1,
            )
        with pytest.raises(ValueError):
            closed_form_detection(
                MeasureResend(basis=X_DP), EncodingFamily.DEPHASING, 1
            )
        with pytest.raises(ValueError):
            closed_form_detection(NO_ATTACK, EncodingFamily.DEPHASING, 1)


# Every attack kind, with fakes and measurement bases from both families.
PASS_MODELS = [
    NO_ATTACK,
    *(InterceptResend(family, value) for family in EncodingFamily for value in LogicalValue),
    *(MeasureResend(basis) for basis in ALL_BASES),
    Entangle(EntangleParams.copy_first_qubit()),
    Entangle(probes.haar_random(np.random.default_rng(37))),
]
PASS_MODEL_IDS = ["-".join(map(str, model.to_dict().values())) for model in PASS_MODELS]


class TestPairPass:
    @pytest.mark.parametrize("model", PASS_MODELS, ids=PASS_MODEL_IDS)
    def test_rows_carry_a_probe_only_under_a_probe(self, model, monkeypatch):
        widths = []

        def recording_measure_rows(rows, *args):
            widths.append(rows.shape[1])
            return measure_rows(rows, *args)

        monkeypatch.setattr(dfq.attacks, "measure_rows", recording_measure_rows)
        count = 12
        ctrl = np.arange(count) % 2 == 0
        pair_pass(
            EncodingFamily.ROTATION, model, np.arange(count) % 4, ctrl, np.zeros(count),
            np.full(count, 0.5), np.zeros(np.count_nonzero(ctrl)), np.full(count, 0.5),
        )
        assert set(widths) == {8 if isinstance(model, Entangle) else 4}

    @pytest.mark.parametrize("model", PASS_MODELS, ids=PASS_MODEL_IDS)
    def test_reads_rows_says_whether_the_attack_output_depends_on_its_input(self, model, monkeypatch):
        """Intercept-resend forwards the same rows for codeword and for random
        input, and the pass skips the outbound noise its fake never shows;
        the other kinds' output changes with their input."""
        assert model.reads_rows != isinstance(model, InterceptResend)
        rng = np.random.default_rng(47)
        count = 40
        codewords = CODEWORD_ROWS[EncodingFamily.ROTATION][rng.integers(0, 4, count)]
        pairs = rng.standard_normal((count, 4)) + 1j * rng.standard_normal((count, 4))
        random_rows = pairs / np.linalg.norm(pairs, axis=1, keepdims=True)
        uniforms = rng.random(count)
        same = np.array_equal(model.apply_rows(codewords, uniforms), model.apply_rows(random_rows, uniforms))
        assert same != model.reads_rows
        noised = []

        def counting_noise(rows, *args):
            noised.append(len(rows))
            return apply_family_noise(rows, *args)

        monkeypatch.setattr(dfq.attacks, "apply_family_noise", counting_noise)
        ctrl = np.arange(count) % 2 == 0
        pair_pass(
            EncodingFamily.ROTATION, model, np.arange(count) % 4, ctrl, np.full(count, 0.7),
            uniforms, np.full(np.count_nonzero(ctrl), 0.7), uniforms,
        )
        assert noised == [count] * model.reads_rows + [np.count_nonzero(ctrl)]
    @pytest.mark.parametrize("family", list(EncodingFamily))
    @pytest.mark.parametrize(
        "model",
        [
            NO_ATTACK,
            InterceptResend(fake_family=EncodingFamily.ROTATION, fake_value=LogicalValue.PLUS),
            MeasureResend(basis=Z_DP),
            MeasureResend(basis=X_R),
            Entangle(EntangleParams.copy_first_qubit()),
        ],
        ids=["none", "intercept-resend", "measure-resend-Z", "measure-resend-X", "cnot-probe"],
    )
    def test_mixed_mask_matches_separate_ctrl_and_sift_calls(self, family, model):
        """Rows are independent: the Monte Carlo harness may leave out the
        rows it does not count and still read the same outcomes."""
        rng = np.random.default_rng(29)
        count = 300
        values = rng.integers(0, 4, count)
        ctrl = rng.random(count) < 0.5
        thetas_out = rng.uniform(0.0, 2 * np.pi, count)
        attack_uniforms = rng.random(count) if model.draws else None
        thetas_back = rng.uniform(0.0, 2 * np.pi, np.count_nonzero(ctrl))
        uniforms = rng.random(count)
        outcomes, read = pair_pass(
            family, model, values, ctrl, thetas_out, attack_uniforms, thetas_back, uniforms
        )
        # SIFT rows are decoded with the Z table, whatever they were prepared in
        assert np.isin(read[~ctrl], (0, 1, INVALID)).all()
        for mask, back in ((ctrl, thetas_back), (~ctrl, thetas_back[:0])):
            alone = pair_pass(
                family, model, values[mask], ctrl[mask], thetas_out[mask],
                None if attack_uniforms is None else attack_uniforms[mask], back, uniforms[mask],
            )
            np.testing.assert_array_equal(alone[0], outcomes[mask])
            np.testing.assert_array_equal(alone[1], read[mask])


_Z_BASIS = {EncodingFamily.DEPHASING: Z_DP, EncodingFamily.ROTATION: Z_R}
_X_BASIS = {EncodingFamily.DEPHASING: X_DP, EncodingFamily.ROTATION: X_R}
HARNESS_MODELS = {
    "intercept-resend": lambda family: InterceptResend(fake_family=family),
    "measure-resend-z": lambda family: MeasureResend(_Z_BASIS[family]),
    "measure-resend-x": lambda family: MeasureResend(_X_BASIS[family]),
    "cnot-probe": lambda family: Entangle(EntangleParams.copy_first_qubit()),
}
# (trials, m): the first four draw at most BLOCK_ROWS rows, the third in two
# blocks that fill one pass exactly; the others draw more: two blocks that do
# not fit together, a ragged per-group block, one full overall block, and
# rounds that straddle overall block boundaries: round 819 (rows 4095-4099)
# at m = 5, and one at each of the six boundaries at m = 7, where the seeded
# draws hit both sides of some of them, so a round counted twice shows.
HARNESS_SIZES = (
    (1, 0), (100, 10), (BLOCK_ROWS // 4, 3), (BLOCK_ROWS, 0),
    (BLOCK_ROWS - 1, 1), (BLOCK_ROWS + 3, 2), (1, BLOCK_ROWS), (1500, 5), (3001, 7),
)


class TestMonteCarlo:
    def test_no_attack_is_never_detected(self):
        config = ProtocolConfig(family=EncodingFamily.ROTATION, seed=1)
        report = monte_carlo_detection(
            config, NO_ATTACK, 2000, np.random.default_rng(10)
        )
        assert report.per_group_estimate == 0.0
        assert report.overall_estimate == 0.0
        assert report.sift_inclusive_estimate == 0.0

    @pytest.mark.parametrize(
        "family,fake_family,rate",
        [
            pytest.param(EncodingFamily.DEPHASING, EncodingFamily.DEPHASING, 0.25,
                         id="EncodingFamily.DEPHASING"),
            pytest.param(EncodingFamily.ROTATION, EncodingFamily.ROTATION, 0.25,
                         id="EncodingFamily.ROTATION"),
            # cross-family fakes: no closed form, rates from the exact averages
            pytest.param(EncodingFamily.DEPHASING, EncodingFamily.ROTATION, 0.5,
                         id="dephasing-traffic-rotation-fake"),
            pytest.param(EncodingFamily.ROTATION, EncodingFamily.DEPHASING, 0.25,
                         id="rotation-traffic-dephasing-fake"),
        ],
    )
    def test_intercept_resend_rate(self, family, fake_family, rate):
        config = ProtocolConfig(family=family, seed=2)
        model = InterceptResend(fake_family=fake_family)
        report = monte_carlo_detection(config, model, 20_000, np.random.default_rng(11))
        sigma = np.sqrt(rate * (1 - rate) / report.trials)
        assert abs(report.per_group_estimate - rate) < 4 * sigma
        assert report.closed_form_per_group == (0.25 if fake_family is family else None)
        # sift-inclusive accounting adds the fake bit echoed on Z-SIFT pairs
        assert report.sift_inclusive_estimate > report.per_group_estimate

    def test_measure_resend_rate(self):
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, seed=3)
        model = MeasureResend(basis=Z_DP)
        report = monte_carlo_detection(config, model, 20_000, np.random.default_rng(12))
        sigma = np.sqrt(0.05 * 0.95 / report.trials)
        assert abs(report.per_group_estimate - 0.05) < 4 * sigma

    def test_multi_group_estimate(self):
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, seed=4)
        model = InterceptResend(fake_family=EncodingFamily.DEPHASING)
        report = monte_carlo_detection(
            config, model, 4000, np.random.default_rng(13), m=5
        )
        expected = 1 - 0.75**5
        sigma = np.sqrt(expected * (1 - expected) / report.trials)
        assert abs(report.overall_estimate - expected) < 4 * sigma
        assert report.m == 5
        # no attacked group, no detection
        none = monte_carlo_detection(config, model, 4000, np.random.default_rng(13), m=0)
        assert none.overall_estimate == 0.0 and none.m == 0

    def test_runs_beyond_one_block_repeat_for_a_seed(self):
        config = ProtocolConfig(family=EncodingFamily.ROTATION, seed=6)
        model = MeasureResend(basis=Z_R)
        trials, m = 3001, 7
        assert trials * m > BLOCK_ROWS
        first = monte_carlo_detection(config, model, trials, np.random.default_rng(15), m=m)
        second = monte_carlo_detection(config, model, trials, np.random.default_rng(15), m=m)
        assert first == second
        assert 0.0 < first.overall_estimate < 1.0

    @pytest.mark.parametrize("family", list(EncodingFamily))
    @pytest.mark.parametrize(
        "model",
        [
            NO_ATTACK,
            InterceptResend(fake_family=EncodingFamily.DEPHASING),
            MeasureResend(basis=Z_R),
            Entangle(EntangleParams.copy_first_qubit()),
        ],
        ids=lambda model: model.name,
    )
    def test_small_and_ragged_blocks(self, family, model):
        """A block may hold a single row and no control pair at all: one
        trial per run, and a last block of one row after a full one."""
        config = ProtocolConfig(family=family, seed=8)
        for seed in range(20):
            for m in (0, 1, 3):
                report = monte_carlo_detection(
                    config, model, 1, np.random.default_rng(seed), m=m
                )
                assert report.trials == 1 and report.m == m
        report = monte_carlo_detection(config, model, BLOCK_ROWS + 1, np.random.default_rng(17))
        assert report.trials == BLOCK_ROWS + 1

    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_copy_probe_never_spoils_a_sifted_bit(self, family):
        """CNOT onto the probe leaves the channel qubits' computational bits
        alone, so a sifted pair measured as received always records the
        prepared bit: the sift-inclusive rate equals the control-check rate."""
        config = ProtocolConfig(family=family, seed=7)
        model = Entangle(EntangleParams.copy_first_qubit())
        report = monte_carlo_detection(config, model, 20_000, np.random.default_rng(16))
        assert report.sift_inclusive_estimate == report.per_group_estimate > 0.0

    def test_group_rows_past_the_limit_are_refused_before_any_draw(self):
        config = ProtocolConfig(family=EncodingFamily.DEPHASING)
        model = InterceptResend(fake_family=EncodingFamily.DEPHASING)
        rng = np.random.default_rng(15)
        start = rng.bit_generator.state
        refused = (
            (5, 10**18), (1, MAX_ROWS + 1), (MAX_ROWS // 2 + 1, 2),
            (MAX_ROWS, 1), (MAX_ROWS + 1, 0),
        )
        for trials, m in refused:
            with pytest.raises(ValueError, match="too large"):
                monte_carlo_detection(config, model, trials, rng, m=m)
        with pytest.raises(ValueError, match="m must be non-negative"):
            monte_carlo_detection(config, model, 5, rng, m=-1)
        assert rng.bit_generator.state == start
        # the bound is on the trials * (1 + m) rows a call draws: the per-group
        # rows count at m = 0 too
        report = monte_carlo_detection(config, model, 1, rng, m=0)
        assert report.trials == 1

    @pytest.mark.parametrize("theta", ("random", "fixed"))
    @pytest.mark.parametrize("family", list(EncodingFamily))
    @pytest.mark.parametrize("model", HARNESS_MODELS)
    @pytest.mark.parametrize("trials,m", HARNESS_SIZES)
    def test_grouped_passes_match_the_spec(self, family, model, trials, m, theta, monkeypatch):
        """Consecutive draw blocks share a pass while their rows fit in
        BLOCK_ROWS: the reports equal those of ``spec.detection``, and a
        call that draws at most BLOCK_ROWS rows makes exactly one pass."""
        policy = ThetaPolicy.random() if theta == "random" else ThetaPolicy.fixed(0.7)
        config = ProtocolConfig(family=family, theta_policy=policy, seed=21)
        attack = HARNESS_MODELS[model](family)
        expected = spec.detection(config, attack, trials, np.random.default_rng(31), m=m)
        passed_rows = []

        def counting_pair_pass(*args):
            passed_rows.append(len(args[2]))  # the value index of every row
            return pair_pass(*args)

        monkeypatch.setattr(dfq.attacks, "pair_pass", counting_pair_pass)
        report = monte_carlo_detection(config, attack, trials, np.random.default_rng(31), m=m)
        assert report == expected
        assert (len(passed_rows) == 1) == (trials * (1 + m) <= BLOCK_ROWS)
        assert max(passed_rows) <= BLOCK_ROWS

    def test_memory_does_not_grow_with_trials(self):
        """Peak traced memory is set by BLOCK_ROWS, not by ``trials``: no
        per-trial array is kept, at m = 0 or across overall blocks."""
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, seed=9)
        model = InterceptResend(fake_family=EncodingFamily.DEPHASING)
        peaks = {}
        for trials, m in ((10**5, 0), (10**6, 0), (10**5, 2), (3 * 10**5, 2)):
            tracemalloc.start()
            try:
                monte_carlo_detection(config, model, trials, np.random.default_rng(19), m=m)
                peaks[trials, m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[10**6, 0] <= peaks[10**5, 0] + 500_000
        assert peaks[3 * 10**5, 2] <= peaks[10**5, 2] + 500_000

    def test_report_serialization(self):
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, seed=5)
        model = MeasureResend(basis=Z_DP)
        report = monte_carlo_detection(config, model, 500, np.random.default_rng(14))
        data = report.to_dict()
        assert data["model"] == "measure-resend"
        assert data["family"] == "dephasing"
        assert 0.0 <= data["per_group_estimate"] <= 1.0


class TestEntanglingAnalysis:
    def test_identity_probe_learns_and_disturbs_nothing(self):
        params = EntangleParams.identity()
        for family in EncodingFamily:
            detection, distinguishability = entangling_attack_analysis(params, family)
            assert detection == pytest.approx(0.0, abs=1e-12)
            assert distinguishability == pytest.approx(0.0, abs=1e-9)

    def test_copy_probe_on_dephasing_family(self):
        # copying qubit 1 reads the logical bit perfectly but trips the
        # X-basis control checks: 1/5 of pairs, half of them wrong
        detection, distinguishability = entangling_attack_analysis(
            EntangleParams.copy_first_qubit(), EncodingFamily.DEPHASING
        )
        assert detection == pytest.approx(0.1, abs=1e-12)
        assert distinguishability == pytest.approx(1.0, abs=1e-12)

    def test_copy_probe_on_rotation_family(self):
        # the same probe commutes with both parity readouts and the copied
        # bit carries no logical information: invisible and useless
        detection, distinguishability = entangling_attack_analysis(
            EntangleParams.copy_first_qubit(), EncodingFamily.ROTATION
        )
        assert detection == pytest.approx(0.0, abs=1e-12)
        assert distinguishability == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_stealth_family_trades_information_for_silence(self, family):
        rng = np.random.default_rng(20)
        for _ in range(10):
            params = probes.codespace_stealth(family, rng)
            detection, distinguishability = entangling_attack_analysis(params, family)
            assert detection < 1e-12
            assert distinguishability < 1e-9

    def test_haar_probe_is_generically_loud(self):
        rng = np.random.default_rng(21)
        loud = 0
        for _ in range(25):
            params = probes.haar_random(rng)
            detection, _ = entangling_attack_analysis(params, EncodingFamily.DEPHASING)
            loud += detection > 0.01
        assert loud == 25

    @pytest.mark.parametrize(
        "family,policy,expect",
        [
            (EncodingFamily.ROTATION, ThetaPolicy.fixed(0.0), "exact"),
            (EncodingFamily.DEPHASING, ThetaPolicy.fixed(0.0), "within-4-sigma"),
            (EncodingFamily.ROTATION, ThetaPolicy.random(), "noise-reveals-the-probe"),
        ],
        ids=["rotation-fixed-0", "dephasing-fixed-0", "rotation-random"],
    )
    def test_analysis_is_the_noiseless_control_rate(self, family, policy, expect):
        """The analysis leaves the channel noise out. Half of all groups
        reach the control check, so Monte Carlo on a noiseless channel sees
        half the analysis rate; at random angles the noise turns the
        rotation family's silent copy probe into a detectable one."""
        params = EntangleParams.copy_first_qubit()
        config = ProtocolConfig(family=family, theta_policy=policy)
        report = monte_carlo_detection(config, Entangle(params), 20_000, np.random.default_rng(5))
        rate = 0.5 * entangling_attack_analysis(params, family)[0]
        if expect == "exact":
            assert rate == pytest.approx(0.0, abs=1e-12)
            assert report.per_group_estimate == 0.0
        elif expect == "within-4-sigma":
            sigma = np.sqrt(rate * (1 - rate) / report.trials)
            assert abs(report.per_group_estimate - rate) < 4 * sigma
        else:
            assert rate == pytest.approx(0.0, abs=1e-12)
            assert report.per_group_estimate > 0.0

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            EntangleParams(np.eye(8) * 2.0, "scaled")
        with pytest.raises(ValueError):
            EntangleParams(np.eye(4), "wrong-size")

    def test_repr_names_the_probe(self):
        # no memory address of the unitary reaches an attack's repr
        attack = Entangle(EntangleParams.copy_first_qubit())
        assert repr(attack) == "Entangle(params=EntangleParams('cnot-probe'))"

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rejects_non_finite(self, entry):
        # a NaN row would otherwise be sampled as outcome 0 every time
        with pytest.raises(ValueError, match="is not unitary"):
            EntangleParams(np.full((8, 8), entry))


class TestAttackInProtocol:
    def test_intercept_resend_aborts_run(self):
        secrets = [Secret.from_string("10110100")] * 3
        for family in EncodingFamily:
            config = ProtocolConfig(
                family=family, seed=21, attack=InterceptResend(fake_family=family)
            )
            result, transcript = run_protocol(config, secrets)
            assert result.verdict is Verdict.ABORTED_INSECURE_CHANNEL
            rate = transcript.find("case1_check")[0]["error_rate"]
            assert rate > 0.3  # about one half in expectation

    def test_stealth_entangler_stays_invisible_end_to_end(self):
        secrets = [Secret.from_string("10110100")] * 3
        for family in EncodingFamily:
            params = probes.codespace_stealth(family, np.random.default_rng(22))
            config = ProtocolConfig(family=family, seed=23, attack=Entangle(params))
            result, transcript = run_protocol(config, secrets)
            assert result.verdict is Verdict.ALL_EQUAL
            assert transcript.find("case1_check")[0]["errors"] == 0

    def test_copy_probe_in_protocol_is_caught_eventually(self):
        secrets = [Secret.from_string("10110100")] * 3
        caught = 0
        for seed in range(100, 110):
            config = ProtocolConfig(
                family=EncodingFamily.DEPHASING,
                seed=seed,
                attack=Entangle(EntangleParams.copy_first_qubit()),
            )
            result, _ = run_protocol(config, secrets)
            caught += result.verdict is Verdict.ABORTED_INSECURE_CHANNEL
        # per-run detection is 1 - 0.9^(ctrl X pairs) which is nearly certain
        assert caught >= 8


class TestSerialization:
    def test_round_trip_named_models(self):
        family = EncodingFamily.DEPHASING
        for model in (
            NO_ATTACK,
            InterceptResend(fake_family=family),
            MeasureResend(basis=Z_DP),
            Entangle(EntangleParams.identity()),
            Entangle(EntangleParams.copy_first_qubit()),
        ):
            data = model.to_dict()
            again = attack_from_dict(data, family)
            assert again.to_dict() == data

    def test_unknown_kind_rejected(self):
        for data in (
            {"kind": "quantum-memory"},
            {"kind": "none", "extra": 1},
            {"kind": "entangle", "unitary": "unknown-probe"},
            {"kind": "entangle", "unitary": [[1, 0], [0, 1]]},
            {"kind": "measure-resend", "fake_family": "rotation"},
            {"kind": "none", "fake_value": "one", "basis": "X"},
            {"kind": "intercept-resend", "unitary": "identity"},
        ):
            with pytest.raises(ValueError):
                attack_from_dict(data, EncodingFamily.DEPHASING)
