"""Protocol-level unit tests: pair budgets, the classical arithmetic,
case handling, end-to-end runs and transcript determinism."""

import json
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from dfq.attacks import Entangle, EntangleParams, MeasureResend
from dfq.encoding import VALUES, Z_R, EncodingFamily, LogicalValue, prepare, to_rows
from dfq.protocol import (
    Operation,
    ProtocolConfig,
    Secret,
    SharedKey,
    ThetaPolicy,
    Verdict,
    encode_announcement,
    participant_process,
    participant_verify_tp,
    run_protocol,
    tp_classify_and_check,
    tp_classify_rows,
    tp_compare,
    tp_prepare_sequence,
)

GOLDEN = Path(__file__).parent / "data" / "golden_transcript.jsonl"


class TestConfig:
    def test_pair_budget_small_example(self):
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, n=2, l=2, delta=0.5)
        assert config.num_z_pairs == 12  # ceil(4*2*1.5)
        assert config.num_x_pairs == 3  # ceil(2*1.5)
        assert config.pairs_per_participant == 15

    def test_pair_budget_default(self):
        config = ProtocolConfig(family=EncodingFamily.ROTATION)
        assert (config.n, config.l) == (3, 8)
        assert config.num_z_pairs == 64 and config.num_x_pairs == 16

    def test_ceil_does_not_inflate_float_dust(self):
        # 4*5*1.2 is 24.000000000000004 in floats but must stay 24 pairs
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, l=5, delta=0.2)
        assert config.num_z_pairs == 24

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(family=EncodingFamily.DEPHASING, n=1)
        with pytest.raises(ValueError):
            ProtocolConfig(family=EncodingFamily.DEPHASING, l=0)
        with pytest.raises(ValueError):
            ProtocolConfig(family=EncodingFamily.DEPHASING, delta=-0.1)
        with pytest.raises(ValueError):
            ProtocolConfig(family=EncodingFamily.DEPHASING, tolerable_error_rate=1.5)
        for delta in (float("nan"), float("inf"), 1e308):
            with pytest.raises(ValueError):
                ProtocolConfig(family=EncodingFamily.DEPHASING, delta=delta)

    def test_theta_policy_round_trip(self):
        for policy in (ThetaPolicy.random(), ThetaPolicy.fixed(0.7)):
            again = ThetaPolicy.from_dict(policy.to_dict())
            assert again == policy
        with pytest.raises(ValueError):
            ThetaPolicy.from_dict({"kind": "random", "bogus": 1})
        with pytest.raises(ValueError):
            ThetaPolicy.from_dict({"kind": "spiral"})
        for value in (float("nan"), float("inf"), [0.7], "0.7"):
            with pytest.raises(ValueError):
                ThetaPolicy.from_dict({"kind": "fixed", "value": value})

    def test_secret_parsing(self):
        assert Secret.from_string("0110").bits == (0, 1, 1, 0)
        with pytest.raises(ValueError):
            Secret.from_string("01x0")
        with pytest.raises(ValueError):
            Secret(())


class TestClassicalArithmetic:
    def test_announcement_oracle(self):
        # worked example: x=10110, K=01010, m=11000 -> r=00100
        secret = Secret.from_string("10110")
        key = SharedKey((0, 1, 0, 1, 0))
        r = encode_announcement(secret, key, [1, 1, 0, 0, 0])
        assert r == [0, 0, 1, 0, 0]

    def test_announcement_validates_lengths(self):
        with pytest.raises(ValueError):
            encode_announcement(Secret.from_string("01"), SharedKey((0, 1, 1)), [0, 0])
        with pytest.raises(ValueError):
            encode_announcement(Secret.from_string("01"), SharedKey((0, 1)), [0, 2])

    def test_compare_all_equal(self):
        r_rows = [[0, 1, 1], [0, 1, 1], [0, 1, 1]]
        m_rows = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
        result = tp_compare(r_rows, m_rows)
        assert result.verdict is Verdict.ALL_EQUAL
        assert result.c == (0, 0, 0)

    def test_compare_counts_adjacent_differences(self):
        # u column (0,1,0,1) across four participants gives c = 3
        m_rows = [[0]] * 4
        r_rows = [[0], [1], [0], [1]]
        result = tp_compare(r_rows, m_rows)
        assert result.c == (3,)
        assert result.verdict is Verdict.NOT_ALL_EQUAL

    def test_compare_unmasks_with_m(self):
        # matching secrets still compare equal when recorded bits differ
        result = tp_compare([[1], [0]], [[1], [0]])
        assert result.verdict is Verdict.ALL_EQUAL

    def test_compare_validation(self):
        with pytest.raises(ValueError):
            tp_compare([[0]], [[0]])
        with pytest.raises(ValueError):
            tp_compare([[0], [0, 1]], [[0], [0]])

    def test_masking_makes_announcements_uniform(self):
        """Chi-square: announced bits look uniform and independent of the
        secret when the key and recorded bits are random (df=1, 0.001
        critical value 10.828)."""
        rng = np.random.default_rng(99)
        counts = np.zeros((2, 2))
        trials = 10_000
        l = 16
        for _ in range(trials // l):
            secret = Secret.random(l, rng)
            key = SharedKey(tuple(int(b) for b in rng.integers(0, 2, l)))
            m = [int(b) for b in rng.integers(0, 2, l)]
            for x, r in zip(secret.bits, encode_announcement(secret, key, m)):
                counts[x][r] += 1
        total = counts.sum()
        # uniformity of r
        r_totals = counts.sum(axis=0)
        chi_uniform = sum((c - total / 2) ** 2 / (total / 2) for c in r_totals)
        assert chi_uniform < 10.828
        # independence of (x, r)
        chi_ind = 0.0
        for i in range(2):
            for j in range(2):
                expected = counts[i].sum() * counts[:, j].sum() / total
                chi_ind += (counts[i][j] - expected) ** 2 / expected
        assert chi_ind < 10.828


class TestSequenceAndCases:
    def test_prepare_sequence_composition(self):
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, l=2, delta=0.5)
        rng = np.random.default_rng(3)
        sequence = tp_prepare_sequence(config, rng)
        assert len(sequence) == 15
        z_values = [v for v in sequence if VALUES[v].is_z_value]
        assert len(z_values) == 12

    def test_participant_record_covers_every_pair(self):
        config = ProtocolConfig(family=EncodingFamily.ROTATION, l=2, delta=0.0)
        rng = np.random.default_rng(4)
        sequence = tp_prepare_sequence(config, rng)
        states = [prepare(config.family, VALUES[v]) for v in sequence]
        outgoing, record = participant_process(states, config.family, rng)
        assert len(outgoing) == len(sequence)
        assert sorted(record.permutation) == list(range(len(sequence)))
        sifted = {i for i, op in enumerate(record.operations) if op is Operation.SIFT}
        assert set(record.sift_bits) == sifted
        rng = np.random.default_rng(4)
        tp_prepare_sequence(config, rng)
        assert participant_process(states, config.family, rng)[1] == record

    def test_insecure_channel_takes_precedence(self):
        """With every pair returned wrong AND too few retained pairs, the
        channel alarm must fire first."""
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, l=2, delta=0.0)
        rng = np.random.default_rng(5)
        sequence = tp_prepare_sequence(config, rng)
        flipped = {
            LogicalValue.ZERO: LogicalValue.ONE,
            LogicalValue.ONE: LogicalValue.ZERO,
            LogicalValue.PLUS: LogicalValue.MINUS,
            LogicalValue.MINUS: LogicalValue.PLUS,
        }
        returned = [prepare(config.family, flipped[VALUES[v]]) for v in sequence]
        operations = [Operation.CTRL] * len(sequence)
        outcome = tp_classify_and_check(
            returned, list(range(len(sequence))), operations, sequence, config, rng
        )
        assert outcome.case1_errors == outcome.case1_total == len(sequence)
        assert outcome.abort is Verdict.ABORTED_INSECURE_CHANNEL

    def test_insufficient_particles_abort(self):
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, l=2, delta=0.0)
        rng = np.random.default_rng(6)
        sequence = tp_prepare_sequence(config, rng)
        returned = [prepare(config.family, VALUES[v]) for v in sequence]
        operations = [Operation.CTRL] * len(sequence)  # nothing retained
        outcome = tp_classify_and_check(
            returned, list(range(len(sequence))), operations, sequence, config, rng
        )
        assert outcome.case1_errors == 0
        assert outcome.abort is Verdict.ABORTED_INSUFFICIENT_PARTICLES

    def test_permutation_must_be_bijection(self):
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, l=2, delta=0.0)
        rng = np.random.default_rng(7)
        sequence = tp_prepare_sequence(config, rng)
        returned = [prepare(config.family, VALUES[v]) for v in sequence]
        with pytest.raises(ValueError):
            tp_classify_and_check(
                returned, [0] * len(sequence), [Operation.CTRL] * len(sequence),
                sequence, config, rng,
            )

    def test_classify_takes_the_sift_mask_or_the_operation_list(self):
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, l=2, delta=1.0)
        rng = np.random.default_rng(8)
        sequence = tp_prepare_sequence(config, rng)
        states = [prepare(config.family, VALUES[v]) for v in sequence]
        outgoing, record = participant_process(states, config.family, rng)
        rows = to_rows(outgoing)
        by_list = tp_classify_and_check(
            outgoing, record.permutation, record.operations, sequence, config,
            np.random.default_rng(9),
        )
        by_mask = tp_classify_rows(
            rows, record.permutation, record.sifted, sequence, config, np.random.default_rng(9)
        )
        assert by_list == by_mask
        with pytest.raises(ValueError, match="do not cover"):
            tp_classify_rows(rows, record.permutation, record.sifted[:-1], sequence, config, rng)

    def test_descriptor_values_are_uniform(self):
        """Both coins behind the prepared sequence are fair, checked over
        more than 10^4 draws of each kind at four sigmas."""
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, l=8, delta=1.0)
        rng = np.random.default_rng(37)
        z_ones = x_minuses = z_total = x_total = 0
        for _ in range(160):  # 160 * 64 Z pairs, 160 * 16 X pairs
            for value in map(VALUES.__getitem__, tp_prepare_sequence(config, rng)):
                if value.is_z_value:
                    z_total += 1
                    z_ones += value is LogicalValue.ONE
                else:
                    x_total += 1
                    x_minuses += value is LogicalValue.MINUS
        assert z_total == 10240 and x_total == 2560
        for hits, total in ((z_ones, z_total), (x_minuses, x_total)):
            sigma = (0.25 / total) ** 0.5
            assert abs(hits / total - 0.5) < 4 * sigma

    def test_operation_coin_is_fair(self):
        pair = prepare(EncodingFamily.DEPHASING, LogicalValue.ZERO)
        rng = np.random.default_rng(38)
        _, record = participant_process([pair] * 10_000, EncodingFamily.DEPHASING, rng)
        sifted = sum(1 for op in record.operations if op is Operation.SIFT)
        sigma = (10_000 * 0.25) ** 0.5
        assert abs(sifted - 5_000) < 4 * sigma

    def test_forced_ctrl_returns_a_permutation_of_the_inputs(self):
        config = ProtocolConfig(family=EncodingFamily.ROTATION, l=2, delta=0.0)
        rng = np.random.default_rng(39)
        states = [prepare(config.family, VALUES[v]) for v in tp_prepare_sequence(config, rng)]
        outgoing, record = participant_process(
            states, config.family, rng, force_operation=Operation.CTRL
        )
        assert all(op is Operation.CTRL for op in record.operations)
        assert record.sift_bits == {}
        # untouched objects come back, just reordered
        assert all(out is states[k] for out, k in zip(outgoing, record.permutation))

    def test_retained_pair_count_has_the_expected_mean(self):
        """l=4, delta=0.25 gives 20 Z pairs, so on average 10 survive the
        participant's fair coin into case 2."""
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, l=4, delta=0.25)
        rng = np.random.default_rng(40)
        assert config.num_z_pairs == 20
        runs, retained = 400, 0
        for _ in range(runs):
            sequence = tp_prepare_sequence(config, rng)
            outgoing, record = participant_process(
                [prepare(config.family, VALUES[v]) for v in sequence], config.family, rng
            )
            outcome = tp_classify_and_check(
                outgoing, record.permutation, record.operations, sequence, config, rng
            )
            assert outcome.case1_errors == 0
            retained += len(outcome.case2_positions)
        sigma_mean = (20 * 0.25 / runs) ** 0.5
        assert abs(retained / runs - 10.0) < 4 * sigma_mean


class TestHonestyCheck:
    def _setup(self, family, l=8):
        positions = list(range(2 * l))
        truth = {p: (p % 2) for p in positions}
        values = {p: (LogicalValue.ZERO if truth[p] == 0 else LogicalValue.ONE) for p in positions}
        return positions, truth, values

    def test_honest_tp_passes(self):
        for family in EncodingFamily:
            positions, truth, values = self._setup(family)
            check = participant_verify_tp(
                positions, truth, lambda ps: [values[p] for p in ps],
                family, 8, np.random.default_rng(8),
            )
            assert check.error_rate == 0.0
            assert set(check.test_positions).isdisjoint(check.remaining)

    def test_single_lie_is_caught(self):
        positions, truth, values = self._setup(EncodingFamily.DEPHASING)

        def lying_reveal(ps):
            answers = [values[p] for p in ps]
            wrong = answers[0]
            answers[0] = LogicalValue.ONE if wrong is LogicalValue.ZERO else LogicalValue.ZERO
            return answers

        check = participant_verify_tp(
            positions, truth, lying_reveal, EncodingFamily.DEPHASING, 8,
            np.random.default_rng(9),
        )
        assert check.error_rate == pytest.approx(1 / 8)

    def test_rotation_tests_half_of_retained(self):
        positions, truth, values = self._setup(EncodingFamily.ROTATION, l=8)
        check = participant_verify_tp(
            positions, truth, lambda ps: [values[p] for p in ps],
            EncodingFamily.ROTATION, 8, np.random.default_rng(10),
        )
        assert len(check.test_positions) == len(positions) // 2

    def test_invalid_recorded_bit_counts_as_mismatch(self):
        positions = list(range(16))
        truth = {p: None for p in positions}  # participant recorded nothing usable
        check = participant_verify_tp(
            positions, truth, lambda ps: [LogicalValue.ZERO for _ in ps],
            EncodingFamily.DEPHASING, 8, np.random.default_rng(11),
        )
        assert check.error_rate == 1.0

    def test_rotation_twelve_retained_split_six_and_six(self):
        positions, truth, values = self._setup(EncodingFamily.ROTATION, l=6)
        assert len(positions) == 12
        check = participant_verify_tp(
            positions, truth, lambda ps: [values[p] for p in ps],
            EncodingFamily.ROTATION, 6, np.random.default_rng(41),
        )
        assert len(check.test_positions) == 6
        assert len(check.remaining) == 6

    def test_too_few_retained_pairs_to_test(self):
        positions = [0, 1, 2, 3]
        truth = {p: 0 for p in positions}
        with pytest.raises(ValueError):
            participant_verify_tp(
                positions, truth, lambda ps: [LogicalValue.ZERO for _ in ps],
                EncodingFamily.DEPHASING, 8, np.random.default_rng(42),
            )


class TestEndToEnd:
    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_equal_secrets(self, family):
        secret = Secret.from_string("10110100")
        config = ProtocolConfig(family=family, seed=11)
        result, transcript = run_protocol(config, [secret] * 3)
        assert result.verdict is Verdict.ALL_EQUAL
        assert all(v == 0 for v in result.c)
        case1 = transcript.find("case1_check")
        assert len(case1) == 3 and all(ev["errors"] == 0 for ev in case1)

    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_single_differing_bit(self, family):
        base = Secret.from_string("10110100")
        other = Secret.from_string("10110101")
        config = ProtocolConfig(family=family, seed=12)
        result, _ = run_protocol(config, [base, other, base])
        assert result.verdict is Verdict.NOT_ALL_EQUAL
        # participant 2 differs from both neighbours in the last bit
        assert result.c[-1] == 2 and all(v == 0 for v in result.c[:-1])

    def test_secret_count_validated(self):
        config = ProtocolConfig(family=EncodingFamily.DEPHASING)
        with pytest.raises(ValueError):
            run_protocol(config, [Secret.from_string("10110100")] * 2)
        with pytest.raises(ValueError):
            run_protocol(config, [Secret.from_string("1011")] * 3)

    def test_transcript_is_deterministic(self):
        config = ProtocolConfig(family=EncodingFamily.ROTATION, seed=13)
        secrets = [Secret.from_string("10110100")] * 3
        _, t1 = run_protocol(config, secrets)
        _, t2 = run_protocol(config, secrets)
        assert t1.to_jsonl() == t2.to_jsonl()
        _, t3 = run_protocol(
            ProtocolConfig(family=EncodingFamily.ROTATION, seed=14), secrets
        )
        assert t1.to_jsonl() != t3.to_jsonl()

    def test_transcript_event_order(self):
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, seed=15, n=2, l=4)
        result, transcript = run_protocol(config, [Secret.from_string("1011")] * 2)
        events = [json.loads(line)["event"] for line in transcript.to_jsonl().splitlines()]
        assert events[0] == "run_config"
        assert events[-1] == "run_summary"
        per_session = [
            "tp_prepare", "channel", "participant_record", "channel",
            "tp_announce_z_positions", "participant_announce",
            "case1_check", "case_tally", "step4", "step5",
        ]
        assert events[1:-2] == per_session * 2
        assert events[-2] == "comparison"

    def test_golden_transcript(self):
        """Byte-frozen small run: any change to the event stream, field
        order or RNG consumption shows up here."""
        config = ProtocolConfig(
            family=EncodingFamily.DEPHASING,
            n=2,
            l=1,
            delta=0.0,
            theta_policy=ThetaPolicy.fixed(0.7),
            seed=424244,
        )
        result, transcript = run_protocol(
            config, [Secret.from_string("1"), Secret.from_string("1")]
        )
        assert transcript.to_jsonl() + "\n" == GOLDEN.read_text()

    @pytest.mark.parametrize(
        "name,attack,tolerance,seed",
        [
            ("transcript_rotation_measure_resend.jsonl", MeasureResend(Z_R), 0.3, 515151),
            (
                "transcript_rotation_cnot_probe.jsonl",
                Entangle(EntangleParams.copy_first_qubit()),
                0.5,
                626262,
            ),
        ],
    )
    def test_attacked_random_theta_transcripts_are_frozen(self, name, attack, tolerance, seed):
        """Byte-frozen runs under random angles and an attack: they pin the
        interleaved angle/attack draws of the outbound leg and carry
        three-qubit probe states through noise and readout."""
        config = ProtocolConfig(
            family=EncodingFamily.ROTATION,
            n=2,
            l=2,
            delta=0.5,
            theta_policy=ThetaPolicy.random(),
            seed=seed,
            attack=attack,
            tolerable_error_rate=tolerance,
        )
        _, transcript = run_protocol(config, [Secret.from_string("10")] * 2)
        assert transcript.to_jsonl() == (GOLDEN.parent / name).read_text()


class TestAbortStatistics:
    def test_exact_retention_bound(self):
        """Independent tail computation for the retained-pair abort.

        With the default margin the per-session abort probability at l=8
        is the frozen fraction below (about 1.2e-5); dropping the margin
        to zero pushes it to about 0.36 at l=2 -- which the Monte Carlo
        check in the next test sees directly.
        """
        def session_abort_probability(l, z_pairs):
            return Fraction(sum(comb(z_pairs, k) for k in range(2 * l)), 2**z_pairs)

        config = ProtocolConfig(family=EncodingFamily.DEPHASING, l=8, delta=1.0)
        p8 = session_abort_probability(8, config.num_z_pairs)
        assert p8 == Fraction(224723513577529, 18446744073709551616)
        assert float(p8) < 1.3e-5

        config4 = ProtocolConfig(family=EncodingFamily.DEPHASING, l=4, delta=1.0)
        p4 = session_abort_probability(4, config4.num_z_pairs)
        assert p4 == Fraction(4514873, 4294967296)

    def test_zero_margin_abort_rate_matches_binomial(self):
        # l=2, delta=0: 8 Z pairs, abort when fewer than 4 survive the coin
        p_session = Fraction(sum(comb(8, k) for k in range(4)), 2**8)
        assert p_session == Fraction(93, 256)
        p_run = 1 - (1 - float(p_session)) ** 2  # two sessions must both pass
        runs = 300
        rng = np.random.default_rng(2)
        secrets = [Secret.from_string("01")] * 2
        aborts = 0
        for trial_seed in np.random.SeedSequence(77).generate_state(runs):
            config = ProtocolConfig(
                family=EncodingFamily.ROTATION, n=2, l=2, delta=0.0, seed=int(trial_seed)
            )
            result, _ = run_protocol(config, secrets)
            aborts += result.verdict is Verdict.ABORTED_INSUFFICIENT_PARTICLES
        sigma = np.sqrt(p_run * (1 - p_run) / runs)
        assert abs(aborts / runs - p_run) < 4 * sigma
