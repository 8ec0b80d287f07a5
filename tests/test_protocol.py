"""Protocol-level unit tests: pair budgets, the classical arithmetic,
case handling, end-to-end runs and transcript determinism."""

import dataclasses
import json
import math
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import session_reference as reference
import spec
from dfq import protocol
from dfq.attacks import MAX_ROWS, NO_ATTACK, Entangle, EntangleParams, InterceptResend, MeasureResend
from dfq.cli import main
from dfq.encoding import (
    ALL_BASES,
    CODEWORD_ROWS,
    INVALID,
    VALUES,
    EncodingFamily,
    LogicalValue,
    apply_family_noise,
    measure_rows,
)
from dfq.protocol import (
    ProtocolConfig,
    Secret,
    SharedKey,
    ThetaPolicy,
    Verdict,
    draw_session,
    encode_announcement,
    participant_draws,
    participant_verify_tp,
    run_protocol,
    session_pass,
    tp_compare,
    tp_prepare_sequence,
    tp_tally,
)

def tp_readings(rows, values, config, uniforms):
    """TP's readout of every row in the basis its value was prepared in."""
    return measure_rows(rows, config.family, values >= 2, uniforms)


class TestConfig:
    def test_pair_budget_small_example(self):
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, n=2, l=2, delta=0.5)
        assert config.num_z_pairs == 12  # ceil(4*2*1.5)
        assert config.num_x_pairs == 3  # ceil(2*1.5)
        assert config.pairs_per_participant == 15

    def test_pair_budget_default(self):
        config = ProtocolConfig(family=EncodingFamily.ROTATION)
        assert (config.n, config.l, config.seed) == (3, 8, 0)
        assert config.num_z_pairs == 64 and config.num_x_pairs == 16

    def test_ceil_does_not_inflate_float_dust(self):
        # 4*5*1.2 is 24.000000000000004 in floats but must stay 24 pairs
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, l=5, delta=0.2)
        assert config.num_z_pairs == 24

    def test_pair_budget_is_computed_per_config(self):
        # the counts are kept on the config once read: a replaced config gets its own
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, n=2, l=2, delta=0.5)
        longer = dataclasses.replace(config, l=4)
        assert (longer.num_z_pairs, longer.num_x_pairs) == (24, 6)
        assert (config.num_z_pairs, config.num_x_pairs) == (12, 3)
        assert dataclasses.replace(longer, l=2) == config

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

    def test_session_rows_past_the_bound_are_refused(self):
        # n * pairs per participant: 10**8 * 80 rows at the default l and delta
        with pytest.raises(ValueError, match=r"n \* pairs per participant \(l=8, delta=1.0\) "
                                             r"= 100000000 \* 80 = 8000000000 pair rows is too large"):
            ProtocolConfig(family=EncodingFamily.DEPHASING, n=10**8)
        # an infinite budget is refused the same way
        with pytest.raises(ValueError, match="inf pair rows is too large"):
            ProtocolConfig(family=EncodingFamily.DEPHASING, delta=1e308)
        # the largest n the bound lets through at the default l and delta
        assert ProtocolConfig(family=EncodingFamily.DEPHASING, n=MAX_ROWS // 80).n == 12_500_000

    def test_theta_policy_round_trip(self):
        for policy in (ThetaPolicy.random(), ThetaPolicy.fixed(0.7)):
            again = ThetaPolicy.from_dict(policy.to_dict())
            assert again == policy
        with pytest.raises(ValueError):
            ThetaPolicy.from_dict({"kind": "random", "bogus": 1})
        with pytest.raises(ValueError):
            ThetaPolicy.from_dict({"kind": "random", "value": "abc"})
        with pytest.raises(ValueError):
            ThetaPolicy.from_dict({"kind": "spiral"})
        with pytest.raises(ValueError, match="'fixed' or 'random'"):
            ThetaPolicy("bogus")
        # a fixed policy's angle defaults to 0
        assert ThetaPolicy.from_dict({"kind": "fixed"}) == ThetaPolicy.fixed(0.0)
        # the constructor refuses what from_dict refuses: a random policy's value
        with pytest.raises(ValueError, match="takes no value"):
            ThetaPolicy("random", 0.7)
        for value in (float("nan"), float("inf"), [0.7], "0.7"):
            with pytest.raises(ValueError):
                ThetaPolicy.from_dict({"kind": "fixed", "value": value})

    @pytest.mark.parametrize("count", (0, 1, 2, 7, 80))
    @pytest.mark.parametrize(
        "policy", (ThetaPolicy.random(), ThetaPolicy.fixed(0.7)), ids=("random", "fixed")
    )
    def test_sample_with_uniforms_draws_pair_by_pair(self, policy, count):
        """The angles and uniforms are the values of a pair-by-pair loop of
        scalar draws (the angle if random, then the uniform), and the
        generator is left where that loop leaves it."""
        rng, loop = np.random.default_rng(17 + count), np.random.default_rng(17 + count)
        thetas, uniforms = policy.sample_with_uniforms(rng, count)
        expected = []
        for _ in range(count):
            theta = 2.0 * math.pi * loop.random() if policy.kind == "random" else policy.value
            expected.append((theta, loop.random()))
        assert np.array_equal(thetas, [theta for theta, _ in expected])
        assert np.array_equal(uniforms, [u for _, u in expected])
        assert rng.bit_generator.state == loop.bit_generator.state

    def test_secret_parsing(self):
        assert Secret.from_string("0110").bits == (0, 1, 1, 0)
        with pytest.raises(ValueError):
            Secret.from_string("01x0")
        with pytest.raises(ValueError):
            Secret(())

    def test_shared_key_is_a_distinct_bit_string(self):
        assert SharedKey((0, 1)) != Secret((0, 1))
        assert SharedKey.from_string("01") == SharedKey((0, 1))
        for bits in ((), (0, 2)):
            with pytest.raises(ValueError):
                SharedKey(bits)
        # the same single draw as a secret of that length
        key = SharedKey.random(8, np.random.default_rng(7))
        assert type(key) is SharedKey
        assert key.bits == Secret.random(8, np.random.default_rng(7)).bits


class TestClassicalArithmetic:
    def test_announcement_oracle(self):
        # worked example: x=10110, K=01010, m=11000 -> r=00100
        secret = Secret.from_string("10110")
        key = SharedKey((0, 1, 0, 1, 0))
        r = encode_announcement(secret, key, [1, 1, 0, 0, 0])
        assert r == [0, 0, 1, 0, 0]

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
            key = SharedKey.random(l, rng)
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

    @pytest.mark.parametrize(
        "num_z,num_x", [(5, 2), (7, 3), (1, 1), (4, 1), (32, 8), (33, 9), (64, 16), (160, 40)]
    )
    @pytest.mark.parametrize("buffered", [False, True])
    def test_one_call_draws_the_two_call_stream(self, num_z, num_x, buffered):
        # each range-2 bit takes one 32-bit word, and a word left in the bit
        # generator's buffer carries over between calls
        counts = SimpleNamespace(num_z_pairs=num_z, num_x_pairs=num_x)
        for seed in range(300):
            rngs = [np.random.default_rng(seed) for _ in range(2)]
            for rng in rngs:
                rng.integers(0, 2, int(buffered))  # one word leaves the buffer full
                assert rng.bit_generator.state["has_uint32"] == int(buffered)
            values = tp_prepare_sequence(counts, rngs[0])
            expected = reference.tp_prepare_sequence(counts, rngs[1])
            np.testing.assert_array_equal(values, expected)
            np.testing.assert_array_equal(rngs[0].permutation(9), rngs[1].permutation(9))
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_session_draws_cover_every_pair(self):
        config = ProtocolConfig(family=EncodingFamily.ROTATION, l=2, delta=0.0)
        draws = draw_session(config, np.random.default_rng(4))
        count = len(draws.values)
        assert sorted(draws.permutation.tolist()) == list(range(count))
        assert len(draws.thetas_out) == len(draws.thetas_back) == len(draws.sifted) == count
        assert len(draws.sift_uniforms) == np.count_nonzero(draws.sifted)
        assert len(draws.ctrl_uniforms) == count - len(draws.sift_uniforms)
        pairs, read = session_pass(config, draws)
        assert pairs.shape == read.shape == (count,)
        again = draw_session(config, np.random.default_rng(4))
        np.testing.assert_array_equal(again.sifted, draws.sifted)
        np.testing.assert_array_equal(session_pass(config, again)[0], pairs)

    def test_insecure_channel_takes_precedence(self):
        """With every pair returned wrong AND too few retained pairs, the
        channel alarm must fire first."""
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, l=2, delta=0.0)
        rng = np.random.default_rng(5)
        sequence = tp_prepare_sequence(config, rng)
        # value index v ^ 1 swaps zero/one and plus/minus
        rows = CODEWORD_ROWS[config.family][sequence ^ 1]
        _, read = tp_readings(rows, sequence, config, rng.random(len(sequence)))
        ctrl = np.zeros(len(sequence), dtype=bool)
        outcome = tp_tally(read, ctrl, sequence, config)
        assert outcome.case1_errors == outcome.case1_total == len(sequence)
        assert outcome.abort is Verdict.ABORTED_INSECURE_CHANNEL

    def test_insufficient_particles_abort(self):
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, l=2, delta=0.0)
        rng = np.random.default_rng(6)
        sequence = tp_prepare_sequence(config, rng)
        rows = CODEWORD_ROWS[config.family][sequence]
        _, read = tp_readings(rows, sequence, config, rng.random(len(sequence)))
        ctrl = np.zeros(len(sequence), dtype=bool)  # nothing retained
        outcome = tp_tally(read, ctrl, sequence, config)
        assert outcome.case1_errors == 0
        assert outcome.abort is Verdict.ABORTED_INSUFFICIENT_PARTICLES

    def test_tally_sorts_pairs_by_the_sift_mask(self):
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, l=2, delta=1.0)
        draws = draw_session(config, np.random.default_rng(8))
        _, read = session_pass(config, draws)
        outcome = tp_tally(read, draws.sifted, draws.values, config)
        # an honest round on the family's own noise: every CTRL pair reads back
        # right, and the SIFT pairs prepared in Z are the retained ones, in order
        assert outcome.case1_errors == 0
        assert outcome.case1_total == np.count_nonzero(~draws.sifted)
        retained = [p for p, (sift, v) in enumerate(zip(draws.sifted, draws.values)) if sift and v < 2]
        assert outcome.case2_positions.tolist() == retained
        assert outcome.abort is None

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
        sifted, _, _ = participant_draws(np.random.default_rng(38), 10_000)
        sigma = (10_000 * 0.25) ** 0.5
        assert abs(np.count_nonzero(sifted) - 5_000) < 4 * sigma

    def test_forced_ctrl_reads_every_pair_back(self):
        config = ProtocolConfig(family=EncodingFamily.ROTATION, l=2, delta=0.0)
        draws = reference.draw_session_forced(config, np.random.default_rng(39), sift=False)
        assert not draws.sifted.any() and len(draws.sift_uniforms) == 0
        assert len(draws.ctrl_uniforms) == len(draws.values)
        _, read = session_pass(config, draws)
        # the codewords ride out the family's noise on both legs
        np.testing.assert_array_equal(read, draws.values)

    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_forced_sift_reads_every_pair(self, family):
        config = ProtocolConfig(family=family, l=2, delta=1.0)
        rng = np.random.default_rng(43)
        draws = reference.draw_session_forced(config, rng, sift=True)
        assert draws.sifted.all() and len(draws.ctrl_uniforms) == 0
        pairs, read = session_pass(config, draws)
        # a Z codeword measured computationally always yields its bit
        z = draws.values < 2
        np.testing.assert_array_equal(read[z], draws.values[z])
        # every reading is the Z readout of the pair as it arrived
        rows = apply_family_noise(CODEWORD_ROWS[family][draws.values], family, draws.thetas_out)
        z_mask = np.zeros(len(rows), dtype=bool)
        expected = measure_rows(rows, family, z_mask, draws.sift_uniforms)
        np.testing.assert_array_equal(pairs, expected[0])
        np.testing.assert_array_equal(read, expected[1])
        # the stream: one uniform per pair, the permutation, then the leg-2 angles
        replay = np.random.default_rng(43)
        count = len(tp_prepare_sequence(config, replay))
        np.testing.assert_array_equal(config.theta_policy.sample(replay, count), draws.thetas_out)
        np.testing.assert_array_equal(replay.random(count), draws.sift_uniforms)
        np.testing.assert_array_equal(replay.permutation(count), draws.permutation)
        np.testing.assert_array_equal(config.theta_policy.sample(replay, count), draws.thetas_back)
        assert rng.random() == replay.random()

    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_return_leg_angle_follows_the_outgoing_slot(self, family):
        # a fake from the other family does not ride out this family's noise,
        # so each CTRL reading depends on the leg-2 angle of its slot
        other = next(f for f in EncodingFamily if f is not family)
        config = ProtocolConfig(
            family=family, l=2, delta=1.0, attack=InterceptResend(other, LogicalValue.PLUS)
        )
        draws = reference.draw_session_forced(config, np.random.default_rng(45), sift=False)
        pairs, read = session_pass(config, draws)
        fake = np.tile(CODEWORD_ROWS[other][2], (len(draws.values), 1))
        outgoing = apply_family_noise(fake[draws.permutation], family, draws.thetas_back)
        restored = np.empty_like(outgoing)
        restored[draws.permutation] = outgoing
        expected = tp_readings(restored, draws.values, config, draws.ctrl_uniforms)
        np.testing.assert_array_equal(pairs, expected[0])
        np.testing.assert_array_equal(read, expected[1])
        assert len(set(pairs.tolist())) > 2

    def test_retained_pair_count_has_the_expected_mean(self):
        """l=4, delta=0.25 gives 20 Z pairs, so on average 10 survive the
        participant's fair coin into case 2."""
        config = ProtocolConfig(family=EncodingFamily.DEPHASING, l=4, delta=0.25)
        rng = np.random.default_rng(40)
        assert config.num_z_pairs == 20
        runs, retained = 400, 0
        for _ in range(runs):
            draws = draw_session(config, rng)
            _, read = session_pass(config, draws)
            outcome = tp_tally(read, draws.sifted, draws.values, config)
            assert outcome.case1_errors == 0
            retained += len(outcome.case2_positions)
        sigma_mean = (20 * 0.25 / runs) ** 0.5
        assert abs(retained / runs - 10.0) < 4 * sigma_mean


@st.composite
def session_configs(draw):
    """Configs over both families, the four attack kinds, both angle
    policies, delta in {0, 0.5, 1} and tolerance 0 or 0.3."""
    families = st.sampled_from(list(EncodingFamily))
    probes = st.sampled_from([EntangleParams.identity(), EntangleParams.copy_first_qubit()])
    attack = draw(st.one_of(
        st.just(NO_ATTACK),
        st.builds(InterceptResend, families, st.sampled_from(list(LogicalValue))),
        st.builds(MeasureResend, st.sampled_from(ALL_BASES)),
        probes.map(Entangle),
    ))
    theta = draw(st.one_of(
        st.just(ThetaPolicy.random()),
        st.floats(0.0, 2.0 * math.pi).map(ThetaPolicy.fixed),
    ))
    return ProtocolConfig(
        family=draw(families),
        n=draw(st.integers(2, 3)),
        l=draw(st.integers(1, 4)),
        delta=draw(st.sampled_from([0.0, 0.5, 1.0])),
        theta_policy=theta,
        seed=draw(st.integers(0, 2**32 - 1)),
        attack=attack,
        tolerable_error_rate=draw(st.sampled_from([0.0, 0.3])),
    )


class TestOnePassSession:
    """The one-pass session against the specification in ``spec``, written
    from the protocol docstring: readings and events, never amplitudes."""

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(config=session_configs(), force=st.sampled_from([None, False, True]))
    def test_session_matches_the_reference_stages(self, config, force):
        rng = np.random.default_rng(config.seed)
        if force is None:
            draws = draw_session(config, rng)
        else:
            draws = reference.draw_session_forced(config, rng, force)
        pairs, read = session_pass(config, draws)
        expected_pairs, expected_read = spec.readings(config, draws)
        assert (pairs.tolist(), read.tolist()) == (expected_pairs, expected_read)
        case = tp_tally(read, draws.sifted, draws.values, config)
        assert (case.case1_errors, case.case1_total, case.case2_positions.tolist(), case.abort) == (
            spec.tally(config, draws, expected_read)
        )

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(config=session_configs(), data=st.data())
    def test_run_matches_the_reference_run(self, config, data):
        bits = st.lists(st.integers(0, 1), min_size=config.l, max_size=config.l)
        secrets = [Secret(tuple(data.draw(bits))) for _ in range(config.n)]
        result, transcript = run_protocol(config, secrets)
        expected, events = spec.run(config, secrets)
        assert result == expected
        assert transcript.events == events
        assert transcript.to_jsonl() == spec.to_jsonl(events)


class TestTranscript:
    """The transcript renders its events from the session records when read."""

    def _run(self):
        config = ProtocolConfig(family=EncodingFamily.ROTATION, n=3, l=4, seed=21)
        return run_protocol(config, [Secret.from_string("0110")] * 3)[1]

    def test_a_run_renders_nothing_until_it_is_read(self, monkeypatch, tmp_path):
        calls = []

        def counted(participant, session):
            calls.append(participant)
            return session_events(participant, session)

        session_events = protocol._session_events
        monkeypatch.setattr(protocol, "_session_events", counted)
        transcript = self._run()
        assert calls == []
        assert main(["run", "--trials", "2", "--seed", "3", "--out", str(tmp_path)]) == 0
        assert calls == []
        transcript.to_jsonl()
        assert calls == [1, 2, 3]
        transcript.events
        assert calls == [1, 2, 3] * 2

    def test_read_events_are_fresh_copies(self):
        transcript = self._run()
        before = transcript.to_jsonl()
        prepared = transcript.find("tp_prepare")[0]
        prepared["values"].append("plus")
        prepared["pairs"] = -1
        transcript.find("case_tally")[0]["abort"] = "AbortedDishonestTP"
        first = transcript.events[0]
        first["event"] = "changed"
        del first["seed"]
        transcript.events[-1].clear()
        transcript.find("step5")[0]["r"].append(1)
        # the two events of one read that list the operations hold a list each
        events = transcript.events
        record, announce = (next(e for e in events if e["event"] == name)
                            for name in ("participant_record", "participant_announce"))
        record["operations"].clear()
        assert announce["operations"]
        assert transcript.to_jsonl() == before

    def test_rendering_twice_gives_the_same_bytes(self):
        transcript = self._run()
        assert transcript.to_jsonl() == transcript.to_jsonl()
        assert transcript.events == transcript.events
        assert transcript.to_jsonl() == "".join(
            json.dumps(event, separators=(",", ":")) + "\n" for event in transcript.events
        )
        assert transcript.find("no-such-event") == []


class TestHonestyCheck:
    @staticmethod
    def _setup(l=8):
        """2l retained positions over a 2l-pair sequence, the participant's
        readings alternating 0/1, and an honest TP's claims."""
        positions = np.arange(2 * l)
        recorded = positions % 2
        return positions, recorded, recorded.copy()

    def test_honest_tp_passes(self):
        for family in EncodingFamily:
            positions, recorded, claimed = self._setup()
            check = participant_verify_tp(
                positions, recorded, claimed, family, 8, np.random.default_rng(8)
            )
            assert check.error_rate == 0.0
            assert set(check.test_positions.tolist()).isdisjoint(check.remaining.tolist())
            assert sorted([*check.test_positions, *check.remaining]) == positions.tolist()
            assert check.test_positions.tolist() == sorted(check.test_positions.tolist())

    def test_single_lie_is_caught(self):
        positions, recorded, claimed = self._setup()
        # the same seed picks the same test positions, so a lie at one of them is seen
        honest = participant_verify_tp(
            positions, recorded, claimed, EncodingFamily.DEPHASING, 8, np.random.default_rng(9)
        )
        claimed[honest.test_positions[0]] ^= 1  # value index v ^ 1 swaps zero/one
        check = participant_verify_tp(
            positions, recorded, claimed, EncodingFamily.DEPHASING, 8, np.random.default_rng(9)
        )
        np.testing.assert_array_equal(check.test_positions, honest.test_positions)
        assert check.error_rate == 1 / 8

    def test_rotation_tests_half_of_retained(self):
        positions, recorded, claimed = self._setup(l=8)
        check = participant_verify_tp(
            positions, recorded, claimed, EncodingFamily.ROTATION, 8, np.random.default_rng(10)
        )
        assert len(check.test_positions) == len(positions) // 2

    def test_invalid_recorded_bit_counts_as_mismatch(self):
        positions = np.arange(16)
        recorded = np.full(16, INVALID)  # participant recorded nothing usable
        check = participant_verify_tp(
            positions, recorded, np.zeros(16, dtype=int), EncodingFamily.DEPHASING, 8,
            np.random.default_rng(11),
        )
        assert check.error_rate == 1.0

    def test_rotation_twelve_retained_split_six_and_six(self):
        positions, recorded, claimed = self._setup(l=6)
        assert len(positions) == 12
        check = participant_verify_tp(
            positions, recorded, claimed, EncodingFamily.ROTATION, 6, np.random.default_rng(41)
        )
        assert len(check.test_positions) == 6
        assert len(check.remaining) == 6

    def test_non_z_claim_counts_as_mismatch(self):
        positions, recorded, claimed = self._setup()
        # plus/minus (value index 2/3) carry no bit, so they match no reading
        check = participant_verify_tp(
            positions, recorded, claimed + 2, EncodingFamily.DEPHASING, 8, np.random.default_rng(12)
        )
        assert check.error_rate == 1.0


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

    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_tp_learns_every_adjacent_xor_of_the_secrets(self, family):
        # u_i = key XOR s_i in an honest run, so the key cancels between
        # neighbours: TP learns (n - 1) * l bits, not only the verdict
        secrets = [Secret.from_string(s) for s in ("10110010", "10110010", "10100011")]
        for seed in range(5):
            result, _ = run_protocol(ProtocolConfig(family=family, seed=seed), secrets)
            assert result.verdict is Verdict.NOT_ALL_EQUAL
            for i in range(len(secrets) - 1):
                adjacent = [a ^ b for a, b in zip(secrets[i].bits, secrets[i + 1].bits)]
                assert [a ^ b for a, b in zip(result.u[i], result.u[i + 1])] == adjacent

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
