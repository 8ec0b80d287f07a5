"""Codeword, channel and readout behaviour for both encoding families."""

import numpy as np
import pytest
from circuit_reference import (
    StateVector,
    apply_full_unitary,
    apply_pair_unitary,
    apply_readout,
    apply_single,
    build_codeword,
    codeword_rows,
    decode_pair,
    decode_table,
    equal_up_to_global_phase,
    measure_computational,
    new_basis_state,
    readout_table,
    rz,
    ry,
    tensor,
    to_rows,
)
from session_reference import rotation_noise_reference, sample_outcomes_reference

from dfq.attacks import BLOCK_ROWS, EntangleParams
from dfq.encoding import (
    ALL_BASES,
    CODEWORD_ROWS,
    DECODE,
    INVALID,
    PAIR_DIM,
    PAIR_NAMES,
    PAIR_ROWS,
    READOUT,
    ROW_DIM,
    ROW_TABLES,
    VALUE_INDEX,
    X_DP,
    X_R,
    Z_DP,
    Z_R,
    BasisKind,
    EncodingFamily,
    LogicalBasis,
    LogicalValue,
    apply_family_noise,
    measure_rows,
    prepare,
    sample_outcomes,
)

S2 = 1.0 / np.sqrt(2.0)

# Frozen amplitude oracles, basis order |00>, |01>, |10>, |11>.
CODEWORDS = {
    (EncodingFamily.DEPHASING, LogicalValue.ZERO): [0, 1, 0, 0],
    (EncodingFamily.DEPHASING, LogicalValue.ONE): [0, 0, 1, 0],
    (EncodingFamily.DEPHASING, LogicalValue.PLUS): [0, S2, S2, 0],
    (EncodingFamily.DEPHASING, LogicalValue.MINUS): [0, S2, -S2, 0],
    (EncodingFamily.ROTATION, LogicalValue.ZERO): [S2, 0, 0, S2],
    (EncodingFamily.ROTATION, LogicalValue.ONE): [0, S2, -S2, 0],
    (EncodingFamily.ROTATION, LogicalValue.PLUS): [0.5, 0.5, -0.5, 0.5],
    (EncodingFamily.ROTATION, LogicalValue.MINUS): [0.5, -0.5, 0.5, 0.5],
}


@pytest.mark.parametrize("family", list(EncodingFamily))
@pytest.mark.parametrize("value", list(LogicalValue))
def test_codeword_amplitudes(family, value):
    row = prepare(family, value)
    assert row.shape == (8,) and not row.flags.writeable
    np.testing.assert_allclose(row[0::2], CODEWORDS[(family, value)], atol=1e-12)
    assert not row[1::2].any()  # the probe slot is |0>


def test_rotation_x_codewords_are_bell_combinations():
    # |+_L> and |-_L> of the rotation family are (|0_L> +/- |1_L>)/sqrt(2)
    zero = prepare(EncodingFamily.ROTATION, LogicalValue.ZERO)
    one = prepare(EncodingFamily.ROTATION, LogicalValue.ONE)
    np.testing.assert_allclose(
        prepare(EncodingFamily.ROTATION, LogicalValue.PLUS),
        (zero + one) * S2,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        prepare(EncodingFamily.ROTATION, LogicalValue.MINUS),
        (zero - one) * S2,
        atol=1e-12,
    )


def _noise(state, family, theta):
    """The family's channel on one state, through the array stage."""
    return StateVector(apply_family_noise(state.amps[None, :], family, [theta])[0])


class TestCollectiveChannels:
    def test_dephasing_channel_is_rz_on_each_qubit(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            theta = rng.uniform(0, 2 * np.pi)
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = StateVector(amps / np.linalg.norm(amps))
            via_channel = _noise(state, EncodingFamily.DEPHASING, theta)
            by_hand = apply_single(apply_single(state, rz(theta), 1), rz(theta), 2)
            np.testing.assert_allclose(via_channel.amps, by_hand.amps, atol=1e-12)

    def test_rotation_channel_is_ry_double_angle_on_each_qubit(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            theta = rng.uniform(0, 2 * np.pi)
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = StateVector(amps / np.linalg.norm(amps))
            via_channel = _noise(state, EncodingFamily.ROTATION, theta)
            by_hand = apply_single(apply_single(state, ry(2 * theta), 1), ry(2 * theta), 2)
            np.testing.assert_allclose(via_channel.amps, by_hand.amps, atol=1e-12)

    def test_dephasing_codewords_invariant_up_to_phase(self):
        rng = np.random.default_rng(7)
        for value in LogicalValue:
            state = StateVector(prepare(EncodingFamily.DEPHASING, value))
            thetas = rng.uniform(0, 2 * np.pi, 25)
            rows = np.tile(state.amps, (len(thetas), 1))
            for row in apply_family_noise(rows, EncodingFamily.DEPHASING, thetas):
                assert equal_up_to_global_phase(state, StateVector(row), 1e-10)

    def test_rotation_codewords_exactly_invariant(self):
        rng = np.random.default_rng(8)
        for value in LogicalValue:
            thetas = rng.uniform(0, 2 * np.pi, 25)
            rows = np.tile(prepare(EncodingFamily.ROTATION, value), (len(thetas), 1))
            noisy = apply_family_noise(rows, EncodingFamily.ROTATION, thetas)
            np.testing.assert_allclose(noisy, rows, atol=1e-10)

    def test_dephasing_exact_phases(self):
        theta = 1.234
        # |01> and |10> pick up exactly e^{i theta}; |00> is untouched
        noisy = _noise(build_codeword(EncodingFamily.DEPHASING, LogicalValue.ZERO),
                       EncodingFamily.DEPHASING, theta)
        np.testing.assert_allclose(noisy.amps[1], np.exp(1j * theta), atol=1e-12)
        minus = build_codeword(EncodingFamily.DEPHASING, LogicalValue.MINUS)
        noisy = _noise(minus, EncodingFamily.DEPHASING, theta)
        np.testing.assert_allclose(noisy.amps, np.exp(1j * theta) * minus.amps, atol=1e-12)
        trivial = _noise(new_basis_state(2, 0), EncodingFamily.DEPHASING, theta)
        np.testing.assert_allclose(trivial.amps, [1, 0, 0, 0], atol=1e-12)

    def test_quarter_turn_rotation_flips_both_qubits(self):
        noisy = _noise(new_basis_state(2, 0), EncodingFamily.ROTATION, np.pi / 2)
        np.testing.assert_allclose(noisy.amps, [0, 0, 0, 1], atol=1e-12)

    def test_family_noise_dispatch(self):
        # each family gets its own channel, checked against the kron reference
        theta = 0.3
        channels = {
            EncodingFamily.DEPHASING: np.array([[1.0, 0.0], [0.0, np.exp(1j * theta)]]),
            EncodingFamily.ROTATION: np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
            ),
        }
        state = build_codeword(EncodingFamily.DEPHASING, LogicalValue.ZERO)
        for family, u in channels.items():
            a = apply_family_noise(state.amps[None, :], family, [theta])[0]
            np.testing.assert_allclose(a, apply_pair_unitary(state, u).amps, atol=1e-12)

    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_family_noise_on_no_rows(self, family):
        for dim in (4, 8):
            noisy = apply_family_noise(np.zeros((0, dim), dtype=complex), family, [])
            assert noisy.shape == (0, dim)

    def test_channels_act_on_first_two_qubits_of_three(self):
        # a bystander probe qubit must be left alone
        pair = build_codeword(EncodingFamily.DEPHASING, LogicalValue.PLUS)
        joint = tensor(pair, new_basis_state(1, 1))
        noisy = _noise(joint, EncodingFamily.DEPHASING, 1.1)
        # all amplitude stays on odd indices (probe = 1)
        np.testing.assert_allclose(noisy.amps[::2], 0, atol=1e-12)


def _random_state(rng, num_qubits):
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(amps / np.linalg.norm(amps))


def _bits(table: np.ndarray) -> np.ndarray:
    """The bit patterns of a complex table's real and imaginary parts."""
    return np.stack([table.real, table.imag]).view(np.int64)


class TestTablesAgreeWithCircuits:
    """The constant tables the array stages use are the values the gate
    circuits of ``circuit_reference`` produce; these checks tie each table
    back to its circuit."""

    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_codeword_rows_are_the_circuit_codewords_bit_for_bit(self, family):
        # signed zeros count: the noise kernels carry them into the streams
        assert np.array_equal(_bits(CODEWORD_ROWS[family]), _bits(codeword_rows(family)))
        assert not CODEWORD_ROWS[family].flags.writeable

    @pytest.mark.parametrize("basis", ALL_BASES)
    def test_readout_and_decode_are_the_circuit_tables_bit_for_bit(self, basis):
        assert np.array_equal(_bits(READOUT[basis]), _bits(readout_table(basis)))
        expected = decode_table(basis)
        assert DECODE[basis].dtype == expected.dtype
        assert np.array_equal(DECODE[basis], expected)
        assert not READOUT[basis].flags.writeable and not DECODE[basis].flags.writeable

    @pytest.mark.parametrize("family", list(EncodingFamily))
    @pytest.mark.parametrize("value", list(LogicalValue))
    def test_codeword_rows_are_codewords_with_probe_zero(self, family, value):
        expected = tensor(build_codeword(family, value), new_basis_state(1, 0)).amps
        np.testing.assert_array_equal(CODEWORD_ROWS[family][VALUE_INDEX[value]], expected)

    @pytest.mark.parametrize("basis", ALL_BASES)
    def test_readout_matrix_applies_the_readout_circuit(self, basis):
        for k in range(8):
            image = apply_readout(new_basis_state(3, k), basis).amps
            np.testing.assert_array_equal(READOUT[basis][k], image)
        rng = np.random.default_rng(51)
        states = [_random_state(rng, q) for q in (2, 3) for _ in range(5)]
        read = to_rows(states) @ READOUT[basis]
        expected = to_rows([apply_readout(state, basis) for state in states])
        np.testing.assert_allclose(read, expected, atol=1e-12)

    @pytest.mark.parametrize("basis", [Z_DP, Z_R])
    def test_z_readout_tables_are_the_identity(self, basis):
        # measure_rows skips these tables on that ground
        assert READOUT[basis].dtype == complex
        np.testing.assert_array_equal(READOUT[basis], np.eye(8))

    @pytest.mark.parametrize("basis", ALL_BASES)
    def test_decode_table_is_decode_pair(self, basis):
        for k in range(8):
            value = decode_pair(basis, PAIR_NAMES[k >> 1])
            assert DECODE[basis][k] == (INVALID if value is None else VALUE_INDEX[value])

    def test_pair_width_tables_are_the_probe_zero_entries(self):
        """The pair-width tables are read-only contiguous copies of the
        probe-width entries where the probe is |0>, and those tables never
        put a pair's amplitude on probe |1>."""
        wide, pair = ROW_TABLES[ROW_DIM], ROW_TABLES[PAIR_DIM]
        assert wide == (CODEWORD_ROWS, READOUT, DECODE, PAIR_ROWS, 1)  # the very objects
        assert pair.probe_qubits == 0
        rows = np.s_[:, 0::2], np.s_[:, 1::2]  # (probe |0>, probe |1>) entries
        matrices = np.s_[0::2, 0::2], np.s_[0::2, 1::2]
        tables = [(wide.codewords[f], pair.codewords[f], *rows) for f in EncodingFamily]
        tables += [(wide.readout[b], pair.readout[b], *matrices) for b in ALL_BASES]
        tables.append((wide.pairs, pair.pairs, *rows))
        for full, part, probe_zero, probe_one in tables:
            assert part.flags.c_contiguous and not part.flags.writeable
            assert np.array_equal(_bits(part), _bits(full[probe_zero]))
            assert not full[probe_one].any()
        for basis in ALL_BASES:
            part = pair.decode[basis]
            assert part.flags.c_contiguous and not part.flags.writeable
            assert part.dtype == DECODE[basis].dtype
            np.testing.assert_array_equal(part, DECODE[basis][0::2])
            np.testing.assert_array_equal(part, DECODE[basis][1::2])

    @pytest.mark.parametrize("basis", [X_DP, X_R])
    def test_pair_width_readout_is_the_even_columns_of_the_probe_width_one(self, basis):
        """(n, 4) rows rotate into the even entries of the (n, 8) rows they are
        part of, bit for bit, for every n >= 2 (a single (1, 8) row rounds
        another way)."""
        rng = np.random.default_rng(56)
        pool = np.vstack([*CODEWORD_ROWS.values(), PAIR_ROWS])
        for count in (2, 3, 7, 80, BLOCK_ROWS + 1):
            rows = pool[rng.integers(0, len(pool), count)]
            for family in EncodingFamily:
                rows = apply_family_noise(rows, family, rng.uniform(0, 7, count))
            narrow = np.ascontiguousarray(rows[:, 0::2])
            wide = rows @ READOUT[basis]
            read = narrow @ ROW_TABLES[PAIR_DIM].readout[basis]
            assert np.array_equal(_bits(read), _bits(wide[:, 0::2]))
            assert not wide[:, 1::2].any()

    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_closed_form_noise_matches_kron_reference(self, family):
        rng = np.random.default_rng(52)
        probe = EntangleParams.haar_random(rng).unitary
        pairs = [build_codeword(f, v) for f in EncodingFamily for v in LogicalValue]
        probe0 = new_basis_state(1, 0)
        entangled = [apply_full_unitary(tensor(pair, probe0), probe) for pair in pairs]
        for states in (pairs, entangled):
            thetas = rng.uniform(0, 2 * np.pi, len(states))
            rows = np.array([state.amps for state in states])
            noisy = apply_family_noise(rows, family, thetas)
            for state, theta, row in zip(states, thetas, noisy):
                if family is EncodingFamily.DEPHASING:
                    u = np.array([[1.0, 0.0], [0.0, np.exp(1j * theta)]])
                else:
                    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
                reference = apply_pair_unitary(state, u).amps
                np.testing.assert_allclose(row, reference, rtol=0, atol=1e-12)

    def test_sampler_picks_what_measure_computational_picks(self):
        rng = np.random.default_rng(53)
        states = [_random_state(rng, q) for q in (2, 3) for _ in range(20)]
        states += [build_codeword(EncodingFamily.ROTATION, LogicalValue.ZERO), new_basis_state(2, 3)]
        for seed in range(20):
            for state in states:
                bits, _ = measure_computational(state, np.random.default_rng(seed))
                u = np.random.default_rng(seed).random(1)
                assert sample_outcomes(state.amps[None, :], u)[0] == int(bits, 2)
                # a pair padded with its probe in |0> lands on the same pair
                if state.num_qubits == 2:
                    assert sample_outcomes(to_rows([state]), u)[0] >> 1 == int(bits, 2)

    def test_sampler_clamps_like_measure_computational(self):
        class TopOfRange:
            def random(self):
                return 1.0

        for state in (new_basis_state(2, 0), build_codeword(EncodingFamily.DEPHASING, LogicalValue.PLUS)):
            bits, _ = measure_computational(state, TopOfRange())
            assert bits == "11"
            assert sample_outcomes(state.amps[None, :], np.array([1.0]))[0] == 3
            assert sample_outcomes(to_rows([state]), np.array([1.0]))[0] == 7


def _codeword_rows(family, value, count):
    return np.tile(CODEWORD_ROWS[family][VALUE_INDEX[value]], (count, 1))


def _measure(rows, basis, rng):
    """``measure_rows`` of every row in one logical basis, one uniform per row."""
    x_mask = np.full(len(rows), basis.kind is BasisKind.X)
    return measure_rows(rows, basis.family, x_mask, rng.random(len(rows)))


def _basis(family, value):
    return LogicalBasis(BasisKind.Z if value.is_z_value else BasisKind.X, family)


def _probe_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Rows of a Haar probe unitary, mixed with codeword and product rows whose
    trailing amplitudes are exactly 0; a 4-wide row keeps the probe-|0> entries."""
    pool = np.vstack([EntangleParams.haar_random(rng).unitary, *CODEWORD_ROWS.values(), PAIR_ROWS])
    rows = pool[rng.integers(0, len(pool), count)]
    return rows if dim == 8 else rows[:, 0::2]


KERNEL_COUNTS = (0, 1, 80, BLOCK_ROWS + 1)


class TestKernelsMatchReference:
    """The pair-axis kernels against the per-pair ones they replaced
    (``session_reference``): equal bits, signed zeros included."""

    @pytest.mark.parametrize("count", KERNEL_COUNTS)
    @pytest.mark.parametrize("dim", (4, 8))
    @pytest.mark.parametrize("theta", ("random", 0.0, np.pi / 2, np.pi, -0.7))
    def test_rotation_noise_is_bit_identical(self, count, dim, theta):
        rng = np.random.default_rng(count + dim)
        rows = _probe_rows(rng, count, dim)
        thetas = rng.uniform(-7.0, 7.0, count) if theta == "random" else np.full(count, theta)
        noisy = apply_family_noise(rows, EncodingFamily.ROTATION, thetas)
        expected = rotation_noise_reference(rows, thetas)
        assert noisy.flags.c_contiguous
        assert np.array_equal(noisy.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("count", KERNEL_COUNTS)
    @pytest.mark.parametrize("dim", (4, 8))
    @pytest.mark.parametrize("u", (0.0, 0.5, 1.0 - 2.0**-53))
    def test_sampler_picks_the_same_outcomes(self, count, dim, u):
        rng = np.random.default_rng(count + dim)
        rows = _probe_rows(rng, count, dim)
        noisy = apply_family_noise(rows, EncodingFamily.ROTATION, rng.uniform(0, 7, count))
        rows = np.vstack([rows, noisy])
        uniforms = np.full(len(rows), u)
        outcomes = sample_outcomes(rows, uniforms)
        expected = sample_outcomes_reference(rows, uniforms)
        assert outcomes.dtype == expected.dtype
        assert np.array_equal(outcomes, expected)


class TestReadout:
    @pytest.mark.parametrize(
        "family,value",
        [(f, v) for f in EncodingFamily for v in LogicalValue],
    )
    def test_roundtrip_measurement(self, family, value):
        rng = np.random.default_rng(11)
        _, got = _measure(_codeword_rows(family, value, 8), _basis(family, value), rng)
        assert (got == VALUE_INDEX[value]).all()

    @pytest.mark.parametrize(
        "family,value",
        [(f, v) for f in EncodingFamily for v in LogicalValue],
    )
    def test_roundtrip_survives_matching_noise(self, family, value):
        rng = np.random.default_rng(12)
        thetas = rng.uniform(0, 2 * np.pi, 8)
        noisy = apply_family_noise(_codeword_rows(family, value, 8), family, thetas)
        _, got = _measure(noisy, _basis(family, value), rng)
        assert (got == VALUE_INDEX[value]).all()

    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_mixed_mask_matches_single_basis_calls(self, family):
        rng = np.random.default_rng(15)
        states = [_random_state(rng, q) for q in (2, 3) for _ in range(40)]
        codewords = CODEWORD_ROWS[family][rng.integers(0, 4, 80)]
        rows = np.vstack([to_rows(states), apply_family_noise(codewords, family, rng.uniform(0, 7, 80))])
        before = rows.copy()
        x_mask = rng.random(len(rows)) < 0.5
        uniforms = rng.random(len(rows))
        outcomes, values = measure_rows(rows, family, x_mask, uniforms)
        np.testing.assert_array_equal(rows, before)
        for mask in (x_mask, ~x_mask):
            alone = measure_rows(rows[mask], family, x_mask[mask], uniforms[mask])
            np.testing.assert_array_equal(alone[0], outcomes[mask])
            np.testing.assert_array_equal(alone[1], values[mask])

    def test_minus_dephasing_readout_raw_is_fixed(self):
        rng = np.random.default_rng(13)
        thetas = rng.uniform(0, 2 * np.pi, 10)
        rows = _codeword_rows(EncodingFamily.DEPHASING, LogicalValue.MINUS, 10)
        noisy = apply_family_noise(rows, EncodingFamily.DEPHASING, thetas)
        outcomes, got = _measure(noisy, X_DP, rng)
        assert (got == VALUE_INDEX[LogicalValue.MINUS]).all()
        assert {PAIR_NAMES[k >> 1] for k in outcomes} == {"11"}

    def test_minus_rotation_readout_raw_is_uniform_pair(self):
        rng = np.random.default_rng(14)
        rows = _codeword_rows(EncodingFamily.ROTATION, LogicalValue.MINUS, 60)
        outcomes, got = _measure(rows, X_R, rng)
        assert (got == VALUE_INDEX[LogicalValue.MINUS]).all()
        assert {PAIR_NAMES[k >> 1] for k in outcomes} == {"01", "10"}

    def test_decode_tables(self):
        assert decode_pair(Z_DP, "01") is LogicalValue.ZERO
        assert decode_pair(Z_DP, "10") is LogicalValue.ONE
        assert decode_pair(Z_DP, "00") is None
        assert decode_pair(Z_DP, "11") is None
        assert decode_pair(X_DP, "01") is LogicalValue.PLUS
        assert decode_pair(X_DP, "11") is LogicalValue.MINUS
        assert decode_pair(X_DP, "00") is None
        # rotation-family readouts never produce invalid pairs
        assert decode_pair(Z_R, "00") is LogicalValue.ZERO
        assert decode_pair(Z_R, "11") is LogicalValue.ZERO
        assert decode_pair(Z_R, "01") is LogicalValue.ONE
        assert decode_pair(Z_R, "10") is LogicalValue.ONE
        assert decode_pair(X_R, "00") is LogicalValue.PLUS
        assert decode_pair(X_R, "11") is LogicalValue.PLUS
        assert decode_pair(X_R, "01") is LogicalValue.MINUS
        assert decode_pair(X_R, "10") is LogicalValue.MINUS
        assert Z_DP.kind is BasisKind.Z and X_R.kind is BasisKind.X

    def test_x_readout_of_dephasing_minus(self):
        read = prepare(EncodingFamily.DEPHASING, LogicalValue.MINUS) @ READOUT[X_DP]
        np.testing.assert_allclose(np.abs(read), [0, 0, 0, 0, 0, 0, 1, 0], atol=1e-12)

    def test_cross_basis_is_fifty_fifty(self):
        """Measuring a Z codeword in the X basis splits evenly: 10^5 shots
        per family, 4 sigma window (and a lighter check going back)."""
        rng = np.random.default_rng(21)
        plus, minus = VALUE_INDEX[LogicalValue.PLUS], VALUE_INDEX[LogicalValue.MINUS]
        shots = 100_000
        for family in EncodingFamily:
            rows = _codeword_rows(family, LogicalValue.ZERO, shots)
            _, got = _measure(rows, _basis(family, LogicalValue.PLUS), rng)
            assert np.isin(got, (plus, minus)).all()
            hits = np.count_nonzero(got == plus)
            assert abs(hits - shots / 2) < 4 * np.sqrt(shots * 0.25)
        shots = 4000
        for family in EncodingFamily:
            rows = _codeword_rows(family, LogicalValue.PLUS, shots)
            _, got = _measure(rows, _basis(family, LogicalValue.ZERO), rng)
            hits = np.count_nonzero(got == VALUE_INDEX[LogicalValue.ZERO])
            assert abs(hits - shots / 2) < 4 * np.sqrt(shots * 0.25)

    def test_invalid_outcome_shape(self):
        # a bare |00> is outside the dephasing Z table
        rng = np.random.default_rng(2)
        outcomes, got = _measure(to_rows([new_basis_state(2, 0)]), Z_DP, rng)
        assert got[0] == INVALID
        assert PAIR_NAMES[outcomes[0] >> 1] == "00"


def _sift(rows, family, uniforms):
    """A participant's sift: ``measure_rows`` in Z for every row, as
    (decoded bit or INVALID, channel bit pair of the product state resent)."""
    outcomes, bits = measure_rows(rows, family, np.zeros(len(rows), dtype=bool), uniforms)
    return bits, outcomes >> 1


class TestSift:
    def test_sift_on_z_codeword_reproduces_bit(self):
        rng = np.random.default_rng(31)
        for family in EncodingFamily:
            bits, _ = _sift(CODEWORD_ROWS[family][:2], family, rng.random(2))
            assert bits.tolist() == [0, 1]

    def test_sift_resends_raw_computational_state(self):
        """The participant can only re-prepare product states, so the fresh
        pair is whatever bit pattern the measurement produced -- for the
        rotation family that is |00> or |11>, never the entangled codeword."""
        rng = np.random.default_rng(34)

        def sift(family, value, count):
            return _sift(_codeword_rows(family, value, count), family, rng.random(count))

        def bare(patterns):
            return to_rows([new_basis_state(2, p) for p in patterns])

        # dephasing Z codewords survive verbatim
        _, pairs = sift(EncodingFamily.DEPHASING, LogicalValue.ZERO, 1)
        np.testing.assert_allclose(PAIR_ROWS[pairs], bare([1]), atol=1e-12)
        bits, pairs = sift(EncodingFamily.DEPHASING, LogicalValue.ONE, 1)
        assert bits[0] == 1
        np.testing.assert_allclose(PAIR_ROWS[pairs], bare([2]), atol=1e-12)
        bits, pairs = sift(EncodingFamily.ROTATION, LogicalValue.ZERO, 40)
        assert (bits == 0).all()
        assert set(pairs.tolist()) == {0, 3}  # both even-parity patterns occur
        np.testing.assert_array_equal(PAIR_ROWS[pairs], bare(pairs))

    def test_sift_on_invalid_pair_returns_none(self):
        rng = np.random.default_rng(32)
        rows = to_rows([new_basis_state(2, 0)])
        bits, pairs = _sift(rows, EncodingFamily.DEPHASING, rng.random(1))
        assert bits[0] == INVALID
        # resend mirrors the raw outcome even when it is not a codeword
        np.testing.assert_allclose(PAIR_ROWS[pairs[0]], rows[0])

    def test_sift_on_x_codeword_is_unbiased(self):
        rng = np.random.default_rng(33)
        shots = 4000
        for family in EncodingFamily:
            rows = _codeword_rows(family, LogicalValue.PLUS, shots)
            bits, _ = _sift(rows, family, rng.random(shots))
            assert np.isin(bits, (0, 1)).all()
            ones = np.count_nonzero(bits)
            assert abs(ones - shots / 2) < 4 * np.sqrt(shots * 0.25)
