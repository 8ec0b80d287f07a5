"""Codeword, channel and readout behaviour for both encoding families."""

import numpy as np
import probes
import pytest
from circuit_reference import (
    apply_pair_unitary,
    apply_readout,
    apply_single,
    build_codeword,
    codeword_rows,
    decode_pair,
    decode_table,
    equal_up_to_global_phase,
    float_bits,
    measure_computational,
    new_basis_state,
    rz,
    ry,
    to_rows,
)
from session_reference import rotation_noise_reference, sample_outcomes_reference

from dfq.attacks import BLOCK_ROWS, Entangle, EntangleParams
from dfq.encoding import (
    ALL_BASES,
    CODEWORD_ROWS,
    DECODE,
    INVALID,
    PAIR_DIM,
    PAIR_NAMES,
    PAIR_ROWS,
    ROW_DIM,
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
    read_x,
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
    assert row.shape == (4,) and not row.flags.writeable
    np.testing.assert_allclose(row, CODEWORDS[(family, value)], atol=1e-12)


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
    """The family's channel on one state, through the array stage; the
    state it returns is checked to be normalized."""
    noisy = apply_family_noise(state[None, :], family, [theta])[0]
    assert abs(np.vdot(noisy, noisy).real - 1.0) <= 1e-10
    return noisy


class TestCollectiveChannels:
    def test_dephasing_channel_is_rz_on_each_qubit(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            theta = rng.uniform(0, 2 * np.pi)
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = amps / np.linalg.norm(amps)
            via_channel = _noise(state, EncodingFamily.DEPHASING, theta)
            by_hand = apply_single(apply_single(state, rz(theta), 1), rz(theta), 2)
            np.testing.assert_allclose(via_channel, by_hand, atol=1e-12)

    def test_rotation_channel_is_ry_double_angle_on_each_qubit(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            theta = rng.uniform(0, 2 * np.pi)
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = amps / np.linalg.norm(amps)
            via_channel = _noise(state, EncodingFamily.ROTATION, theta)
            by_hand = apply_single(apply_single(state, ry(2 * theta), 1), ry(2 * theta), 2)
            np.testing.assert_allclose(via_channel, by_hand, atol=1e-12)

    def test_dephasing_codewords_invariant_up_to_phase(self):
        rng = np.random.default_rng(7)
        for value in LogicalValue:
            state = prepare(EncodingFamily.DEPHASING, value)
            thetas = rng.uniform(0, 2 * np.pi, 25)
            rows = np.tile(state, (len(thetas), 1))
            for row in apply_family_noise(rows, EncodingFamily.DEPHASING, thetas):
                assert equal_up_to_global_phase(state, row, 1e-10)

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
        np.testing.assert_allclose(noisy[1], np.exp(1j * theta), atol=1e-12)
        minus = build_codeword(EncodingFamily.DEPHASING, LogicalValue.MINUS)
        noisy = _noise(minus, EncodingFamily.DEPHASING, theta)
        np.testing.assert_allclose(noisy, np.exp(1j * theta) * minus, atol=1e-12)
        trivial = _noise(new_basis_state(2, 0), EncodingFamily.DEPHASING, theta)
        np.testing.assert_allclose(trivial, [1, 0, 0, 0], atol=1e-12)

    def test_quarter_turn_rotation_flips_both_qubits(self):
        noisy = _noise(new_basis_state(2, 0), EncodingFamily.ROTATION, np.pi / 2)
        np.testing.assert_allclose(noisy, [0, 0, 0, 1], atol=1e-12)

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
            a = apply_family_noise(state[None, :], family, [theta])[0]
            np.testing.assert_allclose(a, apply_pair_unitary(state, u), atol=1e-12)

    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_family_noise_on_no_rows(self, family):
        for dim in (4, 8):
            noisy = apply_family_noise(np.zeros((0, dim), dtype=complex), family, [])
            assert noisy.shape == (0, dim)

    def test_channels_act_on_first_two_qubits_of_three(self):
        # a bystander probe qubit must be left alone
        pair = build_codeword(EncodingFamily.DEPHASING, LogicalValue.PLUS)
        joint = np.kron(pair, new_basis_state(1, 1))
        noisy = _noise(joint, EncodingFamily.DEPHASING, 1.1)
        # all amplitude stays on odd indices (probe = 1)
        np.testing.assert_allclose(noisy[::2], 0, atol=1e-12)


def _random_state(rng, num_qubits):
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return amps / np.linalg.norm(amps)


class TestTablesAgreeWithCircuits:
    """The constant tables and the X readout the array stages use give the
    values the gate circuits of ``circuit_reference`` produce; these checks
    tie each of them back to its circuit."""

    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_codeword_rows_are_the_circuit_codewords_bit_for_bit(self, family):
        # signed zeros count: the noise kernels carry them into the streams
        assert np.array_equal(float_bits(CODEWORD_ROWS[family]), float_bits(codeword_rows(family)))
        assert not CODEWORD_ROWS[family].flags.writeable

    @pytest.mark.parametrize("basis", ALL_BASES)
    def test_decode_is_the_circuit_table(self, basis):
        # decode_table reads decode_pair on every channel-bit pattern
        expected = decode_table(basis)
        assert DECODE[basis].dtype == expected.dtype
        assert np.array_equal(DECODE[basis], expected)
        assert not DECODE[basis].flags.writeable

    def test_pair_rows_are_the_product_states_bit_for_bit(self):
        # PAIR_ROWS[p] is what a sift that read channel bits p resends
        expected = np.array([new_basis_state(2, p) for p in range(4)])
        assert np.array_equal(float_bits(PAIR_ROWS), float_bits(expected))
        assert not PAIR_ROWS.flags.writeable

    @pytest.mark.parametrize("family", list(EncodingFamily))
    @pytest.mark.parametrize("value", list(LogicalValue))
    def test_codeword_rows_are_codewords_with_probe_zero(self, family, value):
        """The identity probe maps a codeword row to the codeword times probe
        |0>: every nonzero entry bit for bit, and zeros where ``np.kron`` has
        them, not always with its sign (the matrix product adds the
        identity's 0 * x products, +0, to a -0 entry)."""
        row = CODEWORD_ROWS[family][VALUE_INDEX[value]][None, :]
        got = Entangle(EntangleParams.identity()).apply_rows(row, None)[0]
        expected = np.kron(build_codeword(family, value), new_basis_state(1, 0))
        assert got.shape == (ROW_DIM,)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("basis", [X_DP, X_R])
    def test_x_readout_applies_the_readout_circuit(self, basis):
        for k in range(8):
            state = new_basis_state(3, k)
            read = read_x(to_rows([state]), basis.family)[0]
            np.testing.assert_array_equal(read, apply_readout(state, basis))
        rng = np.random.default_rng(51)
        states = [_random_state(rng, q) for q in (2, 3) for _ in range(5)]
        read = read_x(to_rows(states), basis.family)
        expected = to_rows([apply_readout(state, basis) for state in states])
        np.testing.assert_allclose(read, expected, atol=1e-12)

    @pytest.mark.parametrize("dim", (PAIR_DIM, ROW_DIM))
    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_x_readout_is_the_circuit_formula_bit_for_bit(self, family, dim):
        """``read_x`` gives the floats of the circuit's elementwise formula:
        (s*a + s*d, s*b + s*c, s*a - s*d, s*b - s*c) for dephasing's
        CNOT(1,2), H(1), and (s*a + s*b, s*a - s*b, s*c + s*d, s*c - s*d) for
        rotation's H(2), with a probe on the trailing axis. Noisy codewords of
        both families and Haar probe rows, signed zeros included."""
        rng = np.random.default_rng(58)
        for count in (0, 1, 2, 3, 80, BLOCK_ROWS + 1):
            rows = np.vstack([_probe_rows(rng, count, dim)] + [
                apply_family_noise(_width(CODEWORD_ROWS[f][rng.integers(0, 4, count)], dim), f,
                                   rng.uniform(0, 7, count))
                for f in EncodingFamily
            ])
            a, b, c, d = (S2 * rows.reshape(len(rows), 4, dim // 4)[:, k] for k in range(4))
            if family is EncodingFamily.DEPHASING:
                expected = (a + d, b + c, a - d, b - c)
            else:
                expected = (a + b, a - b, c + d, c - d)
            expected = np.stack(expected, axis=1).reshape(len(rows), dim)
            assert np.array_equal(float_bits(read_x(rows, family)), float_bits(expected))

    @pytest.mark.parametrize("basis", [Z_DP, Z_R])
    def test_z_readout_circuits_are_the_identity(self, basis):
        # measure_rows reads Z rows as they are on that ground
        for k in range(8):
            state = new_basis_state(3, k)
            np.testing.assert_array_equal(apply_readout(state, basis), state)

    @pytest.mark.parametrize("basis", [X_DP, X_R])
    def test_pair_width_readout_is_the_even_columns_of_the_probe_width_one(self, basis):
        """(n, 4) rows rotate into the even entries of the (n, 8) rows they are
        part of, bit for bit, for every n."""
        rng = np.random.default_rng(56)
        pool = to_rows(np.vstack([*CODEWORD_ROWS.values(), PAIR_ROWS]))
        for count in (1, 2, 3, 7, 80, BLOCK_ROWS + 1):
            rows = pool[rng.integers(0, len(pool), count)]
            for family in EncodingFamily:
                rows = apply_family_noise(rows, family, rng.uniform(0, 7, count))
            narrow = np.ascontiguousarray(rows[:, 0::2])
            wide = read_x(rows, basis.family)
            read = read_x(narrow, basis.family)
            assert np.array_equal(float_bits(read), float_bits(wide[:, 0::2]))
            assert not wide[:, 1::2].any()

    @pytest.mark.parametrize("dim", (PAIR_DIM, ROW_DIM))
    @pytest.mark.parametrize("basis", [X_DP, X_R])
    def test_x_readout_of_a_row_does_not_depend_on_its_batch(self, basis, dim):
        """Each row reads the same floats alone as inside a batch: noisy
        codewords of both families, and Haar probe rows at 8 wide."""
        rng = np.random.default_rng(57)
        count = BLOCK_ROWS + 1
        pool = [
            apply_family_noise(
                _width(CODEWORD_ROWS[family][rng.integers(0, 4, count)], dim),
                family, rng.uniform(0, 7, count),
            )
            for family in EncodingFamily
        ]
        if dim == ROW_DIM:
            pool.append(_probe_rows(rng, count, dim))
        rows = np.vstack(pool)[rng.permutation(len(pool) * count)[:count]]
        alone = np.vstack([read_x(rows[i:i + 1], basis.family) for i in range(count)])
        for size in (2, 3, 7, 80, count):
            start = int(rng.integers(0, count - size + 1))
            read = read_x(rows[start:start + size], basis.family)
            assert np.array_equal(float_bits(read), float_bits(alone[start:start + size]))

    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_closed_form_noise_matches_kron_reference(self, family):
        rng = np.random.default_rng(52)
        probe = probes.haar_random(rng).unitary
        pairs = [build_codeword(f, v) for f in EncodingFamily for v in LogicalValue]
        probe0 = new_basis_state(1, 0)
        entangled = [probe @ np.kron(pair, probe0) for pair in pairs]
        for states in (pairs, entangled):
            thetas = rng.uniform(0, 2 * np.pi, len(states))
            rows = np.array(states)
            noisy = apply_family_noise(rows, family, thetas)
            for state, theta, row in zip(states, thetas, noisy):
                if family is EncodingFamily.DEPHASING:
                    u = np.array([[1.0, 0.0], [0.0, np.exp(1j * theta)]])
                else:
                    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
                reference = apply_pair_unitary(state, u)
                np.testing.assert_allclose(row, reference, rtol=0, atol=1e-12)

    def test_sampler_picks_what_measure_computational_picks(self):
        rng = np.random.default_rng(53)
        states = [_random_state(rng, q) for q in (2, 3) for _ in range(20)]
        states += [build_codeword(EncodingFamily.ROTATION, LogicalValue.ZERO), new_basis_state(2, 3)]
        for seed in range(20):
            for state in states:
                bits, _ = measure_computational(state, np.random.default_rng(seed))
                u = np.random.default_rng(seed).random(1)
                assert sample_outcomes(state[None, :], u)[0] == int(bits, 2)
                # a pair padded with its probe in |0> lands on the same pair
                if len(state) == PAIR_DIM:
                    assert sample_outcomes(to_rows([state]), u)[0] >> 1 == int(bits, 2)

    def test_sampler_clamps_like_measure_computational(self):
        class TopOfRange:
            def random(self):
                return 1.0

        for state in (new_basis_state(2, 0), build_codeword(EncodingFamily.DEPHASING, LogicalValue.PLUS)):
            bits, _ = measure_computational(state, TopOfRange())
            assert bits == "11"
            assert sample_outcomes(state[None, :], np.array([1.0]))[0] == 3
            assert sample_outcomes(to_rows([state]), np.array([1.0]))[0] == 7


def _codeword_rows(family, value, count):
    return np.tile(CODEWORD_ROWS[family][VALUE_INDEX[value]], (count, 1))


def _measure(rows, basis, rng):
    """``measure_rows`` of every row in one logical basis, one uniform per row."""
    x_mask = np.full(len(rows), basis.kind is BasisKind.X)
    return measure_rows(rows, basis.family, x_mask, rng.random(len(rows)))


def _basis(family, value):
    return LogicalBasis(BasisKind.Z if value.is_z_value else BasisKind.X, family)


def _width(rows: np.ndarray, dim: int) -> np.ndarray:
    """(N, 4) pair rows at ``dim`` amplitudes, a probe in |0> at 8."""
    return to_rows(rows) if dim == ROW_DIM else rows


def _probe_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Rows of a Haar probe unitary, mixed with codeword and product rows whose
    trailing amplitudes are exactly 0; a 4-wide row keeps the probe-|0> entries."""
    pairs = to_rows(np.vstack([*CODEWORD_ROWS.values(), PAIR_ROWS]))
    pool = np.vstack([probes.haar_random(rng).unitary, pairs])
    rows = pool[rng.integers(0, len(pool), count)]
    return rows if dim == ROW_DIM else rows[:, 0::2]


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
    @pytest.mark.parametrize("u", ("random", 0.0, 0.5, 1.0 - 2.0**-53))
    def test_sampler_picks_the_same_outcomes(self, count, dim, u):
        """Probe, codeword, product and noisy rows; all-zero rows, whose total
        is 0 and whose outcome is the last index; and every codeword read in
        both X bases, symmetric rows where some running sums equal the
        threshold at u = 0.5."""
        rng = np.random.default_rng(count + dim)
        rows = _probe_rows(rng, count, dim)
        noisy = apply_family_noise(rows, EncodingFamily.ROTATION, rng.uniform(0, 7, count))
        readings = np.vstack([
            read_x(_width(CODEWORD_ROWS[family], dim), basis.family)
            for family in EncodingFamily
            for basis in (X_DP, X_R)
        ])
        cum = np.cumsum(readings.real**2 + readings.imag**2, axis=1)
        assert (cum == 0.5 * cum[:, -1:]).any()
        rows = np.vstack([rows, noisy, np.zeros((2, dim)), readings])
        uniforms = rng.random(len(rows)) if u == "random" else np.full(len(rows), u)
        outcomes = sample_outcomes(rows, uniforms)
        expected = sample_outcomes_reference(rows, uniforms)
        assert outcomes.dtype == expected.dtype
        assert np.array_equal(outcomes, expected)
        assert (outcomes[2 * count:2 * count + 2] == dim - 1).all()


class TestReadout:
    @pytest.mark.parametrize(
        "family,value",
        [(f, v) for f in EncodingFamily for v in LogicalValue],
    )
    def test_roundtrip_survives_matching_noise(self, family, value):
        # the angle 0 is the noiseless round trip
        rng = np.random.default_rng(12)
        thetas = np.r_[0.0, rng.uniform(0, 2 * np.pi, 8)]
        noisy = apply_family_noise(_codeword_rows(family, value, 9), family, thetas)
        _, got = _measure(noisy, _basis(family, value), rng)
        assert (got == VALUE_INDEX[value]).all()

    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_mixed_mask_matches_single_basis_calls(self, family):
        """One call with a mixed mask reads what one call per basis reads, on
        8-wide rows and on 4-wide ones; and a 4-wide row reads the channel
        bits and value that its widening, the probe in |0>, reads."""
        rng = np.random.default_rng(15)
        states = [_random_state(rng, q) for q in (2, 3) for _ in range(40)]
        codewords = to_rows(CODEWORD_ROWS[family][rng.integers(0, 4, 80)])
        wide = np.vstack([to_rows(states), apply_family_noise(codewords, family, rng.uniform(0, 7, 80))])
        x_mask = rng.random(len(wide)) < 0.5
        uniforms = rng.random(len(wide))
        pairs = np.r_[0:40, 80:160]  # the rows of the two-qubit states and the codewords
        narrow = np.ascontiguousarray(wide[pairs, 0::2])
        for rows, mask_all, drawn in ((wide, x_mask, uniforms), (narrow, x_mask[pairs], uniforms[pairs])):
            before = rows.copy()
            outcomes, values = measure_rows(rows, family, mask_all, drawn)
            np.testing.assert_array_equal(rows, before)
            for mask in (mask_all, ~mask_all):
                alone = measure_rows(rows[mask], family, mask_all[mask], drawn[mask])
                np.testing.assert_array_equal(alone[0], outcomes[mask])
                np.testing.assert_array_equal(alone[1], values[mask])
        widened = measure_rows(to_rows(narrow), family, x_mask[pairs], uniforms[pairs])
        np.testing.assert_array_equal(widened[0], outcomes)
        np.testing.assert_array_equal(widened[1], values)

    @pytest.mark.parametrize("dim", (PAIR_DIM, ROW_DIM))
    @pytest.mark.parametrize("family", list(EncodingFamily))
    def test_mixed_mask_decodes_each_row_in_its_own_basis(self, family, dim):
        """Under a random mixed mask, each row's value is DECODE of the basis
        its mask bit picks, at the channel bits it read."""
        rng = np.random.default_rng(16)
        rows = np.array([_random_state(rng, 2) for _ in range(400)])
        x_mask = rng.random(len(rows)) < 0.5
        pairs, values = measure_rows(_width(rows, dim), family, x_mask, rng.random(len(rows)))
        z_basis, x_basis = (LogicalBasis(kind, family) for kind in (BasisKind.Z, BasisKind.X))
        expected = [DECODE[x_basis if x else z_basis][p] for x, p in zip(x_mask, pairs)]
        np.testing.assert_array_equal(values, expected)
        # every (basis, channel bits) entry of the table is looked up
        assert len(set(zip(x_mask.tolist(), pairs.tolist()))) == 8

    def test_minus_dephasing_readout_raw_is_fixed(self):
        rng = np.random.default_rng(13)
        thetas = rng.uniform(0, 2 * np.pi, 10)
        rows = _codeword_rows(EncodingFamily.DEPHASING, LogicalValue.MINUS, 10)
        noisy = apply_family_noise(rows, EncodingFamily.DEPHASING, thetas)
        pairs, got = _measure(noisy, X_DP, rng)
        assert (got == VALUE_INDEX[LogicalValue.MINUS]).all()
        assert {PAIR_NAMES[p] for p in pairs} == {"11"}

    @pytest.mark.parametrize("value, basis, raw", [
        (LogicalValue.MINUS, X_R, {"01", "10"}),
        (LogicalValue.ZERO, Z_R, {"00", "11"}),  # a sift resends either product state
    ], ids=["minus-X", "zero-Z"])
    def test_rotation_readout_raw_is_a_pair_of_patterns(self, value, basis, raw):
        rng = np.random.default_rng(14)
        rows = _codeword_rows(EncodingFamily.ROTATION, value, 60)
        pairs, got = _measure(rows, basis, rng)
        assert (got == VALUE_INDEX[value]).all()
        assert {PAIR_NAMES[p] for p in pairs} == raw

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
            assert np.isin(got, (VALUE_INDEX[LogicalValue.ZERO], VALUE_INDEX[LogicalValue.ONE])).all()
            hits = np.count_nonzero(got == VALUE_INDEX[LogicalValue.ZERO])
            assert abs(hits - shots / 2) < 4 * np.sqrt(shots * 0.25)

    def test_invalid_outcome_shape(self):
        # a bare |00> is outside the dephasing Z table
        rng = np.random.default_rng(2)
        pairs, got = _measure(to_rows([new_basis_state(2, 0)]), Z_DP, rng)
        assert got[0] == INVALID
        assert PAIR_NAMES[pairs[0]] == "00"

