"""The gates, circuits and sampler of ``circuit_reference``, which the codec
tables and the array stages are checked against."""

import numpy as np
import pytest
from circuit_reference import (
    H,
    X,
    apply_cnot,
    apply_single,
    basis_state_index,
    equal_up_to_global_phase,
    measure_computational,
    new_basis_state,
    probabilities,
    rz,
    ry,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


class TestGateDefinitions:
    def test_rz_is_phase_on_one_only(self):
        theta = np.pi / 5
        np.testing.assert_allclose(rz(theta), np.diag([1.0, np.exp(1j * theta)]), atol=1e-12)

    def test_ry_matches_half_angle_convention(self):
        theta = 0.83
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        np.testing.assert_allclose(ry(theta), [[c, -s], [s, c]], atol=1e-12)

    def test_named_gates_are_unitary(self):
        for m in (X, H, CNOT, rz(1.3), ry(-2.1)):
            np.testing.assert_allclose(
                m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12
            )


class TestStateConstruction:
    def test_basis_state(self):
        state = new_basis_state(2, 1)
        np.testing.assert_allclose(state, [0, 1, 0, 0])
        assert len(state) == 4
        assert basis_state_index(state) == 1
        np.testing.assert_allclose(new_basis_state(2, 0), [1, 0, 0, 0])
        assert basis_state_index(new_basis_state(3, 5)) == 5  # |101>


class TestOperations:
    def test_hadamard_on_zero(self):
        state = apply_single(new_basis_state(1, 0), H, 1)
        np.testing.assert_allclose(state, [INV_SQRT2, INV_SQRT2], atol=1e-12)

    def test_x_on_msb_of_two_qubits(self):
        # qubit 1 is the most significant bit: X there maps |00> -> |10>
        state = apply_single(new_basis_state(2, 0), X, 1)
        assert basis_state_index(state) == 2

    def test_x_on_lsb(self):
        state = apply_single(new_basis_state(2, 0), X, 2)
        assert basis_state_index(state) == 1

    def test_rz_acts_on_selected_qubit_only(self):
        theta = np.pi / 5
        state = apply_single(new_basis_state(2, 1), rz(theta), 2)
        np.testing.assert_allclose(
            state, [0, np.exp(1j * theta), 0, 0], atol=1e-12
        )
        state = apply_single(new_basis_state(2, 1), rz(theta), 1)
        np.testing.assert_allclose(state, [0, 1, 0, 0], atol=1e-12)

    def test_cnot_truth_table(self):
        # control=1 (MSB), target=2: |10> -> |11>, |11> -> |10>, |0x> fixed
        assert basis_state_index(apply_cnot(new_basis_state(2, 2), 1, 2)) == 3
        assert basis_state_index(apply_cnot(new_basis_state(2, 3), 1, 2)) == 2
        assert basis_state_index(apply_cnot(new_basis_state(2, 0), 1, 2)) == 0
        assert basis_state_index(apply_cnot(new_basis_state(2, 1), 1, 2)) == 1

    def test_cnot_reversed_control(self):
        assert basis_state_index(apply_cnot(new_basis_state(2, 1), 2, 1)) == 3

    def test_cnot_on_superposition(self):
        state = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        out = apply_cnot(state, 1, 2)
        np.testing.assert_allclose(out, np.array([0, 1, 0, 1]) / np.sqrt(2), atol=1e-12)

    @pytest.mark.parametrize("qubit", [1, 2, 3])
    def test_apply_single_is_the_kron_operator(self, qubit):
        # an asymmetric gate: a wrong axis or a transposed gate gives other amplitudes
        gate = ry(0.83) @ rz(1.3)
        state = np.random.default_rng(qubit).normal(size=16).view(complex)
        op = np.kron(np.kron(np.eye(2 ** (qubit - 1)), gate), np.eye(2 ** (3 - qubit)))
        np.testing.assert_allclose(apply_single(state, gate, qubit), op @ state, atol=1e-12)

    @pytest.mark.parametrize("control, target", [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)])
    def test_apply_cnot_is_the_permutation_matrix(self, control, target):
        # qubit q is bit 3 - q of the index; the target bit flips where the control bit is set
        perm = np.zeros((8, 8))
        for k in range(8):
            perm[k ^ (((k >> (3 - control)) & 1) << (3 - target)), k] = 1.0
        state = np.random.default_rng(10 * control + target).normal(size=16).view(complex)
        np.testing.assert_array_equal(apply_cnot(state, control, target), perm @ state)

    def test_random_circuit_preserves_norm(self):
        rng = np.random.default_rng(404)
        for _ in range(100):
            num_qubits = int(rng.integers(1, 4))
            amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
            state = amps / np.linalg.norm(amps)
            for _ in range(6):
                gate = [X, H, rz(rng.uniform(0, 2 * np.pi)), ry(rng.uniform(0, 2 * np.pi))][
                    int(rng.integers(0, 4))
                ]
                state = apply_single(state, gate, int(rng.integers(1, num_qubits + 1)))
            assert abs(np.linalg.norm(state) - 1.0) < 1e-10


class TestMeasurement:
    def test_deterministic_on_basis_state(self):
        rng = np.random.default_rng(0)
        bits, collapsed = measure_computational(new_basis_state(2, 2), rng)
        assert bits == "10"
        assert basis_state_index(collapsed) == 2

    def test_statistics_on_hadamard_pair(self):
        """Sampling |++> 100000 times stays within 4 sigma of uniform."""
        state = apply_single(new_basis_state(2, 0), H, 1)
        state = apply_single(state, H, 2)
        rng = np.random.default_rng(1234)
        shots = 100_000
        counts = {}
        for _ in range(shots):
            bits, _ = measure_computational(state, rng)
            counts[bits] = counts.get(bits, 0) + 1
        sigma = np.sqrt(shots * 0.25 * 0.75)
        for outcome in ("00", "01", "10", "11"):
            assert abs(counts.get(outcome, 0) - shots / 4) < 4 * sigma

    def test_collapse_is_reported_outcome(self):
        state = apply_single(new_basis_state(1, 0), H, 1)
        rng = np.random.default_rng(9)
        for _ in range(20):
            bits, collapsed = measure_computational(state, rng)
            assert basis_state_index(collapsed) == int(bits, 2)

    def test_probabilities_sum_to_one(self):
        state = apply_single(new_basis_state(2, 0), H, 1)
        np.testing.assert_allclose(probabilities(state).sum(), 1.0, atol=1e-12)

    def test_probabilities_ignore_global_phase(self):
        state = np.exp(1j * np.pi / 5) * new_basis_state(2, 3)
        np.testing.assert_allclose(probabilities(state), [0, 0, 0, 1], atol=1e-12)


def test_equal_up_to_global_phase():
    state = apply_single(new_basis_state(1, 0), H, 1)
    rotated = state * np.exp(1j * 0.7)
    assert equal_up_to_global_phase(state, rotated)
    other = apply_single(new_basis_state(1, 1), H, 1)
    assert not equal_up_to_global_phase(state, other)
    assert not equal_up_to_global_phase(new_basis_state(2, 1), new_basis_state(2, 2))
    # an unnormalized state equals no state, whatever its overlap
    assert not equal_up_to_global_phase(state, 2 * state)
    assert not equal_up_to_global_phase(2 * state, state)


def test_gate_then_adjoint_restores_input():
    rng = np.random.default_rng(606)
    gates = [X, H, rz(0.9), ry(1.7)]
    for _ in range(100):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = amps / np.linalg.norm(amps)
        for gate in gates:
            back = apply_single(apply_single(state, gate, 1), gate.conj().T, 1)
            np.testing.assert_allclose(back, state, atol=1e-10)
