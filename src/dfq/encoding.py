"""Two-qubit logical encodings that ride out the two collective noise channels.

The dephasing family stores a logical bit in the single-excitation subspace:

    zero = |01>,  one = |10>,  plus/minus = (|01> +- |10>)/sqrt(2)

A common phase e^{i theta} on the |1> branch of both qubits multiplies every
codeword by at most a global phase. The rotation family uses two Bell-type
states that are exact fixed points of any common real rotation:

    zero = (|00> + |11>)/sqrt(2),  one = (|01> - |10>)/sqrt(2)

plus their normalized sum and difference for the conjugate basis.

Codewords are built by short gate circuits (the same circuits a hardware
run would use), not by writing amplitudes directly. Each logical basis is
measured by mapping it onto the computational basis first:

    Z dephasing   measure;            01 -> zero, 10 -> one, else invalid
    X dephasing   CNOT(1,2), H(1);    01 -> plus, 11 -> minus, else invalid
    Z rotation    measure;            even parity -> zero, odd -> one
    X rotation    H(2);               00/11 -> plus, 01/10 -> minus

The rotation readouts tile the whole two-qubit space, so they never report
an invalid outcome; tampering shows up there as a wrong logical value
rather than as a codespace escape.

States carrying a third qubit (an adversary's probe) are accepted
everywhere: circuits and decoding act on the first two qubits and the
extra qubit is measured along and ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .statevector import (
    H,
    RandomSource,
    StateVector,
    X,
    apply_cnot,
    apply_full_unitary,
    apply_single,
    measure_computational,
    new_basis_state,
)


class EncodingFamily(Enum):
    DEPHASING = "dephasing"
    ROTATION = "rotation"


class LogicalValue(Enum):
    ZERO = "zero"
    ONE = "one"
    PLUS = "plus"
    MINUS = "minus"

    @property
    def is_z_value(self) -> bool:
        return self in (LogicalValue.ZERO, LogicalValue.ONE)

    @property
    def bit(self) -> int:
        """Classical bit carried by a Z-basis value."""
        if self is LogicalValue.ZERO:
            return 0
        if self is LogicalValue.ONE:
            return 1
        raise ValueError(f"{self.value} carries no classical bit")


class BasisKind(Enum):
    Z = "Z"
    X = "X"


@dataclass(frozen=True)
class LogicalBasis:
    kind: BasisKind
    family: EncodingFamily


Z_DP = LogicalBasis(BasisKind.Z, EncodingFamily.DEPHASING)
X_DP = LogicalBasis(BasisKind.X, EncodingFamily.DEPHASING)
Z_R = LogicalBasis(BasisKind.Z, EncodingFamily.ROTATION)
X_R = LogicalBasis(BasisKind.X, EncodingFamily.ROTATION)


def basis_for(family: EncodingFamily, value: LogicalValue) -> LogicalBasis:
    if family is EncodingFamily.DEPHASING:
        return Z_DP if value.is_z_value else X_DP
    return Z_R if value.is_z_value else X_R


@dataclass(frozen=True)
class LogicalOutcome:
    """Decoded logical result plus the raw two channel-qubit bits."""

    value: LogicalValue | None
    raw: str

    @property
    def is_invalid(self) -> bool:
        return self.value is None


def _build_codeword(family: EncodingFamily, value: LogicalValue) -> StateVector:
    s = new_basis_state(2, 0)
    if family is EncodingFamily.DEPHASING:
        if value is LogicalValue.ZERO:
            s = apply_single(s, X, 2)
        elif value is LogicalValue.ONE:
            s = apply_single(s, X, 1)
        elif value is LogicalValue.PLUS:
            s = apply_single(s, H, 1)
            s = apply_single(s, X, 2)
            s = apply_cnot(s, 1, 2)
        else:
            s = apply_single(s, X, 1)
            s = apply_single(s, X, 2)
            s = apply_single(s, H, 1)
            s = apply_cnot(s, 1, 2)
    else:
        if value is LogicalValue.ZERO:
            s = apply_single(s, H, 1)
            s = apply_cnot(s, 1, 2)
        elif value is LogicalValue.ONE:
            s = apply_single(s, X, 1)
            s = apply_single(s, X, 2)
            s = apply_single(s, H, 1)
            s = apply_cnot(s, 1, 2)
        elif value is LogicalValue.PLUS:
            s = apply_single(s, H, 1)
            s = apply_single(s, X, 2)
            s = apply_cnot(s, 1, 2)
            s = apply_single(s, H, 1)
        else:
            s = apply_single(s, X, 1)
            s = apply_single(s, H, 1)
            s = apply_cnot(s, 1, 2)
            s = apply_single(s, H, 1)
    return s


_CODEWORDS: dict[tuple[EncodingFamily, LogicalValue], StateVector] = {}


def prepare(family: EncodingFamily, value: LogicalValue) -> StateVector:
    """Fresh two-qubit codeword for the given family and logical value."""
    key = (family, value)
    if key not in _CODEWORDS:
        _CODEWORDS[key] = _build_codeword(family, value)
    return _CODEWORDS[key]


def _apply_pair_unitary(state: StateVector, u: np.ndarray) -> StateVector:
    # Same 2x2 unitary on both channel qubits; a trailing probe qubit is untouched.
    if state.num_qubits < 2:
        raise ValueError("collective noise acts on a pair of channel qubits")
    mat = np.kron(u, u)
    if state.num_qubits > 2:
        mat = np.kron(mat, np.eye(2 ** (state.num_qubits - 2)))
    return apply_full_unitary(state, mat)


def apply_collective_dephasing(state: StateVector, theta: float) -> StateVector:
    """Common phase e^{i theta} on the |1> branch of both channel qubits."""
    u = np.array([[1.0, 0.0], [0.0, np.exp(1j * theta)]])
    return _apply_pair_unitary(state, u)


def apply_collective_rotation(state: StateVector, theta: float) -> StateVector:
    """Common real rotation by theta of both channel qubits."""
    c, s = np.cos(theta), np.sin(theta)
    u = np.array([[c, -s], [s, c]])
    return _apply_pair_unitary(state, u)


def apply_family_noise(state: StateVector, family: EncodingFamily, theta: float) -> StateVector:
    if family is EncodingFamily.DEPHASING:
        return apply_collective_dephasing(state, theta)
    return apply_collective_rotation(state, theta)


def apply_readout(state: StateVector, basis: LogicalBasis) -> StateVector:
    """Rotate the logical basis onto the computational one (no measurement)."""
    if basis.kind is BasisKind.Z:
        return state
    if basis.family is EncodingFamily.DEPHASING:
        return apply_single(apply_cnot(state, 1, 2), H, 1)
    return apply_single(state, H, 2)


def decode_pair(basis: LogicalBasis, pair: str) -> LogicalValue | None:
    """Logical value for a two-bit readout outcome; None marks a codespace escape."""
    if basis.family is EncodingFamily.DEPHASING:
        if basis.kind is BasisKind.Z:
            return {"01": LogicalValue.ZERO, "10": LogicalValue.ONE}.get(pair)
        return {"01": LogicalValue.PLUS, "11": LogicalValue.MINUS}.get(pair)
    even = pair in ("00", "11")
    if basis.kind is BasisKind.Z:
        return LogicalValue.ZERO if even else LogicalValue.ONE
    return LogicalValue.PLUS if even else LogicalValue.MINUS


def measure_logical(state: StateVector, basis: LogicalBasis, rng: RandomSource) -> LogicalOutcome:
    """Destructively measure a pair in the given logical basis."""
    bits, _ = measure_computational(apply_readout(state, basis), rng)
    pair = bits[:2]
    return LogicalOutcome(decode_pair(basis, pair), pair)


def sift_measure_and_resend(
    state: StateVector, family: EncodingFamily, rng: RandomSource
) -> tuple[int | None, StateVector]:
    """Computational measurement of both channel qubits plus re-preparation.

    Returns the decoded classical bit (None when the outcome falls outside
    the dephasing codespace) and the fresh product state that gets sent
    back in place of the measured pair.
    """
    bits, _ = measure_computational(state, rng)
    pair = bits[:2]
    value = decode_pair(basis_for(family, LogicalValue.ZERO), pair)
    return None if value is None else value.bit, new_basis_state(2, int(pair, 2))
