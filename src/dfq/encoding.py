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

The circuits are the definition. At import they are turned into constant
tables (codeword rows, one readout matrix and one decode table per logical
basis), and every stage a pair goes through -- noise, then readout and
sampling -- acts on whole arrays of pairs with those tables. A sift is
``measure_rows`` in the Z basis; the channel bits ``k >> 1`` of its
outcome index ``k`` pick the product state in ``PAIR_ROWS`` that a
participant would resend. A pair travels as a row of 8 amplitudes over
(qubit 1, qubit 2, probe), the probe being the least significant qubit and
|0> for a bare pair. There is one pipeline, on arrays (``dfq.attacks``
composes it into the pass every pair takes); the circuits and the kron
noise reference stay only as the definitions the tables are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .statevector import (
    H,
    StateVector,
    X,
    apply_cnot,
    apply_full_unitary,
    apply_single,
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


_CODEWORDS = {
    (family, value): _build_codeword(family, value)
    for family in EncodingFamily
    for value in LogicalValue
}


def prepare(family: EncodingFamily, value: LogicalValue) -> StateVector:
    """Two-qubit codeword for the given family and logical value (built once, shared)."""
    return _CODEWORDS[(family, value)]


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


def _apply_pair_unitary(state: StateVector, u: np.ndarray) -> StateVector:
    # Reference for the closed-form noise below: the same 2x2 unitary on both
    # channel qubits as one Kronecker-product matrix; a trailing probe is untouched.
    if state.num_qubits < 2:
        raise ValueError("collective noise acts on a pair of channel qubits")
    mat = np.kron(u, u)
    if state.num_qubits > 2:
        mat = np.kron(mat, np.eye(2 ** (state.num_qubits - 2)))
    return apply_full_unitary(state, mat)


# Constant tables, derived from the circuits above. Value indices follow
# VALUES: 0 and 1 are the Z values (and equal the bit they carry), 2 and 3
# the X values. Outcome indices run over the 8 row entries; the pair of
# channel bits of outcome k is k >> 1.
ROW_DIM = 8
VALUES = tuple(LogicalValue)
VALUE_INDEX = {value: index for index, value in enumerate(VALUES)}
VALUE_NAMES = tuple(value.value for value in VALUES)
PAIR_NAMES = ("00", "01", "10", "11")
INVALID = -1  # decode-table entry of a codespace escape


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def to_rows(states) -> np.ndarray:
    """(N, 8) rows for two- or three-qubit states; a bare pair gets its probe in |0>."""
    rows = np.zeros((len(states), ROW_DIM), dtype=complex)
    for row, state in zip(rows, states):
        if state.num_qubits == 2:
            row[0::2] = state.amps
        elif state.num_qubits == 3:
            row[:] = state.amps
        else:
            raise ValueError(f"a pair row needs two or three qubits, got {state.num_qubits}")
    return rows


_BASES = {EncodingFamily.DEPHASING: (Z_DP, X_DP), EncodingFamily.ROTATION: (Z_R, X_R)}
ALL_BASES = (Z_DP, X_DP, Z_R, X_R)

# Row v of CODEWORD_ROWS[family] is the codeword of VALUES[v].
CODEWORD_ROWS = {
    family: _readonly(to_rows([prepare(family, value) for value in VALUES]))
    for family in EncodingFamily
}
# Row k of READOUT[basis] is the image of basis row k, so rows @ READOUT[basis]
# applies the readout circuit to every row.
READOUT = {
    basis: _readonly(
        to_rows([apply_readout(new_basis_state(3, k), basis) for k in range(ROW_DIM)])
    )
    for basis in ALL_BASES
}
# DECODE[basis][k] is the value index read from outcome k, or INVALID.
DECODE = {
    basis: _readonly(
        np.array([
            VALUE_INDEX.get(decode_pair(basis, PAIR_NAMES[k >> 1]), INVALID)
            for k in range(ROW_DIM)
        ])
    )
    for basis in ALL_BASES
}
# PAIR_ROWS[p] is the bare product state of channel bits p: what a sift resends.
PAIR_ROWS = _readonly(np.eye(ROW_DIM, dtype=complex)[0::2].copy())


_ROTATION_SIGNS = np.array([-1.0, 1.0])


def apply_family_noise(rows: np.ndarray, family: EncodingFamily, thetas) -> np.ndarray:
    """Collective noise of the family on (N, 2**q) rows, one angle per row.

    Both channel qubits get the same one-qubit unitary and a probe qubit
    nothing: diag(1, e^{i theta}) for dephasing, a real rotation by theta
    for rotation. Returns new rows.
    """
    count, dim = rows.shape
    thetas = np.asarray(thetas, dtype=float)
    if family is EncodingFamily.DEPHASING:
        # amplitude picks up e^{i theta} per |1> among the two channel bits
        e = np.exp(1j * thetas)
        phases = np.empty((count, 4), dtype=complex)
        phases[:, 0] = 1.0
        phases[:, 1] = e
        phases[:, 2] = e
        phases[:, 3] = e * e
        return (rows.reshape(count, 4, dim // 4) * phases[:, :, None]).reshape(count, dim)
    # [[c, -s], [s, c]] on a qubit axis: c * t + (-s, s) * t with that axis
    # reversed. The pairs run along the last, contiguous axis, so every
    # product below is one long broadcast instead of N short ones.
    c = np.cos(thetas)
    s = _ROTATION_SIGNS[:, None] * np.sin(thetas)
    t = np.ascontiguousarray(rows.T).reshape(2, 2, dim // 4, count)
    u = c * t
    u += s[:, None, None, :] * t[::-1]
    t = c * u
    t += s[None, :, None, :] * u[:, ::-1]
    return np.ascontiguousarray(t.reshape(dim, count).T)


def sample_outcomes(rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Computational-basis outcome index per row for one uniform per row.

    The rule of ``measure_computational``: the first index whose cumulative
    probability exceeds u times the total, clamped to the last index.
    """
    probs = rows.real**2
    probs += rows.imag**2
    cum = np.cumsum(probs, axis=1)
    k = (cum <= (uniforms * cum[:, -1])[:, None]).sum(axis=1)
    return np.minimum(k, rows.shape[1] - 1, out=k)


def measure_rows(
    rows: np.ndarray, family: EncodingFamily, x_mask: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Measure each row in the family's Z basis, or its X basis where ``x_mask`` is set.

    Returns the outcome index and the decoded value index (INVALID for a
    codespace escape) of every row.
    """
    z_basis, x_basis = _BASES[family]
    # Both families' Z readout tables are the identity: only X rows are rotated.
    x = np.flatnonzero(x_mask)
    read = rows
    if len(x):
        read = rows.copy()
        read[x] = rows[x] @ READOUT[x_basis]
    k = sample_outcomes(read, uniforms)
    return k, np.where(x_mask, DECODE[x_basis][k], DECODE[z_basis][k])
