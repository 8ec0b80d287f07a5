"""Two-qubit logical encodings that ride out the two collective noise channels.

The dephasing family stores a logical bit in the single-excitation subspace:

    zero = |01>,  one = |10>,  plus/minus = (|01> +- |10>)/sqrt(2)

A common phase e^{i theta} on the |1> branch of both qubits multiplies every
codeword by at most a global phase. The rotation family uses two Bell-type
states that are exact fixed points of any common real rotation:

    zero = (|00> + |11>)/sqrt(2),  one = (|01> - |10>)/sqrt(2)

plus their normalized sum and difference for the conjugate basis.

Each logical basis is measured by mapping it onto the computational basis
first:

    Z dephasing   measure;            01 -> zero, 10 -> one, else invalid
    X dephasing   CNOT(1,2), H(1);    01 -> plus, 11 -> minus, else invalid
    Z rotation    measure;            even parity -> zero, odd -> one
    X rotation    H(2);               00/11 -> plus, 01/10 -> minus

The rotation readouts tile the whole two-qubit space, so they never report
an invalid outcome; tampering shows up there as a wrong logical value
rather than as a codespace escape.

A pair travels as a row of 4 amplitudes over (qubit 1, qubit 2), or of 8
over (qubit 1, qubit 2, probe) when an adversary's probe rides along; the
probe is the least significant qubit, |0> until it acts, and is measured
with the pair and ignored. The codec is three constant tables: the codeword
rows, one readout matrix and one decode table per logical basis. They are
written out below, 8 wide, as the values the paper's preparation and
readout circuits produce (entries 0, 1, +-s and +-s*s with s = 1/sqrt(2) as
an H gate holds it, and the signed zeros those circuits leave), and the
circuits are kept with the tests, which check the tables against them bit
for bit; ``ROW_TABLES`` adds their probe-|0> entries for 4-wide rows. Every
stage a pair goes through -- noise, then readout and sampling -- acts on
whole arrays of rows with the tables of their width. A sift is
``measure_rows`` in the Z basis; the channel bits of its outcome index pick
the product state in ``PAIR_ROWS`` that a participant would resend. There
is one pipeline, on arrays (``dfq.attacks`` composes it into the pass every
pair takes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np


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


# Value indices follow VALUES: 0 and 1 are the Z values (and equal the bit
# they carry), 2 and 3 the X values. Outcome indices run over the row
# entries; outcome k reads channel bits k >> 1 on an 8-wide row, k on a 4-wide one.
ROW_DIM, PAIR_DIM = 8, 4
VALUES = tuple(LogicalValue)
VALUE_INDEX = {value: index for index, value in enumerate(VALUES)}
VALUE_NAMES = tuple(value.value for value in VALUES)
PAIR_NAMES = ("00", "01", "10", "11")
INVALID = -1  # decode-table entry of a codespace escape

_BASES = {EncodingFamily.DEPHASING: (Z_DP, X_DP), EncodingFamily.ROTATION: (Z_R, X_R)}
ALL_BASES = (Z_DP, X_DP, Z_R, X_R)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)  # a copy only where ``arr`` is a strided view
    arr.setflags(write=False)
    return arr


def _probe_zero(pair_rows) -> np.ndarray:
    """Read-only (N, 8) rows of (N, 4) two-qubit amplitudes, the probe in |0>."""
    rows = np.zeros((len(pair_rows), ROW_DIM), dtype=complex)
    rows[:, 0::2] = pair_rows
    return _readonly(rows)


def _probe_untouched(pair_matrix) -> np.ndarray:
    """(8, 8) matrix acting as the 4x4 ``pair_matrix`` on the channel qubits
    and leaving the probe alone."""
    mat = np.zeros((ROW_DIM, ROW_DIM), dtype=complex)
    mat[0::2, 0::2] = pair_matrix
    mat[1::2, 1::2] = pair_matrix
    return _readonly(mat)


_S = 1.0 / math.sqrt(2.0)  # the entry of an H gate
_SS = _S * _S  # two H gates deep: 0.4999999999999999

# Row v of CODEWORD_ROWS[family] is the codeword of VALUES[v]; columns of the
# pair amplitudes are |00>, |01>, |10>, |11>.
CODEWORD_ROWS = {
    EncodingFamily.DEPHASING: _probe_zero([
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, _S, _S, -0.0],
        [0.0, _S, -_S, -0.0],
    ]),
    EncodingFamily.ROTATION: _probe_zero([
        [_S, 0.0, -0.0, _S],
        [0.0, _S, -_S, -0.0],
        [_SS, _SS, -_SS, _SS],
        [_SS, -_SS, _SS, _SS],
    ]),
}
# Row k of READOUT[basis] is the image of basis row k, so rows @ READOUT[basis]
# applies the readout circuit to every row. Both Z readouts are the identity.
READOUT = {
    Z_DP: _probe_untouched(np.eye(4)),
    X_DP: _probe_untouched([  # CNOT(1,2), then H(1)
        [_S, 0.0, _S, 0.0],
        [0.0, _S, 0.0, _S],
        [0.0, _S, 0.0, -_S],
        [_S, 0.0, -_S, 0.0],
    ]),
    Z_R: _probe_untouched(np.eye(4)),
    X_R: _probe_untouched([  # H(2)
        [_S, _S, 0.0, 0.0],
        [_S, -_S, 0.0, 0.0],
        [0.0, 0.0, _S, _S],
        [0.0, 0.0, _S, -_S],
    ]),
}
# DECODE[basis][k] is the value index read from outcome k, or INVALID; the
# lists below run over the channel bits 00, 01, 10, 11.
DECODE = {
    basis: _readonly(np.repeat(np.array(by_pair), 2))
    for basis, by_pair in (
        (Z_DP, [INVALID, 0, 1, INVALID]),
        (X_DP, [INVALID, 2, INVALID, 3]),
        (Z_R, [0, 1, 1, 0]),
        (X_R, [2, 3, 3, 2]),
    )
}
# PAIR_ROWS[p] is the bare product state of channel bits p: what a sift resends.
PAIR_ROWS = _probe_zero(np.eye(4))


class RowTables(NamedTuple):
    """The tables for rows of one width; outcome k reads channel bits k >> probe_qubits."""

    codewords: dict
    readout: dict
    decode: dict
    pairs: np.ndarray
    probe_qubits: int


# The tables by row width: as written above, and their probe-|0> entries.
ROW_TABLES = {
    ROW_DIM: RowTables(CODEWORD_ROWS, READOUT, DECODE, PAIR_ROWS, 1),
    PAIR_DIM: RowTables(
        {family: _readonly(rows[:, 0::2]) for family, rows in CODEWORD_ROWS.items()},
        {basis: _readonly(mat[0::2, 0::2]) for basis, mat in READOUT.items()},
        {basis: _readonly(table[0::2]) for basis, table in DECODE.items()},
        _readonly(PAIR_ROWS[:, 0::2]),
        0,
    ),
}


def prepare(family: EncodingFamily, value: LogicalValue) -> np.ndarray:
    """The read-only (8,) codeword row of ``value`` in ``family``, probe in |0>."""
    return CODEWORD_ROWS[family][VALUE_INDEX[value]]


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

    The rule of the one-state reference sampler ``measure_computational``
    (kept with the tests): the first index whose cumulative probability
    exceeds u times the total, clamped to the last index.
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

    The tables are those of the rows' width. Returns the outcome index and
    the decoded value index (INVALID for a codespace escape) of every row.
    """
    tables = ROW_TABLES[rows.shape[1]]
    z_basis, x_basis = _BASES[family]
    # Both families' Z readout tables are the identity: only X rows are rotated.
    # 4-wide rows rotate into the even entries of their 8-wide rows bit for
    # bit, unless just one row is rotated: a (1, 8) product rounds otherwise.
    x = np.flatnonzero(x_mask)
    read = rows
    if len(x):
        read = rows.copy()
        read[x] = rows[x] @ tables.readout[x_basis]
    k = sample_outcomes(read, uniforms)
    return k, np.where(x_mask, tables.decode[x_basis][k], tables.decode[z_basis][k])
