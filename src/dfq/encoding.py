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

A pair travels as a row of 4 amplitudes over (qubit 1, qubit 2). An
entangling attack (``dfq.attacks.Entangle``) adjoins its probe as a third,
least significant qubit, and from there on the pair is a row of 8 over
(qubit 1, qubit 2, probe); the probe is measured with the pair and ignored.
The codec is two constant tables and one function: the codeword rows, one
decode list per logical basis over the channel bits, and ``read_x``, the X
readout circuit of a family applied elementwise to rows of either width, so
a row reads the same floats alone or in any batch. Both Z readouts are a
plain measurement. The codewords are written out below as the values the
paper's preparation circuits produce (entries 0, 1, +-s and +-s*s with
s = 1/sqrt(2) as an H gate holds it, and the signed zeros those circuits
leave); the circuits are kept with the tests, which check the codewords and
``read_x`` against them bit for bit. Every stage a pair goes through --
noise, then readout and sampling -- acts on whole arrays of rows of either
width. A sift is ``measure_rows`` in the Z basis; the channel bits it reads
pick the product state in ``PAIR_ROWS`` that a participant would resend.
There is one pipeline, on arrays (``dfq.attacks`` composes it into the pass
every pair takes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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
# they carry), 2 and 3 the X values. Channel bits index PAIR_NAMES. A pair
# row has PAIR_DIM amplitudes, ROW_DIM once a probe is adjoined.
ROW_DIM, PAIR_DIM = 8, 4
VALUES = tuple(LogicalValue)
VALUE_INDEX = {value: index for index, value in enumerate(VALUES)}
VALUE_NAMES = tuple(value.value for value in VALUES)
PAIR_NAMES = ("00", "01", "10", "11")
INVALID = -1  # decode-table entry of a codespace escape

_BASES = {EncodingFamily.DEPHASING: (Z_DP, X_DP), EncodingFamily.ROTATION: (Z_R, X_R)}
ALL_BASES = (Z_DP, X_DP, Z_R, X_R)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


_S = 1.0 / math.sqrt(2.0)  # the entry of an H gate
_SS = _S * _S  # two H gates deep: 0.4999999999999999

# Row v of CODEWORD_ROWS[family] is the codeword of VALUES[v]; columns of the
# pair amplitudes are |00>, |01>, |10>, |11>.
CODEWORD_ROWS = {
    EncodingFamily.DEPHASING: _readonly(np.array([
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, _S, _S, -0.0],
        [0.0, _S, -_S, -0.0],
    ], dtype=complex)),
    EncodingFamily.ROTATION: _readonly(np.array([
        [_S, 0.0, -0.0, _S],
        [0.0, _S, -_S, -0.0],
        [_SS, _SS, -_SS, _SS],
        [_SS, -_SS, _SS, _SS],
    ], dtype=complex)),
}
# DECODE[basis][p] is the value index read from channel bits p, or INVALID.
DECODE = {
    basis: _readonly(np.array(by_pair))
    for basis, by_pair in (
        (Z_DP, [INVALID, 0, 1, INVALID]),
        (X_DP, [INVALID, 2, INVALID, 3]),
        (Z_R, [0, 1, 1, 0]),
        (X_R, [2, 3, 3, 2]),
    )
}
# PAIR_ROWS[p] is the bare product state of channel bits p: what a sift resends.
PAIR_ROWS = _readonly(np.eye(4, dtype=complex))


def prepare(family: EncodingFamily, value: LogicalValue) -> np.ndarray:
    """The read-only (4,) codeword row of ``value`` in ``family``."""
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
    exceeds u times the total, clamped to the last index. The running sums
    are built column by column, adding in ``cumsum``'s order, so each is the
    float ``cumsum`` gives; they never fall, so the entries at or below the
    threshold are a prefix of the row, counted as the set bits of the row's
    comparison bytes read as one integer.
    """
    dim = rows.shape[1]
    cum = rows.real**2
    cum += rows.imag**2
    for j in range(1, dim):
        cum[:, j] += cum[:, j - 1]
    below = cum <= (uniforms * cum[:, -1])[:, None]
    k = np.bitwise_count(below.view(f"u{dim}"))[:, 0]  # one dim-byte integer per row
    return np.minimum(k, dim - 1, dtype=np.intp)


def read_x(rows: np.ndarray, family: EncodingFamily) -> np.ndarray:
    """The family's X readout circuit on (N, 2**q) rows; returns new rows.

    Dephasing's CNOT(1,2) then H(1) maps amplitudes (a, b, c, d) of the
    channel bits to (s*a + s*d, s*b + s*c, s*a - s*d, s*b - s*c), rotation's
    H(2) to (s*a + s*b, s*a - s*b, s*c + s*d, s*c - s*d). A probe qubit rides
    along on a trailing axis. Each entry is two products and one sum, so a
    row's floats do not depend on the rows read with it.
    """
    count, dim = rows.shape
    sa = _S * rows.reshape(count, 4, dim // 4)
    out = np.empty_like(sa)
    if family is EncodingFamily.DEPHASING:
        np.add(sa[:, 0], sa[:, 3], out=out[:, 0])  # one column each: a reversed slice is slower
        np.add(sa[:, 1], sa[:, 2], out=out[:, 1])
        np.subtract(sa[:, 0], sa[:, 3], out=out[:, 2])
        np.subtract(sa[:, 1], sa[:, 2], out=out[:, 3])
    else:
        u, v = sa[:, 0::2], sa[:, 1::2]
        np.add(u, v, out=out[:, 0::2])
        np.subtract(u, v, out=out[:, 1::2])
    return out.reshape(count, dim)


def measure_rows(
    rows: np.ndarray, family: EncodingFamily, x_mask: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Measure each row in the family's Z basis, or its X basis where ``x_mask`` is set.

    Returns the channel bits read (an index into PAIR_NAMES; a probe's
    outcome is dropped) and the decoded value index (INVALID for a codespace
    escape) of every row.
    """
    z_basis, x_basis = _BASES[family]
    x = np.flatnonzero(x_mask)
    read = rows
    if len(x):
        read = rows.copy()
        read[x] = read_x(rows[x], family)
    pairs = sample_outcomes(read, uniforms) // (rows.shape[1] // PAIR_DIM)
    return pairs, np.where(x_mask, DECODE[x_basis][pairs], DECODE[z_basis][pairs])
