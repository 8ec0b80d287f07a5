"""Test-only reference: the gate circuits the codec tables came from.

The paper prepares its codewords and reads out its logical bases with short
two-qubit gate circuits. ``dfq.encoding`` states the codeword rows and the
decode lists those circuits give as literal constants, and applies the X
readout circuits elementwise (``read_x``); this module keeps the circuits,
the kron form of the collective noise and the one-state sampler, so that
tests can tie every table and array stage back to them.

A state is a 1-D complex array of 2, 4 or 8 amplitudes. Qubits are numbered
from 1, and qubit 1 is the most significant bit of the basis index, so
two-qubit amplitudes are ordered |00>, |01>, |10>, |11>; ``np.kron(a, b)``
puts the qubits of ``b`` last. Gates are 2x2 complex arrays. ``apply_single``
and ``apply_cnot`` give the floats, signed zeros included, that the tables
are compared with bit for bit. Sampling goes through an explicitly passed
numpy Generator.

``codeword_rows`` and ``decode_table`` build the tables the way
``dfq.encoding`` built them at import; ``to_rows`` widens states or rows to
the probe width; ``float_bits`` gives the bit patterns those comparisons
read.
"""

from __future__ import annotations

import math

import numpy as np

from dfq.encoding import (
    INVALID,
    PAIR_NAMES,
    ROW_DIM,
    VALUE_INDEX,
    VALUES,
    BasisKind,
    EncodingFamily,
    LogicalBasis,
    LogicalValue,
)

ATOL = 1e-10

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Phase gate diag(1, e^{i theta}); only the |1> branch picks up a phase."""
    return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    """Real rotation by theta/2 in the |0>,|1> plane (half-angle convention)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def new_basis_state(num_qubits: int, index: int) -> np.ndarray:
    """Computational basis state |index> with qubit 1 as the leading bit."""
    state = np.zeros(2**num_qubits, dtype=complex)
    state[index] = 1.0
    return state


def _num_qubits(state: np.ndarray) -> int:
    return len(state).bit_length() - 1


def apply_single(state: np.ndarray, gate: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 2x2 gate to the given qubit (1-based)."""
    n = _num_qubits(state)
    axis = qubit - 1
    t = state.reshape([2] * n)
    t = np.moveaxis(t, axis, 0).reshape(2, -1)
    t = gate @ t
    return np.moveaxis(t.reshape([2] * n), 0, axis).reshape(-1)


def apply_cnot(state: np.ndarray, control: int, target: int) -> np.ndarray:
    """Controlled-NOT with both qubit indices 1-based."""
    n = _num_qubits(state)
    t = state.reshape([2] * n).copy()
    sel = [slice(None)] * n
    sel[control - 1] = 1
    on0 = list(sel)
    on0[target - 1] = 0
    on1 = list(sel)
    on1[target - 1] = 1
    a, b = t[tuple(on0)].copy(), t[tuple(on1)].copy()
    t[tuple(on0)], t[tuple(on1)] = b, a
    return t.reshape(-1)


def probabilities(state: np.ndarray) -> np.ndarray:
    """Outcome probabilities |amp_i|^2 in basis order."""
    return state.real**2 + state.imag**2


def measure_computational(state: np.ndarray, rng: np.random.Generator) -> tuple[str, np.ndarray]:
    """Measure every qubit; returns the outcome bitstring and the collapsed state."""
    p = probabilities(state)
    cum = np.cumsum(p)
    k = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    k = min(k, len(state) - 1)
    n = _num_qubits(state)
    return format(k, f"0{n}b"), new_basis_state(n, k)


def basis_state_index(state: np.ndarray, tol: float = ATOL) -> int:
    """Index of the basis vector this state equals (up to phase), else ValueError."""
    p = probabilities(state)
    k = int(np.argmax(p))
    if p[k] < 1.0 - tol:
        raise ValueError("state is not a computational basis state")
    return k


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = ATOL) -> bool:
    """True when both states are normalized and |<a|b>| is within ``tol`` of one."""
    normalized = all(abs(np.vdot(s, s).real - 1.0) <= tol for s in (a, b))
    return normalized and float(np.abs(np.vdot(a, b))) >= 1.0 - tol


def build_codeword(family: EncodingFamily, value: LogicalValue) -> np.ndarray:
    """Two-qubit codeword for the given family and logical value, by its circuit."""
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


def apply_readout(state: np.ndarray, basis: LogicalBasis) -> np.ndarray:
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


def apply_pair_unitary(state: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Reference for the closed-form noise: the same 2x2 unitary on both
    # channel qubits as one Kronecker-product matrix; a trailing probe is untouched.
    mat = np.kron(u, u)
    if len(state) > 4:
        mat = np.kron(mat, np.eye(len(state) // 4))
    return mat @ state


def to_rows(states) -> np.ndarray:
    """(N, 8) rows of two- or three-qubit states or rows; a bare pair gets its probe in |0>."""
    rows = np.zeros((len(states), ROW_DIM), dtype=complex)
    for row, state in zip(rows, states):
        row[::ROW_DIM // len(state)] = state
    return rows


def float_bits(table: np.ndarray) -> np.ndarray:
    """The bit patterns of a complex table's real and imaginary parts."""
    return np.stack([table.real, table.imag]).view(np.int64)


def codeword_rows(family: EncodingFamily) -> np.ndarray:
    """Row v is the codeword of VALUES[v], by its circuit."""
    return np.array([build_codeword(family, value) for value in VALUES])


def decode_table(basis: LogicalBasis) -> np.ndarray:
    """Entry p is the value index ``decode_pair`` reads from channel bits p, or INVALID."""
    return np.array([VALUE_INDEX.get(decode_pair(basis, pair), INVALID) for pair in PAIR_NAMES])
