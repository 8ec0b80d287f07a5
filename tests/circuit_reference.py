"""Test-only reference: the gate-level simulator the codec tables came from.

The paper prepares its codewords and reads out its logical bases with short
two-qubit gate circuits. ``dfq.encoding`` states the tables those circuits
build (codeword rows, one readout matrix and one decode table per basis) as
literal constants; this module keeps the circuits, the dense statevector
core they run on, the kron form of the collective noise and the one-state
sampler, so that tests can tie every table and array stage back to them.

Everything below was moved verbatim from the package: ``StateVector`` and
its gates and measurement from ``dfq.statevector``; ``build_codeword``
(``_build_codeword``), ``apply_readout``, ``decode_pair``, ``to_rows`` and
``apply_pair_unitary`` (``_apply_pair_unitary``) from ``dfq.encoding``.
``codeword_rows``, ``readout_table`` and ``decode_table`` build the tables
the way ``dfq.encoding`` built them at import.

Dense statevector simulation for one to three qubits: a few fixed gates, two
parametric rotations, projective measurement in the computational basis and
a global-phase-insensitive equality test. Qubits are numbered from 1, and
qubit 1 is the most significant bit of the basis index, so two-qubit
amplitudes are ordered |00>, |01>, |10>, |11>. States are immutable: every
operation returns a fresh StateVector and the amplitude buffers are marked
read-only. Sampling always goes through an explicitly passed numpy
Generator; there is no hidden global RNG.
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
from dfq.statevector import RandomSource

MAX_QUBITS = 3
ATOL = 1e-10


class StateVector:
    """Normalized complex amplitude vector over ``num_qubits`` qubits."""

    __slots__ = ("num_qubits", "amps")

    def __init__(self, amps) -> None:
        arr = np.array(amps, dtype=complex)
        num_qubits = int(arr.shape[0]).bit_length() - 1 if arr.ndim == 1 else 0
        if arr.ndim != 1 or arr.shape[0] != 2**num_qubits:
            raise ValueError(f"amplitude count must be a power of two, got shape {arr.shape}")
        if not 1 <= num_qubits <= MAX_QUBITS:
            raise ValueError(f"need 1..{MAX_QUBITS} qubits, got {num_qubits}")
        if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.vdot(arr, arr).real)
        if abs(norm_sq - 1.0) > ATOL:
            raise ValueError(f"state is not normalized: sum |amp|^2 = {norm_sq!r}")
        arr.setflags(write=False)
        self.num_qubits = num_qubits
        self.amps = arr

    @classmethod
    def _trusted(cls, num_qubits: int, arr: np.ndarray) -> "StateVector":
        # Fast path for freshly computed, provably normalized buffers.
        sv = object.__new__(cls)
        arr.setflags(write=False)
        sv.num_qubits = num_qubits
        sv.amps = arr
        return sv

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def __repr__(self) -> str:
        return f"StateVector({np.array2string(self.amps, precision=6)})"


class Gate:
    """A named unitary: 2x2 for single-qubit gates, 4x4 for two-qubit ones."""

    __slots__ = ("name", "matrix")

    def __init__(self, name: str, matrix) -> None:
        mat = np.array(matrix, dtype=complex)
        if mat.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"gate matrix must be 2x2 or 4x4, got shape {mat.shape}")
        finite = np.isfinite(mat).all()  # a NaN deviation would pass the bound below
        if not finite or float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))) > ATOL:
            raise ValueError(f"gate {name!r} is not unitary")
        mat.setflags(write=False)
        self.name = name
        self.matrix = mat

    @property
    def is_single_qubit(self) -> bool:
        return self.matrix.shape == (2, 2)

    def __repr__(self) -> str:
        return f"Gate({self.name!r})"


_INV_SQRT2 = 1.0 / math.sqrt(2.0)

X = Gate("X", [[0, 1], [1, 0]])
H = Gate("H", [[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]])


def rz(theta: float) -> Gate:
    """Phase gate diag(1, e^{i theta}); only the |1> branch picks up a phase."""
    return Gate(f"RZ({theta})", [[1, 0], [0, np.exp(1j * theta)]])


def ry(theta: float) -> Gate:
    """Real rotation by theta/2 in the |0>,|1> plane (half-angle convention)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return Gate(f"RY({theta})", [[c, -s], [s, c]])


def _check_qubit(qubit: int, num_qubits: int) -> None:
    if not 1 <= qubit <= num_qubits:
        raise ValueError(f"qubit {qubit} out of range for a {num_qubits}-qubit state")


def new_basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> with qubit 1 as the leading bit."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be 1..{MAX_QUBITS}, got {num_qubits}")
    dim = 2**num_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    arr = np.zeros(dim, dtype=complex)
    arr[index] = 1.0
    return StateVector._trusted(num_qubits, arr)


def apply_single(state: StateVector, gate: Gate, qubit: int) -> StateVector:
    """Apply a single-qubit gate to the given qubit (1-based)."""
    if not gate.is_single_qubit:
        raise ValueError(f"{gate.name} is not a single-qubit gate")
    n = state.num_qubits
    _check_qubit(qubit, n)
    axis = qubit - 1
    t = state.amps.reshape([2] * n)
    t = np.moveaxis(t, axis, 0).reshape(2, -1)
    t = gate.matrix @ t
    out = np.moveaxis(t.reshape([2] * n), 0, axis).reshape(-1)
    if out.base is not None:
        out = out.copy()
    return StateVector._trusted(n, out)


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Controlled-NOT with both qubit indices 1-based."""
    n = state.num_qubits
    _check_qubit(control, n)
    _check_qubit(target, n)
    if control == target:
        raise ValueError("control and target must be different qubits")
    t = state.amps.reshape([2] * n).copy()
    sel = [slice(None)] * n
    sel[control - 1] = 1
    on0 = list(sel)
    on0[target - 1] = 0
    on1 = list(sel)
    on1[target - 1] = 1
    a, b = t[tuple(on0)].copy(), t[tuple(on1)].copy()
    t[tuple(on0)], t[tuple(on1)] = b, a
    return StateVector._trusted(n, t.reshape(-1))


def apply_full_unitary(state: StateVector, matrix) -> StateVector:
    """Apply a unitary given as a full 2^n x 2^n matrix."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (state.dim, state.dim):
        raise ValueError(f"matrix shape {mat.shape} does not match a {state.num_qubits}-qubit state")
    return StateVector._trusted(state.num_qubits, mat @ state.amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; the qubits of ``b`` become the trailing (least significant) ones."""
    n = a.num_qubits + b.num_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"tensor product would exceed {MAX_QUBITS} qubits")
    return StateVector._trusted(n, np.kron(a.amps, b.amps))


def probabilities(state: StateVector) -> np.ndarray:
    """Outcome probabilities |amp_i|^2 in basis order."""
    return state.amps.real**2 + state.amps.imag**2


def measure_computational(state: StateVector, rng: RandomSource) -> tuple[str, StateVector]:
    """Measure every qubit; returns the outcome bitstring and the collapsed state."""
    p = probabilities(state)
    cum = np.cumsum(p)
    k = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    if k >= state.dim:
        k = state.dim - 1
    return format(k, f"0{state.num_qubits}b"), new_basis_state(state.num_qubits, k)


def basis_state_index(state: StateVector, tol: float = ATOL) -> int:
    """Index of the basis vector this state equals (up to phase), else ValueError."""
    p = probabilities(state)
    k = int(np.argmax(p))
    if p[k] < 1.0 - tol:
        raise ValueError("state is not a computational basis state")
    return k


def equal_up_to_global_phase(a: StateVector, b: StateVector, tol: float = ATOL) -> bool:
    """True when |<a|b>| is within ``tol`` of one."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("cannot compare states of different sizes")
    return float(np.abs(np.vdot(a.amps, b.amps))) >= 1.0 - tol


def build_codeword(family: EncodingFamily, value: LogicalValue) -> StateVector:
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


def apply_pair_unitary(state: StateVector, u: np.ndarray) -> StateVector:
    # Reference for the closed-form noise: the same 2x2 unitary on both
    # channel qubits as one Kronecker-product matrix; a trailing probe is untouched.
    if state.num_qubits < 2:
        raise ValueError("collective noise acts on a pair of channel qubits")
    mat = np.kron(u, u)
    if state.num_qubits > 2:
        mat = np.kron(mat, np.eye(2 ** (state.num_qubits - 2)))
    return apply_full_unitary(state, mat)


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


def codeword_rows(family: EncodingFamily) -> np.ndarray:
    """Row v is the codeword of VALUES[v], by its circuit, with the probe in |0>."""
    return to_rows([build_codeword(family, value) for value in VALUES])


def readout_table(basis: LogicalBasis) -> np.ndarray:
    """Row k is the readout circuit's image of basis row k."""
    return to_rows([apply_readout(new_basis_state(3, k), basis) for k in range(ROW_DIM)])


def decode_table(basis: LogicalBasis) -> np.ndarray:
    """Entry k is the value index ``decode_pair`` reads from outcome k, or INVALID."""
    return np.array([
        VALUE_INDEX.get(decode_pair(basis, PAIR_NAMES[k >> 1]), INVALID)
        for k in range(ROW_DIM)
    ])
