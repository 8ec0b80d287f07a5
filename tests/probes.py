"""Test-only entangling probes: random 8x8 unitaries on the two channel
qubits and a probe qubit.

``haar_random`` and ``codespace_stealth`` are moved verbatim from
``dfq.attacks.EntangleParams``, where only tests called them; they make the
same generator calls and carry the same labels (``haar``, ``stealth``).
"""

from __future__ import annotations

import math

import numpy as np

from dfq.attacks import EntangleParams
from dfq.encoding import EncodingFamily


def haar_random(rng: np.random.Generator) -> EntangleParams:
    return EntangleParams(_haar_unitary(8, rng), "haar")


def codespace_stealth(family: EncodingFamily, rng: np.random.Generator) -> EntangleParams:
    """Random probe action that is invisible to every codeword readout.

    The probe unitary is constant on the family's codespace, so both
    logical values drive the probe into the same state and the attack
    buys exactly nothing. Useful as a non-trivial zero-detection draw.
    """
    v = _haar_unitary(2, rng)
    w = _haar_unitary(2, rng)
    if family is EncodingFamily.DEPHASING:
        # v acts alongside the single-excitation patterns 01 and 10.
        p4 = np.diag([0.0, 1.0, 1.0, 0.0])
    else:
        # v acts alongside span{(|00>+|11>), (|01>-|10>)}.
        phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        p4 = np.outer(phi, phi) + np.outer(psi, psi)
    q4 = np.eye(4) - p4
    return EntangleParams(np.kron(p4, v) + np.kron(q4, w), "stealth")


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
