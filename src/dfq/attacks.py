"""Channel adversaries and detection-rate estimation.

Eve sits on the leg from the third party to a participant. Three attack
shapes are modelled:

* intercept-resend: keep the genuine pair, forward a fixed fake codeword;
* measure-resend: measure in a logical basis, forward a fresh codeword
  matching the outcome (raw product states are forwarded when the outcome
  falls outside the codespace);
* entangling probe: adjoin a one-qubit probe in |0> and apply a fixed
  8x8 unitary, after which the joint three-qubit state is carried through
  the rest of the round.

Detection is counted at the third party's control-mode check: a returned
pair measured in its preparation basis that fails to reproduce the
prepared value. Estimates over single attacked groups use the protocol's
4:1 mix of Z and X pairs and the participant's fair control/sift coin.
A second, sift-inclusive estimate also counts sifted pairs whose recorded
bit contradicts the prepared value; those only surface later, if the pair
is picked for the honesty check, so the control-mode figure is the one to
compare against the closed forms.

Each attack kind acts on whole arrays of pair rows (``apply_rows``).
``pair_pass`` composes the path every pair takes -- outbound noise, the
attack, then return noise and the third party's readout for a control pair
or the participant's Z readout for a sifted one -- and is the one pair
simulation that the protocol sessions and the Monte Carlo harness share.
Pairs travel as rows of 4 amplitudes, or of 8 if the attack has ``probe``.

The harness draws a call's trials * (1 + m) attacked pairs in blocks of at
most BLOCK_ROWS rows, the per-group blocks first. It runs one ``pair_pass``
over the counted rows of all blocks when they add up to at most BLOCK_ROWS
drawn rows, and one per block otherwise. How blocks share passes changes
no draw and no reading.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, ClassVar, Union

import numpy as np

from .encoding import (
    CODEWORD_ROWS,
    DECODE,
    INVALID,
    PAIR_DIM,
    READOUT,
    ROW_DIM,
    ROW_TABLES,
    VALUE_INDEX,
    BasisKind,
    EncodingFamily,
    LogicalBasis,
    LogicalValue,
    apply_family_noise,
    measure_rows,
)
from .statevector import RandomSource

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .protocol import ProtocolConfig


class EntangleParams:
    """8x8 unitary coupling the two channel qubits to a one-qubit probe."""

    __slots__ = ("unitary", "label")

    def __init__(self, unitary, label: str = "custom") -> None:
        mat = np.array(unitary, dtype=complex)
        if mat.shape != (8, 8):
            raise ValueError(f"expected an 8x8 unitary, got shape {mat.shape}")
        finite = np.isfinite(mat).all()  # a NaN deviation would pass the bound below
        if not finite or float(np.max(np.abs(mat.conj().T @ mat - np.eye(8)))) > 1e-10:
            raise ValueError("entangling attack matrix is not unitary")
        mat.setflags(write=False)
        self.unitary = mat
        self.label = label

    def __repr__(self) -> str:
        return f"EntangleParams({self.label!r})"

    @classmethod
    def identity(cls) -> "EntangleParams":
        """Probe that never couples; the do-nothing baseline."""
        return cls(np.eye(8), "identity")

    @classmethod
    def copy_first_qubit(cls) -> "EntangleParams":
        """CNOT from channel qubit 1 onto the probe: copies the Z bit perfectly."""
        mat = np.zeros((8, 8))
        for pattern in range(4):
            a = pattern >> 1
            for e in range(2):
                mat[pattern * 2 + (e ^ a), pattern * 2 + e] = 1.0
        return cls(mat, "cnot-probe")

    @classmethod
    def haar_random(cls, rng: RandomSource) -> "EntangleParams":
        return cls(_haar_unitary(8, rng), "haar")

    @classmethod
    def codespace_stealth(cls, family: EncodingFamily, rng: RandomSource) -> "EntangleParams":
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
        return cls(np.kron(p4, v) + np.kron(q4, w), "stealth")


def _haar_unitary(dim: int, rng: RandomSource) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class _AttackKind:
    """One attack kind: its JSON ``kind`` and fields, its action on pairs, its closed form.

    ``apply_rows(rows, uniforms)`` transforms (N, 8) or, without ``probe``,
    (N, 4) pair rows; kinds with ``draws`` set take one uniform per row.
    """

    kind: ClassVar[str]
    json_fields: ClassVar[tuple[str, ...]] = ()
    draws: ClassVar[bool] = False
    probe: ClassVar[bool] = False  # adjoins a probe qubit: needs (N, 8) rows

    @property
    def name(self) -> str:
        """Label used in detection reports."""
        return self.kind

    def to_dict(self) -> dict:
        return {"kind": self.kind}

    @classmethod
    def from_fields(cls, data: dict, default_family: EncodingFamily):
        return cls()

    def per_group_rate(self, family: EncodingFamily) -> float:
        raise ValueError(f"no closed-form detection rate for {type(self).__name__}")


@dataclass(frozen=True)
class NoAttack(_AttackKind):
    kind: ClassVar[str] = "none"

    def apply_rows(self, rows: np.ndarray, uniforms: np.ndarray | None) -> np.ndarray:
        return rows


@dataclass(frozen=True)
class InterceptResend(_AttackKind):
    fake_family: EncodingFamily
    fake_value: LogicalValue = LogicalValue.ZERO
    kind: ClassVar[str] = "intercept-resend"
    json_fields: ClassVar[tuple[str, ...]] = ("fake_family", "fake_value")

    def apply_rows(self, rows: np.ndarray, uniforms: np.ndarray | None) -> np.ndarray:
        fake = ROW_TABLES[rows.shape[1]].codewords[self.fake_family][VALUE_INDEX[self.fake_value]]
        return np.tile(fake, (len(rows), 1))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "fake_family": self.fake_family.value,
            "fake_value": self.fake_value.value,
        }

    @classmethod
    def from_fields(cls, data: dict, default_family: EncodingFamily) -> "InterceptResend":
        family = EncodingFamily(data.get("fake_family", default_family.value))
        return cls(fake_family=family, fake_value=LogicalValue(data.get("fake_value", "zero")))

    def per_group_rate(self, family: EncodingFamily) -> float:
        if not self.fake_value.is_z_value or self.fake_family is not family:
            raise ValueError("closed form covers Z-value fakes from the traffic family only")
        return 0.25


@dataclass(frozen=True)
class MeasureResend(_AttackKind):
    basis: LogicalBasis
    kind: ClassVar[str] = "measure-resend"
    json_fields: ClassVar[tuple[str, ...]] = ("family", "basis")
    draws: ClassVar[bool] = True

    def apply_rows(self, rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        tables = ROW_TABLES[rows.shape[1]]
        x_mask = np.full(len(rows), self.basis.kind is BasisKind.X)
        outcomes, values = measure_rows(rows, self.basis.family, x_mask, uniforms)
        # a fresh codeword for a decoded value, the raw product state otherwise
        codewords = tables.codewords[self.basis.family][values]
        resent = tables.pairs[outcomes >> tables.probe_qubits]
        return np.where((values != INVALID)[:, None], codewords, resent)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "family": self.basis.family.value, "basis": self.basis.kind.value}

    @classmethod
    def from_fields(cls, data: dict, default_family: EncodingFamily) -> "MeasureResend":
        family = EncodingFamily(data.get("family", default_family.value))
        return cls(LogicalBasis(BasisKind(data.get("basis", "Z")), family))

    def per_group_rate(self, family: EncodingFamily) -> float:
        if self.basis.kind is not BasisKind.Z or self.basis.family is not family:
            raise ValueError("closed form covers the traffic family's Z basis only")
        return 0.05


@dataclass(frozen=True)
class Entangle(_AttackKind):
    params: EntangleParams
    kind: ClassVar[str] = "entangle"
    json_fields: ClassVar[tuple[str, ...]] = ("unitary",)
    probe: ClassVar[bool] = True

    @property
    def name(self) -> str:
        return f"entangle:{self.params.label}"

    def apply_rows(self, rows: np.ndarray, uniforms: np.ndarray | None) -> np.ndarray:
        # rows carry the probe in |0> until this point
        return rows @ self.params.unitary.T

    def to_dict(self) -> dict:
        """Only the named probes (``identity``, ``cnot-probe``) read back: a
        ``haar``, ``stealth`` or ``custom`` probe writes its label, which
        :func:`attack_from_dict` refuses."""
        return {"kind": self.kind, "unitary": self.params.label}

    @classmethod
    def from_fields(cls, data: dict, default_family: EncodingFamily) -> "Entangle":
        label = data.get("unitary", "identity")
        if not isinstance(label, str) or label not in _NAMED_PROBES:
            raise ValueError(f"unknown probe unitary {label!r}; known: {sorted(_NAMED_PROBES)}")
        return cls(_NAMED_PROBES[label]())


AttackModel = Union[NoAttack, InterceptResend, MeasureResend, Entangle]

NO_ATTACK = NoAttack()


def closed_form_detection(model: AttackModel, family: EncodingFamily, m: int) -> float:
    """Detection probability after m attacked groups, from the per-group rates.

    Holds for intercept-resend with a Z-value fake codeword (1/4 per group)
    and for measure-resend in the family's Z basis (1/20 per group), under
    the 4:1 Z:X pair mix and a fair control/sift coin.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    p = model.per_group_rate(family)
    return p if m == 1 else 1.0 - (1.0 - p) ** m


def _binomial_stderr(p_hat: float, trials: int) -> float:
    return math.sqrt(p_hat * (1.0 - p_hat) / trials)


@dataclass(frozen=True)
class DetectionReport:
    """Monte Carlo detection estimates for one attack model."""

    model: str
    family: str
    m: int
    trials: int
    per_group_estimate: float
    per_group_stderr: float
    overall_estimate: float
    overall_stderr: float
    closed_form_per_group: float | None
    closed_form_overall: float | None
    sift_inclusive_estimate: float
    sift_inclusive_stderr: float

    def __post_init__(self) -> None:
        for value in (self.per_group_estimate, self.overall_estimate, self.sift_inclusive_estimate):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"estimate {value} outside [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)


# The protocol's Z:X pair mix, 4:1. A Monte Carlo row's basis coin below it is Z.
_Z_SHARE = Fraction(4, 5)

# Monte Carlo rows are drawn in blocks of at most this many, and no pair_pass
# runs over more drawn rows than this, which bounds memory whatever the trial
# count and number of groups.
BLOCK_ROWS = 1 << 12
# Largest trials * (1 + m) that monte_carlo_detection accepts: it draws that
# many rows, the per-group ones included, at 0.34-0.59 microseconds each on a
# 2-vCPU host (``dfq attack-sweep --trials 1000000 --m-values 9``, 10**7 rows,
# for each model and family), so this is some six to ten minutes on one core.
MAX_GROUP_ROWS = 10**9


def pair_pass(
    family: EncodingFamily,
    model: AttackModel,
    values: np.ndarray,
    ctrl: np.ndarray,
    thetas_out: np.ndarray,
    attack_uniforms: np.ndarray | None,
    thetas_back: np.ndarray,
    uniforms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The pair physics of a round, for pairs prepared with value indices ``values``.

    Every pair crosses the outbound leg (one angle each) and the attack
    (``attack_uniforms`` if the model draws). A CTRL pair (``ctrl`` set) then
    crosses the return leg, taking the next angle of ``thetas_back`` (one per
    CTRL pair, in row order), and is read in its preparation basis; a SIFT
    pair is read in Z as it arrived. Returns the channel bits read (an index
    into ``PAIR_NAMES``) and decoded value index (INVALID for a codespace
    escape) of every pair, one uniform each.
    """
    tables = ROW_TABLES[ROW_DIM if model.probe else PAIR_DIM]
    rows = apply_family_noise(tables.codewords[family][values], family, thetas_out)
    rows = model.apply_rows(rows, attack_uniforms)
    c = np.flatnonzero(ctrl)
    rows[c] = apply_family_noise(rows[c], family, thetas_back)
    outcomes, read = measure_rows(rows, family, ctrl & (values >= 2), uniforms)
    return outcomes >> tables.probe_qubits, read


def _draw_groups(
    model: AttackModel, theta_policy, count: int, rng: RandomSource, sift: bool
) -> tuple[np.ndarray, tuple]:
    """Draw ``count`` independent attacked pairs; keep the rows whose outcome is counted.

    Every random input of every row is drawn whatever ``sift`` is, so the
    stream does not depend on it. Only the CTRL rows, plus the Z SIFT rows
    if ``sift`` is set, are kept for ``pair_pass``; rows are independent,
    so leaving the others out changes no hit. Returns the kept row indices
    and, for those rows, ``pair_pass``'s arguments after ``family`` and ``model``.
    One call draws the per-row inputs in the order of one call each.
    """
    random_angles = theta_policy.kind == "random"
    inputs = 4 + random_angles + model.draws
    doubles = iter(rng.random(inputs * count).reshape(inputs, count))
    is_x = next(doubles) >= float(_Z_SHARE)
    values = 2 * is_x + (next(doubles) >= 0.5)
    thetas = theta_policy.angles(next(doubles)) if random_angles else theta_policy.sample(rng, count)
    attack_uniforms = next(doubles) if model.draws else None
    ctrl = next(doubles) < 0.5
    uniforms = next(doubles)
    thetas_back = theta_policy.sample(rng, int(np.count_nonzero(ctrl)))
    r = np.flatnonzero(ctrl | (sift & ~is_x))
    kept_uniforms = None if attack_uniforms is None else attack_uniforms[r]
    return r, (values[r], ctrl[r], thetas[r], kept_uniforms, thetas_back, uniforms[r])


def _pass_blocks(
    family: EncodingFamily, model: AttackModel, blocks: list[tuple[np.ndarray, tuple]]
) -> list[tuple[np.ndarray, int]]:
    """One ``pair_pass`` over the kept rows of drawn blocks, concatenated in
    block order. Per block: the rows whose control check failed, and how
    many kept rows were read wrong, at a control check or a sift."""
    values, ctrl, thetas, attack_uniforms, thetas_back, uniforms = (
        None if parts[0] is None else np.concatenate(parts)
        for parts in zip(*(inputs for _, inputs in blocks))
    )
    _, read = pair_pass(family, model, values, ctrl, thetas, attack_uniforms, thetas_back, uniforms)
    wrong = read != values
    hits = []
    stop = 0
    for r, _ in blocks:
        part = slice(stop, stop + len(r))
        stop = part.stop
        hits.append((r[wrong[part] & ctrl[part]], int(np.count_nonzero(wrong[part]))))
    return hits


def _block_groups(trials: int, m: int):
    """The draw blocks of a call, in draw order, grouped for one pass each.

    A block is (rows, first overall row), the latter None for a per-group
    block: ``trials`` per-group rows first, then ``trials * m`` overall
    rows, each cut into blocks of at most BLOCK_ROWS. All blocks share one
    pass when their trials * (1 + m) rows fit in BLOCK_ROWS; otherwise each
    block gets its own. (Grouping neighbours while they fit gives nothing
    more: once a call draws more rows than that, any two neighbouring blocks
    exceed it too, as one of them is full or they are the call's only two.)
    """
    total = trials * m
    blocks = itertools.chain(
        ((min(BLOCK_ROWS, trials - start), None) for start in range(0, trials, BLOCK_ROWS)),
        ((min(BLOCK_ROWS, total - start), start) for start in range(0, total, BLOCK_ROWS)),
    )
    if trials + total <= BLOCK_ROWS:
        yield list(blocks)
    else:
        yield from ([block] for block in blocks)


def monte_carlo_detection(
    config: "ProtocolConfig",
    model: AttackModel,
    trials: int,
    rng: RandomSource,
    m: int = 1,
) -> DetectionReport:
    """Estimate detection rates by simulating attacked pair transmissions.

    The per-group estimate runs ``trials`` independent single groups; the
    overall estimate runs ``trials`` rounds of ``m`` attacked groups each,
    a round counting as detected as soon as one control check fails.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if m < 0:
        raise ValueError("m must be non-negative")
    if trials * (1 + m) > MAX_GROUP_ROWS:
        raise ValueError(
            f"trials * (1 + m) = {trials * (1 + m)} is too large: the limit is {MAX_GROUP_ROWS}"
        )
    family = config.family
    policy = config.theta_policy
    case1_hits = 0
    sift_hits = 0
    # Round r owns overall rows r*m .. r*m + m - 1 and is detected if any of
    # them hits. Hit rounds never decrease, within a block or from one block
    # to the next, so a round is new when it differs from the one before;
    # last_round carries a round that straddles a block boundary.
    overall_hits = 0
    last_round = -1
    for group in _block_groups(trials, m):
        drawn = [_draw_groups(model, policy, count, rng, start is None) for count, start in group]
        for (_, start), (hit_rows, wrong_reads) in zip(group, _pass_blocks(family, model, drawn)):
            if start is None:
                case1_hits += len(hit_rows)
                sift_hits += wrong_reads
            elif len(hit_rows):
                rounds = (start + hit_rows) // m
                overall_hits += int(np.count_nonzero(np.diff(rounds, prepend=last_round)))
                last_round = int(rounds[-1])
    try:
        cf_group = closed_form_detection(model, family, 1)
        cf_overall = closed_form_detection(model, family, m)
    except ValueError:
        cf_group = None
        cf_overall = None
    p_group = case1_hits / trials
    p_overall = overall_hits / trials
    p_sift = sift_hits / trials
    return DetectionReport(
        model=model.name,
        family=family.value,
        m=m,
        trials=trials,
        per_group_estimate=p_group,
        per_group_stderr=_binomial_stderr(p_group, trials),
        overall_estimate=p_overall,
        overall_stderr=_binomial_stderr(p_overall, trials),
        closed_form_per_group=cf_group,
        closed_form_overall=cf_overall,
        sift_inclusive_estimate=p_sift,
        sift_inclusive_stderr=_binomial_stderr(p_sift, trials),
    )


# Ensemble weight of each value index in the control-path analysis: the Z:X
# mix, values uniform within each basis.
_ANALYSIS_WEIGHTS = tuple(float((_Z_SHARE if v < 2 else 1 - _Z_SHARE) / 2) for v in range(4))


def entangling_attack_analysis(
    params: EntangleParams, family: EncodingFamily
) -> tuple[float, float]:
    """Exact (control-check failure probability, probe distinguishability) for
    one probe unitary on a noiseless channel.

    The failure probability is that of the third party's control check on a
    pair the probe touched, averaged over the four codewords with the
    protocol's 4:1 basis mix, with no collective noise on either leg. Once a
    probe has entangled itself with a pair, the noise no longer leaves the
    pair alone and can change that rate: the rotation family's
    ``cnot-probe`` reads 0 here, while ``monte_carlo_detection`` at uniform
    angles catches it.

    Distinguishability is the trace distance between the probe's reduced
    states after a logical zero versus a logical one transmission; it
    bounds what the probe can ever reveal about a sifted bit.
    """
    attacked = CODEWORD_ROWS[family] @ params.unitary.T  # the probe starts in |0>
    detection = 0.0
    for v, weight in enumerate(_ANALYSIS_WEIGHTS):
        basis = LogicalBasis(BasisKind.X if v >= 2 else BasisKind.Z, family)
        read = attacked[v] @ READOUT[basis]
        probs = read.real**2 + read.imag**2
        detection += weight * float(probs[DECODE[basis] != v].sum())
    # rows are (channel pattern, probe): trace out the pattern
    zero, one = (attacked[v].reshape(4, 2) for v in (0, 1))
    eigenvalues = np.linalg.eigvalsh(zero.T @ zero.conj() - one.T @ one.conj())
    return detection, 0.5 * float(np.abs(eigenvalues).sum())


_NAMED_PROBES = {
    "identity": EntangleParams.identity,
    "cnot-probe": EntangleParams.copy_first_qubit,
}


_KINDS = {cls.kind: cls for cls in (NoAttack, InterceptResend, MeasureResend, Entangle)}


def attack_from_dict(data: dict, default_family: EncodingFamily) -> AttackModel:
    """Build an attack model from its JSON description.

    Fields that belong to another attack kind are rejected, not ignored.
    """
    kind = data.get("kind") if isinstance(data, dict) else None
    if not isinstance(kind, str):
        raise ValueError("attack description must be an object with a string 'kind' field")
    if kind not in _KINDS:
        raise ValueError(f"unknown attack kind {kind!r}; known: {sorted(_KINDS)}")
    cls = _KINDS[kind]
    extra = set(data) - {"kind", *cls.json_fields}
    if extra:
        raise ValueError(f"fields {sorted(extra)} do not belong to attack kind {kind!r}")
    return cls.from_fields(data, default_family)
