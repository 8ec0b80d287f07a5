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
Pairs leave as rows of 4 amplitudes; after ``Entangle`` they are rows of 8.

The harness draws a call's trials * (1 + m) attacked pairs in blocks of at
most BLOCK_ROWS rows, the per-group blocks first; a block's draw is its raw
per-row doubles and the return angles of its CTRL rows. It runs one
``pair_pass`` over the counted rows of all blocks when they add up to at
most BLOCK_ROWS drawn rows, and one per block otherwise; a pass derives
its rows' inputs once, from its blocks' doubles. How blocks share passes
changes no draw and no reading.
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
    PAIR_ROWS,
    ROW_DIM,
    VALUE_INDEX,
    BasisKind,
    EncodingFamily,
    LogicalBasis,
    LogicalValue,
    _readonly,
    apply_family_noise,
    measure_rows,
    read_x,
)

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


class _AttackKind:
    """One attack kind: its JSON ``kind`` and fields, its action on pairs, its closed form.

    ``apply_rows(rows, uniforms)`` transforms (N, 4) pair rows; ``Entangle``
    returns (N, 8) rows, the probe adjoined. Kinds with ``draws`` set take
    one uniform per row, and kinds without ``reads_rows`` return rows that
    do not depend on the rows they receive.
    """

    kind: ClassVar[str]
    json_fields: ClassVar[tuple[str, ...]] = ()
    draws: ClassVar[bool] = False
    reads_rows: ClassVar[bool] = True

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
    reads_rows: ClassVar[bool] = False  # forwards a fresh fake, whatever arrived

    def apply_rows(self, rows: np.ndarray, uniforms: np.ndarray | None) -> np.ndarray:
        fake = CODEWORD_ROWS[self.fake_family][VALUE_INDEX[self.fake_value]]
        return fake[None].repeat(len(rows), axis=0)

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
        x_mask = np.full(len(rows), self.basis.kind is BasisKind.X)
        return _RESEND[self.basis][measure_rows(rows, self.basis.family, x_mask, uniforms)[0]]

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

    @property
    def name(self) -> str:
        return f"entangle:{self.params.label}"

    def apply_rows(self, rows: np.ndarray, uniforms: np.ndarray | None) -> np.ndarray:
        """Adjoin the probe in |0> to (N, 4) pair rows, as the least
        significant qubit, and couple it: (N, 8) rows."""
        wide = np.zeros((len(rows), ROW_DIM), dtype=complex)
        wide[:, 0::2] = rows
        return wide @ self.params.unitary.T

    def to_dict(self) -> dict:
        """Only the named probes (``identity``, ``cnot-probe``) read back: any
        other probe writes its label, which :func:`attack_from_dict` refuses."""
        return {"kind": self.kind, "unitary": self.params.label}

    @classmethod
    def from_fields(cls, data: dict, default_family: EncodingFamily) -> "Entangle":
        label = data.get("unitary", "identity")
        if not isinstance(label, str) or label not in _NAMED_PROBES:
            raise ValueError(f"unknown probe unitary {label!r}; known: {sorted(_NAMED_PROBES)}")
        return cls(_NAMED_PROBES[label]())


# _RESEND[basis][p]: what measure-resend forwards on reading bits p, a codeword or PAIR_ROWS[p].
_RESEND = {
    basis: _readonly(np.where(decode[:, None] == INVALID, PAIR_ROWS, CODEWORD_ROWS[basis.family][decode]))
    for basis, decode in DECODE.items()
}

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

    def to_dict(self) -> dict:
        return asdict(self)


# The protocol's Z:X pair mix, 4:1. A Monte Carlo row's basis coin below it is Z.
_Z_SHARE = Fraction(4, 5)
_Z_CUT = float(_Z_SHARE)

# Monte Carlo rows are drawn in blocks of at most this many, and no pair_pass
# runs over more drawn rows than this, which bounds memory whatever the trial
# count and number of groups.
BLOCK_ROWS = 1 << 12
# The most pair rows one command may simulate, checked by each entry point
# before its first draw. A Monte Carlo row takes 0.13-0.28 microseconds on a
# 2-vCPU host (``dfq attack-sweep --trials 1000000 --m-values 9``, 10**7 rows,
# for each model and family), so this is some two to five minutes on one
# core; a session pair takes about 3 microseconds.
MAX_ROWS = 10**9


def _figure(value: float) -> str:
    """A count in full up to 20 digits, past that as 4.00e300."""
    text = str(value)
    return text if len(text) <= 20 else f"{text[0]}.{text[1:3]}e{len(text) - 1}"


def _check_rows(*factors: tuple[str, float]) -> None:
    """Refuse, with one ValueError naming each factor, a product of (name,
    value) factors past MAX_ROWS pair rows."""
    rows = math.prod(value for _, value in factors)
    if rows > MAX_ROWS:
        names = " * ".join(name for name, _ in factors)
        values = " * ".join(_figure(value) for _, value in factors)
        raise ValueError(f"{names} = {values} = {_figure(rows)} pair rows is too large: "
                         f"the limit is {MAX_ROWS}")


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
    escape) of every pair, one uniform each. The outbound noise is skipped
    when the attack does not read the rows it receives: nothing reads them.
    """
    rows = CODEWORD_ROWS[family][values]
    if model.reads_rows:
        rows = apply_family_noise(rows, family, thetas_out)
    rows = model.apply_rows(rows, attack_uniforms)
    c = ctrl.nonzero()[0]
    rows[c] = apply_family_noise(rows[c], family, thetas_back)
    return measure_rows(rows, family, ctrl & (values >= 2), uniforms)


def _draw_block(
    model: AttackModel, theta_policy, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` independent attacked pairs: the (inputs, count) doubles
    of their per-row inputs, in the order of one generator call each, and
    the return angles of the CTRL rows."""
    inputs = 4 + theta_policy.draws + model.draws
    doubles = rng.random(inputs * count).reshape(inputs, count)
    return doubles, theta_policy.sample(rng, int(np.count_nonzero(doubles[-2] < 0.5)))


def _pass_group(
    family: EncodingFamily, model: AttackModel, theta_policy, drawn: list, per_group: int
) -> tuple[int, int, np.ndarray]:
    """One ``pair_pass`` over the counted rows of a group's drawn blocks, in block order.

    The group's first ``per_group`` rows are per-group rows, the others
    overall rows. Only the CTRL rows, plus the Z SIFT rows among the
    per-group ones, are kept; rows are independent, so leaving the others
    out changes no hit. Returns how many per-group rows failed their
    control check, how many were read wrong at a control check or a sift,
    and the overall rows whose control check failed, numbered from the
    group's first overall row.
    """
    doubles = np.concatenate([block for block, _ in drawn], axis=1)
    kept = doubles[-2] < 0.5
    kept[:per_group] |= doubles[0, :per_group] < _Z_CUT
    r = kept.nonzero()[0]
    kept_doubles = iter(doubles.take(r, axis=1))
    values = 2 * (next(kept_doubles) >= _Z_CUT) + (next(kept_doubles) >= 0.5)
    thetas = theta_policy.angles(next(kept_doubles) if theta_policy.draws else None, len(r))
    attack_uniforms = next(kept_doubles) if model.draws else None
    ctrl = next(kept_doubles) < 0.5
    _, read = pair_pass(
        family, model, values, ctrl, thetas, attack_uniforms,
        np.concatenate([back for _, back in drawn]), next(kept_doubles),
    )
    wrong = read != values
    hit = wrong & ctrl
    split = int(r.searchsorted(per_group))
    return (
        int(np.count_nonzero(hit[:split])),
        int(np.count_nonzero(wrong[:split])),
        r[split:][hit[split:]] - per_group,
    )


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
    rng: np.random.Generator,
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
    _check_rows(("trials", trials), ("(1 + m)", 1 + m))
    family = config.family
    policy = config.theta_policy
    case1_hits = 0
    sift_hits = 0
    # Round r owns overall rows r*m .. r*m + m - 1 and is detected if any of
    # them hits. Hit rounds never decrease, within a pass or from one pass
    # to the next, so a round is new when it differs from the one before;
    # last_round carries a round that straddles a pass boundary.
    overall_hits = 0
    last_round = -1
    overall_rows = 0  # drawn before the group
    for group in _block_groups(trials, m):
        drawn = [_draw_block(model, policy, count, rng) for count, _ in group]
        per_group = sum(count for count, start in group if start is None)
        case1, wrong_reads, hit_rows = _pass_group(family, model, policy, drawn, per_group)
        case1_hits += case1
        sift_hits += wrong_reads
        if len(hit_rows):
            rounds = (overall_rows + hit_rows) // m
            overall_hits += int(np.count_nonzero(rounds[1:] != rounds[:-1])) + int(rounds[0] != last_round)
            last_round = int(rounds[-1])
        overall_rows += sum(count for count, _ in group) - per_group
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
    attacked = Entangle(params).apply_rows(CODEWORD_ROWS[family], None)
    read = attacked.copy()
    read[2:] = read_x(attacked[2:], family)  # the X values; Z is a plain measurement
    probs = (read.real**2 + read.imag**2).reshape(4, 4, 2)  # (value, channel bits, probe)
    detection = 0.0
    for v, weight in enumerate(_ANALYSIS_WEIGHTS):
        basis = LogicalBasis(BasisKind.X if v >= 2 else BasisKind.Z, family)
        detection += weight * float(probs[v][DECODE[basis] != v].sum())
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
