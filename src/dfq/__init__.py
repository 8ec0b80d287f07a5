"""Desk-scale simulator for private comparison over collective-noise channels.

Two logical encodings (collective-dephasing and collective-rotation immune
two-qubit codewords) back a semi-quantum multi-party comparison protocol, an
eavesdropping harness with closed-form detection rates, and reproductions of
the six reference measurement distributions.
"""

from .attacks import (
    DetectionReport,
    Entangle,
    EntangleParams,
    InterceptResend,
    MeasureResend,
    NO_ATTACK,
    NoAttack,
    closed_form_detection,
    entangling_attack_analysis,
    monte_carlo_detection,
)
from .efficiency import EfficiencyReport, ideal_report, measure_preparation
from .encoding import (
    BasisKind,
    EncodingFamily,
    LogicalBasis,
    LogicalValue,
    apply_family_noise,
    prepare,
)
from .figures import (
    FIGURE_IDS,
    SCENARIOS,
    check_histogram,
    expected_distribution,
    run_scenario,
)
from .protocol import (
    ComparisonResult,
    ProtocolConfig,
    ProtocolTranscript,
    Secret,
    SharedKey,
    ThetaPolicy,
    Verdict,
    run_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "BasisKind",
    "ComparisonResult",
    "DetectionReport",
    "EfficiencyReport",
    "EncodingFamily",
    "Entangle",
    "EntangleParams",
    "FIGURE_IDS",
    "InterceptResend",
    "LogicalBasis",
    "LogicalValue",
    "MeasureResend",
    "NO_ATTACK",
    "NoAttack",
    "ProtocolConfig",
    "ProtocolTranscript",
    "SCENARIOS",
    "Secret",
    "SharedKey",
    "ThetaPolicy",
    "Verdict",
    "apply_family_noise",
    "check_histogram",
    "closed_form_detection",
    "entangling_attack_analysis",
    "expected_distribution",
    "ideal_report",
    "measure_preparation",
    "monte_carlo_detection",
    "prepare",
    "run_protocol",
    "run_scenario",
]
