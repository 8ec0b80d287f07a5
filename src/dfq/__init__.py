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
    apply_readout,
    decode_pair,
    prepare,
)
from .figures import (
    FIGURE_IDS,
    FigureScenario,
    Histogram,
    all_scenarios,
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
    encode_announcement,
    run_protocol,
    tp_compare,
)
from .statevector import Gate, StateVector

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
    "FigureScenario",
    "Gate",
    "Histogram",
    "InterceptResend",
    "LogicalBasis",
    "LogicalValue",
    "MeasureResend",
    "NO_ATTACK",
    "NoAttack",
    "ProtocolConfig",
    "ProtocolTranscript",
    "Secret",
    "SharedKey",
    "StateVector",
    "ThetaPolicy",
    "Verdict",
    "all_scenarios",
    "apply_family_noise",
    "apply_readout",
    "check_histogram",
    "closed_form_detection",
    "decode_pair",
    "encode_announcement",
    "entangling_attack_analysis",
    "expected_distribution",
    "ideal_report",
    "measure_preparation",
    "monte_carlo_detection",
    "prepare",
    "run_protocol",
    "run_scenario",
    "tp_compare",
]
