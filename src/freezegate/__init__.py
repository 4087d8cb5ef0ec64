"""Drive-only interaction switching for a modulator-coupled qubit pair.

Simulates a three-qubit system (driven modulator M, targets Q1 and Q2) in
the lab frame, derives the freezing-renormalized effective two-qubit
model, extracts Floquet spectra and the dressed-frame Q1Q2 channel, and
optimizes the protocol parameters for iSWAP fidelity.
"""

from .params import BASELINE, OPTIMIZED, ProtocolParams
from .propagate import PropagatorConfig

__all__ = ["BASELINE", "OPTIMIZED", "ProtocolParams", "PropagatorConfig"]

__version__ = "0.1.0"
