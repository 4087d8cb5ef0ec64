"""Protocol parameters for the drive-controlled three-qubit architecture.

All frequencies and couplings are in units of the modulator frequency, so
``omega_m`` is 1 by convention.  The qubit ordering is (M, Q1, Q2) with the
modulator as the most significant tensor factor; this convention is fixed
here and used by every other module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError


@dataclass(frozen=True)
class ProtocolParams:
    """The eight control parameters of the switching protocol.

    ``omega_d_on`` is usually left unset and solved for from the resonance
    condition (see :func:`freezegate.dressed.solve_omega_d_on`).
    """

    omega_m: float = 1.0
    omega_1: float = 1.0
    omega_2: float = 1.0017
    j_m1: float = 0.0035
    j_12: float = 0.0001
    drive_amp: float = 0.07
    omega_d_off: float = 1.004
    omega_d_on: float | None = None

    def validate(self) -> None:
        """Raise ConfigError unless frequencies/couplings are finite, positive (NaN is not) numbers.

        A bool is not a number here, although Python counts it as an int.
        JSON reads both ``Infinity`` and ``1e999`` as inf.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
            if value in (math.inf, -math.inf):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        for name in ("omega_m", "omega_1", "omega_2", "omega_d_off"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be strictly positive, got {getattr(self, name)!r}")
        for name in ("j_m1", "j_12", "drive_amp"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)!r}")
        if self.omega_d_on is not None and not self.omega_d_on > 0:
            raise ConfigError(f"omega_d_on must be strictly positive, got {self.omega_d_on!r}")

    def hierarchy_warnings(self) -> list[str]:
        """Soft sanity checks on the working hierarchy drive_amp >> j_m1 >~ j_12.

        Returned as strings rather than raised: operating outside the
        hierarchy is allowed (and exercised by tests), just inadvisable.
        """
        out = []
        if self.j_m1 > 0 and self.drive_amp < 5 * self.j_m1:
            out.append(f"drive_amp={self.drive_amp} is not >> j_m1={self.j_m1}")
        if self.j_12 > self.j_m1 > 0:
            out.append(f"j_12={self.j_12} exceeds j_m1={self.j_m1}")
        return out

    def with_(self, **kwargs) -> "ProtocolParams":
        return replace(self, **kwargs)

    def detunings(self, omega_d: float) -> tuple[float, float, float]:
        """(delta_m, delta_1, delta_2) at the given drive frequency."""
        return (self.omega_m - omega_d, self.omega_1 - omega_d, self.omega_2 - omega_d)


#: Reference operating point used for the single-parameter scans.
BASELINE = ProtocolParams()

#: Jointly optimized operating point (omega_d_on still solved at runtime).
OPTIMIZED = ProtocolParams(
    omega_2=1.000514,
    j_m1=0.00216,
    j_12=3.71e-5,
    drive_amp=0.0876,
    omega_d_off=1.004,
)


def gate_time(j12_eff: float) -> float:
    """Exchange half-period pi/(2 J_eff); inf when the coupling vanishes."""
    if j12_eff <= 0.0:
        return math.inf
    # Python float division gives inf for a subnormal coupling, without the
    # overflow warning numpy scalars raise.
    return math.pi / (2.0 * float(j12_eff))
