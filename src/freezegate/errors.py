"""Exception types shared across the library."""


class ConfigError(ValueError):
    """Invalid parameter or configuration value."""


class NoRootInBracket(RuntimeError):
    """The signed effective detuning changes sign in none of the search
    windows of omega_d_on; `grid_min` is its smallest absolute value on the
    last window's scan grid.  A sign change outside the windows (above
    omega_1 when omega_2 <= omega_1, or below 0.5 omega_1) is not searched,
    so such a point raises this too."""

    def __init__(self, message: str, grid_min: float | None = None):
        super().__init__(message)
        self.grid_min = grid_min


class StepTooCoarse(RuntimeError):
    """The single-period propagator U(tau) failed its unitarity gate: its
    unitarity defect exceeds the tolerance (or is NaN)."""


class BranchNotFound(KeyError):
    """Requested quasienergy branch label is not present in the spectrum."""


class BranchTrackingAmbiguous(RuntimeError):
    """Eigenvector-overlap continuation could not be resolved uniquely."""

    def __init__(self, message: str, grid_index: int):
        super().__init__(message)
        self.grid_index = grid_index


class DegenerateDressedModes(RuntimeError):
    """Two Floquet modes of the j_12-free modulator-Q1 pair are degenerate,
    so their dressed labels, and the channel scored between them, are
    arbitrary."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap
