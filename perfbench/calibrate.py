"""Host-speed calibration block, timed before and after every measurement.

The shared host this benchmark runs on changes speed by up to 1.6x over
minutes as other tenants load it: the median pass wall time of `scan`
ranged 1.05-1.71 s over ten 30-second runs of the same commit.  A time
divided by the time of a fixed block of work run next to it cancels most
of that.  The block is the benchmark's own code, so no change to the
package can move it: the midpoint single-period propagator of the lab
Hamiltonian at BASELINE-like constants (256 batched 8x8 eigendecompositions
and 256 chained 8x8 products), the same mix of small LAPACK calls and
Python-level loop that dominates every workload.

`scaled` reports a time in seconds at a nominal host speed, the speed at
which one block takes NOMINAL_BLOCK_S.
"""

from __future__ import annotations

import math
import time
from types import SimpleNamespace

import numpy as np

from reference import lab_hamiltonian_parts

#: Fixed constants of the calibration kernel; deliberately not read from the package.
_PARAMS = SimpleNamespace(
    omega_m=1.0, omega_1=1.0, omega_2=1.0017, j_m1=0.0035, j_12=1e-4, drive_amp=0.07
)
_OMEGA_D = 0.9973
STEPS = 256
#: Kernel calls per block.
REPEATS = 30
#: Wall time of one block on the quiet 2-core Xeon host the benchmark was
#: written on (measured 0.105 s); the reference speed of `scaled` times.
NOMINAL_BLOCK_S = 0.1


class Calibration:
    """Times one block of the fixed propagation kernel."""

    def __init__(self) -> None:
        h0, hd = lab_hamiltonian_parts(_PARAMS)
        tau = 2 * math.pi / _OMEGA_D
        self._dt = tau / STEPS
        mids = self._dt * (np.arange(STEPS) + 0.5)
        amps = _PARAMS.drive_amp * np.cos(_OMEGA_D * mids)
        self._hs = (h0[None] + amps[:, None, None] * hd[None]).astype(complex)

    def _kernel(self) -> np.ndarray:
        w, v = np.linalg.eigh(self._hs)
        us = (v * np.exp(-1j * self._dt * w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
        u = np.eye(8, dtype=complex)
        for k in range(STEPS):
            u = us[k] @ u
        return u

    def block(self) -> tuple[float, float]:
        """(wall, CPU) seconds of REPEATS kernel calls."""
        w0, c0 = time.perf_counter(), time.process_time()
        for _ in range(REPEATS):
            u = self._kernel()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if not abs(abs(np.linalg.det(u)) - 1.0) < 1e-9:
            raise RuntimeError("calibration kernel lost unitarity")
        return wall, cpu


def scaled(seconds: float, block_before: float, block_after: float) -> float:
    """`seconds` at nominal host speed, from the blocks timed just before and after."""
    return seconds * NOMINAL_BLOCK_S / (0.5 * (block_before + block_after))
