"""Pauli operators, tensor embedding, and Hamiltonian builders.

Tensor ordering is (M, Q1, Q2), modulator most significant.  Matrices are
dense, complex except the real lab-frame terms; the largest object anywhere
in the library is 16x16 (a Choi matrix), so sparsity is never worth it.
"""

from __future__ import annotations

import numpy as np

from .params import ProtocolParams

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def kron(*factors: np.ndarray) -> np.ndarray:
    """np.kron(f0, np.kron(f1, ...)) of 2-D factors, bit for bit.

    Each factor is one broadcast outer product with the product of the
    factors to its right.  That skips np.kron's general-shape overhead,
    which dominated the dressed bases built at every sweep and scan point.
    Factors may also be stacks (..., r, c): their leading axes broadcast,
    and each member gets the Kronecker product of its own factors.
    """
    out = factors[-1]
    for f in reversed(factors[:-1]):
        rows, cols = f.shape[-2] * out.shape[-2], f.shape[-1] * out.shape[-1]
        prod = f[..., :, None, :, None] * out[..., None, :, None, :]
        out = prod.reshape(prod.shape[:-4] + (rows, cols))
    return out


def embed(op: np.ndarray, qubit: str) -> np.ndarray:
    """Embed a single-qubit operator into the 8-dim (M, Q1, Q2) space."""
    if qubit == "m":
        return kron(op, I2, I2)
    if qubit == "1":
        return kron(I2, op, I2)
    if qubit == "2":
        return kron(I2, I2, op)
    raise ValueError(f"unknown qubit label {qubit!r}")


def product_state(bits: tuple[int, int, int]) -> np.ndarray:
    """Computational product state |b_m b_1 b_2> as an 8-vector."""
    idx = (bits[0] << 2) | (bits[1] << 1) | bits[2]
    v = np.zeros(8, dtype=complex)
    v[idx] = 1.0
    return v


# Real 8x8 terms of the lab-frame Hamiltonian, built once.
_TERMS = ((SZ, I2, I2), (I2, SZ, I2), (I2, I2, SZ), (SX, I2, I2), (SX, SX, I2), (I2, SX, SX))
ZM, Z1, Z2, XM, XX_M1, XX_12 = (kron(*factors).real.copy() for factors in _TERMS)
# Parity Z_M Z_1 Z_2 (diagonal, +-1): it commutes with every static term and
# anticommutes with XM, so PARITY H(t) PARITY = H(t + tau/2).
PARITY = kron(SZ, SZ, SZ).real.copy()
for _op in (ZM, Z1, Z2, XM, XX_M1, XX_12, PARITY):
    _op.flags.writeable = False  # shared by every caller
del _op


def lab_static(p: ProtocolParams) -> np.ndarray:
    """Drive-independent part of the lab-frame Hamiltonian (real symmetric)."""
    h = -(p.omega_m / 2) * ZM - (p.omega_1 / 2) * Z1 - (p.omega_2 / 2) * Z2
    return h + p.j_m1 * XX_M1 + p.j_12 * XX_12


def build_lab_hamiltonian(p: ProtocolParams, omega_d: float, t: float) -> np.ndarray:
    """Full lab-frame Hamiltonian at time t with a cosine transverse drive on M."""
    return lab_static(p) + p.drive_amp * np.cos(omega_d * t) * XM


def build_rotating_hamiltonian(p: ProtocolParams, omega_d: float) -> np.ndarray:
    """Time-independent Hamiltonian in the frame rotating at omega_d (RWA).

    Detunings are delta_i = omega_i - omega_d; exchange terms take the
    (xx + yy)/2 flip-flop form after dropping the fast-rotating pieces.
    """
    dm, d1, d2 = p.detunings(omega_d)
    h = (p.drive_amp / 2) * embed(SX, "m") - (dm / 2) * embed(SZ, "m")
    h += -(d1 / 2) * embed(SZ, "1") - (d2 / 2) * embed(SZ, "2")
    h += (p.j_m1 / 2) * (
        embed(SX, "m") @ embed(SX, "1") + embed(SY, "m") @ embed(SY, "1")
    )
    h += (p.j_12 / 2) * (
        embed(SX, "1") @ embed(SX, "2") + embed(SY, "1") @ embed(SY, "2")
    )
    return h


def frame_map(omega_d: float, t: float) -> np.ndarray:
    """Rotating-frame map W(t) = exp(-i (omega_d t / 2) sum_k sigma_k^z).

    States transform as |psi'> = W(t)|psi_lab>; with this sign the
    transformed single-qubit generators are -(delta_i/2) sigma_i^z.
    W is diagonal, so it is built directly from the z-parity of each
    basis state.
    """
    phases = np.empty(8, dtype=complex)
    for idx in range(8):
        bits = ((idx >> 2) & 1, (idx >> 1) & 1, idx & 1)
        s = sum(1 if b == 0 else -1 for b in bits)
        phases[idx] = np.exp(-1j * omega_d * t * s / 2)
    return np.diag(phases)


def unitarity_defect(u: np.ndarray) -> float | np.ndarray:
    """max |U^dag U - I| over the last two axes: one defect per member of a stack (..., n, n)."""
    return np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1))
