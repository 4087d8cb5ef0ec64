"""Operator builders: Hamiltonians, tensor embedding, and the frame map."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from freezegate.params import ProtocolParams
from freezegate.pauli import (
    PARITY,
    SX,
    SY,
    SZ,
    XM,
    build_lab_hamiltonian,
    build_rotating_hamiltonian,
    embed,
    frame_map,
    kron,
    lab_static,
    product_state,
)

DEFAULTS = ProtocolParams()


def oracle_lab_hamiltonian(p: ProtocolParams, omega_d: float, t: float) -> np.ndarray:
    """Independent entrywise construction from bit arithmetic (no kron)."""
    h = np.zeros((8, 8), dtype=complex)
    for i in range(8):
        bm, b1, b2 = (i >> 2) & 1, (i >> 1) & 1, i & 1
        # sigma^z diagonal: +1 for bit 0, -1 for bit 1
        h[i, i] = (
            -(p.omega_m / 2) * (1 - 2 * bm)
            - (p.omega_1 / 2) * (1 - 2 * b1)
            - (p.omega_2 / 2) * (1 - 2 * b2)
        )
        # sigma^x flips one bit
        h[i ^ 0b100, i] += p.drive_amp * math.cos(omega_d * t)
        # sigma_m^x sigma_1^x flips bits m and 1; sigma_1^x sigma_2^x flips 1 and 2
        h[i ^ 0b110, i] += p.j_m1
        h[i ^ 0b011, i] += p.j_12
    return h


class TestLabHamiltonian:
    def test_decoupled_eigenvalues(self):
        p = ProtocolParams(omega_2=1.0, j_m1=0.0, j_12=0.0, drive_amp=0.0)
        evals = np.sort(np.linalg.eigvalsh(build_lab_hamiltonian(p, 1.0, 0.3)))
        expected = np.sort(
            [-0.5 * (a + b + c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
        )
        np.testing.assert_allclose(evals, expected, atol=1e-14)

    def test_drive_term_at_t0(self):
        p = DEFAULTS.with_(j_m1=0.0, j_12=0.0)
        diff = build_lab_hamiltonian(p, 1.004, 0.0) - build_lab_hamiltonian(
            p.with_(drive_amp=0.0), 1.004, 0.0
        )
        np.testing.assert_allclose(diff, 0.07 * kron(SX, np.eye(2), np.eye(2)), atol=1e-15)

    def test_against_entrywise_oracle_at_half_period(self):
        omega_d = 1.004
        t = math.pi / omega_d  # cos(omega_d t) = -1
        h = build_lab_hamiltonian(DEFAULTS, omega_d, t)
        np.testing.assert_allclose(h, oracle_lab_hamiltonian(DEFAULTS, omega_d, t), atol=1e-14)
        assert h[4, 0] == pytest.approx(-0.07, abs=1e-12)  # drive at field minimum

    @given(st.lists(st.tuples(st.floats(0.5, 1.5), st.floats(0.0, 0.01), st.floats(0.0, 5e-4)), max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_static_stack_equals_each_point_bitwise(self, values):
        points = [DEFAULTS.with_(omega_2=w, j_m1=j, j_12=k) for w, j, k in values]
        points += [DEFAULTS.with_(j_12=0.0)]
        stack = lab_static(points)
        assert stack.shape == (len(points), 8, 8)
        for h, p in zip(stack, points):
            np.testing.assert_array_equal(h, lab_static(p))
            assert (np.signbit(h) == np.signbit(lab_static(p))).all()

    @given(
        st.floats(0.5, 1.5),
        st.floats(0.0, 0.2),
        st.floats(0.0, 0.01),
        st.floats(0.0, 20.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_hermiticity(self, omega_2, drive_amp, j_m1, t):
        p = ProtocolParams(omega_2=omega_2, drive_amp=drive_amp, j_m1=j_m1)
        for h in (build_lab_hamiltonian(p, 1.004, t), build_rotating_hamiltonian(p, 1.004)):
            assert np.max(np.abs(h - h.conj().T)) < 1e-14


class TestParity:
    """P = Z_M Z_1 Z_2 maps H(t) to H(t + tau/2), the symmetry the propagator folds with."""

    def test_constant_is_real_read_only_bit_parity(self):
        assert PARITY.dtype == np.float64
        assert not PARITY.flags.writeable
        signs = [(-1.0) ** bin(i).count("1") for i in range(8)]
        np.testing.assert_array_equal(PARITY, np.diag(signs))

    @given(
        st.floats(0.5, 1.5),
        st.floats(0.0, 0.01),
        st.floats(0.0, 0.001),
        st.floats(0.5, 1.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_commutes_with_static_terms(self, omega_2, j_m1, j_12, omega_m):
        p = ProtocolParams(omega_m=omega_m, omega_2=omega_2, j_m1=j_m1, j_12=j_12)
        h0 = lab_static(p)
        np.testing.assert_array_equal(PARITY @ h0 @ PARITY, h0)
        # The Q2 = |0> blocks, which the propagator integrates at j_12 = 0.
        block, h0 = PARITY[0::2, 0::2], lab_static(p.with_(j_12=0.0))[0::2, 0::2]
        np.testing.assert_array_equal(block @ h0 @ block, h0)

    def test_anticommutes_with_drive(self):
        np.testing.assert_array_equal(PARITY @ XM @ PARITY, -XM)
        block, xm = PARITY[0::2, 0::2], XM[0::2, 0::2]
        np.testing.assert_array_equal(block @ xm @ block, -xm)

    @given(
        st.floats(0.5, 1.5),
        st.floats(0.0, 0.2),
        st.floats(0.0, 0.01),
        st.floats(0.0, 0.001),
        st.floats(0.9, 1.1),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_half_period_shift(self, omega_2, drive_amp, j_m1, j_12, omega_d, phase):
        p = ProtocolParams(omega_2=omega_2, drive_amp=drive_amp, j_m1=j_m1, j_12=j_12)
        tau = 2 * math.pi / omega_d
        t = phase * tau  # H is tau-periodic: one period covers every t
        np.testing.assert_allclose(
            build_lab_hamiltonian(p, omega_d, t + tau / 2),
            PARITY @ build_lab_hamiltonian(p, omega_d, t) @ PARITY,
            rtol=0,
            atol=1e-15,
        )


class TestRotatingHamiltonian:
    def test_all_zero(self):
        p = ProtocolParams(omega_2=1.0, j_m1=0.0, j_12=0.0, drive_amp=0.0)
        np.testing.assert_allclose(build_rotating_hamiltonian(p, 1.0), 0.0, atol=1e-15)

    def test_decoupled_eigenvalues(self):
        p = ProtocolParams(j_m1=0.0, j_12=0.0)
        omega_d = 1.004
        h = build_rotating_hamiltonian(p, omega_d)
        dm, d1, d2 = p.detunings(omega_d)
        wm = math.hypot(p.drive_amp, dm)
        expected = np.sort(
            [
                0.5 * (a * wm + b * d1 + c * d2)
                for a in (1, -1)
                for b in (1, -1)
                for c in (1, -1)
            ]
        )
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(h)), expected, atol=1e-14)

    def test_lowest_eigenvalue_against_dense_oracle(self):
        omega_d = 1.004
        h = build_rotating_hamiltonian(DEFAULTS, omega_d)
        # Independent construction: accumulate terms with explicit np.kron.
        i2 = np.eye(2)
        dm, d1, d2 = (
            DEFAULTS.omega_m - omega_d,
            DEFAULTS.omega_1 - omega_d,
            DEFAULTS.omega_2 - omega_d,
        )
        oracle = (
            (DEFAULTS.drive_amp / 2) * np.kron(SX, np.kron(i2, i2))
            - (dm / 2) * np.kron(SZ, np.kron(i2, i2))
            - (d1 / 2) * np.kron(i2, np.kron(SZ, i2))
            - (d2 / 2) * np.kron(i2, np.kron(i2, SZ))
            + (DEFAULTS.j_m1 / 2)
            * (np.kron(SX, np.kron(SX, i2)) + np.kron(SY, np.kron(SY, i2)))
            + (DEFAULTS.j_12 / 2)
            * (np.kron(i2, np.kron(SX, SX)) + np.kron(i2, np.kron(SY, SY)))
        )
        lo = np.linalg.eigvalsh(h)[0]
        lo_oracle = np.linalg.eigvalsh(oracle)[0]
        assert lo == pytest.approx(lo_oracle, abs=1e-12)


class TestFrameMap:
    def test_identity_at_t0(self):
        np.testing.assert_allclose(frame_map(1.004, 0.0), np.eye(8), atol=1e-15)

    def test_one_period(self):
        omega_d = 1.004
        w = frame_map(omega_d, 2 * math.pi / omega_d)
        assert np.count_nonzero(w - np.diag(np.diag(w))) == 0
        np.testing.assert_allclose(np.abs(np.diag(w)), 1.0, atol=1e-13)
        # exp(-i pi sigma^z) = -I per qubit: total phase (-1)^3 = -1 times
        # sign structure from z-parity; equivalently W(tau)^2 = I.
        np.testing.assert_allclose(w @ w, np.eye(8), atol=1e-12)

    def test_single_qubit_precession(self):
        # Q1 at omega_1 = 1.1, everything else decoupled; |+x> on Q1.
        p = ProtocolParams(omega_1=1.1, omega_2=1.0, j_m1=0.0, j_12=0.0, drive_amp=0.0)
        omega_d = 1.0
        delta = 0.1
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        psi0 = kron(
            np.array([[1.0], [0.0]]), plus.reshape(2, 1), np.array([[1.0], [0.0]])
        ).ravel()
        for t in (0.7, 5.0, 40.0):
            u_lab = scipy.linalg.expm(-1j * build_lab_hamiltonian(p, omega_d, 0.0) * t)
            psi = frame_map(omega_d, t) @ (u_lab @ psi0)
            sx = np.real(psi.conj() @ (embed(SX, "1") @ psi))
            sy = np.real(psi.conj() @ (embed(SY, "1") @ psi))
            # generator -(delta/2) sigma^z rotates +x towards -y at rate -delta
            assert sx == pytest.approx(math.cos(delta * t), abs=1e-10)
            assert sy == pytest.approx(-math.sin(delta * t), abs=1e-10)

    def test_frame_consistency_decoupled(self):
        # With no drive and no couplings the RWA drops nothing: the frame
        # conjugation of the lab propagator is exactly exp(-i H' t).
        p = ProtocolParams(j_m1=0.0, j_12=0.0, drive_amp=0.0)
        omega_d = 1.004
        hp = build_rotating_hamiltonian(p, omega_d)
        h = build_lab_hamiltonian(p, omega_d, 0.0)
        t = 100 * 2 * math.pi / omega_d
        u_rot = frame_map(omega_d, t) @ scipy.linalg.expm(-1j * h * t)
        np.testing.assert_allclose(u_rot, scipy.linalg.expm(-1j * hp * t), atol=1e-10)

    def test_rwa_stroboscopic_residual(self):
        # Over one period, exact lab evolution vs RWA evolution at defaults.
        from freezegate.propagate import PropagatorConfig, single_period_propagator

        omega_d = 1.004
        tau = 2 * math.pi / omega_d
        u_lab = single_period_propagator(
            DEFAULTS, omega_d, PropagatorConfig(steps_per_period=512)
        )
        u_strobo = frame_map(omega_d, tau) @ u_lab
        u_rwa = scipy.linalg.expm(-1j * build_rotating_hamiltonian(DEFAULTS, omega_d) * tau)
        # residual is the counter-rotating correction, O(drive_amp^2 tau / omega_d)
        defect = np.linalg.norm(u_strobo - u_rwa, 2)
        assert defect < 3 * DEFAULTS.drive_amp**2 * tau / omega_d
        assert defect > 1e-6  # the two frames genuinely differ


class TestTensorOrdering:
    @pytest.mark.parametrize(
        "shapes",
        [[(2, 2), (2, 2), (2, 2)], [(2, 2), (2, 2)], [(2, 1), (4, 4)], [(4, 4), (2, 2)], [(3, 1)]],
    )
    def test_kron_is_nested_numpy_kron_bit_for_bit(self, shapes):
        rng = np.random.default_rng(len(shapes))
        factors = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
        want = factors[-1]
        for f in reversed(factors[:-1]):
            want = np.kron(f, want)
        np.testing.assert_array_equal(kron(*factors), want)

    @pytest.mark.parametrize("qubit,bit", [("m", 0), ("1", 1), ("2", 2)])
    def test_embedding_acts_on_one_factor(self, qubit, bit):
        bits = [0, 0, 0]
        psi = product_state(tuple(bits))
        flipped = embed(SX, qubit) @ psi
        bits[bit] = 1
        np.testing.assert_allclose(flipped, product_state(tuple(bits)), atol=1e-15)
        # expectation of sigma^x is zero on a z-basis product state,
        # +1 on |+x> placed in that slot only
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        factors = [np.array([[1.0], [0.0]], dtype=complex)] * 3
        factors[bit] = plus.reshape(2, 1)
        psi_plus = kron(*factors).ravel()
        for other, obit in (("m", 0), ("1", 1), ("2", 2)):
            expect = np.real(psi_plus.conj() @ (embed(SX, other) @ psi_plus))
            assert expect == pytest.approx(1.0 if obit == bit else 0.0, abs=1e-14)
