"""Lab-frame propagation: correctness against dense oracles and invariants."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from freezegate.dressed import effective_model, solve_omega_d_on
from freezegate.errors import StepTooCoarse
from freezegate.params import BASELINE, OPTIMIZED, ProtocolParams
from freezegate.pauli import (
    XM,
    XX_12,
    XX_M1,
    Z1,
    Z2,
    ZM,
    build_lab_hamiltonian,
    lab_drive_operator,
    lab_static,
    product_state,
    unitarity_defect,
)
from freezegate.propagate import (
    PropagatorConfig,
    _ordered_product,
    export_trajectory,
    interval_propagator,
    propagate,
    single_period_propagator,
    total_propagator,
)
from test_pauli import oracle_lab_hamiltonian

CFG = PropagatorConfig(steps_per_period=256)


class TestConfig:
    def test_rejects_bad_method(self):
        with pytest.raises(ValueError):
            PropagatorConfig(method="rk4")

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            PropagatorConfig(steps_per_period=0)


class TestExactCases:
    def test_t0_identity(self):
        np.testing.assert_allclose(
            total_propagator(BASELINE, 1.004, 0.0, CFG), np.eye(8), atol=1e-15
        )

    def test_decoupled_phase(self):
        # Static decoupled system: |000> acquires phase e^{+i 3 omega t / 2}
        # ... each -(omega/2) sigma^z contributes energy -omega/2 on |0>.
        p = ProtocolParams(omega_2=1.0, j_m1=0.0, j_12=0.0, drive_amp=0.0)
        t = 7.3
        u = total_propagator(p, 1.0, t, CFG)
        psi = u @ product_state((0, 0, 0))
        expected = np.exp(1j * 1.5 * t)
        assert psi[0] == pytest.approx(expected, abs=1e-10)
        np.testing.assert_allclose(psi[1:], 0.0, atol=1e-14)

    @pytest.mark.parametrize("method", ["midpoint", "magnus4"])
    def test_static_hamiltonian_matches_expm(self, method):
        # Without the drive the Hamiltonian is time independent and every
        # step exponential is exact.
        p = BASELINE.with_(drive_amp=0.0)
        t = 25.0
        h = build_lab_hamiltonian(p, 1.004, 0.0)
        u = interval_propagator(p, 1.004, 0.0, t, 64, method)
        np.testing.assert_allclose(u, scipy.linalg.expm(-1j * h * t), atol=1e-12)

    def test_semigroup_composition(self):
        omega_d = 1.004
        tau = 2 * math.pi / omega_d
        u_full = interval_propagator(BASELINE, omega_d, 0.0, tau, 256)
        u_a = interval_propagator(BASELINE, omega_d, 0.0, tau / 2, 128)
        u_b = interval_propagator(BASELINE, omega_d, tau / 2, tau, 128)
        np.testing.assert_allclose(u_b @ u_a, u_full, atol=1e-12)

    def test_stroboscopic_powers(self):
        omega_d = 1.004
        tau = 2 * math.pi / omega_d
        u_tau = single_period_propagator(BASELINE, omega_d, CFG)
        for n in (1, 7, 100):
            u_n = total_propagator(BASELINE, omega_d, n * tau, CFG)
            np.testing.assert_allclose(
                u_n, np.linalg.matrix_power(u_tau, n), atol=1e-9
            )


class TestOperators:
    @given(
        st.floats(0.5, 1.5),
        st.floats(0.0, 0.2),
        st.floats(0.0, 0.01),
        st.floats(0.0, 0.001),
    )
    @settings(max_examples=30, deadline=None)
    def test_lab_static_is_real_symmetric_oracle(self, omega_2, drive_amp, j_m1, j_12):
        p = ProtocolParams(omega_2=omega_2, drive_amp=drive_amp, j_m1=j_m1, j_12=j_12)
        h0 = lab_static(p)
        assert h0.dtype == np.float64
        np.testing.assert_array_equal(h0, h0.T)
        np.testing.assert_allclose(
            h0, oracle_lab_hamiltonian(p.with_(drive_amp=0.0), 1.004, 0.0), atol=1e-15
        )

    def test_drive_operator_is_real_constant(self):
        p = ProtocolParams(drive_amp=1.0)
        oracle = oracle_lab_hamiltonian(p, 1.0, 0.0) - oracle_lab_hamiltonian(
            p.with_(drive_amp=0.0), 1.0, 0.0
        )
        hd = lab_drive_operator()
        assert hd.dtype == np.float64
        assert not hd.flags.writeable
        np.testing.assert_array_equal(hd, oracle)


_LD, _CLD = np.longdouble, np.clongdouble
_PI_LD = 4 * np.arctan(_LD(1))


def _expm_extended(a):
    """exp(a) for a stack of clongdouble matrices: Taylor series, scaling and squaring."""
    norm = float(np.abs(a).sum(axis=-2).max())
    s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0 else 0
    a = a / _LD(2) ** s
    term = np.broadcast_to(np.eye(a.shape[-1], dtype=_CLD), a.shape)
    out = term.copy()
    for k in range(1, 24):  # 0.25^24 / 24! is far below eps(clongdouble)
        term = (term @ a) / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def exact_step_product(p, omega_d, t0, t1, nsteps, method):
    """The kernel's steps, built and multiplied in extended precision (np.clongdouble).

    The 8x8 Hamiltonian is summed from the parameters in np.longdouble, so
    the result carries the integrator's truncation error but (on x86, eps
    1.1e-19) none of the float64 rounding of the kernel.
    """
    h0 = (
        -(_LD(p.omega_m) / 2) * ZM
        - (_LD(p.omega_1) / 2) * Z1
        - (_LD(p.omega_2) / 2) * Z2
        + _LD(p.j_m1) * XX_M1
        + _LD(p.j_12) * XX_12
    )
    t0, t1 = _LD(t0), _LD(t1)
    dt = (t1 - t0) / nsteps
    edges = t0 + dt * np.arange(nsteps, dtype=_LD)

    def h(c):
        a = _LD(p.drive_amp) * np.cos(_LD(omega_d) * (edges + c * dt))
        return h0 + a[:, None, None] * XM

    if method == "midpoint":
        steps = _expm_extended(-1j * dt * h(_LD(0.5)))
    else:
        r3 = np.sqrt(_LD(3))
        h1, h2 = h(_LD(0.5) - r3 / 6), h(_LD(0.5) + r3 / 6)
        x1, x2 = (3 - 2 * r3) / 12, (3 + 2 * r3) / 12
        # The later-weighted exponential acts last.
        steps = _expm_extended(-1j * dt * (x1 * h1 + x2 * h2)) @ _expm_extended(
            -1j * dt * (x2 * h1 + x1 * h2)
        )
    u = np.eye(8, dtype=_CLD)
    for step in steps:
        u = step @ u
    return u


class TestKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 256])
    def test_pairwise_product_is_time_ordered(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, 8, 8)) + 1j * rng.standard_normal((n, 8, 8))
        us = np.linalg.qr(a)[0]
        u = np.eye(8, dtype=complex)
        for k in range(n):
            u = us[k] @ u
        np.testing.assert_allclose(_ordered_product(us), u, atol=1e-13)

    @given(
        st.floats(1.0005, 1.003),
        st.floats(0.0, 0.15),
        st.floats(0.0, 0.008),
        st.floats(0.0, 5e-4),
        st.floats(0.98, 1.01),
    )
    @settings(max_examples=10, deadline=None)
    def test_folded_period_matches_full_interval(self, omega_2, drive_amp, j_m1, j_12, omega_d):
        p = ProtocolParams(omega_2=omega_2, drive_amp=drive_amp, j_m1=j_m1, j_12=j_12)
        tau = 2 * math.pi / omega_d
        for method in ("midpoint", "magnus4"):
            for n in (6, 7, 64, 256):
                # Both products round by up to ~1.2e-15 per step exponential
                # (test_kernels_match_exact_step_product); without the drive
                # the identical steps round coherently.
                tol = 1e-14 + 1e-15 * n * (2 if method == "magnus4" else 1)
                folded = single_period_propagator(p, omega_d, PropagatorConfig(n, method))
                full = interval_propagator(p, omega_d, 0.0, tau, n, method)
                assert np.max(np.abs(folded - full)) <= tol

    @pytest.mark.parametrize(
        "p,omega_d",
        [
            pytest.param(BASELINE, 1.004, id="baseline"),
            pytest.param(OPTIMIZED, None, id="optimized-on"),
            pytest.param(BASELINE.with_(j_12=0.0), 1.004, id="j12-zero"),
            # Drive-free: identical steps, whose rounding adds up coherently.
            pytest.param(
                ProtocolParams(omega_2=1.001, drive_amp=0.0, j_m1=0.0078125, j_12=2.0**-12),
                1.0,
                id="drive-free",
            ),
        ],
    )
    def test_kernels_match_exact_step_product(self, p, omega_d):
        # 4 | N folds to a quarter period, N = 2 mod 4 to a half, odd N not at
        # all; the unfolded interval product is held to the same bound.
        if np.finfo(_LD).eps > 1e-18:
            pytest.skip("np.longdouble is no wider than float64 on this platform")
        if omega_d is None:
            omega_d = solve_omega_d_on(p).omega_d
        tau = 2 * np.pi / omega_d
        tau_ld = 2 * _PI_LD / np.longdouble(omega_d)
        for method in ("midpoint", "magnus4"):
            for n in (6, 7, 64, 256):
                exact = exact_step_product(p, omega_d, 0.0, tau_ld, n, method)
                # Measured: <= 1.2e-15 per step exponential over 24 points,
                # for the quarter-, half- and unfolded products alike.
                tol = 1e-14 + 2e-15 * n * (2 if method == "magnus4" else 1)
                folded = single_period_propagator(p, omega_d, PropagatorConfig(n, method))
                assert np.max(np.abs(folded - exact)) <= tol, (method, n)
                full = interval_propagator(p, omega_d, 0.0, tau, n, method)
                assert np.max(np.abs(full - exact)) <= tol, (method, n)


def oracle_step_kernel(p, omega_d, t0, t1, nsteps, method):
    """The 8x8 step kernel, step by step: dense expm of lab_static + a(t) XM."""
    h0, hd = lab_static(p), lab_drive_operator()
    dt = (t1 - t0) / nsteps
    nodes = {"midpoint": (0.5,), "magnus4": (0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6)}
    x1, x2 = (3 - 2 * math.sqrt(3)) / 12, (3 + 2 * math.sqrt(3)) / 12
    u = np.eye(8, dtype=complex)
    for k in range(nsteps):
        ts = [t0 + (k + c) * dt for c in nodes[method]]
        h = [h0 + p.drive_amp * math.cos(omega_d * t) * hd for t in ts]
        if method == "midpoint":
            step = scipy.linalg.expm(-1j * dt * h[0])
        else:
            # The later-weighted exponential acts last.
            step = scipy.linalg.expm(-1j * dt * (x1 * h[0] + x2 * h[1])) @ scipy.linalg.expm(
                -1j * dt * (x2 * h[0] + x1 * h[1])
            )
        u = step @ u
    return u


class TestDecoupledQ2:
    """At j_12 = 0 only the 4x4 modulator-Q1 factor is integrated."""

    @given(
        st.floats(1.0005, 1.003),
        st.floats(0.0, 0.15),
        st.floats(0.0, 0.008),
        st.floats(0.98, 1.01),
    )
    @settings(max_examples=5, deadline=None)
    def test_factorized_kernel_matches_8x8(self, omega_2, drive_amp, j_m1, omega_d):
        p = ProtocolParams(omega_2=omega_2, drive_amp=drive_amp, j_m1=j_m1, j_12=0.0)
        tau = 2 * math.pi / omega_d
        for method in ("midpoint", "magnus4"):
            for n in (7, 64, 256):
                # Either kernel's rounding grows by ~3e-16 per step exponential.
                tol = 1e-14 + 1e-15 * n * (2 if method == "magnus4" else 1)
                want = oracle_step_kernel(p, omega_d, 0.0, tau, n, method)
                got = single_period_propagator(p, omega_d, PropagatorConfig(n, method))
                assert np.max(np.abs(got - want)) <= tol
                t0, t1 = 0.3 * tau, 1.7 * tau  # a partial, offset interval
                want = oracle_step_kernel(p, omega_d, t0, t1, n, method)
                got = interval_propagator(p, omega_d, t0, t1, n, method)
                assert np.max(np.abs(got - want)) <= tol

    def test_q2_phase_and_block_structure(self):
        p = BASELINE.with_(j_12=0.0)
        t = 3.7
        u = interval_propagator(p, 1.004, 0.0, t, 16)
        q2 = np.diag(np.exp(0.5j * p.omega_2 * t * np.array([1.0, -1.0])))
        np.testing.assert_allclose(u, np.kron(u[0::2, 0::2] / q2[0, 0], q2), atol=1e-15)


class TestAgainstODESolver:
    def test_gate_evolution_matches_dop853(self):
        p = BASELINE
        root = solve_omega_d_on(p)
        omega_d = root.omega_d
        model = effective_model(p, omega_d)
        t_final = min(model.t_gate, 2000.0)  # keep the ODE solve affordable

        psi0 = product_state((0, 1, 0))
        final = propagate(p, omega_d, t_final, PropagatorConfig(steps_per_period=512, method="magnus4"), psi0)

        def rhs(t, y):
            psi = y[:8] + 1j * y[8:]
            dpsi = -1j * (build_lab_hamiltonian(p, omega_d, t) @ psi)
            return np.concatenate([dpsi.real, dpsi.imag])

        sol = scipy.integrate.solve_ivp(
            rhs,
            (0.0, t_final),
            np.concatenate([psi0.real, psi0.imag]),
            method="DOP853",
            rtol=1e-10,
            atol=1e-12,
        )
        ref = sol.y[:8, -1] + 1j * sol.y[8:, -1]
        assert np.linalg.norm(final - ref) < 1e-7


class TestConvergence:
    def orders(self, method, base_steps=32):
        omega_d = 1.004
        tau = 2 * math.pi / omega_d
        errs = []
        ref = interval_propagator(BASELINE, omega_d, 0.0, tau, 4096, "magnus4")
        for n in (base_steps, 2 * base_steps, 4 * base_steps):
            u = interval_propagator(BASELINE, omega_d, 0.0, tau, n, method)
            errs.append(np.linalg.norm(u - ref, 2))
        return [math.log2(errs[i] / errs[i + 1]) for i in range(2)]

    def test_midpoint_is_second_order(self):
        for o in self.orders("midpoint"):
            assert 1.8 < o < 2.3

    def test_magnus4_is_fourth_order(self):
        for o in self.orders("magnus4", base_steps=8):
            assert 3.5 < o < 4.6

    def test_magnus4_beats_midpoint(self):
        omega_d = 1.004
        tau = 2 * math.pi / omega_d
        ref = interval_propagator(BASELINE, omega_d, 0.0, tau, 4096, "magnus4")
        e_mid = np.linalg.norm(interval_propagator(BASELINE, omega_d, 0.0, tau, 64, "midpoint") - ref, 2)
        e_mag = np.linalg.norm(interval_propagator(BASELINE, omega_d, 0.0, tau, 64, "magnus4") - ref, 2)
        assert e_mag < e_mid / 50

    @pytest.mark.parametrize("method,steps", [("midpoint", 5), ("magnus4", 4), ("magnus4", 5)])
    def test_folded_convergence_check_raises(self, method, steps):
        # Odd step counts integrate the whole period; the 2N re-run is folded.
        cfg = PropagatorConfig(
            steps_per_period=steps, method=method, convergence_check=True, convergence_tol=1e-12
        )
        with pytest.raises(StepTooCoarse):
            single_period_propagator(BASELINE, 1.004, cfg)

    def test_step_too_coarse_raises(self):
        cfg = PropagatorConfig(
            steps_per_period=4, convergence_check=True, convergence_tol=1e-12
        )
        with pytest.raises(StepTooCoarse) as exc:
            single_period_propagator(BASELINE, 1.004, cfg)
        assert exc.value.change > 1e-12


class TestUnitarity:
    @pytest.mark.parametrize("method", ["midpoint", "magnus4"])
    def test_long_evolution_stays_unitary(self, method):
        cfg = PropagatorConfig(steps_per_period=128, method=method)
        u = total_propagator(BASELINE, 1.004, 5000.0, cfg)
        assert unitarity_defect(u) < 1e-10

    def test_gate_length_power_does_not_amplify_defect(self):
        # ~7000 periods at the optimized point: powering U(tau) itself lets
        # its ~3e-13 unitarity defect grow to ~1e-9; its polar factor stays
        # at the rounding floor of the repeated squaring.
        omega_d = solve_omega_d_on(OPTIMIZED).omega_d
        t_gate = effective_model(OPTIMIZED, omega_d).t_gate
        cfg = PropagatorConfig(steps_per_period=512, method="magnus4")
        u = total_propagator(OPTIMIZED, omega_d, t_gate, cfg)
        assert unitarity_defect(u) < 5e-11

    def test_reuses_given_single_period_propagator(self):
        omega_d = 1.004
        tau = 2 * math.pi / omega_d
        u_tau = single_period_propagator(BASELINE, omega_d, CFG)
        t = 40.5 * tau
        np.testing.assert_array_equal(
            total_propagator(BASELINE, omega_d, t, CFG, u_tau=u_tau),
            total_propagator(BASELINE, omega_d, t, CFG),
        )


class TestTrajectory:
    def test_decoupled_populations_constant(self):
        p = ProtocolParams(omega_2=1.0, j_m1=0.0, j_12=0.0, drive_amp=0.0)
        table = export_trajectory(p, 1.0, product_state((0, 1, 0)), 50.0, 11, CFG)
        assert table.columns[0] == "t"
        pop_cols = [i for i, c in enumerate(table.columns) if c.startswith("pop_")]
        pops = table.data[:, pop_cols]
        idx = table.columns.index("pop_010")
        np.testing.assert_allclose(table.data[:, idx], 1.0, atol=1e-12)
        np.testing.assert_allclose(pops.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(table.data[:, table.columns.index("sz_1")], -1.0, atol=1e-12)

    def test_on_point_exchange(self):
        # At resonance the Q1 excitation swaps into Q2 with half period
        # t_gate; at t = 2 t_gate it has returned.
        p = BASELINE
        root = solve_omega_d_on(p)
        model = effective_model(p, root.omega_d)
        table = export_trajectory(
            p, root.omega_d, product_state((0, 1, 0)), 2 * model.t_gate, 5, CFG
        )
        sz1 = table.data[:, table.columns.index("sz_1")]
        sz2 = table.data[:, table.columns.index("sz_2")]
        # start: Q1 excited, Q2 ground
        assert sz1[0] == pytest.approx(-1.0, abs=1e-10)
        assert sz2[0] == pytest.approx(1.0, abs=1e-10)
        # midpoint (t = t_gate): the excitation has mostly moved to Q2.  The
        # closed-form resonance sits slightly off the exact one at this
        # unoptimized point, so the transfer is a detuned Rabi oscillation:
        # incomplete at the half period but returning fully at the full one.
        assert sz1[2] > 0.5
        assert sz2[2] < -0.5
        # excitation is conserved between the two targets
        np.testing.assert_allclose(sz1 + sz2, 0.0, atol=0.02)
        # full period: back on Q1
        assert sz1[4] < -0.99

    def test_off_regime_frozen(self):
        from freezegate.dressed import dress_modulator

        # Modulator prepared in its dressed ground state, Q1 excited.
        gm = dress_modulator(
            BASELINE.drive_amp, BASELINE.omega_m - BASELINE.omega_d_off
        ).ground_state
        psi0 = np.kron(gm, np.kron([0.0, 1.0], [1.0, 0.0])).astype(complex)
        table = export_trajectory(
            BASELINE, BASELINE.omega_d_off, psi0, 20000.0, 21, CFG
        )
        sz2 = table.data[:, table.columns.index("sz_2")]
        # Q2 stays near its ground state (sz = +1): the off-resonant exchange
        # leaks population only at the (j12_eff / detuning)^2 level, a few
        # parts in 1e3 here.
        assert sz2[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(1.0 - sz2) < 1e-2
        mod = table.data[:, table.columns.index("mod_ground_pop")]
        assert np.min(mod) > 0.99

    def test_last_sample_matches_total_propagator(self):
        # Both walk whole periods with the polar factor of U(tau).
        omega_d = solve_omega_d_on(OPTIMIZED).omega_d
        t_gate = effective_model(OPTIMIZED, omega_d).t_gate
        psi0 = product_state((0, 1, 0))
        table = export_trajectory(OPTIMIZED, omega_d, psi0, t_gate, 5, CFG)
        final = np.abs(total_propagator(OPTIMIZED, omega_d, t_gate, CFG) @ psi0) ** 2
        pops = table.data[-1, [i for i, c in enumerate(table.columns) if c.startswith("pop_")]]
        assert np.max(np.abs(pops - final)) <= 1e-12

    def test_rejects_unnormalized_state(self):
        bad = np.ones(8, dtype=complex)
        with pytest.raises(ValueError):
            export_trajectory(BASELINE, 1.004, bad, 1.0, 3, CFG)
        with pytest.raises(ValueError):
            propagate(BASELINE, 1.004, 1.0, CFG, bad)
