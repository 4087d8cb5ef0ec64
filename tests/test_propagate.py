"""Lab-frame propagation: correctness against dense oracles and invariants."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freezegate.dressed import effective_model, solve_omega_d_on
from freezegate.errors import StepTooCoarse
from freezegate.floquet import floquet_spectrum
from freezegate.params import BASELINE, OPTIMIZED, ProtocolParams
from freezegate.pauli import (
    XM,
    XX_12,
    XX_M1,
    Z1,
    Z2,
    ZM,
    build_lab_hamiltonian,
    lab_static,
    product_state,
    unitarity_defect,
)
from freezegate import propagate as propagate_module
from freezegate.propagate import (
    METHODS,
    PropagatorConfig,
    _batched_expm_herm,
    _ordered_product,
    export_trajectory,
    floquet_factorization,
    interval_propagator,
    period_propagators,
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

    @pytest.mark.parametrize("n", [64.0, 6.5, "64", None, True, False])
    def test_rejects_non_integral_steps(self, n):
        with pytest.raises(ValueError, match="steps_per_period must be an integer"):
            PropagatorConfig(steps_per_period=n)

    def test_accepts_numpy_integer_steps(self):
        assert PropagatorConfig(steps_per_period=np.int64(64)) == PropagatorConfig(64)

    @pytest.mark.parametrize("n", [2, 6, 7])
    def test_rejects_steps_not_a_multiple_of_4(self, n):
        # Each period is folded to its first quarter.
        with pytest.raises(ValueError, match="multiple of 4"):
            PropagatorConfig(steps_per_period=n)


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


class TestStepExponential:
    """The one step-exponential kernel against scipy.linalg.expm, matrix by matrix."""

    @pytest.mark.parametrize("n", [8, 4])
    @pytest.mark.parametrize("per_matrix", [False, True], ids=["scalar-dt", "per-matrix-dt"])
    @pytest.mark.parametrize("largest", [0.1, 20.0], ids=["unscaled", "squared"])
    def test_matches_expm(self, n, per_matrix, largest):
        # 1-norms of H dt from 1e-3 to `largest`; past _EXPM_THETA the whole
        # stack is scaled and squared.  One per-matrix dt is zero.
        rng = np.random.default_rng(n)
        a = rng.standard_normal((25, n, n))
        hs = a + a.swapaxes(-1, -2)
        hs /= np.abs(hs).sum(axis=-2).max(axis=-1)[:, None, None]
        norms = np.geomspace(1e-3, largest, 25)
        if per_matrix:
            dt = norms.copy()
            dt[7] = norms[7] = 0.0
        else:
            hs *= norms[:, None, None]
            dt = 1.0
        got = _batched_expm_herm(hs, dt)
        for h, d, norm, u in zip(hs, np.broadcast_to(dt, 25), norms, got):
            want = scipy.linalg.expm(-1j * d * h)
            assert np.max(np.abs(u - want)) <= 1e-15 * max(1.0, norm), norm
            assert unitarity_defect(u) <= 1e-15, norm
        if per_matrix:
            np.testing.assert_array_equal(got[7], np.eye(n))

    def test_zero_step_is_identity(self):
        hs = np.stack([lab_static(BASELINE), lab_static(OPTIMIZED)])
        np.testing.assert_array_equal(_batched_expm_herm(hs, 0.0), np.broadcast_to(np.eye(8), hs.shape))

    def test_truncation_bound_below_unit_roundoff(self):
        # The neglected Taylor terms of degree >= 10 at 1-norm theta, bounded
        # by a geometric series, in exact rational arithmetic.
        theta = Fraction(propagate_module._EXPM_THETA)
        remainder = theta**10 / math.factorial(10) / (1 - theta / 11)
        assert remainder < Fraction(1, 2**53)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_raises(self, bad):
        hs = np.repeat(lab_static(BASELINE)[None], 3, axis=0)
        with pytest.raises(np.linalg.LinAlgError):
            _batched_expm_herm(hs, np.array([0.1, bad, 0.1]))
        hs[1, 2, 3] = hs[1, 3, 2] = bad
        with pytest.raises(np.linalg.LinAlgError):
            _batched_expm_herm(hs, 0.1)

    def test_no_eigendecomposition_on_propagation_paths(self, monkeypatch):
        # Steps and tails use no eigensolver; the one `eigh` per U(tau) is its
        # memoized Floquet factorization, shared by all its powers.  A sweep
        # factorizes its stack of U(tau) in one call, so matrices are counted.
        calls = [0]
        original = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls[0] += math.prod(np.shape(a)[:-2])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        propagate_module._kernel.cache_clear()
        omega_d = 1.004
        tau = 2 * math.pi / omega_d
        for method in METHODS:
            single_period_propagator(BASELINE, omega_d, PropagatorConfig(64, method))
        total_propagator(BASELINE, omega_d, 0.37 * tau, CFG)
        assert calls[0] == 0
        total_propagator(BASELINE, omega_d, 10.37 * tau, CFG)
        total_propagator(BASELINE.with_(j_12=0.0), omega_d, 10.37 * tau, CFG)
        export_trajectory(BASELINE, omega_d, product_state((0, 1, 0)), 3.3 * tau, 5, CFG)
        assert calls[0] == 2
        floquet_spectrum(BASELINE, omega_d, "omega_2", np.linspace(1.0012, 1.0022, 3), CFG)
        assert calls[0] == 5


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
        assert XM.dtype == np.float64
        assert not XM.flags.writeable
        np.testing.assert_array_equal(XM, oracle)


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


def exact_steps(p, omega_d, t0, t1, nsteps, method):
    """The kernel's steps over [t0, t1], built in extended precision (np.clongdouble).

    The 8x8 Hamiltonian is summed from the parameters in np.longdouble, so
    the steps carry the integrator's truncation error but (on x86, eps
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
        return _expm_extended(-1j * dt * h(_LD(0.5)))
    r3 = np.sqrt(_LD(3))
    h1, h2 = h(_LD(0.5) - r3 / 6), h(_LD(0.5) + r3 / 6)
    x1, x2 = (3 - 2 * r3) / 12, (3 + 2 * r3) / 12
    # The later-weighted exponential acts last.
    return _expm_extended(-1j * dt * (x1 * h1 + x2 * h2)) @ _expm_extended(
        -1j * dt * (x2 * h1 + x1 * h2)
    )


def exact_prefixes(steps):
    """[I, steps[0], steps[1] steps[0], ...] in extended precision."""
    out = [np.eye(8, dtype=_CLD)]
    for step in steps:
        out.append(step @ out[-1])
    return out


def exact_step_product(p, omega_d, t0, t1, nsteps, method):
    """U(t1, t0) as the extended-precision product of the kernel's steps."""
    return exact_prefixes(exact_steps(p, omega_d, t0, t1, nsteps, method))[-1]


def kernel_tails(kernel, rems):
    """U(rem, 0) of one kernel's factor for a stack of rems, as `_tails` takes them."""
    return propagate_module._tails([kernel], np.zeros(len(rems), dtype=int), rems)


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
            for n in (4, 8, 64, 256):
                # Both products round by up to ~1.3e-15 per step exponential
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
        # The quarter-folded period and the unfolded interval product are
        # held to the same bound.
        if np.finfo(_LD).eps > 1e-18:
            pytest.skip("np.longdouble is no wider than float64 on this platform")
        if omega_d is None:
            omega_d = solve_omega_d_on(p).omega_d
        tau = 2 * np.pi / omega_d
        tau_ld = 2 * _PI_LD / np.longdouble(omega_d)
        for method in ("midpoint", "magnus4"):
            for n in (4, 8, 64, 256):
                exact = exact_step_product(p, omega_d, 0.0, tau_ld, n, method)
                # Measured: <= 1.3e-15 per step exponential over these 32
                # cases, for the quarter-folded and unfolded products alike.
                tol = 1e-14 + 2e-15 * n * (2 if method == "magnus4" else 1)
                folded = single_period_propagator(p, omega_d, PropagatorConfig(n, method))
                assert np.max(np.abs(folded - exact)) <= tol, (method, n)
                full = interval_propagator(p, omega_d, 0.0, tau, n, method)
                assert np.max(np.abs(full - exact)) <= tol, (method, n)


_TAIL_POINTS = [
    pytest.param(BASELINE, 1.004, id="baseline"),
    pytest.param(OPTIMIZED, None, id="optimized-on"),
    pytest.param(BASELINE.with_(j_12=0.0), 1.004, id="j12-zero"),
    pytest.param(
        ProtocolParams(omega_2=1.001, drive_amp=0.0, j_m1=0.0078125, j_12=2.0**-12),
        1.0,
        id="drive-free",
    ),
]


class TestTails:
    """Sub-period tails U(rem, 0) = (partial step) U(k dt, 0) from the period's own steps."""

    @staticmethod
    def _check_against_exact_step_product(p, omega_d, ns):
        # The oracle multiplies the aligned steps over [0, k dt] and one
        # partial step [k dt, rem] in extended precision.  k runs over every
        # boundary of the quarter and half periods, and rem lies on the step
        # grid and off it.
        if np.finfo(_LD).eps > 1e-18:
            pytest.skip("np.longdouble is no wider than float64 on this platform")
        if omega_d is None:
            omega_d = solve_omega_d_on(p).omega_d
        tau = 2 * math.pi / omega_d
        tau_ld = 2 * _PI_LD / _LD(omega_d)
        for method in ("midpoint", "magnus4"):
            per_step = 2 if method == "magnus4" else 1
            for n in ns:
                cfg = PropagatorConfig(n, method)
                prefixes = exact_prefixes(exact_steps(p, omega_d, 0.0, tau_ld, n, method))
                dt, m = tau / n, n // 4
                rems, want, bounds = [], [], []
                for k in sorted({0, 1, m - 1, m, m + 1, 2 * m, 2 * m + 1, 3 * m, n - 1}):
                    for frac in (0.0, 0.37):
                        if k == 0 and frac == 0.0:
                            continue
                        rem = (k + frac) * dt
                        exact = prefixes[k]
                        if frac:
                            t_k = _LD(k) * tau_ld / n
                            exact = exact_steps(p, omega_d, t_k, _LD(rem), 1, method)[0] @ exact
                        # Per-exponential rounding bound of test_kernels_match_exact_step_product.
                        bound = 1e-14 + 2e-15 * (k + 1) * per_step
                        got = total_propagator(p, omega_d, rem, cfg)
                        assert np.max(np.abs(got - exact)) <= bound, (method, n, k, frac)
                        rems.append(rem)
                        want.append(exact)
                        bounds.append(bound)
                # The same tails in one stack, of the integrated factor: the
                # Q2 = |0> block at j_12 = 0.
                batch = kernel_tails(propagate_module._kernel(p, omega_d, cfg), np.array(rems))
                for got, exact, bound in zip(batch, want, bounds):
                    exact = exact if len(got) == 8 else exact[0::2, 0::2]
                    assert np.max(np.abs(got - exact)) <= bound, (method, n)

    @pytest.mark.parametrize("p,omega_d", _TAIL_POINTS)
    def test_tails_match_exact_step_product(self, p, omega_d):
        self._check_against_exact_step_product(p, omega_d, (4, 8, 64, 256))

    @pytest.mark.parametrize("p,omega_d", _TAIL_POINTS)
    def test_quarters_off_powers_of_two_match_exact_step_product(self, p, omega_d):
        # Quarters of 3, 5 and 24 steps leave an odd node at some level of
        # the product tree, which a grid propagator then uses.
        self._check_against_exact_step_product(p, omega_d, (12, 20, 96))

    @pytest.mark.parametrize("p,omega_d", _TAIL_POINTS)
    def test_stacked_tails_equal_single_tails_bitwise(self, p, omega_d):
        # One stack and one tail at a time build every grid propagator the
        # same way, and `_batched_expm_herm` scales each partial step by its
        # own exponent.  The stack mixes tails on the step grid (a partial
        # step that is empty, or one whole step where rem / dt rounds down)
        # with tails 0.37 steps past it: at N = 20 a whole step is scaled
        # more often than a 0.37 step, so one exponent per stack would round
        # the short steps differently from the same tails taken alone.
        if omega_d is None:
            omega_d = solve_omega_d_on(p).omega_d
        for method in ("midpoint", "magnus4"):
            for n in (12, 20, 96):
                kernel = propagate_module._kernel(p, omega_d, PropagatorConfig(n, method))
                rems = kernel.dt * np.concatenate([np.arange(1, n), np.arange(n) + 0.37])
                singles = [kernel_tails(kernel, rems[i : i + 1])[0] for i in range(len(rems))]
                stack = kernel_tails(kernel, rems)
                np.testing.assert_array_equal(stack, singles, err_msg=f"{method} {n}")

    @pytest.mark.parametrize("j_12", [BASELINE.j_12, 0.0], ids=["coupled", "j_12=0"])
    def test_tails_of_two_kernels_in_one_stack_equal_single_tails(self, j_12):
        # Two points (different omega_2 for Q2's phase at j_12 = 0), their
        # tails interleaved, with repeats that share a prefix.
        cfg = PropagatorConfig(96, "magnus4")
        kernels = [
            propagate_module._PeriodKernel(p.with_(j_12=j_12), 1.004, cfg)
            for p in (BASELINE, OPTIMIZED.with_(omega_2=1.0019))
        ]
        owner = np.array([0, 1, 1, 0, 0, 1, 0])
        steps = np.array([0.37, 5.0, 30.5, 30.5, 71.2, 95.9, 48.0])
        rems = steps * np.array([kernels[o].dt for o in owner])
        stack = propagate_module._tails(kernels, owner, rems)
        for got, o, rem in zip(stack, owner, rems):
            np.testing.assert_array_equal(got, kernel_tails(kernels[o], np.array([rem]))[0])

    @pytest.mark.parametrize(
        "p,whole_gate,samples",
        [
            pytest.param(BASELINE, False, 8, id="baseline-3.9-periods"),
            # ~1e4 periods: every sample is evolved from 0 on its own, so the
            # rows carry no rounding accumulated from sample to sample.
            pytest.param(OPTIMIZED, True, 200, id="optimized-gate"),
        ],
    )
    def test_trajectory_rows_match_per_sample_loop(self, p, whole_gate, samples):
        # Reference: each sample's state from total_propagator, and its
        # observables computed one sample at a time.
        from freezegate.dressed import dress_modulator

        omega_d = solve_omega_d_on(p).omega_d
        tau = 2 * math.pi / omega_d
        t_final = effective_model(p, omega_d).t_gate if whole_gate else 3.9 * tau
        gm = dress_modulator(p.drive_amp, p.omega_m - omega_d).ground_state
        psi0 = np.kron(gm, np.kron([0.6, 0.8j], [1.0, 0.0]))
        table = export_trajectory(p, omega_d, psi0, t_final, samples, CFG)
        for t, row in zip(table.data[:, 0], table.data):
            psi = total_propagator(p, omega_d, t, CFG) @ psi0
            pops = np.abs(psi) ** 2
            pops3 = pops.reshape(2, 2, 2)
            sz = [pops3.sum(axis=a) @ [1.0, -1.0] for a in ((1, 2), (0, 2), (0, 1))]
            wm = np.array([np.exp(-1j * omega_d * t / 2), np.exp(1j * omega_d * t / 2)])
            mm = wm[:, None] * psi.reshape(2, 4)
            mod_pop = np.real(gm.conj() @ (mm @ mm.conj().T) @ gm)
            np.testing.assert_allclose(row, [t, *pops, *sz, mod_pop], rtol=0, atol=1e-13)


class TestPeriodMemo:
    """Period kernels are memoized on their arguments (p, omega_d, cfg), two at a time."""

    def test_returned_period_is_read_only(self):
        u = single_period_propagator(BASELINE, 1.004, CFG)
        with pytest.raises(ValueError):
            u[0, 0] = 0.0

    def test_key_is_the_whole_point_drive_and_config(self):
        # H(t) does not read omega_d_off, but the key holds the whole point:
        # a point that differs only there is a miss, with the same U(tau).  An
        # equal config is a hit.
        propagate_module._kernel.cache_clear()
        a = single_period_propagator(BASELINE, 1.004, CFG)
        assert single_period_propagator(BASELINE, 1.004, PropagatorConfig(256)) is a
        assert propagate_module._kernel.cache_info()[:2] == (1, 1)
        b = single_period_propagator(BASELINE.with_(omega_d_off=1.006), 1.004, CFG)
        assert b is not a
        np.testing.assert_array_equal(a, b)
        assert propagate_module._kernel.cache_info()[:2] == (1, 2)

    def test_cold_and_warm_memo_agree_bitwise(self):
        omega_d = solve_omega_d_on(OPTIMIZED).omega_d
        t_gate = effective_model(OPTIMIZED, omega_d).t_gate
        psi0 = product_state((0, 1, 0))

        def run():
            return [
                single_period_propagator(OPTIMIZED, omega_d, CFG).copy(),
                total_propagator(OPTIMIZED.with_(j_12=0.0), omega_d, t_gate, CFG),
                total_propagator(OPTIMIZED, omega_d, t_gate, CFG),
                export_trajectory(OPTIMIZED, omega_d, psi0, t_gate, 7, CFG).data,
                total_propagator(OPTIMIZED, omega_d, 0.3, CFG),
            ]

        propagate_module._kernel.cache_clear()
        cold = run()
        warm = run()
        assert propagate_module._kernel.cache_info().misses == 2
        propagate_module._kernel.cache_clear()
        for a, b, c in zip(cold, warm, run()):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)


class TestWorkCount:
    """Step exponentials per call, counted at the one exponential kernel."""

    @pytest.fixture
    def count(self, monkeypatch):
        counted = [0]
        original = propagate_module._batched_expm_herm

        def counting(hs, dt):
            counted[0] += len(hs)
            return original(hs, dt)

        monkeypatch.setattr(propagate_module, "_batched_expm_herm", counting)
        propagate_module._kernel.cache_clear()
        return counted

    def test_gate_tail_is_one_partial_step(self, count):
        omega_d = solve_omega_d_on(BASELINE).omega_d
        t_gate = effective_model(BASELINE, omega_d).t_gate
        cfg = PropagatorConfig(64, "magnus4")
        single_period_propagator(BASELINE, omega_d, cfg)
        assert count[0] == 2 * 64 // 4
        count[0] = 0
        total_propagator(BASELINE, omega_d, t_gate, cfg)
        assert count[0] == 2

    def test_trajectory_costs_a_quarter_period_and_one_step_per_sample(self, count):
        omega_d = solve_omega_d_on(BASELINE).omega_d
        t_gate = effective_model(BASELINE, omega_d).t_gate
        samples = 50
        export_trajectory(BASELINE, omega_d, product_state((0, 1, 0)), t_gate, samples, CFG)
        assert count[0] <= CFG.steps_per_period // 4 + samples

    def test_tail_multiplies_a_logarithmic_number_of_matrices(self, monkeypatch):
        # Every array derived from the step exponentials counts its matrix
        # products, one per 8x8 product of a stack.  Each tail is taken
        # alone, at the quarter and half boundaries where it needs the
        # most nodes of the product tree.
        class Counted(np.ndarray):
            products = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    batch = np.broadcast_shapes(*(np.shape(a)[:-2] for a in inputs))
                    Counted.products += math.prod(batch)
                inputs = [a.view(np.ndarray) if isinstance(a, Counted) else a for a in inputs]
                return self._wrap(getattr(ufunc, method)(*inputs, **kwargs))

            def __array_function__(self, func, types, args, kwargs):
                return self._wrap(super().__array_function__(func, types, args, kwargs))

            @staticmethod
            def _wrap(out):
                return out.view(Counted) if type(out) is np.ndarray else out

        original = propagate_module._step_exponentials
        monkeypatch.setattr(
            propagate_module,
            "_step_exponentials",
            lambda *args: original(*args).view(Counted),
        )
        propagate_module._kernel.cache_clear()
        try:
            for n in (64, 512, 4096):
                kernel = propagate_module._kernel(BASELINE, 1.004, PropagatorConfig(n, "midpoint"))
                m = n // 4
                for k in (1, m - 1, m, m + 1, 2 * m - 1, 2 * m + 1, 3 * m - 1, 3 * m + 1, n - 1):
                    Counted.products = 0
                    kernel_tails(kernel, np.array([(k + 0.5) * kernel.dt]))
                    assert 0 < Counted.products <= math.log2(m) + 2, (n, k)
        finally:
            propagate_module._kernel.cache_clear()


def oracle_step_kernel(p, omega_d, t0, t1, nsteps, method):
    """The 8x8 step kernel, step by step: dense expm of lab_static + a(t) XM."""
    h0, hd = lab_static(p), XM
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
    """At j_12 = 0 only the 4x4 Q2 = |0> block of H(t) is integrated."""

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
            for n in (4, 64, 256):
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
        final = total_propagator(p, omega_d, t_final, PropagatorConfig(512, "magnus4")) @ psi0

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


class TestUnitarity:
    @pytest.mark.parametrize("method", ["midpoint", "magnus4"])
    def test_long_evolution_stays_unitary(self, method):
        cfg = PropagatorConfig(steps_per_period=128, method=method)
        u = total_propagator(BASELINE, 1.004, 5000.0, cfg)
        assert unitarity_defect(u) < 1e-10

    def test_gate_length_power_does_not_amplify_defect(self):
        # ~7000 periods at the optimized point: powering U(tau) itself lets
        # its ~3e-13 unitarity defect grow to ~1e-9; O diag(e^{i n alpha}) O^T
        # is unitary to the orthogonality of O.
        omega_d = solve_omega_d_on(OPTIMIZED).omega_d
        t_gate = effective_model(OPTIMIZED, omega_d).t_gate
        cfg = PropagatorConfig(steps_per_period=512, method="magnus4")
        u = total_propagator(OPTIMIZED, omega_d, t_gate, cfg)
        assert unitarity_defect(u) < 5e-11

    def test_nan_defect_fails_the_gate(self, monkeypatch):
        monkeypatch.setattr(propagate_module, "unitarity_defect", lambda u: math.nan)
        propagate_module._kernel.cache_clear()
        with pytest.raises(StepTooCoarse):
            single_period_propagator(BASELINE, 1.004, CFG)

    def test_total_propagator_gates_once(self, monkeypatch):
        omega_d = 1.004
        calls = []
        original = propagate_module.single_period_propagator

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(propagate_module, "single_period_propagator", counting)
        t = 40.5 * 2 * math.pi / omega_d
        total_propagator(BASELINE, omega_d, t, CFG)
        assert len(calls) == 1

    def test_reuses_memoized_factorization(self, monkeypatch):
        calls = []
        original = propagate_module.floquet_factorization

        def counting(u):
            calls.append(u.shape)
            return original(u)

        monkeypatch.setattr(propagate_module, "floquet_factorization", counting)
        propagate_module._kernel.cache_clear()
        omega_d = 1.004
        tau = 2 * math.pi / omega_d
        p0 = BASELINE.with_(j_12=0.0)
        kernels = [propagate_module._kernel(p, omega_d, CFG) for p in (BASELINE, p0)]
        # Less than a period needs no factorization.
        total_propagator(BASELINE, omega_d, 0.5 * tau, CFG)
        assert calls == [] and kernels[0].floquet is None
        first = total_propagator(BASELINE, omega_d, 40.5 * tau, CFG)
        np.testing.assert_array_equal(total_propagator(BASELINE, omega_d, 40.5 * tau, CFG), first)
        total_propagator(p0, omega_d, 40.5 * tau, CFG)
        # One 8x8 factorization, and only the Q2 = |0> block at j_12 = 0,
        # each a stack of one; each kernel keeps its own.
        assert calls == [(1, 8, 8), (1, 4, 4)]
        for kernel, n in zip(kernels, (8, 4)):
            alpha, modes = kernel.floquet
            assert alpha.shape == (n,) and modes.shape == (n, n)
            assert not alpha.flags.writeable and not modes.flags.writeable


class TestPeriodPropagators:
    """A sweep's stack of U(tau), built past the period memo."""

    POINTS = [BASELINE, OPTIMIZED, BASELINE.with_(j_12=0.0), OPTIMIZED.with_(drive_amp=0.05)]

    @pytest.mark.parametrize("method", METHODS)
    def test_equals_single_period_propagators_bitwise(self, method):
        cfg = PropagatorConfig(128, method)
        stack = period_propagators(self.POINTS, 1.004, cfg)
        assert stack.shape == (4, 8, 8) and not stack.flags.writeable
        for u, p in zip(stack, self.POINTS):
            np.testing.assert_array_equal(u, single_period_propagator(p, 1.004, cfg))

    def test_gate_names_the_first_failing_index(self, monkeypatch):
        original = propagate_module._fold

        def damaged(w):
            # Each factor size is folded as one stack: the coupled points
            # 0, 1 and 3, then the j_12 = 0 point 2 alone.
            v, u = original(w)
            if len(w) == 1:
                u[0] *= 1.001  # index 2
            else:
                u[2, 0, 0] = math.nan  # index 3
            return v, u

        monkeypatch.setattr(propagate_module, "_fold", damaged)
        with pytest.raises(StepTooCoarse, match="at sweep index 2$"):
            period_propagators(self.POINTS, 1.004, CFG)

    def test_gates_the_stack_with_one_unitarity_defect_call(self, monkeypatch):
        shapes = []

        def recording(u):
            shapes.append(u.shape)
            return unitarity_defect(u)

        monkeypatch.setattr(propagate_module, "unitarity_defect", recording)
        stack = period_propagators(self.POINTS, 1.004, CFG)
        assert shapes == [(4, 8, 8)]
        # One defect per member, each the lone matrix's bit for bit.
        rng = np.random.default_rng(5)
        damaged = stack + 1e-9 * rng.standard_normal(stack.shape)
        defects = unitarity_defect(damaged)
        assert defects.shape == (4,)
        for u, d in zip(damaged, defects):
            assert d == unitarity_defect(u) == np.abs(u.conj().T @ u - np.eye(8)).max()


def polar_power_propagator(p, omega_d, t, cfg):
    """U(t, 0) by the former whole-period path: the SVD polar factor of U(tau)
    raised to the number of whole periods by repeated squaring, then the
    period kernel's tail."""
    tau = 2 * math.pi / omega_d
    n = int(math.floor(t / tau + 1e-12))
    w, _, vh = np.linalg.svd(single_period_propagator(p, omega_d, cfg))
    base, power, k = w @ vh, np.eye(8, dtype=complex), n
    while k:
        if k & 1:
            power = base @ power
        base = base @ base
        k >>= 1
    kernel = propagate_module._kernel(p, omega_d, cfg)
    return kernel_tails(kernel, np.array([t - n * tau]))[0] @ power


def random_orthogonal(seed, n=8):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestFloquetFactorization:
    @pytest.mark.parametrize("regime", ["on", "off"])
    @pytest.mark.parametrize("p", [BASELINE, OPTIMIZED], ids=["BASELINE", "OPTIMIZED"])
    def test_reconstructs_u_tau_from_real_orthogonal_modes(self, p, regime):
        omega_d = solve_omega_d_on(p).omega_d if regime == "on" else p.omega_d_off
        u = single_period_propagator(p, omega_d, CFG)
        np.testing.assert_array_equal(u, u.T)  # the fold's symmetry is exact
        alpha, o = floquet_factorization(u)
        assert o.dtype == np.float64
        assert np.max(np.abs(o.T @ o - np.eye(8))) <= 1e-14
        assert np.max(np.abs((o * np.exp(1j * alpha)) @ o.T - u)) <= 1e-13
        assert np.all(alpha >= -math.pi) and np.all(alpha < math.pi)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1e-9, 0.15, math.pi / 4, math.pi / 2, math.pi - 1e-9]),
                st.sampled_from([-0.0, -1e-9, -0.15, -math.pi / 4, -math.pi / 2, -math.pi]),
                st.floats(-math.pi, math.pi),
            ),
            min_size=8,
            max_size=8,
        ),
        st.integers(0, 2**32 - 1),
        st.sampled_from([4, 8]),
    )
    # All eight multiples of pi/4: no multiple of pi/4 as the shift keeps
    # every eigenphase off 0, so an odd multiple of pi/8 serves.
    @example(list(np.arange(-4, 4) * math.pi / 4), 3, 8)
    # Two four-fold degenerate eigenphases, one of them 0.
    @example([0.0] * 4 + [-2.0] * 4, 3, 8)
    # Eigenphases 0 and pi, each twice: at phi = 0 and pi the Cayley block of
    # the pair at 0 is 0 / 0 with small eigenvalues.
    @example([0.0, 0.0, math.pi, -math.pi] + [0.0] * 4, 0, 4)
    def test_eigenphases_anywhere_on_the_circle(self, alpha, seed, n):
        alpha = np.array(alpha[:n])
        o = random_orthogonal(seed, n)
        u = (o * np.exp(1j * alpha)) @ o.T
        got, modes = floquet_factorization(u)
        assert np.all(got >= -math.pi) and np.all(got < math.pi)
        assert np.max(np.abs(modes.T @ modes - np.eye(n))) <= 1e-14
        assert np.max(np.abs((modes * np.exp(1j * got)) @ modes.T - u)) <= 1e-13
        # Each returned eigenphase is one of alpha, on the circle.
        dist = np.abs(np.exp(1j * got)[:, None] - np.exp(1j * alpha)[None, :])
        assert np.max(dist.min(axis=1)) <= 1e-12

    def test_non_symmetric_input_raises(self):
        z = np.random.default_rng(5).standard_normal((2, 8, 8))
        u, _ = np.linalg.qr(z[0] + 1j * z[1])
        with pytest.raises(ValueError, match="symmetric"):
            floquet_factorization(u)
        nan = np.eye(8, dtype=complex)
        nan[2, 2] = math.nan
        with pytest.raises(ValueError, match="finite"):
            floquet_factorization(nan)

    def test_stack_equals_member_by_member_bitwise(self):
        # np.eye(8) has every eigenphase at 0: the stacked solve at phi = 0
        # meets a singular I - A, each member retries it alone, and the
        # identity goes on to the next rotation by itself.
        omega_d = solve_omega_d_on(BASELINE).omega_d
        o = random_orthogonal(7)
        members = [
            single_period_propagator(BASELINE, omega_d, CFG),
            np.eye(8, dtype=complex),
            single_period_propagator(OPTIMIZED, OPTIMIZED.omega_d_off, CFG),
            (o * np.exp(1j * np.linspace(-math.pi, 2.5, 8))) @ o.T,
        ]
        stack = np.array(members).reshape(2, 2, 8, 8)
        alpha, modes = floquet_factorization(stack)
        assert alpha.shape == (2, 2, 8) and modes.shape == (2, 2, 8, 8)
        for k, u in enumerate(members):
            want_alpha, want_modes = floquet_factorization(u)
            np.testing.assert_array_equal(alpha.reshape(4, 8)[k], want_alpha)
            np.testing.assert_array_equal(modes.reshape(4, 8, 8)[k], want_modes)

    def test_bad_member_raises(self):
        good = single_period_propagator(BASELINE, 1.004, CFG)
        z = np.random.default_rng(5).standard_normal((2, 8, 8))
        unitary, _ = np.linalg.qr(z[0] + 1j * z[1])
        with pytest.raises(ValueError, match="symmetric"):
            floquet_factorization(np.array([good, unitary, good]))
        # Complex symmetric but not normal: its real and imaginary parts do
        # not commute, so no rotation's modes diagonalize it.
        sym = z[0] + z[0].T + 1j * (z[1] + z[1].T)
        with pytest.raises(np.linalg.LinAlgError, match="not a symmetric unitary"):
            floquet_factorization(np.array([good, good, sym]))

    @pytest.mark.parametrize("omega_d", [1.004, 0.9957])
    def test_j12_free_factorization_from_its_block(self, omega_d):
        p0 = OPTIMIZED.with_(j_12=0.0)
        u = single_period_propagator(p0, omega_d, CFG)
        kernel = propagate_module._kernel(p0, omega_d, CFG)
        alpha, modes = propagate_module._factorize([kernel])
        assert alpha.shape == (1, 4) and modes.shape == (1, 4, 4)
        assert not alpha.flags.writeable and not modes.flags.writeable
        # The kernel keeps the block's factorization.
        for got, want in zip(kernel.floquet, (alpha[0], modes[0])):
            np.testing.assert_array_equal(got, want)
        alpha, modes = kernel.floquet
        assert np.all(alpha >= -math.pi) and np.all(alpha < math.pi)
        assert np.max(np.abs(modes.T @ modes - np.eye(4))) <= 1e-14
        # It gives both Q2 blocks of the 8x8 U(tau): the |1> block is the
        # |0> block times e^{-i omega_2 tau}, and Q2 is never flipped.
        block = (modes * np.exp(1j * alpha)) @ modes.T
        q2_phase = np.exp(-2j * math.pi * p0.omega_2 / omega_d)
        for b, want in ((0, block), (1, block * q2_phase)):
            assert np.max(np.abs(u[b::2, b::2] - want)) <= 1e-13
        assert not np.any(u[0::2, 1::2]) and not np.any(u[1::2, 0::2])

    def test_gate_power_matches_polar_squaring(self):
        omega_d = solve_omega_d_on(OPTIMIZED).omega_d
        t_gate = effective_model(OPTIMIZED, omega_d).t_gate
        cfg = PropagatorConfig(steps_per_period=512, method="magnus4")
        old = polar_power_propagator(OPTIMIZED, omega_d, t_gate, cfg)
        new = total_propagator(OPTIMIZED, omega_d, t_gate, cfg)
        assert np.max(np.abs(new - old)) <= 1e-11


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
        # Both power the factorized U(tau) over the same whole periods.
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

    def test_rejects_negative_t_final(self):
        with pytest.raises(ValueError, match="t_final"):
            export_trajectory(BASELINE, 1.004, product_state((0, 1, 0)), -50.0, 3, CFG)

    @pytest.mark.parametrize("t_final", [math.inf, math.nan])
    def test_rejects_non_finite_t_final(self, t_final):
        with pytest.raises(ValueError, match="finite"):
            total_propagator(BASELINE, 1.004, t_final, CFG)
        # Before the sample times are built: np.linspace would warn on inf.
        with pytest.raises(ValueError, match="finite"):
            export_trajectory(BASELINE, 1.004, product_state((0, 1, 0)), t_final, 3, CFG)
