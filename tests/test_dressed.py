"""Dressed-modulator projection, effective model, and resonance root-finding."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freezegate.dressed import (
    dress_modulator,
    effective_model,
    off_ratio,
    signed_detuning,
    signed_detuning_grid,
    solve_omega_d_on,
)
from freezegate.errors import NoRootInBracket
from freezegate.params import BASELINE, ProtocolParams
from freezegate.pauli import SX, SY, SZ


class TestDressModulator:
    def test_resonant_drive(self):
        mod = dress_modulator(0.07, 0.0)
        assert mod.omega_m_prime == pytest.approx(0.07, abs=1e-14)
        assert mod.sx == pytest.approx(-1.0, abs=1e-12)
        assert mod.sy == pytest.approx(0.0, abs=1e-12)
        assert mod.sz == pytest.approx(0.0, abs=1e-12)

    def test_no_drive(self):
        mod = dress_modulator(0.0, 0.5)
        assert mod.omega_m_prime == pytest.approx(0.5, abs=1e-14)
        assert mod.sx == pytest.approx(0.0, abs=1e-12)
        assert mod.sz == pytest.approx(1.0, abs=1e-12)

    def test_3_4_5_triangle(self):
        mod = dress_modulator(3.0, 4.0)
        assert mod.omega_m_prime == pytest.approx(5.0, abs=1e-12)
        assert mod.sx == pytest.approx(-3.0 / 5.0, abs=1e-12)
        assert mod.sz == pytest.approx(4.0 / 5.0, abs=1e-12)

    def test_against_dense_2x2_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            amp, dm = rng.uniform(0.0, 2.0), rng.uniform(-2.0, 2.0)
            mod = dress_modulator(amp, dm)
            h = 0.5 * (amp * SX - dm * SZ)
            evals, evecs = np.linalg.eigh(h)
            g = evecs[:, 0]
            assert mod.omega_m_prime == pytest.approx(evals[1] - evals[0], abs=1e-13)
            for pauli, val in ((SX, mod.sx), (SY, mod.sy), (SZ, mod.sz)):
                assert val == pytest.approx(np.real(g.conj() @ pauli @ g), abs=1e-12)

    @given(st.floats(1e-6, 5.0), st.floats(-5.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_invariants(self, amp, dm):
        mod = dress_modulator(amp, dm)
        assert mod.omega_m_prime == pytest.approx(math.hypot(amp, dm), rel=1e-14)
        # Bloch vector of a pure state has unit length.
        assert mod.sx**2 + mod.sy**2 + mod.sz**2 == pytest.approx(1.0, abs=1e-12)
        assert abs(mod.sy) < 1e-12

    def test_degenerate_flag(self):
        mod = dress_modulator(0.0, 0.0)
        assert mod.degenerate
        np.testing.assert_allclose(mod.ground_state, [1.0, 0.0], atol=1e-15)


class TestEffectiveModel:
    def test_jm1_zero_reduction(self):
        # Without the modulator coupling the dressed Q1 frequency is |delta_1|.
        p = BASELINE.with_(j_m1=0.0)
        m = effective_model(p, 0.996)
        assert m.omega_1_prime == pytest.approx(abs(p.omega_1 - 0.996), abs=1e-15)
        assert m.omega_2_prime == pytest.approx(abs(p.omega_2 - 0.996), abs=1e-15)
        assert m.j12_eff == pytest.approx(p.j_12, abs=1e-15)
        # Above both qubit frequencies the Q1 levels invert and the
        # ground/excited overlap product vanishes.
        assert effective_model(p, 1.004).j12_eff == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_frequencies(self):
        omega_d = 1.004
        m = effective_model(BASELINE, omega_d)
        dm, d1, d2 = BASELINE.detunings(omega_d)
        wm = math.hypot(BASELINE.drive_amp, dm)
        sx = -BASELINE.drive_amp / wm
        assert m.omega_1_prime == pytest.approx(
            math.hypot(d1, BASELINE.j_m1 * sx), rel=1e-13
        )
        assert m.omega_2_prime == pytest.approx(abs(d2), rel=1e-13)
        assert m.signed_detuning == pytest.approx(
            m.omega_1_prime - m.omega_2_prime, abs=1e-16
        )

    def test_overlap_phase_invariance(self):
        # j12_eff is built from moduli of overlaps, so it cannot depend on
        # eigenvector gauge; compare against an explicit projector formula.
        m = effective_model(BASELINE, 1.004)
        g1, e1 = m.q1_ground, m.q1_excited
        overlap = abs(g1[0]) * abs(e1[1])
        assert m.j12_eff == pytest.approx(overlap * BASELINE.j_12, rel=1e-14)
        assert 0.0 < m.j12_eff <= BASELINE.j_12

    def test_grid_matches_scalar(self):
        grid = np.linspace(0.95, 1.05, 31)
        vec = signed_detuning_grid(BASELINE, grid)
        scalars = [signed_detuning(BASELINE, w) for w in grid]
        np.testing.assert_allclose(vec, scalars, atol=1e-15)

    def test_grid_undriven_modulator_is_warning_free(self):
        # drive_amp = 0 zeroes the dressed splitting at omega_d = omega_m,
        # where the projection sx is 0 by convention, as in dress_modulator.
        p = BASELINE.with_(drive_amp=0.0)
        grid = np.array([0.99, p.omega_m, 1.01])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = signed_detuning_grid(p, grid)
        np.testing.assert_allclose(
            vec, [signed_detuning(p, w) for w in grid], atol=1e-15
        )

    def test_off_composition(self):
        # The off-regime working point keeps the dressed qubits far detuned
        # compared with the effective coupling.
        r = off_ratio(BASELINE)
        assert r > 200.0
        m = effective_model(BASELINE, BASELINE.omega_d_off)
        assert r == pytest.approx(m.delta_12_prime / m.j12_eff, rel=1e-14)

    def test_off_ratio_infinite_without_coupling(self):
        assert off_ratio(BASELINE.with_(j_12=0.0)) == math.inf

    def test_gate_time_monotone_in_j12(self):
        times = [
            effective_model(BASELINE.with_(j_12=j), 1.004).t_gate
            for j in (2e-5, 5e-5, 1e-4, 2e-4)
        ]
        assert all(a > b for a, b in zip(times, times[1:]))
        # doubling the coupling halves the gate time
        assert times[2] == pytest.approx(2 * times[3], rel=1e-12)


class TestAsymptotes:
    def test_far_detuned_limits(self):
        # Far from resonance the dressed shift saturates; the signed detuning
        # approaches the bare splitting omega_2 - omega_1 = 0.0017 in size.
        for omega_d in (-100.0, 100.0):
            f = float(signed_detuning_grid(BASELINE, np.array([omega_d]))[0])
            assert abs(abs(f) - 0.0017) < 1e-5


class TestSolveOmegaDOn:
    def test_default_point(self):
        root = solve_omega_d_on(BASELINE)
        assert root.residual < 1e-10
        assert 0.9 < root.omega_d < 1.0
        # the root really is a sign change of the closed form
        eps = 1e-9
        lo = signed_detuning(BASELINE, root.omega_d - eps)
        hi = signed_detuning(BASELINE, root.omega_d + eps)
        assert lo * hi <= 0

    def test_no_root_without_modulator_coupling(self):
        # With j_m1 = 0 the dressed shift vanishes: omega_1' - omega_2' =
        # |d1| - |d2| still crosses zero at the midpoint (w1 + w2)/2, so a
        # root exists; instead remove it by making the bracket one-sided.
        p = BASELINE.with_(j_m1=0.0)
        with pytest.raises(NoRootInBracket) as exc:
            solve_omega_d_on(p, bracket=(1.01, 1.10))
        assert exc.value.grid_min is not None
        assert exc.value.grid_min > 0

    def test_jm1_zero_midpoint_root(self):
        # |omega_1 - w| = |omega_2 - w| at the arithmetic midpoint.
        p = BASELINE.with_(j_m1=0.0)
        root = solve_omega_d_on(p, bracket=(1.0, 1.0017))
        assert root.omega_d == pytest.approx((p.omega_1 + p.omega_2) / 2, abs=1e-12)

    def test_equal_frequencies(self):
        # omega_2 = omega_1 with coupling: no real crossing below omega_1
        # unless the dressed shift can close the gap; the symmetric case has
        # the signed detuning strictly positive wherever j_m1*sx != 0.
        p = BASELINE.with_(omega_2=1.0)
        with pytest.raises(NoRootInBracket):
            solve_omega_d_on(p, bracket=(0.9, 0.999))

    def test_randomized_hierarchy_points(self):
        # A root exists when the freezing-induced shift j_m1*|sx| can exceed
        # the bare splitting, so sample with j_m1 comfortably above it.
        rng = np.random.default_rng(11)
        for _ in range(100):
            split = rng.uniform(5e-4, 2e-3)
            p = ProtocolParams(
                omega_2=1.0 + split,
                j_m1=rng.uniform(1.5 * split, 8e-3),
                j_12=rng.uniform(1e-5, 2e-4),
                drive_amp=rng.uniform(0.05, 0.15),
            )
            root = solve_omega_d_on(p)
            assert root.residual < 1e-10
            assert root.omega_d < p.omega_1

    def test_root_above_omega_1(self):
        # j_m1 < omega_2 - omega_1: the dressed shift cannot close the gap
        # below omega_1, and the resonance lies in (omega_1, omega_2].
        p = BASELINE.with_(j_m1=0.0015)
        root = solve_omega_d_on(p)
        assert root.omega_d == pytest.approx(1.000188, abs=1e-6)
        assert root.residual < 1e-12

    def test_scan_grid_of_jm1_has_roots(self):
        # The figure-3 j_m1 grid: its two lowest points resonate above omega_1.
        for j_m1 in np.geomspace(0.0015, 0.008, 15):
            assert solve_omega_d_on(BASELINE.with_(j_m1=float(j_m1))).residual < 1e-12

    def test_root_is_where_the_gap_closes(self):
        root = solve_omega_d_on(BASELINE)
        m = effective_model(BASELINE, root.omega_d)
        assert m.delta_12_prime < 1e-10
        assert m.j12_eff > 0
