"""Dressed-modulator projection, effective model, and resonance root-finding."""

import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freezegate import dressed
from freezegate.dressed import (
    OnRoot,
    auto_bracket,
    dress_modulator,
    dressed_bases,
    dressed_vectors,
    effective_model,
    off_ratio,
    signed_detuning,
    signed_detuning_grid,
    solve_omega_d_on,
)
from freezegate.errors import NoRootInBracket
from freezegate.floquet import dressed_product_basis
from freezegate.params import BASELINE, OPTIMIZED, ProtocolParams
from freezegate.pauli import SX, SY, SZ, build_rotating_hamiltonian


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

    def test_subnormal_coupling_gives_infinite_gate_time(self):
        m = effective_model(BASELINE.with_(j_12=1e-310), 1.004)
        assert m.j12_eff > 0 and m.t_gate == math.inf

    def test_gate_time_monotone_in_j12(self):
        times = [
            effective_model(BASELINE.with_(j_12=j), 1.004).t_gate
            for j in (2e-5, 5e-5, 1e-4, 2e-4)
        ]
        assert all(a > b for a, b in zip(times, times[1:]))
        # doubling the coupling halves the gate time
        assert times[2] == pytest.approx(2 * times[3], rel=1e-12)


def oracle_eigenbasis(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense eigh of a 2x2 Hermitian matrix, vectors in the first-component gauge."""
    evals, evecs = np.linalg.eigh(h)
    vecs = []
    for v in evecs.T:
        for x in v:
            if abs(x) > 1e-12:
                v = v * (abs(x) / x)
                break
        vecs.append(v)
    return evals, vecs[0], vecs[1]


def assert_same_state(v, w, gauge=True):
    """Equal as rays and, with gauge, v in the real-positive first-component gauge."""
    assert abs(abs(np.vdot(w, v)) - 1.0) < 1e-12
    np.testing.assert_allclose(np.outer(v, v.conj()), np.outer(w, w.conj()), atol=1e-12)
    if gauge:
        lead = next(x for x in v if abs(x) > 1e-12)
        assert lead.real > 0 and lead.imag == 0


zero_or = st.one_of(st.just(0.0), st.floats(1e-6, 0.2))


class TestClosedFormAgainstEigh:
    """The closed-form dressed layer against a dense 2x2 eigensolver."""

    @given(
        omega_2=st.floats(0.99, 1.01),
        drive_amp=zero_or,
        j_m1=st.one_of(st.just(0.0), st.floats(1e-6, 0.01)),
        j_12=st.floats(0.0, 1e-3),
        omega_d=st.one_of(
            st.just(1.0),  # delta_1 = delta_m = 0
            st.just(1.02),  # delta_2 < 0
            st.floats(0.95, 1.05),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_effective_model_matches_eigh(self, omega_2, drive_amp, j_m1, j_12, omega_d):
        p = ProtocolParams(omega_2=omega_2, j_m1=j_m1, j_12=j_12, drive_amp=drive_amp)
        m = effective_model(p, omega_d)
        dm, d1, d2 = p.detunings(omega_d)

        mod = m.modulator
        if math.hypot(drive_amp, dm) < 1e-12:
            assert mod.degenerate and (mod.sx, mod.sy, mod.sz) == (0.0, 0.0, 1.0)
            sx = 0.0
        else:
            evals, g, _ = oracle_eigenbasis(0.5 * (drive_amp * SX - dm * SZ))
            assert mod.omega_m_prime == pytest.approx(evals[1] - evals[0], abs=1e-15)
            assert_same_state(mod.ground_state, g)
            sx = float(np.real(g.conj() @ SX @ g))
            for pauli, val in ((SX, mod.sx), (SY, mod.sy), (SZ, mod.sz)):
                assert val == pytest.approx(np.real(g.conj() @ pauli @ g), abs=1e-13)

        h1 = -(d1 / 2) * SZ + (j_m1 * sx / 2) * SX
        evals, g1, e1 = oracle_eigenbasis(h1)
        assert m.omega_1_prime == pytest.approx(evals[1] - evals[0], abs=1e-15)
        assert m.omega_2_prime == abs(d2)
        if m.degenerate_q1:
            assert evals[1] - evals[0] < 1e-12
        else:
            assert_same_state(m.q1_ground, g1)
            assert_same_state(m.q1_excited, e1)
            assert m.j12_eff == pytest.approx(abs(g1[0]) * abs(e1[1]) * j_12, abs=1e-15)
        _, g2, e2 = oracle_eigenbasis(-(d2 / 2) * SZ + 0.0 * SX)
        if d2 != 0:
            assert_same_state(m.q2_ground, g2)
            assert_same_state(m.q2_excited, e2)
        # The root solve's scalar closed form is the model's field, bit for bit.
        assert signed_detuning(p, omega_d) == m.signed_detuning

    @given(zero_or, st.one_of(st.just(0.0), st.floats(-0.5, 0.5)))
    @settings(max_examples=100, deadline=None)
    def test_dress_modulator_matches_eigh(self, amp, dm):
        mod = dress_modulator(amp, dm)
        if math.hypot(amp, dm) < 1e-12:
            assert mod.degenerate
            return
        evals, g, e = oracle_eigenbasis(0.5 * (amp * SX - dm * SZ))
        assert mod.omega_m_prime == pytest.approx(evals[1] - evals[0], abs=1e-15)
        assert_same_state(mod.ground_state, g)
        # The excited state is the gauge-free orthogonal complement.
        assert_same_state(mod.excited_state, e, gauge=False)

    def test_vectors_match_eigh_to_rounding(self):
        # Away from the gauge threshold the vectors themselves agree.
        rng = np.random.default_rng(5)
        for _ in range(500):
            p = ProtocolParams(
                omega_2=rng.uniform(0.99, 1.01),
                j_m1=rng.uniform(0.0, 0.01),
                drive_amp=rng.uniform(0.0, 0.2),
            )
            omega_d = rng.uniform(0.95, 1.05)
            m = effective_model(p, omega_d)
            dm, d1, _ = p.detunings(omega_d)
            _, g, _ = oracle_eigenbasis(0.5 * (p.drive_amp * SX - dm * SZ))
            _, g1, e1 = oracle_eigenbasis(-(d1 / 2) * SZ + (p.j_m1 * m.modulator.sx / 2) * SX)
            for got, want in ((m.modulator.ground_state, g), (m.q1_ground, g1), (m.q1_excited, e1)):
                np.testing.assert_allclose(got, want, atol=1e-15)

    def test_module_runs_no_eigensolver(self):
        assert "linalg" not in inspect.getsource(dressed)


def complex_phase_fix(v):
    """The complex gauge the dressed states were first built with."""
    for x in v:
        if abs(x) > 1e-12:
            return v * (abs(x) / x)
    return v


def complex_eigenbasis(x, z):
    half = 0.5 * math.atan2(x, z)
    c, s = math.cos(half), math.sin(half)
    ground = complex_phase_fix(np.array([-s, c], dtype=complex))
    return ground, complex_phase_fix(np.array([c, s], dtype=complex))


def complex_vectors(drive_amp, j_m1, dm, d1, d2):
    """gm, em, g1, e1, g2, e2 as np.array + complex_phase_fix built them."""
    e0, e1 = np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
    wm = math.hypot(drive_amp, dm)
    gm, sx = (e0, 0.0) if wm < 1e-12 else (complex_eigenbasis(drive_amp, -dm)[0], -drive_amp / wm)
    em = np.array([-np.conj(gm[1]), np.conj(gm[0])], dtype=complex)
    if math.hypot(d1, j_m1 * sx) < 1e-12:
        g1, x1 = e0, e1
    else:
        g1, x1 = complex_eigenbasis(j_m1 * sx, -d1)
    g2, x2 = (e0, e1) if d2 >= 0 else (e1, e0)
    return np.array([gm, em, g1, x1, g2, x2])


class TestDressedVectors:
    """The real closed form against the complex construction, bit for bit."""

    @staticmethod
    def points(n):
        rng = np.random.default_rng(23)
        pts = []
        for k in range(n):
            drive_amp = rng.choice([0.0, rng.uniform(0.0, 0.2)])
            j_m1 = rng.choice([0.0, rng.uniform(0.0, 0.01)])
            omega_m, omega_1, omega_2 = rng.uniform(0.99, 1.01, 3)
            # omega_d on a frequency makes its detuning exactly 0.
            omega_d = rng.choice([omega_m, omega_1, omega_2, rng.uniform(0.99, 1.01)])
            pts.append((drive_amp, j_m1, omega_m - omega_d, omega_1 - omega_d, omega_2 - omega_d))
        # Degenerate modulator and Q1, d2 = 0 and d2 < 0.
        pts += [(0.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.005, 0.0, 0.0, -0.001), (0.07, 0.0, 0.0, 0.0, 0.0)]
        return [tuple(map(float, pt)) for pt in pts]

    def test_floats_equal_the_complex_construction(self):
        for pt in self.points(2000):
            want = complex_vectors(*pt)
            assert not want.imag.any()
            got = dressed_vectors(*pt)
            np.testing.assert_array_equal(got, want.real)
            assert got.tobytes() == want.real.tobytes()  # signed zeros too

    def test_models_carry_the_closed_form(self):
        for drive_amp, j_m1, dm, d1, d2 in self.points(200):
            p = ProtocolParams(omega_m=1.0 + dm, omega_1=1.0 + d1, omega_2=1.0 + d2, j_m1=j_m1, drive_amp=drive_amp)
            m = effective_model(p, 1.0)
            want = complex_vectors(drive_amp, j_m1, *p.detunings(1.0))
            got = [m.modulator.ground_state, m.modulator.excited_state, m.q1_ground, m.q1_excited, m.q2_ground, m.q2_excited]
            np.testing.assert_array_equal(np.array(got), want)
            mod = dress_modulator(drive_amp, p.omega_m - 1.0)
            np.testing.assert_array_equal(np.array([mod.ground_state, mod.excited_state]), want[:2])

    def test_bases_stack_the_closed_form(self):
        # One stack over points and drives: per point, the modulator, Q1 and
        # Q2 bases with `dressed_vectors`' [ground, excited] as columns.
        points, drives = [], []
        for drive_amp, j_m1, dm, d1, d2 in self.points(200):
            points.append(ProtocolParams(omega_m=1.0 + dm, omega_1=1.0 + d1, omega_2=1.0 + d2, j_m1=j_m1, drive_amp=drive_amp))
            drives.append(1.0 + 0.01 * len(drives) / 200)
        bases = dressed_bases(points, drives)
        assert bases.shape == (len(points), 3, 2, 2) and bases.dtype == float
        for b, p, w in zip(bases, points, drives):
            v = dressed_vectors(p.drive_amp, p.j_m1, *p.detunings(w))
            assert b.swapaxes(-1, -2).reshape(6, 2).tobytes() == v.tobytes()


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

    def test_jm1_zero_midpoint_root(self):
        # Without the modulator coupling the dressed shift vanishes and
        # |omega_1 - w| = |omega_2 - w| at the arithmetic midpoint, below
        # omega_1 where the pre-scan starts.
        p = BASELINE.with_(j_m1=0.0)
        root = solve_omega_d_on(p)
        assert root.omega_d == (p.omega_1 + p.omega_2) / 2 == 1.00085
        assert root.residual == 0.0

    def test_equal_frequencies(self):
        # omega_2 = omega_1 with coupling: the signed detuning is strictly
        # positive wherever j_m1*sx != 0, so the pre-scan widens down to
        # 0.5*omega_1 and has nowhere above omega_1 to go.
        p = BASELINE.with_(omega_2=1.0)
        with pytest.raises(NoRootInBracket, match=r"on \[0.5, 1.0\]") as exc:
            solve_omega_d_on(p)
        assert exc.value.grid_min == pytest.approx(2.355e-7, rel=1e-3)

    def test_identically_zero_detuning_has_no_root(self):
        # j_m1 = 0 and omega_2 = omega_1: |omega_1 - w| - |omega_2 - w| is 0
        # at every drive frequency, so none of them is the on drive.
        p = BASELINE.with_(j_m1=0.0, omega_2=1.0)
        assert p.omega_1 == 1.0
        with pytest.raises(NoRootInBracket, match="identically zero") as exc:
            solve_omega_d_on(p)
        assert exc.value.grid_min == 0.0

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

    def test_prescan_only_without_a_root(self, monkeypatch):
        scanned, calls = [], []
        grid_detuning, detuning = dressed.signed_detuning_grid, dressed.signed_detuning

        def record_grid(p, omega_d):
            scanned.append((float(omega_d[0]), float(omega_d[-1])))
            return grid_detuning(p, omega_d)

        def record(p, omega_d):
            calls.append(omega_d)
            return detuning(p, omega_d)

        monkeypatch.setattr(dressed, "signed_detuning_grid", record_grid)
        monkeypatch.setattr(dressed, "signed_detuning", record)
        # A solvable point takes its root from the cubic: no pre-scan, and
        # only the bisection's scalar calls.
        root = solve_omega_d_on(BASELINE.with_(j_m1=0.0015))
        assert root.residual < 1e-12
        assert scanned == [] and 0 < len(calls) <= 25
        # A point without a root scans each window once, for the message.
        with pytest.raises(NoRootInBracket):
            solve_omega_d_on(BASELINE.with_(omega_2=1.0))
        assert len(set(scanned)) == len(scanned) == 4
        assert [lo for lo, _ in scanned] == pytest.approx([0.9, 0.8, 0.6, 0.5], rel=1e-15)
        assert {hi for _, hi in scanned} == {1.0}

    @pytest.mark.parametrize("p", [BASELINE, OPTIMIZED], ids=["baseline", "optimized"])
    def test_rwa_splitting_at_the_root_is_twice_j12_eff(self, p):
        # Independent of the closed form: at the solved drive the exact
        # rotating-frame spectrum holds the exchange pair |gm e1 g2>,
        # |gm g1 e2> split by 2*j12_eff (the RWA Hamiltonian's own
        # corrections are ~1e-3 of it).
        omega_d = solve_omega_d_on(p).omega_d
        energies, vectors = np.linalg.eigh(build_rotating_hamiltonian(p, omega_d))
        labels, columns = dressed_product_basis(p, omega_d)
        pair = columns[:, [labels.index("gm e1 g2"), labels.index("gm g1 e2")]]
        weight = np.sum(np.abs(pair.conj().T @ vectors) ** 2, axis=0)
        i, k = np.argsort(weight)[-2:]
        assert min(weight[i], weight[k]) > 0.999
        splitting = abs(energies[i] - energies[k])
        assert splitting == pytest.approx(2 * effective_model(p, omega_d).j12_eff, rel=5e-3)

    def test_root_is_where_the_gap_closes(self):
        root = solve_omega_d_on(BASELINE)
        m = effective_model(BASELINE, root.omega_d)
        assert m.delta_12_prime < 1e-10
        assert m.j12_eff > 0


def prescan_root(p: ProtocolParams) -> OnRoot:
    """The pre-scan + bisection solve, the oracle of the cubic's.

    Bisects the lowest sign-change cell of `auto_bracket`'s grid to 1e-14
    relative width; an exact zero on the grid is the root.  Raises the same
    NoRootInBracket as `solve_omega_d_on`.
    """
    grid, f = auto_bracket(p)
    lo, hi = float(grid[0]), float(grid[-1])
    if not f.any():
        raise NoRootInBracket(
            f"signed dressed detuning is identically zero on [{lo}, {hi}]: "
            "no drive frequency is singled out",
            grid_min=0.0,
        )
    zeros = np.flatnonzero(f == 0.0)
    changes = np.flatnonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))
    if not len(changes) and not len(zeros):
        imin = int(np.argmin(np.abs(f)))
        raise NoRootInBracket(
            "signed dressed detuning does not change sign on "
            f"[{lo}, {hi}]; grid minimum |detuning| = {abs(f[imin]):.3e} "
            f"at omega_d = {grid[imin]:.12g}",
            grid_min=float(abs(f[imin])),
        )
    if len(zeros) and (not len(changes) or zeros[0] <= changes[0]):
        return OnRoot(float(grid[zeros[0]]), 0.0)
    a, b = float(grid[changes[0]]), float(grid[changes[0] + 1])
    fa = signed_detuning(p, a)
    while (b - a) > 1e-14 * max(abs(a), abs(b), 1.0):
        m = 0.5 * (a + b)
        fm = signed_detuning(p, m)
        if fm == 0.0:
            a = b = m
            break
        if (fm < 0) == (fa < 0):
            a, fa = m, fm
        else:
            b = m
    root = 0.5 * (a + b)
    return OnRoot(root, abs(signed_detuning(p, root)))


def assert_solves_like_the_prescan(p: ProtocolParams) -> None:
    """Same root (1e-12 relative) or the same NoRootInBracket as `prescan_root`."""
    try:
        want = prescan_root(p)
    except NoRootInBracket as exc:
        with pytest.raises(NoRootInBracket) as got:
            solve_omega_d_on(p)
        assert str(got.value) == str(exc) and got.value.grid_min == exc.grid_min
        return
    got = solve_omega_d_on(p)
    assert got.omega_d == pytest.approx(want.omega_d, rel=1e-12, abs=0.0)
    assert got.residual < 1e-10


def fig3_points(n: int) -> list[ProtocolParams]:
    """BASELINE with one field varied over `reproduce`'s figure-3 grids of n points."""
    grids = {
        "j_m1": np.geomspace(0.0015, 0.008, n),
        "drive_amp": np.linspace(0.04, 0.12, n),
        "omega_2": np.linspace(1.0008, 1.0024, n),
        "j_12": np.geomspace(2e-5, 5e-4, n),
        "omega_d_off": np.linspace(1.002, 1.006, n),
    }
    return [BASELINE.with_(**{name: float(v)}) for name, grid in grids.items() for v in grid]


def hidden_by_the_prescan(p: ProtocolParams) -> bool:
    """Whether the cubic's root shares its pre-scan grid cell with another root.

    The pre-scan sees no sign change across such a cell, so the oracle takes
    another root or none.
    """
    try:
        w = solve_omega_d_on(p).omega_d
    except NoRootInBracket:
        return False
    lo, hi = next(win for win in dressed._windows(p) if win[0] <= w <= win[1])
    cell = (hi - lo) / (dressed.SCAN_POINTS - 1)
    i = (w - lo) // cell
    return sum(lo + i * cell <= r <= lo + (i + 1) * cell for r in dressed._cubic_roots(p)) >= 2


def detuning_changes_sign(p: ProtocolParams, omega_d: float, h: float = 1e-6) -> bool:
    return signed_detuning(p, omega_d - h) * signed_detuning(p, omega_d + h) < 0


class TestCubicAgainstPrescan:
    """The cubic's roots and window rule against the pre-scan + bisection oracle.

    Over the sampled ranges drive_amp**2 exceeds (omega_1 + omega_2 -
    2 omega_m)**2 / 12, so the cubic has one real root and no grid cell can
    hide a pair of sign changes; no case is excluded there.
    """

    @given(
        log_j_m1=st.floats(-3.5, -1.5),
        drive_amp=st.floats(0.01, 0.2),
        omega_2=st.floats(0.995, 1.01),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_points(self, log_j_m1, drive_amp, omega_2):
        assert_solves_like_the_prescan(
            BASELINE.with_(j_m1=10.0**log_j_m1, drive_amp=drive_amp, omega_2=omega_2)
        )

    def test_wider_ranges(self):
        # omega_m, omega_1 and omega_2 off their defaults; drive_amp and j_m1
        # zero or far from the hierarchy.  A drive_amp below ~1e-4 narrows
        # the detuning's bump at omega_m below one pre-scan cell, the only
        # case the oracle gets wrong; it is excluded, and stays rare.
        rng = np.random.default_rng(31)
        hidden = 0
        for _ in range(1000):
            p = ProtocolParams(
                omega_m=float(rng.choice([1.0, rng.uniform(0.6, 1.1)])),
                omega_1=float(rng.choice([1.0, rng.uniform(0.9, 1.1)])),
                omega_2=float(rng.uniform(0.9, 1.1)),
                j_m1=float(rng.choice([0.0, 10.0 ** rng.uniform(-4.0, -0.5)])),
                drive_amp=float(rng.choice([0.0, rng.uniform(0.0, 0.2), 10.0 ** rng.uniform(-5.0, -1.0)])),
            )
            if hidden_by_the_prescan(p):
                hidden += 1
                continue
            assert_solves_like_the_prescan(p)
        assert hidden <= 5

    @pytest.mark.parametrize("n", [15, 25])
    def test_named_points(self, n):
        for p in [BASELINE, OPTIMIZED, *fig3_points(n)]:
            assert_solves_like_the_prescan(p)

    def test_two_roots_in_the_first_window_take_the_lower(self):
        # A weak drive near omega_m = 0.95 lifts the detuning above zero in
        # a bump: three sign changes in [0.9, 1.0].
        p = BASELINE.with_(omega_m=0.95, omega_2=1.001, j_m1=0.02, drive_amp=0.005)
        roots = dressed._cubic_roots(p)
        assert len(roots) == 3 and all(0.9 <= w <= 1.0 and detuning_changes_sign(p, w) for w in roots)
        assert solve_omega_d_on(p).omega_d == pytest.approx(roots[0], rel=1e-12)
        assert_solves_like_the_prescan(p)

    def test_first_window_before_the_lowest_root(self):
        # The bump straddles 0.9: the root above it is taken, although the
        # one below is lower, because [0.9, 1.0] is searched first.
        p = BASELINE.with_(omega_m=0.9, omega_2=1.001, j_m1=0.02, drive_amp=0.002)
        below, above, _ = dressed._cubic_roots(p)
        assert below < 0.9 < above and detuning_changes_sign(p, below)
        assert solve_omega_d_on(p).omega_d == pytest.approx(above, rel=1e-12)
        assert_solves_like_the_prescan(p)

    def test_root_only_a_wider_window_holds(self):
        # Roots at 0.69 and 0.71, found in [0.6, 1.0], before the one in
        # (omega_1, omega_2].
        p = BASELINE.with_(omega_m=0.7, omega_2=1.001, j_m1=0.05, drive_amp=0.005)
        lowest, _, upper = dressed._cubic_roots(p)
        assert 0.6 < lowest < 0.8 and 1.0 < upper <= 1.001
        assert solve_omega_d_on(p).omega_d == pytest.approx(lowest, rel=1e-12)
        assert_solves_like_the_prescan(p)

    def test_triple_root(self):
        # drive_amp = 0 with omega_m at the qubits' midpoint: the cubic is
        # u^3 = 0, and the detuning |delta_1| - |delta_2| changes sign there.
        p = BASELINE.with_(drive_amp=0.0, omega_m=1.00085)
        assert dressed._cubic_roots(p) == [1.00085]
        assert solve_omega_d_on(p) == OnRoot(1.00085, 0.0)
        assert_solves_like_the_prescan(p)

    def test_pair_inside_one_prescan_cell(self):
        # drive_amp = 1e-5 narrows the bump at omega_m = 0.85 to two sign
        # changes 2.7e-5 apart, inside one 1e-4 cell of the [0.8, 1.0] scan:
        # the cubic takes the lower one, the pre-scan misses both and goes
        # on to (omega_1, omega_2].
        p = BASELINE.with_(omega_m=0.85, omega_2=1.08, j_m1=0.29, drive_amp=1e-5)
        lower, upper, above = dressed._cubic_roots(p)
        assert upper - lower < 3e-5 and detuning_changes_sign(p, lower)
        assert hidden_by_the_prescan(p)
        assert solve_omega_d_on(p).omega_d == pytest.approx(lower, rel=1e-12)
        assert prescan_root(p).omega_d == pytest.approx(above, rel=1e-12)

    @pytest.mark.parametrize(
        "p, root",
        [
            # omega_2 < omega_1: the windows stop at omega_1, and the root is above it.
            pytest.param(BASELINE.with_(omega_2=0.999), 1.005586239, id="above-omega_1"),
            # The only root is below the 0.5 omega_1 floor.
            pytest.param(
                BASELINE.with_(
                    omega_2=1.0000395052514595,
                    j_m1=0.027960090973117094,
                    drive_amp=0.11881897667068814,
                ),
                0.49021031,
                id="below-the-floor",
            ),
        ],
    )
    def test_sign_change_outside_every_window_raises(self, p, root):
        # The window rule is the contract: a sign change outside `_windows`
        # is not searched, and the point raises the pre-scan's error.
        (w,) = dressed._cubic_roots(p)
        assert w == pytest.approx(root, abs=1e-9) and detuning_changes_sign(p, w)
        assert not any(lo <= w <= hi for lo, hi in dressed._windows(p))
        with pytest.raises(NoRootInBracket, match="does not change sign on"):
            solve_omega_d_on(p)
        assert_solves_like_the_prescan(p)
