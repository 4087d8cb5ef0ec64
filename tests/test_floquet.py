"""Quasienergy spectra, branch continuation, and avoided-crossing gaps."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from freezegate import dressed as dressed_module
from freezegate.dressed import effective_model, solve_omega_d_on
from freezegate import floquet as floquet_module
from freezegate import propagate as propagate_module
from freezegate.errors import BranchNotFound, BranchTrackingAmbiguous, ConfigError
from freezegate.floquet import (
    AMBIGUITY_FLOOR,
    CONTINUITY_FLOOR,
    LABELS,
    FloquetSpectrum,
    _circular_separation,
    _greedy_order,
    avoided_crossing_gap,
    branch_separation_at,
    dressed_product_basis,
    floquet_spectrum,
    principal_quasienergies,
)
from freezegate.params import BASELINE, OPTIMIZED
from freezegate.propagate import PropagatorConfig, single_period_propagator

CFG = PropagatorConfig(steps_per_period=256)


class TestPrincipalQuasienergies:
    def test_identity(self):
        eps, q = principal_quasienergies(np.eye(8, dtype=complex), 2 * math.pi)
        np.testing.assert_allclose(eps, 0.0, atol=1e-14)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(8), atol=1e-13)

    def test_static_diagonal(self):
        # U = exp(-i H tau) for diagonal H with entries inside the principal
        # zone reproduces the entries exactly.
        omega_d = 1.004
        tau = 2 * math.pi / omega_d
        h = np.diag(np.linspace(-0.4, 0.45, 8) * omega_d)
        u = scipy.linalg.expm(-1j * h * tau)
        eps, _ = principal_quasienergies(u, tau)
        np.testing.assert_allclose(np.sort(eps), np.sort(np.diag(h)), atol=1e-12)

    def test_principal_branch_bounds(self):
        omega_d = 1.004
        tau = 2 * math.pi / omega_d
        u = single_period_propagator(BASELINE, omega_d, CFG)
        eps, _ = principal_quasienergies(u, tau)
        assert np.all(eps > -omega_d / 2 - 1e-12)
        assert np.all(eps <= omega_d / 2 + 1e-12)

    def test_folding(self):
        # An energy outside the zone folds back in by omega_d.
        omega_d = 1.0
        tau = 2 * math.pi
        h = np.diag([0.7] + [0.0] * 7)
        u = scipy.linalg.expm(-1j * h * tau)
        eps, _ = principal_quasienergies(u, tau)
        assert np.min(eps) == pytest.approx(-0.3, abs=1e-12)
        assert np.sum(np.abs(eps) < 1e-12) == 7


def assert_matches_schur(p, omega_d):
    """Quasienergies of U(tau) against complex Schur's to 1e-14, and each
    real mode against the Schur vector of the same quasienergy."""
    tau = 2 * math.pi / omega_d
    u = single_period_propagator(p, omega_d, CFG)
    eps, modes = principal_quasienergies(u, tau)
    t, q = scipy.linalg.schur(u, output="complex")
    ref = -np.angle(np.diag(t)) / tau
    sep = _circular_separation(eps[:, None], ref[None, :], omega_d)
    match = np.argmin(sep, axis=1)
    assert sorted(match) == list(range(8))
    assert np.max(sep[np.arange(8), match]) <= 1e-14
    np.testing.assert_allclose(np.abs(modes.T @ q[:, match]), np.eye(8), atol=1e-9)


class TestAgainstSchur:
    @pytest.mark.parametrize("regime", ["on", "off"])
    @pytest.mark.parametrize("p", [BASELINE, OPTIMIZED], ids=["BASELINE", "OPTIMIZED"])
    def test_operating_points(self, p, regime):
        omega_d = solve_omega_d_on(p).omega_d if regime == "on" else p.omega_d_off
        assert_matches_schur(p, omega_d)

    def test_on_drive_avoided_crossing(self):
        # The closest approach of the exchange pair on criterion 3's sweep.
        omega_d = solve_omega_d_on(BASELINE).omega_d
        grid = np.linspace(1.0012, 1.0022, 101)
        spec = floquet_spectrum(BASELINE, omega_d, "omega_2", grid, CFG)
        ia, ib = spec.branch("gm g1 e2"), spec.branch("gm e1 g2")
        sep = _circular_separation(spec.quasienergies[:, ia], spec.quasienergies[:, ib], omega_d)
        k = int(np.argmin(sep))
        assert 0 < k < len(grid) - 1 and sep[k] < 2e-4
        assert_matches_schur(BASELINE.with_(omega_2=float(grid[k])), omega_d)


class TestDressedBasis:
    def test_orthonormal_and_labeled(self):
        labels, cols = dressed_product_basis(BASELINE, 1.004)
        assert len(labels) == 8
        assert "gm g1 e2" in labels and "em e1 g2" in labels
        np.testing.assert_allclose(cols.conj().T @ cols, np.eye(8), atol=1e-12)

    @pytest.mark.parametrize("omega_d", [0.996, 1.0, 1.004])
    def test_columns_are_the_labelled_products(self, omega_d):
        # Column k is np.kron of the states named by label k, bit for bit.
        labels, cols = dressed_product_basis(OPTIMIZED, omega_d)
        m = effective_model(OPTIMIZED, omega_d)
        states = {
            "gm": m.modulator.ground_state, "em": m.modulator.excited_state,
            "g1": m.q1_ground, "e1": m.q1_excited, "g2": m.q2_ground, "e2": m.q2_excited,
        }
        names = itertools.product(("gm", "em"), ("g1", "e1"), ("g2", "e2"))
        assert labels == [" ".join(n) for n in names]
        for k, label in enumerate(labels):
            m_k, q1_k, q2_k = (states[s] for s in label.split())
            np.testing.assert_array_equal(cols[:, k], np.kron(m_k, np.kron(q1_k, q2_k)))


class TestSpectra:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            floquet_spectrum(BASELINE, 1.004, "omega_2", np.array([1.0, 1.0, 1.002]), CFG)
        with pytest.raises(ValueError):
            floquet_spectrum(BASELINE, 1.004, "omega_d_off", np.linspace(1.0, 1.01, 5), CFG)

    def test_invalid_point_rejected_before_any_propagator(self, monkeypatch):
        calls = []
        monkeypatch.setattr(floquet_module, "period_propagators", lambda *a: calls.append(a))
        grid = np.linspace(-1.0, 0.5, 4)
        with pytest.raises(ConfigError, match="omega_1 must be strictly positive"):
            floquet_spectrum(BASELINE, 1.004, "omega_1", grid, CFG)
        assert calls == []

    def test_decoupled_static_lines(self):
        # Without couplings or drive the quasienergies are the folded
        # single-particle sums; sweep omega_2 and compare pointwise.
        p = BASELINE.with_(j_m1=0.0, j_12=0.0, drive_amp=0.0)
        omega_d = 1.004
        grid = np.linspace(1.0005, 1.0035, 7)
        spec = floquet_spectrum(p, omega_d, "omega_2", grid, CFG)
        for i, w2 in enumerate(grid):
            energies = [
                -0.5 * (a * p.omega_m + b * p.omega_1 + c * w2)
                for a in (1, -1)
                for b in (1, -1)
                for c in (1, -1)
            ]
            folded = [
                (e + omega_d / 2) % omega_d - omega_d / 2 for e in energies
            ]
            # map the open edge back, matching the principal convention
            folded = [e + omega_d if e <= -omega_d / 2 else e for e in folded]
            np.testing.assert_allclose(
                np.sort(spec.quasienergies[i]), np.sort(folded), atol=1e-9
            )

    def test_branch_lookup(self):
        grid = np.linspace(1.0012, 1.0022, 5)
        spec = floquet_spectrum(BASELINE, BASELINE.omega_d_off, "omega_2", grid, CFG)
        assert 0 <= spec.branch("gm e1 g2") < 8
        with pytest.raises(BranchNotFound):
            spec.branch("xx yy zz")

    def test_separation_outside_the_sweep_raises(self):
        # The nearest sweep point of a value far outside the sweep is its
        # edge, whose separation says nothing about the value.
        grid = np.linspace(1.0012, 1.0022, 5)
        spec = floquet_spectrum(BASELINE, BASELINE.omega_d_off, "omega_2", grid, CFG)
        for value in (grid[0], 1.0017, grid[-1]):
            assert branch_separation_at(spec, "gm g1 e2", "gm e1 g2", value) > 0
        for value in (1.003, 5.0, 1.0011):
            with pytest.raises(ValueError, match="outside the sweep"):
                branch_separation_at(spec, "gm g1 e2", "gm e1 g2", value)

    def test_off_regime_no_crossing(self):
        # Scanning omega_2 through the bare resonance at the off drive
        # frequency: the single-excitation branches stay separated.
        grid = np.linspace(1.0012, 1.0022, 21)
        spec = floquet_spectrum(BASELINE, BASELINE.omega_d_off, "omega_2", grid, CFG)
        gap = avoided_crossing_gap(spec, "gm e1 g2", "gm g1 e2")
        m = effective_model(BASELINE, BASELINE.omega_d_off)
        assert gap > 2 * m.j12_eff  # never collapses to the coupling scale


class TestAvoidedCrossingGap:
    @pytest.mark.parametrize(
        "sep, gap",
        [
            (0.1 + (np.arange(5.0) - 2.2) ** 2, 0.1),  # the parabola's own vertex
            # The parabola through (1.0, 0.1, 0.12) has its vertex at -0.005.
            ([2.0, 1.0, 0.1, 0.12, 1.1], 0.1),
            ([0.1, 0.5, 1.0], 0.1),  # minimum at the edge
        ],
        ids=["parabola", "v-shaped", "edge"],
    )
    def test_hand_built_pair(self, sep, gap):
        # Branch 0 stays at 0 and branch 1 at `sep`.
        q = np.zeros((len(sep), 8))
        q[:, 1] = sep
        spec = FloquetSpectrum("omega_2", np.arange(len(sep), dtype=float), 10.0, q, list(LABELS), np.zeros_like(q), [])
        assert avoided_crossing_gap(spec, LABELS[0], LABELS[1]) == pytest.approx(gap, abs=1e-12)


def _continue_branches(prev, cur, index, flagged):
    """One point's continuation from its own overlap product: the previous
    point's ordered modes against the current modes, then the greedy."""
    return np.array(_greedy_order(np.abs(prev.conj().T @ cur) ** 2, index, flagged))


def numpy_greedy(ov):
    """The greedy assignment on numpy arrays and scalars: the reference for its tie order."""
    order = np.full(8, -1, dtype=int)
    taken = np.zeros(8, dtype=bool)
    for f in np.argsort(ov, axis=None)[::-1]:
        b, c = divmod(int(f), 8)
        if order[b] >= 0 or taken[c]:
            continue
        order[b] = c
        taken[c] = True
    return order.tolist()


class TestGreedyOrder:
    def test_permuted_identity(self):
        perm = [3, 0, 7, 1, 2, 6, 4, 5]
        flagged = []
        assert _greedy_order(np.eye(8)[:, np.argsort(perm)], 4, flagged) == perm
        assert flagged == []

    def test_flags_overlaps_below_the_continuity_floor(self):
        ov = np.eye(8)
        ov[2, 2] = ov[5, 5] = 0.5 * (AMBIGUITY_FLOOR + CONTINUITY_FLOOR)
        flagged = [1]
        assert _greedy_order(ov, 7, flagged) == list(range(8))
        assert flagged == [1, 7]
        flagged = []
        _greedy_order(np.eye(8) * CONTINUITY_FLOOR, 7, flagged)
        assert flagged == []

    def test_raises_below_the_ambiguity_floor(self):
        ov = np.eye(8)
        ov[6, 6] = 0.5 * AMBIGUITY_FLOOR
        flagged = []
        with pytest.raises(BranchTrackingAmbiguous) as info:
            _greedy_order(ov, 12, flagged)
        assert info.value.grid_index == 12
        assert flagged == []

    @pytest.mark.parametrize(
        "pairs", [[1, 0, 3, 2, 5, 4, 7, 6], [4, 5, 6, 7, 0, 1, 2, 3]], ids=["adjacent", "halves"]
    )
    def test_exact_ties_break_in_argsort_order(self, pairs):
        # Each branch ties its own column with its partner's, so which of the
        # two assignments wins is decided by the tie order alone.
        ov = 0.5 * (np.eye(8) + np.eye(8)[pairs])
        order = _greedy_order(ov, 1, [])
        assert order == numpy_greedy(ov)
        assert all(c in (b, pairs[b]) for b, c in enumerate(order))
        ov = np.full((8, 8), 0.5)
        assert _greedy_order(ov, 1, []) == numpy_greedy(ov)

    def test_random_overlaps_match_the_numpy_greedy(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            q = np.linalg.qr(np.eye(8) + 0.2 * rng.standard_normal((8, 8)))[0]
            ov = (q**2)[:, rng.permutation(8)]
            assert _greedy_order(ov, 1, []) == numpy_greedy(ov)


def per_point_spectrum(p, omega_d, sweep_name, grid, cfg):
    """The sweep one point at a time: each point's memoized U(tau) from
    `single_period_propagator`, factorized on its own.  The first point's
    branches are labelled by `numpy_greedy` and, for comparison, each by
    its own argmax, which need not be one-to-one."""
    tau = 2 * math.pi / omega_d
    quasi, weights, flagged, prev = [], [], [], None
    for i, v in enumerate(grid):
        pi = p.with_(**{sweep_name: float(v)})
        eps, vecs = principal_quasienergies(single_period_propagator(pi, omega_d, cfg), tau)
        order = np.argsort(eps) if prev is None else _continue_branches(prev, vecs, i, flagged)
        eps, vecs = eps[order], vecs[:, order]
        labels, cols = dressed_product_basis(pi, omega_d)
        ov = np.abs(cols.conj().T @ vecs) ** 2
        weights.append(ov[[l.startswith("gm") for l in labels]].sum(axis=0))
        if i == 0:
            labels0 = [labels[k] for k in numpy_greedy(ov.T)]
            argmax0 = [labels[k] for k in np.argmax(ov, axis=0)]
        quasi.append(eps)
        prev = vecs
    return np.array(quasi), np.array(weights), labels0, flagged, argmax0


#: Sweep ranges of the random sweeps, around BASELINE.
SWEEP_RANGES = {
    "omega_1": (0.995, 1.005),
    "omega_2": (1.0005, 1.003),
    "j_m1": (0.0, 0.008),
    "j_12": (0.0, 5e-4),
    "drive_amp": (0.0, 0.15),
}


class TestStackedSweep:
    """A sweep's stacked U(tau) and factorization against one point at a time."""

    @pytest.mark.parametrize("method", ["midpoint", "magnus4"])
    @pytest.mark.parametrize(
        "drive,sweep_name,grid,nsteps",
        [
            pytest.param("on", "omega_2", np.linspace(1.0012, 1.0022, 101), 256, id="omega_2-on"),
            pytest.param("off", "omega_2", np.linspace(1.0012, 1.0022, 101), 256, id="omega_2-off"),
            pytest.param("on", "j_12", np.linspace(0.0, 3e-4, 13), 256, id="j_12-from-0-on"),
            pytest.param("off", "j_12", np.linspace(0.0, 3e-4, 13), 256, id="j_12-from-0-off"),
            # At N = 16 the step exponentials of different points, and of one
            # point at drive_amp = 1.6, are scaled by different exponents.
            pytest.param("off", "drive_amp", np.linspace(0.04, 1.6, 9), 16, id="drive_amp-N16"),
            # The first point's argmax labels two branches each 'gm g1 g2' and 'gm g1 e2'.
            pytest.param("on", "drive_amp", np.linspace(0.001, 0.1, 3), 256, id="drive_amp-weak"),
        ],
    )
    def test_spectrum_equals_per_point_loop_bitwise(self, drive, sweep_name, grid, nsteps, method):
        p = BASELINE
        omega_d = solve_omega_d_on(p).omega_d if drive == "on" else p.omega_d_off
        cfg = PropagatorConfig(nsteps, method)
        spec = floquet_spectrum(p, omega_d, sweep_name, grid, cfg)
        quasi, weights, labels, flagged, _ = per_point_spectrum(p, omega_d, sweep_name, grid, cfg)
        np.testing.assert_array_equal(spec.quasienergies, quasi)
        np.testing.assert_array_equal(spec.modulator_weight, weights)
        assert spec.labels == labels
        assert spec.flagged_points == flagged

    @given(
        st.sampled_from(sorted(SWEEP_RANGES)),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.996, 1.006),
        st.integers(2, 4),
    )
    @example("drive_amp", 0.0, 0.5, 1.004, 3)  # argmax: 'gm e1 g2' and 'em g1 e2' twice each
    @settings(max_examples=30, deadline=None)
    def test_labels_are_a_permutation_and_the_argmax_where_it_is_one(
        self, sweep_name, start, stop, omega_d, n
    ):
        # The labels come from the continuation's greedy assignment: always
        # one-to-one, and the argmax labels whenever those are one-to-one.
        assume(abs(stop - start) > 1e-3)
        lo, hi = SWEEP_RANGES[sweep_name]
        grid = lo + (hi - lo) * np.linspace(start, stop, n)
        cfg = PropagatorConfig(64)
        try:
            spec = floquet_spectrum(BASELINE, omega_d, sweep_name, grid, cfg)
        except BranchTrackingAmbiguous:
            assume(False)
        _, _, labels, _, argmax = per_point_spectrum(BASELINE, omega_d, sweep_name, grid, cfg)
        assert sorted(spec.labels) == sorted(LABELS)
        assert spec.labels == labels
        if len(set(argmax)) == len(LABELS):
            assert spec.labels == argmax

    def test_sweep_builds_no_dressed_model(self, monkeypatch):
        # The dressed bases of all points are one closed-form stack.
        calls = []

        def counting(*args):
            calls.append(args)
            return effective_model(*args)

        for module in (dressed_module, floquet_module, propagate_module):
            monkeypatch.setattr(module, "effective_model", counting, raising=False)
        grid = np.linspace(1.0012, 1.0022, 101)
        floquet_spectrum(BASELINE, BASELINE.omega_d_off, "omega_2", grid, CFG)
        assert calls == []

    def test_sweep_leaves_the_period_memo_alone(self):
        before = propagate_module._kernel.cache_info()
        grid = np.linspace(1.0012, 1.0022, 5)
        floquet_spectrum(BASELINE, BASELINE.omega_d_off, "omega_2", grid, CFG)
        assert propagate_module._kernel.cache_info() == before


class TestOnGap:
    def solve_gap(self, p, n=41, halfwidth=4e-4):
        root = solve_omega_d_on(p)
        model = effective_model(p, root.omega_d)
        grid = np.linspace(p.omega_2 - halfwidth, p.omega_2 + halfwidth, n)
        spec = floquet_spectrum(p, root.omega_d, "omega_2", grid, CFG)
        gap = avoided_crossing_gap(spec, "gm e1 g2", "gm g1 e2")
        return gap, model

    def test_gap_matches_effective_coupling(self):
        gap, model = self.solve_gap(BASELINE)
        assert gap == pytest.approx(2 * model.j12_eff, rel=0.05)

    def test_gap_scales_linearly_with_j12(self):
        gap1, model1 = self.solve_gap(BASELINE)
        gap2, model2 = self.solve_gap(BASELINE.with_(j_12=2e-4))
        assert gap2 == pytest.approx(2 * gap1, rel=0.05)
        assert model2.j12_eff == pytest.approx(2 * model1.j12_eff, rel=1e-10)

    def test_gap_across_coupling_decade(self):
        for j12 in (3e-5, 1e-4, 3e-4):
            gap, model = self.solve_gap(BASELINE.with_(j_12=j12))
            assert gap == pytest.approx(2 * model.j12_eff, rel=0.08)

    def test_gap_closes_without_coupling(self):
        gap, _ = self.solve_gap(BASELINE.with_(j_12=0.0))
        # residual gap from higher-order terms only
        assert gap < 0.1 * 2 * effective_model(
            BASELINE, solve_omega_d_on(BASELINE).omega_d
        ).j12_eff
