"""Channel extraction, compensation gates, and iSWAP fidelity metrics."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freezegate.channel import (
    FIDELITY_METHODS,
    _best_assignment,
    avg_fidelity_choi,
    channel_from_kraus,
    compensation_gates,
    extract_channel,
    fidelity_report,
    haar_average_fidelity,
    iswap_unitary,
    modulator_return,
    resolve_omega_d,
    unitary_channel,
)
from freezegate import channel as channel_module
from freezegate import dressed as dressed_module
from freezegate import propagate
from freezegate.dressed import effective_model, off_ratio, solve_omega_d_on
from freezegate.errors import ConfigError, DegenerateDressedModes
from freezegate.params import BASELINE, OPTIMIZED, ProtocolParams
from freezegate.propagate import PropagatorConfig, export_trajectory
from freezegate.scan import evaluate_point, evaluate_points
from test_acceptance import SCAN_GRIDS

CFG = PropagatorConfig(steps_per_period=256)


class TestTargets:
    def test_iswap_matrix(self):
        u = iswap_unitary()
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, 0, 1j, 0],
                [0, 1j, 0, 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(u, expected, atol=1e-15)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-15)


class TestChoiMachinery:
    def test_unitary_channel_is_trace_4(self):
        ch = unitary_channel(iswap_unitary())
        assert np.trace(ch.choi).real == pytest.approx(4.0, abs=1e-12)
        assert ch.trace_defect < 1e-12
        assert ch.min_choi_eigenvalue > -1e-12

    def test_exact_iswap_scores_unity(self):
        ch = unitary_channel(iswap_unitary())
        assert avg_fidelity_choi(ch, iswap_unitary()) == pytest.approx(1.0, abs=1e-12)

    def test_identity_vs_iswap(self):
        # F_e = |Tr(U)/d|^2 / ... : Tr(iSWAP) = 2, so F_e = |2/4|^2 = 1/4
        # and F_avg = (4*(1/4)+1)/5 = 0.4.
        ch = unitary_channel(np.eye(4))
        assert avg_fidelity_choi(ch, iswap_unitary()) == pytest.approx(0.4, abs=1e-12)

    def test_sign_convention_distinguishable(self):
        ch = unitary_channel(iswap_unitary())
        f_plus = avg_fidelity_choi(ch, iswap_unitary())
        f_minus = avg_fidelity_choi(ch, iswap_unitary().conj())
        assert f_plus == pytest.approx(1.0, abs=1e-12)
        assert f_minus < 0.9

    def test_depolarizing_kraus(self):
        # Full depolarizing channel via the 16 normalized Pauli products:
        # F_e = 1/16 against any unitary, so F_avg = (4/16 + 1)/5 = 0.25.
        paulis_1q = [
            np.eye(2),
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]]),
        ]
        kraus = [
            0.25 * np.kron(a, b) for a in paulis_1q for b in paulis_1q
        ]
        ch = channel_from_kraus(kraus)
        assert ch.trace_defect < 1e-12
        assert avg_fidelity_choi(ch, iswap_unitary()) == pytest.approx(0.25, abs=1e-12)

    def test_kraus_is_the_only_state(self):
        assert [f.name for f in dataclasses.fields(channel_module.TwoQubitChannel)] == ["kraus"]
        given = [np.eye(4)]
        ch = channel_from_kraus(given)
        assert ch.kraus.shape == (1, 4, 4) and ch.kraus.dtype == complex
        assert not ch.kraus.flags.writeable and given[0].flags.writeable


SCORED_CHANNELS = ("iswap", "random-unitary", "depolarizing", "random-kraus", "BASELINE", "OPTIMIZED")


@functools.cache
def scored_channel(name: str):
    """A unitary, depolarizing or random Kraus channel, or the BASELINE/OPTIMIZED gate."""
    rng = np.random.default_rng(7)
    if name == "iswap":
        return unitary_channel(iswap_unitary())
    if name == "random-unitary":
        return unitary_channel(np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0])
    if name == "depolarizing":
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        return channel_from_kraus([0.25 * np.kron(a, b) for a in paulis for b in paulis])
    if name == "random-kraus":
        kraus = np.linalg.qr(rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4)))[0]
        return channel_from_kraus(list(kraus.reshape(3, 4, 4)))
    p = {"BASELINE": BASELINE, "OPTIMIZED": OPTIMIZED}[name]
    p = p.with_(omega_d_on=solve_omega_d_on(p).omega_d)
    return extract_channel(p, "on", effective_model(p, p.omega_d_on).t_gate, PropagatorConfig(64))


class TestChoiFormula:
    """The Kraus-form scores against the Choi matrix they are derived from."""

    @pytest.mark.parametrize("name", SCORED_CHANNELS)
    def test_fidelity_is_the_choi_formula(self, name):
        # F = (d F_e + 1)/(d + 1) with F_e = <Phi_T|J|Phi_T>/d, |Phi_T> = (I x T)|Phi>.
        ch = scored_channel(name)
        phi = np.eye(4).ravel() / 2
        rng = np.random.default_rng(11)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for target in (iswap_unitary(), np.eye(4), np.linalg.qr(z)[0]):
            phi_t = np.kron(np.eye(4), target) @ phi
            f_e = np.real(phi_t.conj() @ ch.choi @ phi_t) / 4
            assert abs(avg_fidelity_choi(ch, target) - (4 * f_e + 1) / 5) <= 1e-15

    @pytest.mark.parametrize("name", SCORED_CHANNELS)
    def test_trace_defect_is_the_choi_partial_trace(self, name):
        # Tracing the output slot of a TP map's Choi matrix gives the identity.
        ch = scored_channel(name)
        tr_out = np.einsum("iaja->ij", ch.choi.reshape(4, 4, 4, 4))
        assert abs(ch.trace_defect - np.abs(tr_out - np.eye(4)).max()) <= 1e-15
        assert np.trace(ch.choi).real == pytest.approx(4.0, abs=1e-9)

    def test_scoring_builds_no_choi_matrix(self, monkeypatch):
        points = [BASELINE, OPTIMIZED, BASELINE.with_(j_12=5e-5)]
        cfg = PropagatorConfig(64)
        rows = evaluate_points(points, cfg)
        assert all(r.error == "" for r in rows)
        reports = [fidelity_report(p, cfg, m, haar_samples=10) for p in points[:2] for m in FIDELITY_METHODS]

        def no_choi(self):
            raise AssertionError("a Choi matrix was built on the scoring path")

        monkeypatch.setattr(channel_module.TwoQubitChannel, "choi", property(no_choi))
        assert evaluate_points(points, cfg) == rows
        again = [fidelity_report(p, cfg, m, haar_samples=10) for p in points[:2] for m in FIDELITY_METHODS]
        assert again == reports


class TestCompensation:
    def test_gates_are_unitary(self):
        b, _ = compensation_gates(BASELINE, 1.004)
        np.testing.assert_allclose(b @ b.conj().T, np.eye(4), atol=1e-12)

    def test_pre_gate_is_numpy_kron_bit_for_bit(self):
        b, model = compensation_gates(OPTIMIZED, 1.004)
        b1 = np.column_stack([model.q1_ground, model.q1_excited])
        b2 = np.column_stack([model.q2_ground, model.q2_excited])
        np.testing.assert_array_equal(b, np.kron(b1, b2))

    def test_all_couplings_zero_gives_identity_channel(self):
        # No couplings: the compensation exactly undoes all local dynamics.
        p = ProtocolParams(j_m1=0.0, j_12=0.0)
        ch = extract_channel(p, "off", 5000.0, CFG)
        np.testing.assert_allclose(
            ch.choi, unitary_channel(np.eye(4)).choi, atol=1e-10
        )

    def test_frozen_modulator_self_test(self):
        # j_12 = 0 over a full gate time: the compensated channel should be
        # the identity up to the freezing error of the modulator.
        p = BASELINE.with_(j_12=0.0)
        duration = effective_model(
            BASELINE, solve_omega_d_on(BASELINE).omega_d
        ).t_gate
        ch = extract_channel(p.with_(omega_d_on=solve_omega_d_on(BASELINE).omega_d), "on", duration, CFG)
        f = avg_fidelity_choi(ch, np.eye(4))
        assert f > 1.0 - 1e-3


class TestExtractedChannel:
    def test_choi_positive_and_tp(self):
        ch = extract_channel(BASELINE, "off", 3000.0, CFG)
        assert ch.trace_defect < 1e-9
        assert ch.min_choi_eigenvalue > -1e-10
        assert np.trace(ch.choi).real == pytest.approx(4.0, abs=1e-9)

    def test_zero_duration_choi(self):
        # Identity channel: Choi = 4 |Phi><Phi| with the normalized |Phi|.
        ch = extract_channel(BASELINE, "off", 0.0, CFG)
        phi = np.eye(4).ravel() / 2
        np.testing.assert_allclose(ch.choi, 4 * np.outer(phi, phi.conj()), atol=1e-10)
        assert avg_fidelity_choi(ch, np.eye(4)) == pytest.approx(1.0, abs=1e-12)


class TestArguments:
    def test_points_and_durations_of_different_lengths(self):
        with pytest.raises(ValueError, match="2 points but 1 durations"):
            extract_channel([BASELINE, OPTIMIZED], "on", [1000.0], CFG)

    def test_unknown_regime(self):
        with pytest.raises(ValueError, match="regime must be 'on' or 'off', got 'both'"):
            resolve_omega_d(BASELINE, "both")


class TestDressedFrame:
    """The channel is scored between Floquet modes of the j_12-free system."""

    @staticmethod
    def _optimized_on():
        from freezegate.params import OPTIMIZED

        omega_d = solve_omega_d_on(OPTIMIZED).omega_d
        p = OPTIMIZED.with_(omega_d_on=omega_d)
        return p, effective_model(p, omega_d).t_gate, 2 * np.pi / omega_d

    def test_j12_free_channel_is_identity(self):
        p = BASELINE.with_(omega_d_on=solve_omega_d_on(BASELINE).omega_d)
        duration = effective_model(p, p.omega_d_on).t_gate
        ch = extract_channel(p.with_(j_12=0.0), "on", duration, CFG)
        np.testing.assert_allclose(
            ch.choi, unitary_channel(np.eye(4)).choi, atol=1e-9
        )

    def test_no_hybridization_beat_in_end_time(self):
        # A modulator-Q1 beat of period ~12 tau would swing the infidelity
        # several-fold across +-6 periods; the gate error itself does not.
        p, t_gate, tau = self._optimized_on()
        infid = [
            1.0 - avg_fidelity_choi(
                extract_channel(p, "on", t_gate + k * tau, CFG), iswap_unitary()
            )
            for k in (-6, -3, 0, 3, 6)
        ]
        assert max(infid) < 1.5 * min(infid)

    def test_integrators_agree(self):
        p, t_gate, _ = self._optimized_on()
        infid = [
            1.0 - avg_fidelity_choi(extract_channel(p, "on", t_gate, cfg), iswap_unitary())
            for cfg in (
                PropagatorConfig(steps_per_period=128),
                PropagatorConfig(steps_per_period=512, method="magnus4"),
            )
        ]
        assert infid[0] == pytest.approx(infid[1], rel=0.01)

    @pytest.mark.parametrize("p", [OPTIMIZED, BASELINE], ids=["OPTIMIZED", "BASELINE"])
    def test_excited_labels_move_infidelity_within_the_leakage(self, p):
        # The modulator-excited labels of `_dressed_modes` order only the
        # rows of the leakage Kraus operator K_1.  Every row order keeps
        # |tr(T^dag K_1)|^2 / 20 <= ||K_1||_F^2 / 5, so the Choi infidelity
        # moves by at most (4/5)(1 - ||K_0||_F^2 / 4) + trace_defect.
        omega_d = solve_omega_d_on(p).omega_d
        p = p.with_(omega_d_on=omega_d)
        t_gate = effective_model(p, omega_d).t_gate
        ch = extract_channel(p, "on", t_gate, PropagatorConfig(512, "magnus4"))
        k0, k1 = ch.kraus
        infid = [
            1.0 - avg_fidelity_choi(channel_from_kraus([k0, k1[list(rows)]]), iswap_unitary())
            for rows in itertools.permutations(range(4))
        ]
        bound = 0.8 * (1.0 - np.linalg.norm(k0) ** 2 / 4) + ch.trace_defect
        assert max(infid) - min(infid) <= bound


class TestHaarEstimator:
    def test_consistent_with_choi_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            # random unitary channel via QR
            z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            q, r = np.linalg.qr(z)
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            ch = unitary_channel(q)
            exact = avg_fidelity_choi(ch, iswap_unitary())
            est = haar_average_fidelity(ch, iswap_unitary(), samples=2000, seed=1)
            assert abs(est.mean - exact) < 3 * est.stderr + 1e-4

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            haar_average_fidelity(unitary_channel(np.eye(4)), np.eye(4), 0, 0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_matches_per_sample_loop(self, seed):
        # The estimator's sample stream and scores, one state at a time.
        rng = np.random.default_rng(100 + seed)
        kraus = np.linalg.qr(rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))[0]
        ch = channel_from_kraus([kraus[:4], kraus[4:]])
        samples = 300
        draw = np.random.default_rng(seed)
        fids = []
        for _ in range(samples):
            psi = draw.standard_normal(4) + 1j * draw.standard_normal(4)
            psi /= np.linalg.norm(psi)
            ideal = iswap_unitary() @ psi
            rho_out = sum(k @ np.outer(psi, psi.conj()) @ k.conj().T for k in ch.kraus)
            fids.append(np.real(ideal.conj() @ rho_out @ ideal))
        est = haar_average_fidelity(ch, iswap_unitary(), samples, seed)
        assert est.mean == pytest.approx(np.mean(fids), abs=1e-14)
        assert est.stderr == pytest.approx(np.std(fids, ddof=1) / math.sqrt(samples), abs=1e-14)
        assert est.samples == samples


class TestModulatorReturn:
    def test_high_in_both_regimes(self):
        duration = 3000.0
        for regime in ("on", "off"):
            r = modulator_return(BASELINE, regime, duration, CFG)
            bound = 1.0 - 10 * (BASELINE.j_m1 / BASELINE.drive_amp) ** 2
            assert bound < r <= 1.0 + 1e-12

    @pytest.mark.parametrize("regime", ["on", "off"])
    def test_is_mean_of_trajectory_readouts(self, regime):
        # The last mod_ground_pop of the trajectories from |g_m> x B|k>.
        duration = 3000.0
        omega_d = resolve_omega_d(BASELINE, regime)
        model = effective_model(BASELINE, omega_d)
        b = np.kron(
            np.column_stack([model.q1_ground, model.q1_excited]),
            np.column_stack([model.q2_ground, model.q2_excited]),
        )
        finals = [
            export_trajectory(
                BASELINE, omega_d, np.kron(model.modulator.ground_state, b[:, k]),
                duration, 2, CFG,
            ).data[-1, -1]
            for k in range(4)
        ]
        r = modulator_return(BASELINE, regime, duration, CFG)
        assert r == pytest.approx(np.mean(finals), abs=1e-12)


class TestFidelityReport:
    def test_baseline_report(self):
        rep = fidelity_report(BASELINE, CFG)
        assert rep.method == "choi-formula"
        assert rep.infidelity == pytest.approx(1.0 - rep.avg_fidelity, abs=1e-15)
        assert 0.0 <= rep.avg_fidelity <= 1.0
        assert rep.off_ratio == pytest.approx(off_ratio(BASELINE), rel=1e-12)
        assert rep.t_gate > 0
        assert 0.9 < rep.modulator_return <= 1.0
        d = rep.to_dict()
        assert list(d) == [
            "avg_fidelity",
            "infidelity",
            "off_ratio",
            "t_gate",
            "omega_d_on",
            "modulator_return",
            "method",
        ]
        assert list(d.values()) == [getattr(rep, k) for k in d]

    def test_unknown_method_rejected(self, monkeypatch):
        def no_root(p):
            raise AssertionError("root solved before the arguments were checked")

        monkeypatch.setattr(dressed_module, "solve_omega_d_on", no_root)
        monkeypatch.setattr(channel_module, "solve_omega_d_on", no_root)
        with pytest.raises(ValueError, match="unknown fidelity method"):
            fidelity_report(BASELINE, CFG, method="teleportation")
        with pytest.raises(ValueError, match="haar_samples must be >= 1"):
            fidelity_report(BASELINE, CFG, method="haar-monte-carlo", haar_samples=0)

    @pytest.mark.parametrize("method", ["choi-formula", "haar-monte-carlo"])
    def test_channel_built_on_the_reports_model(self, method, monkeypatch):
        calls = []
        original = channel_module.effective_model

        def counting(p, omega_d):
            calls.append(omega_d)
            return original(p, omega_d)

        monkeypatch.setattr(channel_module, "effective_model", counting)
        report = fidelity_report(OPTIMIZED, PropagatorConfig(64), method, haar_samples=10)
        # The report's own model (for t_gate) and `modulator_return`'s
        # compensation gates; the channel builds its dressed bases from the
        # point itself (`dressed.dressed_bases`), with no model.
        assert calls == [report.omega_d_on] * 2

    @pytest.mark.parametrize("method", FIDELITY_METHODS)
    def test_zero_coupling_raises_before_any_kernel(self, method):
        # omega_2 = 1e308 leaves j12_eff = 0 at the on drive: t_gate is inf.
        propagate._kernel.cache_clear()
        with pytest.raises(ConfigError, match="j12_eff is zero at omega_d_on"):
            fidelity_report(BASELINE.with_(omega_2=1e308), CFG, method)
        assert propagate._kernel.cache_info().misses == 0

    def test_factorizes_each_period_once(self, monkeypatch):
        # The reference's modulator-Q1 block, then p's U(tau);
        # modulator_return's whole periods reuse p's memoized factorization.
        calls = []
        original = propagate.floquet_factorization

        def counting(u):
            calls.append(u.shape)
            return original(u)

        monkeypatch.setattr(propagate, "floquet_factorization", counting)
        propagate._kernel.cache_clear()
        fidelity_report(OPTIMIZED, PropagatorConfig(64))
        assert calls == [(1, 4, 4), (1, 8, 8)]

    @pytest.mark.parametrize("method", ["choi-formula", "haar-monte-carlo"])
    def test_builds_two_period_kernels(self, method):
        # p and its j_12 = 0 reference; modulator_return's U(tau) and tail
        # are memo hits.
        propagate._kernel.cache_clear()
        fidelity_report(OPTIMIZED, PropagatorConfig(64), method, haar_samples=10)
        assert propagate._kernel.cache_info().misses == 2


def _criterion_4_points():
    rng = np.random.default_rng(42)
    return [
        BASELINE.with_(
            omega_2=1.0 + rng.uniform(8e-4, 3e-3),
            j_m1=rng.uniform(2e-3, 6e-3),
            drive_amp=rng.uniform(0.05, 0.1),
        )
        for _ in range(5)
    ]


class TestBestAssignment:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16))
    def test_is_the_linear_sum_assignment(self, values):
        w = np.array(values).reshape(4, 4)
        scores = sorted(
            sum(w[i, perm[i]] for i in range(4)) for perm in itertools.permutations(range(4))
        )
        assume(scores[-1] - scores[-2] > 1e-9)  # a unique optimum
        _, cols = scipy.optimize.linear_sum_assignment(-w)
        np.testing.assert_array_equal(_best_assignment(w), cols)


class TestDegenerateModes:
    @pytest.mark.parametrize(
        "p, reason",
        [
            (BASELINE, "quasienergies"),
            (OPTIMIZED, "quasienergies"),
            # j_m1^2 = 0.64 j_12 splits that pair past the gap threshold, but
            # the exchange-resonant |gm e1> and |em g1> still mix evenly.
            (BASELINE.with_(j_m1=0.008), "leads"),
        ],
        ids=["BASELINE", "OPTIMIZED", "BASELINE-j_m1=0.008"],
    )
    def test_undriven_modulator_at_its_frequency_raises(self, p, reason):
        # drive_amp = 0, omega_d = omega_m: |gm g1> and |em e1> are split only
        # by the second-order j_m1^2 term, far below j_12.
        p = p.with_(drive_amp=0.0, omega_d_on=p.omega_m)
        with pytest.raises(DegenerateDressedModes, match=reason) as exc:
            extract_channel(p, "on", 1000.0, PropagatorConfig(64))
        assert (exc.value.gap < 0.35 * p.j_12) == (reason == "quasienergies")

    def test_no_coupling_no_labels_needed(self):
        p = BASELINE.with_(drive_amp=0.0, omega_d_on=BASELINE.omega_m, j_12=0.0)
        ch = extract_channel(p, "on", 1000.0, PropagatorConfig(64))
        np.testing.assert_allclose(ch.kraus[0], np.eye(4), atol=1e-9)

    def test_quiet_at_the_reported_points(self):
        points = [BASELINE, OPTIMIZED, *_criterion_4_points()]
        for name, grid in SCAN_GRIDS.items():
            points += [BASELINE.with_(**{name: float(v)}) for v in grid]
        assert len(points) == 82
        for p in points:
            assert evaluate_point(p, CFG).error == "", p
