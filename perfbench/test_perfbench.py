"""Tests of the benchmark's own code: the tracer and the output checks.

Run from the repository root with `PYTHONPATH=src python -m pytest perfbench`;
pytest puts this directory on the import path, as `run.py` does.
"""

import math

import numpy as np
import pytest

import checks
import reference
import tracer
from freezegate import channel, propagate
from freezegate.dressed import effective_model, solve_omega_d_on
from freezegate.params import BASELINE, OPTIMIZED
from freezegate.scan import evaluate_point
from workloads import CFG, FINE, gate_points

FAST = propagate.PropagatorConfig(steps_per_period=64)


class TestTracer:
    def test_scan_point_sees_every_alias(self):
        tr = tracer.Tracer()
        with tracer.instrument(tr):
            res = evaluate_point(BASELINE, FAST)
        assert res.error == ""
        stats = tracer.layer_stats(tr.spans)
        # `scan` calls extract_channel, which reaches propagate through
        # `channel`'s own aliases: both U(tau) calls must be seen.
        assert stats["propagate.single_period_propagator"]["calls"] == 2
        assert stats["channel.extract_channel"]["calls"] == 1
        assert stats["dressed.solve_omega_d_on"]["calls"] == 1
        assert stats["dressed.signed_detuning"]["calls"] > 10

    def test_fidelity_report_computes_three_periods(self):
        tr = tracer.Tracer()
        with tracer.instrument(tr):
            channel.fidelity_report(BASELINE, FAST)
        stats = tracer.layer_stats(tr.spans)
        assert stats["propagate.single_period_propagator"]["calls"] == 3
        assert stats["channel.modulator_return"]["calls"] == 1

    def test_aliases_restored(self):
        originals = (channel.single_period_propagator, propagate.interval_propagator)
        with tracer.instrument(tracer.Tracer()):
            assert channel.single_period_propagator is not originals[0]
        assert (channel.single_period_propagator, propagate.interval_propagator) == originals

    def test_self_time_excludes_children(self):
        spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
        stats = tracer.layer_stats(spans)
        assert stats["a"]["self_ms"] == pytest.approx(6e3)
        assert stats["b"]["calls"] == 2
        assert stats["b"]["total_ms"] == pytest.approx(4e3)
        assert stats["b"]["self_ms"] == pytest.approx(3e3)

    def test_steps_counter(self):
        tr = tracer.Tracer()
        with tracer.instrument(tr):
            propagate.interval_propagator(BASELINE, 1.0, 0.0, 1.0, 10, "magnus4")
            propagate.interval_propagator(BASELINE, 1.0, 0.0, 1.0, 7)
            propagate.interval_propagator(BASELINE, 1.0, 1.0, 1.0, 7)
        assert tr.counters["propagate.steps"] == 27


class TestChecks:
    @pytest.fixture(scope="class")
    def on(self):
        root = solve_omega_d_on(BASELINE)
        return BASELINE.with_(omega_d_on=root.omega_d)

    def test_closed_form_matches_package(self, on):
        model = effective_model(on, on.omega_d_on)
        det, j12_eff = reference.dressed_closed_form(on, on.omega_d_on)
        assert det == pytest.approx(model.signed_detuning, abs=1e-15)
        assert j12_eff == pytest.approx(model.j12_eff, rel=1e-12)

    def test_root_check_rejects_shifted_root(self, on):
        assert checks.root_failures("x", on, on.omega_d_on) == []
        assert checks.root_failures("x", on, on.omega_d_on + 1e-6)

    def test_off_ratio_check(self):
        good = reference.off_ratio(BASELINE)
        assert checks.off_ratio_failures("x", BASELINE, good) == []
        assert checks.off_ratio_failures("x", BASELINE, good * (1 + 1e-6))

    def test_no_root_check(self):
        faulty = BASELINE.with_(j_m1=0.0015)
        assert checks.no_root_failures("x", faulty, "NoRootInBracket: ...") == []
        assert checks.no_root_failures("x", faulty, "StepTooCoarse: ...")
        # BASELINE has its root below omega_1: a bracket failure there is not the known fault.
        assert checks.no_root_failures("x", BASELINE, "NoRootInBracket: ...")

    def test_u_tau_check_rejects_wrong_propagator(self, on, monkeypatch):
        f, err = checks.u_tau_failures("x", on, on.omega_d_on, (CFG, FINE))
        assert f == [] and 0 < err < 1e-4
        monkeypatch.setattr(checks, "single_period_propagator", lambda p, w, cfg: np.eye(8))
        f, _ = checks.u_tau_failures("x", on, on.omega_d_on, (CFG,))
        assert f

    def test_haar_check_rejects_identity_channel(self, on):
        t_gate = effective_model(on, on.omega_d_on).t_gate
        ch = channel.extract_channel(on, "on", t_gate, FAST)
        est = channel.haar_average_fidelity(ch, channel.iswap_unitary(), 200, 3)
        exact = channel.avg_fidelity_choi(ch, channel.iswap_unitary())
        assert checks.haar_failures("x", est.mean, est.stderr, exact) == []
        identity = channel.avg_fidelity_choi(channel.unitary_channel(np.eye(4)), channel.iswap_unitary())
        assert checks.haar_failures("x", est.mean, est.stderr, identity)

    def test_optimized_check_rejects_identity_channel(self):
        identity = channel.avg_fidelity_choi(channel.unitary_channel(np.eye(4)), channel.iswap_unitary())
        assert checks.optimized_failures(1.0 - identity)
        assert checks.optimized_failures(5.4e-6) == []

    def test_quasienergy_check(self):
        omega_d = 1.0
        quasi = np.array([[0.1, -0.1, 0.2, -0.2, 0.3, -0.3, 0.45, -0.45]])
        assert checks.quasienergy_failures("x", quasi, omega_d) == []
        assert checks.quasienergy_failures("x", quasi + 1e-6, omega_d)
        # Off the principal branch by one omega_d: the sum still wraps to 0.
        shifted = quasi.copy()
        shifted[0, 6] += omega_d
        assert checks.quasienergy_failures("x", shifted, omega_d)

    def test_gap_checks(self):
        assert checks.gap_failures(1.6152e-4, 1.6178e-4 / 2) == []
        assert checks.gap_failures(1.6152e-4, 1.6178e-4)
        assert checks.off_separation_failures(0.0029939, 0.0030113) == []
        assert checks.off_separation_failures(0.0029939 * 1.05, 0.0030113)

    def test_trajectory_check(self, on):
        omega_d = on.omega_d_on
        model = effective_model(on, omega_d)
        psi0 = np.kron(model.modulator.ground_state, np.kron(model.q1_excited, model.q2_ground))
        t_gate = model.t_gate
        table = propagate.export_trajectory(BASELINE, omega_d, psi0, t_gate, 5, FAST)
        final = np.abs(propagate.total_propagator(BASELINE, omega_d, t_gate, FAST) @ psi0) ** 2
        assert checks.trajectory_failures(table, t_gate, final) == []
        assert checks.trajectory_failures(table, t_gate, np.roll(final, 1))
        # A half gate leaves the exchange incomplete.
        half = propagate.export_trajectory(BASELINE, omega_d, psi0, t_gate / 2, 5, FAST)
        final = np.abs(propagate.total_propagator(BASELINE, omega_d, t_gate / 2, FAST) @ psi0) ** 2
        assert checks.trajectory_failures(half, t_gate / 2, final)


def test_gate_points_are_criterion_4s():
    points = gate_points(5)
    assert [label for label, *_ in points[:2]] == ["OPTIMIZED", "BASELINE"]
    assert points[0][1] == OPTIMIZED
    assert len(points) == 7
    assert points[2][1] == gate_points(6)[2][1]
    assert [s for *_, s in points] == [s for *_, s in gate_points(5)]
    assert [s for *_, s in points] != [s for *_, s in gate_points(6)]


def test_reference_u_tau_is_unitary():
    u = reference.u_tau_dop853(BASELINE, 1.004)
    assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-10
    assert math.isfinite(float(np.abs(u).sum()))
