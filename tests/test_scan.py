"""Parameter scans, joint optimization, and the gate-time trade-off sweep."""

import dataclasses
import math

import numpy as np
import pytest

from freezegate import channel as channel_module
from freezegate import dressed as dressed_module
from freezegate import propagate
from freezegate import scan as scan_module
from freezegate.dressed import effective_model, solve_omega_d_on
from freezegate.errors import ConfigError, DegenerateDressedModes, NoRootInBracket, StepTooCoarse
from freezegate.params import BASELINE, OPTIMIZED
from freezegate.propagate import PropagatorConfig
from freezegate.scan import (
    OptResult,
    ScanSpec,
    evaluate_point,
    evaluate_points,
    gate_time_sweep,
    optimize_joint,
    run_scan,
)
from test_acceptance import SCAN_GRIDS

FAST = PropagatorConfig(steps_per_period=128)


class TestScanSpec:
    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            ScanSpec(varied="omega_m", grid=(1.0, 1.1), baseline=BASELINE)

    def test_rejects_short_grid(self):
        with pytest.raises(ValueError):
            ScanSpec(varied="j_12", grid=(1e-4,), baseline=BASELINE)


class TestEvaluatePoint:
    def test_baseline_point(self):
        res = evaluate_point(BASELINE, FAST)
        assert res.error == ""
        assert 0.0 < res.infidelity_on < 0.1
        assert res.off_ratio > 200.0
        from freezegate.dressed import effective_model

        model = effective_model(res.params, res.omega_d_on)
        assert res.t_gate == pytest.approx(math.pi / (2 * model.j12_eff), rel=1e-12)
        assert res.params.omega_d_on == pytest.approx(res.omega_d_on)

    @pytest.mark.parametrize(
        "p, infidelity",
        # The unfactorized 8x8 kernel's values (midpoint/256).  Perturbing
        # U(tau) by 1e-14 moves them by up to ~7e-12, hence the tolerance.
        [(BASELINE, 1.7301702262728647e-04), (OPTIMIZED, 5.422970843271813e-06)],
        ids=["BASELINE", "OPTIMIZED"],
    )
    def test_infidelity_is_the_8x8_kernels(self, p, infidelity):
        res = evaluate_point(p, PropagatorConfig(256))
        assert res.infidelity_on == pytest.approx(infidelity, abs=1e-11)

    def test_builds_two_period_kernels(self):
        propagate._kernel.cache_clear()
        assert evaluate_point(BASELINE, FAST).error == ""
        assert propagate._kernel.cache_info().misses == 2

    def test_degenerate_modes_recorded_not_raised(self, monkeypatch):
        def degenerate(points, *args):
            return [DegenerateDressedModes("modes coincide", gap=0.0) for _ in points]

        monkeypatch.setattr(scan_module, "extract_channel", degenerate)
        res = evaluate_point(BASELINE, FAST)
        assert res.error == "DegenerateDressedModes: modes coincide"
        assert math.isnan(res.infidelity_on)

    def test_failure_recorded_not_raised(self):
        # Degenerate omega_2 = omega_1: no resonance root below omega_1.
        res = evaluate_point(BASELINE.with_(omega_2=1.0), FAST)
        assert "NoRootInBracket" in res.error
        assert math.isnan(res.infidelity_on)


def assert_rows_equal(got, want):
    """PointResults equal field by field, floats bit for bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_equal(dataclasses.asdict(a), dataclasses.asdict(b))
        for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b)):
            if isinstance(x, float):
                assert np.float64(x).tobytes() == np.float64(y).tobytes()


def assert_channels_equal(got, want):
    """Kraus operators equal bit for bit; the Choi matrix and diagnostics derive from them."""
    assert got.kraus.shape == want.kraus.shape
    assert got.kraus.tobytes() == want.kraus.tobytes()


class TestEvaluatePoints:
    """One grid scored as one stack: every row is the one its point gets alone."""

    CFG = PropagatorConfig(256)

    def test_scan_grids_stack_equals_lone_points(self):
        points = [BASELINE.with_(**{k: float(v)}) for k, g in SCAN_GRIDS.items() for v in g]
        assert len(points) == 75
        stack = evaluate_points(points, self.CFG)
        assert all(r.error == "" for r in stack)
        assert_rows_equal(stack, [evaluate_point(p, self.CFG) for p in points])

    def test_no_root_point_mid_stack(self):
        points = [BASELINE.with_(omega_2=w) for w in (1.0014, 1.0, 1.0018)]
        stack = evaluate_points(points, self.CFG)
        assert stack[1].error.startswith("NoRootInBracket")
        assert_rows_equal(stack, [evaluate_point(p, self.CFG) for p in points])

    def test_degenerate_point_mid_channel_stack(self):
        cfg = PropagatorConfig(64)
        bad = BASELINE.with_(drive_amp=0.0, omega_d_on=BASELINE.omega_m)
        points = [
            p.with_(omega_d_on=solve_omega_d_on(p).omega_d) for p in (BASELINE, OPTIMIZED)
        ]
        points.insert(1, bad)
        durations = [1000.0, 1000.0, 1234.5]
        stack = channel_module.extract_channel(points, "on", durations, cfg)
        assert isinstance(stack[1], DegenerateDressedModes)
        with pytest.raises(DegenerateDressedModes) as alone:
            channel_module.extract_channel(bad, "on", 1000.0, cfg)
        assert str(stack[1]) == str(alone.value) and stack[1].gap == alone.value.gap
        for i in (0, 2):
            want = channel_module.extract_channel(points[i], "on", durations[i], cfg)
            assert_channels_equal(stack[i], want)

    def test_no_root_point_mid_channel_stack(self):
        # omega_d_on unset: extract_channel solves each point's root, and
        # omega_2 = omega_1 has none.
        cfg = PropagatorConfig(64)
        points = [BASELINE, BASELINE.with_(omega_2=1.0), OPTIMIZED]
        durations = [1000.0, 1000.0, 1234.5]
        stack = channel_module.extract_channel(points, "on", durations, cfg)
        assert isinstance(stack[1], NoRootInBracket)
        with pytest.raises(NoRootInBracket) as alone:
            channel_module.extract_channel(points[1], "on", 1000.0, cfg)
        assert str(stack[1]) == str(alone.value)
        for i in (0, 2):
            want = channel_module.extract_channel(points[i], "on", durations[i], cfg)
            assert_channels_equal(stack[i], want)

    def test_gate_failure_mid_stack(self, monkeypatch):
        points = [BASELINE.with_(j_m1=j) for j in (0.003, 0.004, 0.005)]
        rows = [evaluate_point(p, self.CFG) for p in points]
        original = channel_module.single_period_propagator

        def gate(p, omega_d, cfg):
            if p.j_m1 == 0.004 and p.j_12 != 0:
                raise StepTooCoarse("unitarity defect too large")
            return original(p, omega_d, cfg)

        monkeypatch.setattr(channel_module, "single_period_propagator", gate)
        stack = evaluate_points(points, self.CFG)
        assert stack[1].error == "StepTooCoarse: unitarity defect too large"
        assert stack[1].params == points[1] and math.isnan(stack[1].infidelity_on)
        assert_rows_equal([stack[0], stack[2]], [rows[0], rows[2]])

    def test_channel_stack_survivor_rule(self, monkeypatch):
        # One stack holding every way a point comes out, each slot its lone call.
        cfg = PropagatorConfig(64)
        degenerate = BASELINE.with_(drive_amp=0.0, omega_d_on=BASELINE.omega_m)
        points = [
            BASELINE,
            BASELINE.with_(omega_2=1.0),  # no root
            BASELINE.with_(j_m1=0.004),  # its reference fails the gate
            degenerate,
            BASELINE.with_(j_m1=0.005),  # its own kernel fails the gate
            BASELINE.with_(j_12=0.0),
            OPTIMIZED,
        ]
        durations = [1000.0, 1000.0, 1234.5, 1000.0, 1234.5, 1000.0, 1234.5]
        original, gated = channel_module.single_period_propagator, []

        def gate(p, omega_d, cfg):
            gated.append(p)
            if p.j_m1 == 0.004 and p.j_12 == 0:
                raise StepTooCoarse("reference gate refused")
            if p.j_m1 == 0.005 and p.j_12 != 0:
                raise StepTooCoarse("own gate refused")
            return original(p, omega_d, cfg)

        monkeypatch.setattr(channel_module, "single_period_propagator", gate)
        stack = channel_module.extract_channel(points, "on", durations, cfg)
        assert degenerate not in gated  # labels before its own gate
        kinds = [NoRootInBracket, StepTooCoarse, DegenerateDressedModes, StepTooCoarse]
        assert [type(x) for x in stack[1:5]] == kinds
        for p, d, got in zip(points, durations, stack):
            if isinstance(got, Exception):
                with pytest.raises(type(got)) as alone:
                    channel_module.extract_channel(p, "on", d, cfg)
                assert str(got) == str(alone.value)
            else:
                assert_channels_equal(got, channel_module.extract_channel(p, "on", d, cfg))

    def test_channel_stack_mixing_j12_free_and_coupled_points(self):
        cfg = PropagatorConfig(64)
        points = [
            p.with_(omega_d_on=solve_omega_d_on(p).omega_d)
            for p in (BASELINE, BASELINE.with_(j_12=0.0), OPTIMIZED, OPTIMIZED.with_(j_12=0.0))
        ]
        durations = [1000.0, 1234.5, 1234.5, 1000.0]
        propagate._kernel.cache_clear()
        stack = channel_module.extract_channel(points, "on", durations, cfg)
        for p, d, ch in zip(points, durations, stack):
            propagate._kernel.cache_clear()
            assert_channels_equal(ch, channel_module.extract_channel(p, "on", d, cfg))

    def test_channel_stack_builds_no_dressed_model(self, monkeypatch):
        # The dressed bases come from the points at their drives alone
        # (`dressed.dressed_bases`); each channel is a read-only view into
        # the stack's Kraus operators.
        cfg = PropagatorConfig(64)
        points = [p.with_(omega_d_on=solve_omega_d_on(p).omega_d) for p in (BASELINE, OPTIMIZED)]
        points.append(points[0].with_(j_12=0.0))
        durations = [1000.0, 1234.5, 1000.0]
        regimes = ("on", "off")
        lone = {
            r: [channel_module.extract_channel(p, r, d, cfg) for p, d in zip(points, durations)]
            for r in regimes
        }
        calls = []

        def counting(*args):
            calls.append(args)
            return effective_model(*args)

        for module in (channel_module, dressed_module):
            monkeypatch.setattr(module, "effective_model", counting)
        stacks = {r: channel_module.extract_channel(points, r, durations, cfg) for r in regimes}
        assert calls == []
        for r in regimes:
            for ch, want in zip(stacks[r], lone[r]):
                assert_channels_equal(ch, want)
                assert not ch.kraus.flags.writeable and ch.kraus.base is not None

    @staticmethod
    def count_work(monkeypatch):
        """Root solves and channel-stack members that `evaluate_points` asks for."""
        work = {"roots": 0, "members": 0}
        solve, extract = scan_module.solve_omega_d_on, scan_module.extract_channel

        def counting_solve(p):
            work["roots"] += 1
            return solve(p)

        def counting_extract(points, *args):
            work["members"] += len(points)
            return extract(points, *args)

        monkeypatch.setattr(scan_module, "solve_omega_d_on", counting_solve)
        monkeypatch.setattr(scan_module, "extract_channel", counting_extract)
        return work

    def test_shared_points_equal_lone_points(self, monkeypatch):
        points = [
            BASELINE,
            BASELINE.with_(omega_d_off=1.005),
            BASELINE.with_(j_12=5e-5),
            OPTIMIZED,
            BASELINE,
            BASELINE.with_(j_12=5e-5, omega_d_off=1.003),
            BASELINE.with_(omega_d_on=0.99),  # an input omega_d_on is re-solved
        ]
        lone = [evaluate_point(p, self.CFG) for p in points]
        work = self.count_work(monkeypatch)
        stack = evaluate_points(points, self.CFG)
        assert all(r.error == "" for r in stack)
        assert_rows_equal(stack, lone)
        assert work == {"roots": 2, "members": 3}

    def test_fig3_grids_share_roots_and_channels(self, monkeypatch):
        # j_12's points share one root; omega_d_off's one root and one channel.
        work = self.count_work(monkeypatch)
        for name, grid in SCAN_GRIDS.items():
            evaluate_points([BASELINE.with_(**{name: float(v)}) for v in grid], FAST)
        assert work == {"roots": 15 * 3 + 1 + 1, "members": 15 * 4 + 1}

    @pytest.mark.parametrize("name, kernels", [("j_12", 16), ("omega_d_off", 2), ("omega_2", 30)])
    def test_fig3_grids_share_period_kernels(self, name, kernels):
        # The j_12 grid's 15 channels share one j_12 = 0 reference kernel,
        # the omega_d_off grid is one channel, and each omega_2 point builds
        # both of its own.
        propagate._kernel.cache_clear()
        points = [BASELINE.with_(**{name: float(v)}) for v in SCAN_GRIDS[name]]
        evaluate_points(points, PropagatorConfig(64))
        assert propagate._kernel.cache_info().misses == kernels

    def test_repeated_no_root_point(self, monkeypatch):
        bad = BASELINE.with_(omega_2=1.0)
        points = [bad, BASELINE, bad.with_(omega_d_off=1.005), bad]
        lone = [evaluate_point(p, self.CFG) for p in points]
        work = self.count_work(monkeypatch)
        stack = evaluate_points(points, self.CFG)
        assert [r.error.startswith("NoRootInBracket") for r in stack] == [True, False, True, True]
        assert_rows_equal(stack, lone)
        assert work == {"roots": 2, "members": 1}

    def test_shared_gate_failure(self, monkeypatch):
        points = [BASELINE.with_(j_m1=0.004, omega_d_off=w) for w in (1.003, 1.005)]
        points.insert(1, BASELINE)
        original = channel_module.single_period_propagator

        def gate(p, omega_d, cfg):
            if p.j_m1 == 0.004 and p.j_12 != 0:
                raise StepTooCoarse("unitarity defect too large")
            return original(p, omega_d, cfg)

        monkeypatch.setattr(channel_module, "single_period_propagator", gate)
        lone = [evaluate_point(p, self.CFG) for p in points]
        stack = evaluate_points(points, self.CFG)
        for i in (0, 2):
            assert stack[i].error == "StepTooCoarse: unitarity defect too large"
            assert stack[i].params == points[i] and math.isnan(stack[i].infidelity_on)
        assert stack[1].error == ""
        assert_rows_equal(stack, lone)

    def test_signed_zero_coupling_kept_apart(self, monkeypatch):
        # `validate` admits j_m1 = -0.0; with omega_2 below omega_1 the
        # channel is scored, above it j12_eff is zero.
        points = [
            BASELINE.with_(j_m1=z, omega_2=w) for w in (0.9983, 1.0017) for z in (-0.0, 0.0, -0.0)
        ]
        lone = [evaluate_point(p, self.CFG) for p in points]
        work = self.count_work(monkeypatch)
        stack = evaluate_points(points, self.CFG)
        assert_rows_equal(stack, lone)
        assert [r.error for r in stack] == [""] * 3 + ["j12_eff is zero"] * 3
        assert [math.copysign(1.0, r.params.j_m1) for r in stack] == [-1.0, 1.0, -1.0] * 2
        assert work == {"roots": 4, "members": 2}

    def test_empty_stack(self):
        assert evaluate_points([], self.CFG) == []
        assert channel_module.extract_channel([], "on", [], self.CFG) == []


class TestRunScan:
    def test_error_rows_recorded(self):
        spec = ScanSpec(
            varied="omega_2", grid=(1.0, 1.0017), baseline=BASELINE
        )
        table = run_scan(spec, FAST)
        assert len(table.rows) == 2
        assert table.rows[0].error != ""
        assert table.rows[1].error == ""
        assert math.isnan(table.infidelities[0])
        assert table.rows[1].params.omega_2 == pytest.approx(1.0017)

    def test_omega_d_off_scan_leaves_on_infidelity_fixed(self):
        # The on-regime drive frequency does not depend on omega_d_off, so
        # the on-infidelity column is constant.
        spec = ScanSpec(
            varied="omega_d_off", grid=(1.003, 1.004, 1.005), baseline=BASELINE
        )
        table = run_scan(spec, FAST)
        assert np.all(table.infidelities == table.infidelities[0])
        # while the off-ratio genuinely varies
        assert len({r.off_ratio for r in table.rows}) == 3

    def test_invalid_point_rejected_before_scoring(self, monkeypatch):
        scored = []
        monkeypatch.setattr(
            scan_module, "evaluate_points", lambda points, cfg: scored.extend(points)
        )
        spec = ScanSpec(varied="drive_amp", grid=(0.07, -0.01), baseline=BASELINE)
        with pytest.raises(ConfigError, match="drive_amp must be non-negative"):
            run_scan(spec, FAST)
        assert scored == []

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected_before_any_point(self, monkeypatch, jobs):
        def unreachable(points, cfg):
            raise AssertionError("a point was scored")

        monkeypatch.setattr(scan_module, "evaluate_points", unreachable)
        spec = ScanSpec(varied="drive_amp", grid=(0.06, 0.07), baseline=BASELINE)
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            run_scan(spec, FAST, jobs=jobs)
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            gate_time_sweep(np.array([5e-5, 1e-4]), BASELINE, budget=60, jobs=jobs)

    def test_pool_is_sized_by_the_work(self, monkeypatch):
        # A fake pool records its size and maps in this process: no process starts.
        import concurrent.futures

        opened = []

        class FakePool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        assert scan_module._map(abs, 4, [-1, 2]) == [1, 2]
        assert opened == [2]
        assert scan_module._map(abs, 4, [-3]) == [3]
        assert scan_module._map(abs, 4, []) == []
        assert opened == [2]

    def test_process_pool_matches_one_process(self):
        # omega_2 = 1.0 has no resonance root: its error row crosses the pool too.
        spec = ScanSpec(varied="omega_2", grid=(1.0, 1.0014, 1.0018), baseline=BASELINE)
        one, two = (run_scan(spec, PropagatorConfig(64), jobs=j) for j in (1, 2))
        assert one.rows[0].error != "" and one.rows[1].error == ""
        np.testing.assert_equal(dataclasses.asdict(two), dataclasses.asdict(one))


class TestOptimizeJoint:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            optimize_joint(BASELINE, budget=10)
        with pytest.raises(ValueError):
            optimize_joint(BASELINE, free=("omega_d_off",))
        with pytest.raises(ValueError):
            optimize_joint(BASELINE, restarts=0)
        # Restarts walk the j_m1 ladder.
        with pytest.raises(ValueError, match="j_m1"):
            optimize_joint(BASELINE, free=("drive_amp", "omega_2"), restarts=2)
        # int(0.6 * 50) = 30 search calls cannot be shared by 31 restarts.
        with pytest.raises(ValueError, match="restarts must be <= 30"):
            optimize_joint(BASELINE, budget=50, restarts=31)

    @pytest.mark.parametrize(
        "params,kw,knob",
        [
            ({"j_12": 0.0}, {}, "j_12"),
            ({"j_m1": 0.0}, {}, "j_m1"),
            ({"j_m1": 0.0}, {"free": ("j_m1", "drive_amp"), "restarts": 1}, "j_m1"),
            # The j_m1 ladder's floor is 1.2 j_12, so restarts need j_12 > 0.
            ({"j_12": 0.0}, {"free": ("j_m1", "drive_amp", "omega_2")}, "j_12"),
        ],
        ids=["free-j_12", "free-j_m1", "free-j_m1-one-run", "ladder-j_12"],
    )
    def test_zero_log_scaled_coupling_rejected_before_any_evaluation(
        self, monkeypatch, params, kw, knob
    ):
        def unreachable(points, cfg):
            raise AssertionError("a point was scored")

        monkeypatch.setattr(scan_module, "evaluate_points", unreachable)
        with pytest.raises(ConfigError, match=f"^{knob} must be > 0"):
            optimize_joint(BASELINE.with_(**params), **kw)
        # The same search from a positive coupling does score points.
        with pytest.raises(AssertionError, match="a point was scored"):
            optimize_joint(BASELINE, **kw)

    def test_budget_is_a_hard_cap(self):
        res = optimize_joint(BASELINE, budget=50, restarts=4, cfg=FAST, final_cfg=FAST)
        assert 0 < res.evaluations <= 50

    @pytest.mark.parametrize("budget", [50, 51, 77, 137])
    def test_budget_is_a_hard_cap_at_every_split(self, budget, monkeypatch):
        # A smooth stand-in for the pipeline, so every restart count is cheap.
        def bowl(p, cfg):
            value = (math.log10(p.j_m1) + 2.6) ** 2 + (p.drive_amp - 0.06) ** 2
            return scan_module.PointResult(p, 1.0, 1.0, value + (p.omega_2 - 1.0016) ** 2, 1.0)

        monkeypatch.setattr(scan_module, "evaluate_point", bowl)
        for restarts in (1, 2, 3, 4, 6, 7, int(0.6 * budget)):
            res = optimize_joint(BASELINE, budget=budget, restarts=restarts)
            assert 0 < res.evaluations <= budget, restarts

    def test_deterministic(self):
        kw = dict(budget=60, cfg=FAST, final_cfg=FAST, restarts=2)
        a = optimize_joint(BASELINE, **kw)
        b = optimize_joint(BASELINE, **kw)
        assert a.best_params == b.best_params
        assert a.best_infidelity == b.best_infidelity
        assert a.evaluations == b.evaluations

    def test_improves_on_baseline(self):
        base = evaluate_point(BASELINE, FAST).infidelity_on
        res = optimize_joint(
            BASELINE, free=("omega_2",), budget=60, cfg=FAST, final_cfg=FAST,
            restarts=1,
        )
        assert res.best_infidelity < base
        assert res.evaluations <= 60  # budget is a hard cap

    def test_reported_value_is_fresh(self):
        # best_infidelity must equal an independent re-evaluation of the
        # returned parameters at the final configuration, not a cached
        # search value.
        final = PropagatorConfig(steps_per_period=256)
        res = optimize_joint(
            BASELINE, free=("omega_2",), budget=60, cfg=FAST, final_cfg=final,
            restarts=1,
        )
        check = evaluate_point(res.best_params, final)
        assert res.best_infidelity == pytest.approx(check.infidelity_on, abs=1e-12)
        assert res.t_gate == pytest.approx(check.t_gate, rel=1e-12)

    def test_returns_hierarchy_clean_point(self):
        res = optimize_joint(BASELINE, budget=120, cfg=FAST, final_cfg=FAST, restarts=2)
        assert res.best_params.hierarchy_warnings() == []
        assert isinstance(res, OptResult)
        assert res.trace  # search history is exposed


class TestGateTimeSweep:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            gate_time_sweep(np.array([1e-4, 5e-5]), BASELINE, budget=60)
        with pytest.raises(ValueError):
            gate_time_sweep(np.array([-1e-4, 1e-4]), BASELINE, budget=60)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                gate_time_sweep(np.array([1e-4, bad]), BASELINE, budget=60)

    def test_halving_coupling_doubles_gate_time(self):
        grid = np.array([5e-5, 1e-4])
        results = gate_time_sweep(grid, BASELINE, budget=60, cfg=FAST, final_cfg=FAST)
        assert len(results) == 2
        t_slow, t_fast = results[0].t_gate, results[1].t_gate
        assert t_slow == pytest.approx(2 * t_fast, rel=0.2)
        for r in results:
            assert r.best_params.j_12 in grid  # j_12 itself is not optimized

    def test_process_pool_matches_one_process(self):
        grid = np.array([5e-5, 1e-4])
        one, two = (
            gate_time_sweep(grid, BASELINE, budget=60, cfg=FAST, final_cfg=FAST, jobs=j)
            for j in (1, 2)
        )
        assert len(two) == 2
        for a, b in zip(one, two):
            np.testing.assert_equal(dataclasses.asdict(b), dataclasses.asdict(a))

    def test_budget_is_a_hard_cap_per_point(self):
        results = gate_time_sweep(
            np.array([5e-5, 1e-4]), BASELINE, budget=100, cfg=FAST, final_cfg=FAST
        )
        assert all(0 < r.evaluations <= 100 for r in results)
