import dataclasses
import json
import os
import signal
from importlib import resources

import numpy as np
import pytest

from kronlift import _workers, rmt_detector, spectral
from kronlift.data_model import (
    LiftConfig,
    SpatioTemporalMatrix,
    WindowSpec,
    residual_matrix,
)
from kronlift.errors import ConfigError, NumericalError, PreconditionError
from kronlift.indicators import les, msr
from kronlift.lift import lift_matrix
from kronlift.rmt_detector import (
    DeviationRule,
    RmtDetectorConfig,
    lift_window,
    run_rmt,
    window_at,
)
from kronlift.spectral import summarize_window
from kronlift.synth import generate, scenario_from_dict


def white_stm(P, N, seed, level=1.0, sigma=1e-3, t0=1):
    rng = np.random.default_rng(seed)
    vals = level + sigma * rng.standard_normal((P, N))
    ids = [f"c{i}" for i in range(P)]
    return SpatioTemporalMatrix(values=vals, channel_ids=ids, t0=t0)


def small_config(**kw):
    defaults = dict(
        lift=LiftConfig(k=2, n=3),
        window=WindowSpec(width=12),
        use_residual=True,
        seed=0,
        deviation_rule=DeviationRule(baseline_span=20),
    )
    defaults.update(kw)
    return RmtDetectorConfig(**defaults)


class TestRmtDetectorConfig:
    def test_weights_cannot_be_set(self):
        """weights is a class attribute, not a field: always uniform."""
        assert [f.name for f in dataclasses.fields(RmtDetectorConfig)] == [
            "lift", "window", "test_function", "use_residual", "seed",
            "deviation_rule", "scale_mode", "eval_from", "eval_to"]
        assert RmtDetectorConfig.weights is None
        assert small_config().weights is None
        with pytest.raises(TypeError):
            RmtDetectorConfig(lift=LiftConfig(k=2, n=3), weights=np.ones(12))


class TestWindowAt:
    def lifted(self, N=30, t0=1):
        D = white_stm(6, N, seed=1, t0=t0)
        return lift_matrix(D, LiftConfig(k=2, n=3), scale_mode="sqrt-dim")

    def test_first_valid_position(self):
        L = self.lifted()
        W = window_at(L, 12, 12)
        np.testing.assert_array_equal(W, L.values[:, :12])

    def test_window_ends_at_t(self):
        L = self.lifted()
        W = window_at(L, 20, 12)
        np.testing.assert_array_equal(W, L.values[:, 8:20])

    def test_insufficient_history(self):
        L = self.lifted()
        with pytest.raises(PreconditionError,
                           match=r"window ending at t=11 needs t in \[12, 30\]"):
            window_at(L, 11, 12)

    def test_beyond_last_sample(self):
        L = self.lifted()
        with pytest.raises(PreconditionError,
                           match=r"window ending at t=31 needs t in \[12, 30\]"):
            window_at(L, 31, 12)

    def test_respects_t0(self):
        L = self.lifted(t0=100)
        W = window_at(L, 111, 12)
        np.testing.assert_array_equal(W, L.values[:, :12])
        with pytest.raises(PreconditionError,
                           match=r"window ending at t=110 needs t in \[111, 129\]"):
            window_at(L, 110, 12)


class TestLiftWindow:
    """lift_window lifts only the window's columns, and lift_matrix works
    column by column, so it is window_at of the whole record's lift."""

    @pytest.mark.parametrize("t0", [1, 100])
    @pytest.mark.parametrize("k,n", [(1, 6), (2, 3)])
    def test_window_at_of_whole_lift_bit_for_bit(self, t0, k, n):
        D = white_stm(6, 30, seed=1, t0=t0)
        lifted = lift_matrix(D, LiftConfig(k=k, n=n), scale_mode="sqrt-dim")
        for t in (t0 + 11, t0 + 20, t0 + 29):
            np.testing.assert_array_equal(
                lift_window(D, LiftConfig(k=k, n=n), t, 12),
                window_at(lifted, t, 12))

    @pytest.mark.parametrize("t,message", [
        (11, r"^window ending at t=11 needs t in \[12, 30\]$"),
        (31, r"^window ending at t=31 needs t in \[12, 30\]$"),
    ])
    def test_range_errors_are_window_at_s(self, t, message):
        D = white_stm(6, 30, seed=1)
        with pytest.raises(PreconditionError, match=message):
            lift_window(D, LiftConfig(k=2, n=3), t, 12)

    def test_zero_segment_outside_the_window_is_not_read(self):
        D = white_stm(6, 30, seed=1)
        D.values[:3, 24] = 0.0  # segment 1 of t=25
        lift = LiftConfig(k=2, n=3)
        assert lift_window(D, lift, 24, 12).shape == (9, 12)
        with pytest.raises(PreconditionError, match="zero segment 1 at t=25"):
            lift_window(D, lift, 25, 12)


class TestZeroSegments:
    """A zero segment stops run_rmt only when a window it reads holds it."""

    def record(self):
        D = white_stm(6, 60, seed=12)
        D.values[3:, 49] = 0.0  # segment 2 of t=50
        return D

    def config(self, **kw):
        return small_config(use_residual=False,
                            deviation_rule=DeviationRule(enabled=False), **kw)

    def test_outside_the_evaluated_windows(self):
        clean = run_rmt(white_stm(6, 60, seed=12), self.config(eval_to=49))
        rep = run_rmt(self.record(), self.config(eval_to=49))
        np.testing.assert_array_equal(rep.les_raw.values, clean.les_raw.values)
        np.testing.assert_array_equal(rep.msr_raw.values, clean.msr_raw.values)

    def test_in_an_evaluated_window(self):
        with pytest.raises(PreconditionError,
                           match=r"^zero segment 2 at t=50$"):
            run_rmt(self.record(), self.config(eval_to=50))

    def test_with_a_stride_the_last_window_bounds_the_lift(self):
        # windows end at 12, 30 and 48; t=50 lies past the last one
        rep = run_rmt(self.record(),
                      self.config(window=WindowSpec(width=12, stride=18)))
        assert list(rep.les_raw.times()) == [12, 30, 48]


class TestRunRmtStructure:
    def test_curve_geometry_with_residual(self):
        D = white_stm(6, 60, seed=2)
        rep = run_rmt(D, small_config())
        # residual drops one sample: 59 columns, first window ends at t=13
        assert rep.les_curve.start_index == 13
        assert rep.msr_curve.start_index == 13
        assert rep.les_curve.values.size == 48
        assert rep.msr_curve.values.size == 48

    def test_curve_geometry_raw(self):
        D = white_stm(6, 60, seed=2)
        rep = run_rmt(D, small_config(use_residual=False))
        assert rep.les_curve.start_index == 12
        assert rep.les_curve.values.size == 49

    def test_stride(self):
        D = white_stm(6, 60, seed=3)
        rep = run_rmt(
            D, small_config(window=WindowSpec(width=12, stride=2))
        )
        assert rep.les_curve.values.size == 24  # floor(47/2) + 1
        assert rep.les_curve.stride == 2
        assert rep.msr_curve.times()[1] - rep.msr_curve.times()[0] == 2

    def test_normalized_into_unit_interval(self):
        D = white_stm(6, 60, seed=4)
        rep = run_rmt(D, small_config())
        for curve in (rep.les_curve, rep.msr_curve):
            assert curve.values.max() == pytest.approx(1.0)
            assert np.all(curve.values > 0.0)

    def test_raw_curves_reported(self):
        D = white_stm(6, 60, seed=4)
        rep = run_rmt(D, small_config())
        np.testing.assert_allclose(
            np.abs(rep.les_raw.values) / np.max(np.abs(rep.les_raw.values)),
            rep.les_curve.values,
            rtol=1e-12,
        )

    def test_determinism(self):
        D = white_stm(6, 60, seed=5)
        a = run_rmt(D, small_config())
        b = run_rmt(D, small_config())
        np.testing.assert_array_equal(a.les_curve.values, b.les_curve.values)
        np.testing.assert_array_equal(a.msr_curve.values, b.msr_curve.values)
        assert a.alarms == b.alarms

    def test_eval_range_restriction(self):
        D = white_stm(6, 60, seed=6)
        full = run_rmt(D, small_config(deviation_rule=DeviationRule(enabled=False)))
        part = run_rmt(
            D,
            small_config(
                eval_from=20, eval_to=40,
                deviation_rule=DeviationRule(enabled=False),
            ),
        )
        assert part.les_curve.start_index == 20
        assert part.les_curve.times()[-1] == 40
        # raw points agree with the full run at shared times
        tf = full.les_raw.times()
        sel = (tf >= 20) & (tf <= 40)
        np.testing.assert_allclose(
            part.les_raw.values, full.les_raw.values[sel], rtol=1e-12
        )
        np.testing.assert_array_equal(
            part.msr_raw.values, full.msr_raw.values[sel]
        )

    def test_insufficient_samples(self):
        D = white_stm(6, 12, seed=7)
        with pytest.raises(PreconditionError,
                           match="11 usable samples < window width 12"):
            run_rmt(D, small_config())  # residual leaves 11 < width 12

    def test_empty_eval_range(self):
        D = white_stm(6, 60, seed=7)
        with pytest.raises(PreconditionError,
                           match=r"evaluation range \[100, None\] is empty"):
            run_rmt(D, small_config(eval_from=100))

    def test_baseline_span_must_fit(self):
        D = white_stm(6, 60, seed=8)
        with pytest.raises(ConfigError):
            run_rmt(
                D, small_config(deviation_rule=DeviationRule(baseline_span=300))
            )

    def test_baseline_span_checked_before_any_window(self, monkeypatch):
        def kernel(*a, **kw):
            raise AssertionError("window kernel called")

        monkeypatch.setattr(rmt_detector, "window_spectra", kernel)
        D = white_stm(6, 60, seed=8)
        rule = DeviationRule(baseline_span=300)
        with pytest.raises(
            ConfigError,
            match=r"^baseline_span 300 does not fit a curve of 48 points$",
        ):
            run_rmt(D, small_config(deviation_rule=rule))

    def test_deviation_rule_disabled(self):
        D = white_stm(6, 60, seed=9)
        rep = run_rmt(
            D, small_config(deviation_rule=DeviationRule(enabled=False))
        )
        assert rep.alarms == []


class TestSnapshots:
    """esd-check --snapshot-at T summarizes lift_window(data, lift, T,
    width) with seed (seed, T): the window the detector evaluates at T."""

    CASES = {
        "k1": (6, LiftConfig(k=1, n=6), 12),
        "k2": (6, LiftConfig(k=2, n=3), 12),
        # 64 dims against 30 columns: the ring half runs in a child
        "k3": (12, LiftConfig(k=3, n=4), 30),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_snapshot_is_the_detector_window(self, workers, case):
        channels, lift, width = self.CASES[case]
        D = white_stm(channels, 60, seed=11)
        cfg = small_config(lift=lift, window=WindowSpec(width=width),
                           deviation_rule=DeviationRule(enabled=False))
        workers(2)
        rep = run_rmt(D, cfg)
        data = residual_matrix(D)
        for t in (width + 1, 45, 60):
            s = summarize_window(lift_window(data, lift, t, width),
                                 seed=(cfg.seed, t))
            j = t - rep.les_raw.start_index
            assert les(s.covariance_eigs, cfg.test_function) == \
                rep.les_raw.values[j]
            assert msr(s.ring_eigs) == rep.msr_raw.values[j]

    def test_snapshot_outside_range_rejected(self):
        D = white_stm(6, 60, seed=11)
        with pytest.raises(PreconditionError,
                           match=r"window ending at t=5 needs t in \[13, 60\]"):
            lift_window(residual_matrix(D), LiftConfig(k=2, n=3), 5, 12)


class TestDetection:
    def test_big_step_alarms_at_onset_not_before(self):
        # raw-window mode; a large step rotates the column direction
        rng = np.random.default_rng(12)
        vals = 1.0 + 1e-3 * rng.standard_normal((6, 120))
        # column index 80 is public time 81 with t0=1
        vals[1, 80:] += 2.0
        vals[4, 80:] += 2.0
        D = SpatioTemporalMatrix(
            values=vals, channel_ids=[f"c{i}" for i in range(6)], t0=1
        )
        cfg = small_config(
            use_residual=False,
            deviation_rule=DeviationRule(baseline_span=40),
        )
        rep = run_rmt(D, cfg)
        les_alarms = [a.t for a in rep.alarms if a.indicator == "LES"]
        assert les_alarms, "no LES alarms on an obvious step"
        assert min(les_alarms) == 81

    def test_stationary_noise_no_alarms(self):
        D = white_stm(6, 160, seed=13)
        cfg = small_config(
            use_residual=False,
            deviation_rule=DeviationRule(baseline_span=100),
        )
        rep = run_rmt(D, cfg)
        assert rep.alarms == []

    def test_alarm_fields(self):
        rng = np.random.default_rng(14)
        vals = 1.0 + 1e-3 * rng.standard_normal((6, 90))
        vals[2, 60:] += 3.0
        D = SpatioTemporalMatrix(
            values=vals, channel_ids=[f"c{i}" for i in range(6)], t0=1
        )
        cfg = small_config(
            use_residual=False, deviation_rule=DeviationRule(baseline_span=30)
        )
        rep = run_rmt(D, cfg)
        assert rep.alarms
        a = rep.alarms[0]
        assert a.t >= rep.les_curve.start_index
        assert a.indicator in ("LES", "MSR")
        assert a.deviation_sigmas >= 5.0
        ts = [x.t for x in rep.alarms]
        assert ts == sorted(ts)

    def test_three_sigma_exceedance_rare_on_stationary_noise(self):
        # pooled across seeds; the rate bound leaves room for baseline
        # estimation error at this scale
        total = 0
        hits = 0
        for seed in range(20):
            D = white_stm(6, 160, seed=100 + seed)
            cfg = small_config(
                use_residual=False,
                deviation_rule=DeviationRule(enabled=False),
            )
            rep = run_rmt(D, cfg)
            for curve in (rep.les_curve, rep.msr_curve):
                v = curve.values
                base = v[:100]
                med = np.median(base)
                sig = 1.4826 * np.median(np.abs(base - med))
                dev = np.abs(v - med) / sig
                total += v.size
                hits += int(np.sum(dev >= 3.0))
        assert hits / total <= 0.02


@pytest.fixture(scope="module")
def case_a():
    doc = json.loads(resources.files("kronlift").joinpath(
        "scenarios", "case_a_step.json").read_text(encoding="utf-8"))
    return generate(scenario_from_dict(doc["scenario"]))


class TestScaleModes:
    """A unit-norm lifted column is the sqrt-dim one over sqrt(dim), and a
    sqrt-dim window's covariance has trace dim: so LES_unit = LES_sqrt/dim
    + ln dim for the entropy, MSR is scale-free, and the deviation rule
    ignores an increasing affine map of a curve."""

    def test_unit_norm_is_an_affine_map_of_sqrt_dim(self, case_a):
        # Differenced windows only: on case_a's undifferenced k=2 windows
        # the unit-norm LES (about 1.3e-3) is a sum of terms near ln 196,
        # and the map holds to only about 1e-4 relative.
        reports = {}
        for mode in ("sqrt-dim", "unit-norm"):
            reports[mode] = run_rmt(case_a, RmtDetectorConfig(
                lift=LiftConfig(k=2, n=14), window=WindowSpec(width=200),
                use_residual=True, scale_mode=mode,
                # 3 sigmas, so the alarms compared are not an empty list
                deviation_rule=DeviationRule(threshold_sigmas=3.0),
                eval_from=201, eval_to=560))
        sqrt, unit = reports["sqrt-dim"], reports["unit-norm"]
        dim = 196
        np.testing.assert_allclose(unit.les_raw.values,
                                   sqrt.les_raw.values / dim + np.log(dim),
                                   rtol=1e-13)
        np.testing.assert_allclose(unit.msr_raw.values, sqrt.msr_raw.values,
                                   rtol=1e-12)
        pairs = [[(a.t, a.indicator) for a in rep.alarms]
                 for rep in (sqrt, unit)]
        assert {i for _, i in pairs[0]} == {"LES", "MSR"}
        assert pairs[1] == pairs[0]


def _raw(rep):
    return rep.les_raw.values.tobytes(), rep.msr_raw.values.tobytes()


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def frozen_stm(freeze_from):
    """8 noisy channels stuck at exactly 1.0 from freeze_from on.

    With k=2, n=4 every lifted entry of a stuck column is exactly 1.0
    (unit segments of 0.5 entries, times sqrt(16)), so a window of stuck
    columns has rows of exactly zero variance.
    """
    D = white_stm(8, 80, seed=20)
    vals = D.values.copy()
    vals[:, freeze_from - 1:] = 1.0
    return SpatioTemporalMatrix(values=vals, channel_ids=D.channel_ids, t0=1)


class TestParallelWindows:
    """Windows spread over forked workers give the serial loop's results."""

    @pytest.mark.parametrize("env,expected", [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4),
        ({"GOTO_NUM_THREADS": "8"}, 1),
        ({"OMP_NUM_THREADS": "x"}, 1),
    ])
    def test_worker_count_leaves_cpus_to_blas_threads(self, monkeypatch,
                                                     env, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        for var in _workers.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert _workers.worker_count() == expected

    @pytest.mark.parametrize("k,n", [(1, 28), (2, 14)])
    def test_case_a_slice_bit_identical(self, case_a, workers, k, n):
        cfg = RmtDetectorConfig(
            lift=LiftConfig(k=k, n=n),
            window=WindowSpec(width=200),
            use_residual=False,
            deviation_rule=DeviationRule(enabled=False),
            eval_from=495,
            eval_to=506,
        )
        workers(1)
        serial = run_rmt(case_a, cfg)
        workers(2)
        parallel = run_rmt(case_a, cfg)
        assert _raw(parallel) == _raw(serial)
        _no_children_left()

    def test_stride_and_fewer_windows_than_workers(self, workers):
        D = white_stm(6, 60, seed=21)
        cfg = small_config(
            window=WindowSpec(width=12, stride=3),
            eval_from=30, eval_to=36,
            deviation_rule=DeviationRule(enabled=False),
        )
        workers(1)
        serial = run_rmt(D, cfg)
        workers(8)
        parallel = run_rmt(D, cfg)
        assert list(parallel.les_raw.times()) == [30, 33, 36]
        assert _raw(parallel) == _raw(serial)
        _no_children_left()

    def test_fork_failure_falls_back_to_parent(self, monkeypatch, workers):
        def no_fork():
            raise OSError("fork refused")

        D = white_stm(6, 60, seed=22)
        cfg = small_config(deviation_rule=DeviationRule(enabled=False))
        workers(1)
        serial = run_rmt(D, cfg)
        workers(3)
        monkeypatch.setattr(os, "fork", no_fork)
        assert _raw(run_rmt(D, cfg)) == _raw(serial)

    def test_killed_child_slice_is_rerun(self, monkeypatch, workers):
        real_evaluate = rmt_detector._evaluate
        parent = os.getpid()

        def evaluate(lifted, times, cfg, out):
            if os.getpid() != parent:  # a child: half-written garbage, then death
                out[:, : out.shape[1] // 2] = -1234.5
                os.kill(os.getpid(), signal.SIGKILL)
            real_evaluate(lifted, times, cfg, out)

        D = white_stm(6, 60, seed=24)
        cfg = small_config(deviation_rule=DeviationRule(enabled=False))
        workers(1)
        serial = run_rmt(D, cfg)
        monkeypatch.setattr(rmt_detector, "_evaluate", evaluate)
        workers(3)
        assert _raw(run_rmt(D, cfg)) == _raw(serial)
        _no_children_left()

    def test_earliest_failing_window_raises(self, monkeypatch, workers):
        # windows end at t=13..60; with 3 workers t=30 and t=55 fall in the
        # first and the second child's chunks, so both children fail
        real_kernel = rmt_detector.window_spectra

        def kernel(W, seed):
            if seed[1] in (30, 55):
                raise NumericalError("injected")
            return real_kernel(W, seed)

        monkeypatch.setattr(rmt_detector, "window_spectra", kernel)
        D = white_stm(6, 60, seed=25)
        for n in (1, 3):
            workers(n)
            with pytest.raises(NumericalError,
                               match="^window ending at t=30: injected$"):
                run_rmt(D, small_config())
            _no_children_left()

    @pytest.mark.parametrize("freeze_from", [30, 60])
    def test_frozen_span_raises_serial_error(self, workers, freeze_from):
        # the first window of stuck columns ends at freeze_from + 19: in
        # the parent's chunk (30) or the last child's (60) with 2 workers
        D = frozen_stm(freeze_from)
        cfg = small_config(lift=LiftConfig(k=2, n=4),
                           window=WindowSpec(width=20), use_residual=False,
                           deviation_rule=DeviationRule(enabled=False))
        errors = []
        for n in (1, 2, 3):
            workers(n)
            with pytest.raises(PreconditionError) as info:
                run_rmt(D, cfg)
            errors.append((type(info.value), str(info.value)))
            _no_children_left()
        assert errors[0] == (PreconditionError,
                             f"window ending at t={freeze_from + 19}: "
                             "row 0 has zero variance")
        assert errors[1:] == errors[:1] * 2

    def test_parent_failure_stops_children(self, monkeypatch, workers):
        killed = []
        real_kill = os.kill

        def kill(pid, sig):
            killed.append(pid)
            real_kill(pid, sig)

        monkeypatch.setattr(os, "kill", kill)
        workers(3)
        cfg = small_config(lift=LiftConfig(k=2, n=4),
                           window=WindowSpec(width=20), use_residual=False,
                           deviation_rule=DeviationRule(enabled=False))
        with pytest.raises(PreconditionError,
                           match="window ending at t=40: row 0 has zero variance"):
            run_rmt(frozen_stm(21), cfg)  # fails in the parent's chunk
        assert len(killed) == 2
        _no_children_left()

    def test_ring_solver_failure_names_window(self, monkeypatch, workers):
        real_sve = spectral.singular_value_equivalent
        real_eigvals = np.linalg.eigvals
        current = {}

        def sve(Z, seed, **kw):
            current["t"] = seed[1]
            return real_sve(Z, seed, **kw)

        def eigvals(a):
            if current.get("t") == 55:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigvals(a)

        monkeypatch.setattr(spectral, "singular_value_equivalent", sve)
        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        D = white_stm(6, 60, seed=23)
        messages = []
        for n in (1, 2):
            workers(n)
            with pytest.raises(NumericalError) as info:
                run_rmt(D, small_config())
            messages.append(str(info.value))
            _no_children_left()
        assert messages[0] == (
            "window ending at t=55: ring eigensolver failed: "
            "Eigenvalues did not converge"
        )
        assert messages[1] == messages[0]
