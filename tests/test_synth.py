"""Tests for the synthetic scenario generator."""

import numpy as np
import pytest

from kronlift.errors import ConfigError
from kronlift.synth import (
    AnomalySpec,
    NoiseConfig,
    ScenarioConfig,
    colored_noise,
    generate,
    scenario_from_dict,
    snr_scale,
)

CASE_A = (
    AnomalySpec(kind="step", onset=501, end=1000,
                channels=(3, 5, 17, 19), magnitude=0.05),
)
CASE_B = (
    AnomalySpec(kind="ramp", onset=501, end=1000,
                channels=(5, 19), magnitude=0.08),
)


class TestAnomalySpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            AnomalySpec(kind="spike", channels=(1,), magnitude=0.1)

    def test_empty_channels_rejected(self):
        with pytest.raises(ConfigError):
            AnomalySpec(kind="step", channels=(), magnitude=0.1)

    def test_nonfinite_magnitude_rejected(self):
        with pytest.raises(ConfigError):
            AnomalySpec(kind="step", channels=(1,), magnitude=float("nan"))

    def test_channels_coerced_to_ints(self):
        a = AnomalySpec(kind="step", channels=(np.int64(3), 5.0), magnitude=0.1)
        assert a.channels == (3, 5)
        assert all(isinstance(c, int) for c in a.channels)


class TestScenarioConfig:
    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.channels == 28
        assert cfg.samples == 1000
        assert cfg.noise.b == 0.5
        assert cfg.noise.snr == 1000.0

    def test_anomaly_span_validated(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(samples=100, anomalies=(
                AnomalySpec(kind="step", onset=50, end=200,
                            channels=(1,), magnitude=0.1),))
        with pytest.raises(ConfigError):
            ScenarioConfig(samples=100, anomalies=(
                AnomalySpec(kind="step", onset=0, end=100,
                            channels=(1,), magnitude=0.1),))

    def test_anomaly_channel_validated(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(channels=4, samples=100, anomalies=(
                AnomalySpec(kind="step", onset=10, end=100,
                            channels=(5,), magnitude=0.1),))

    def test_baseline_vector_scalar_broadcast(self):
        cfg = ScenarioConfig(channels=3, baselines=2.5)
        assert np.array_equal(cfg.baseline_vector(), [2.5, 2.5, 2.5])

    def test_baseline_vector_length_checked(self):
        cfg = ScenarioConfig(channels=3, baselines=(1.0, 2.0))
        with pytest.raises(ConfigError):
            cfg.baseline_vector()

    def test_ar_coefficient_bounds(self):
        with pytest.raises(ConfigError,
                           match=r"AR coefficient must satisfy \|b\| < 1, got 1\.0"):
            NoiseConfig(b=1.0)
        with pytest.raises(ConfigError,
                           match=r"AR coefficient must satisfy \|b\| < 1, got -1\.2"):
            NoiseConfig(b=-1.2)

    def test_snr_positive(self):
        with pytest.raises(ConfigError,
                           match=r"snr must be positive, got 0\.0"):
            NoiseConfig(snr=0.0)


class TestColoredNoise:
    def test_b_zero_gives_iid_standard_normals(self):
        E = colored_noise(2, 100000, NoiseConfig(b=0.0), seed=1)
        for row in E:
            assert abs(row.var() - 1.0) < 0.03
            r1 = np.corrcoef(row[:-1], row[1:])[0, 1]
            assert abs(r1) < 0.03

    def test_stationary_unit_variance_and_lag1(self):
        b = 0.5
        E = colored_noise(2, 100000, NoiseConfig(b=b), seed=2)
        for row in E:
            assert abs(row.var() - 1.0) < 0.03
            r1 = np.corrcoef(row[:-1], row[1:])[0, 1]
            assert abs(r1 - b) < 0.03

    def test_rows_independent_of_channel_count(self):
        # row i keyed by (seed, 1, i): adding channels must not move rows
        small = colored_noise(3, 50, NoiseConfig(b=0.5), seed=5)
        big = colored_noise(6, 50, NoiseConfig(b=0.5), seed=5)
        assert np.array_equal(small, big[:3])

    def test_deterministic(self):
        a = colored_noise(4, 200, NoiseConfig(b=0.3), seed=9)
        b = colored_noise(4, 200, NoiseConfig(b=0.3), seed=9)
        assert np.array_equal(a, b)


class TestSnrScale:
    def test_formula(self):
        D = np.full((10, 10), 3.0)
        D[0, 0] = 3.0
        D = D + np.array([[2.0 if (i + j) % 2 else -2.0
                           for j in range(10)] for i in range(10)])
        # var(D) = 4 exactly, build E with var 1
        E = np.array([[1.0 if (i + j) % 2 else -1.0
                       for j in range(10)] for i in range(10)])
        m = snr_scale(D, E, 1000.0)
        assert m == pytest.approx(np.sqrt(4.0 / 1000.0), rel=1e-12)
        assert m == pytest.approx(0.063246, abs=1e-6)

    def test_equal_variance_unit_snr(self):
        rng = np.random.default_rng(0)
        D = rng.standard_normal((5, 50))
        m = snr_scale(D, D.copy(), 1.0)
        assert m == pytest.approx(1.0, rel=1e-12)

    def test_large_snr_drives_scale_to_zero(self):
        rng = np.random.default_rng(1)
        D = rng.standard_normal((5, 50))
        E = rng.standard_normal((5, 50))
        assert snr_scale(D, E, 1e12) < 1e-5

    def test_constant_signal_warns_and_returns_zero(self):
        E = np.random.default_rng(2).standard_normal((4, 40))
        with pytest.warns(UserWarning):
            m = snr_scale(np.ones((4, 40)), E, 1000.0)
        assert m == 0.0

    def test_zero_variance_noise_rejected(self):
        with pytest.raises(ConfigError, match="noise field has zero variance"):
            snr_scale(np.random.default_rng(3).standard_normal((4, 40)),
                      np.ones((4, 40)), 1000.0)


class TestGenerate:
    def test_shape_and_metadata(self):
        M = generate(ScenarioConfig(channels=6, samples=80, seed=0))
        assert M.values.shape == (6, 80)
        assert M.t0 == 1
        assert M.channel_ids[0] == "ch01"
        assert M.channel_ids[-1] == "ch06"

    def test_quiet_noise_free_is_constant_baseline(self):
        cfg = ScenarioConfig(channels=4, samples=60, white_sigma=0.0,
                             noise=NoiseConfig(enabled=False), seed=0)
        M = generate(cfg)
        assert np.array_equal(M.values, np.ones((4, 60)))

    def test_step_exact_jump_noise_free(self):
        cfg = ScenarioConfig(
            channels=4, samples=60, white_sigma=0.0,
            noise=NoiseConfig(enabled=False), seed=0,
            anomalies=(AnomalySpec(kind="step", onset=31, end=60,
                                   channels=(2,), magnitude=0.05),))
        M = generate(cfg).values
        assert M[1, 29] == 1.0          # t=30, pre-onset
        assert M[1, 30] == 1.05         # t=31, onset
        assert M[1, 59] == 1.05         # persists
        assert np.array_equal(M[0], np.ones(60))  # untouched channel

    def test_ramp_profile_noise_free(self):
        cfg = ScenarioConfig(
            channels=2, samples=100, white_sigma=0.0,
            noise=NoiseConfig(enabled=False), seed=0,
            anomalies=(AnomalySpec(kind="ramp", onset=41, end=80,
                                   channels=(1,), magnitude=0.08),))
        M = generate(cfg).values
        assert M[0, 39] == 1.0                       # t=40
        assert M[0, 40] == 1.0                       # t=41: ramp starts at 0
        mid = 1.0 + 0.08 * (61 - 41) / (80 - 41)
        assert M[0, 60] == pytest.approx(mid, rel=1e-12)
        assert M[0, 79] == pytest.approx(1.08, rel=1e-12)  # t=80, full level
        assert M[0, 99] == pytest.approx(1.08, rel=1e-12)  # holds after end

    def test_two_anomalies_superpose(self):
        cfg = ScenarioConfig(
            channels=2, samples=50, white_sigma=0.0,
            noise=NoiseConfig(enabled=False), seed=0,
            anomalies=(
                AnomalySpec(kind="step", onset=11, end=50,
                            channels=(1,), magnitude=0.1),
                AnomalySpec(kind="step", onset=21, end=50,
                            channels=(1, 2), magnitude=0.2),
            ))
        M = generate(cfg).values
        assert M[0, 30] == pytest.approx(1.3, rel=1e-12)
        assert M[1, 30] == pytest.approx(1.2, rel=1e-12)

    def test_deterministic(self):
        a = generate(ScenarioConfig(seed=4, channels=6, samples=120))
        b = generate(ScenarioConfig(seed=4, channels=6, samples=120))
        assert np.array_equal(a.values, b.values)

    def test_snr_uses_composed_signal_variance(self):
        # stronger anomaly -> larger var(D) -> larger noise amplitude
        quiet = ScenarioConfig(channels=4, samples=200, seed=6)
        loud = ScenarioConfig(
            channels=4, samples=200, seed=6,
            anomalies=(AnomalySpec(kind="step", onset=101, end=200,
                                   channels=(1, 2), magnitude=5.0),))
        Mq = generate(quiet).values
        Ml = generate(loud).values
        # subtract the deterministic parts; what is left is white + scaled AR
        resid_q = Mq - 1.0
        field = np.zeros((4, 200))
        field[:2, 100:] = 5.0
        resid_l = Ml - 1.0 - field
        assert resid_l.var() > resid_q.var() * 2

    def test_frozen_case_a_fingerprints(self):
        # canonical 28x1000 step scenario, seed 0; values pin the exact
        # child-seed streams so refactors cannot silently change them
        M = generate(ScenarioConfig(seed=0, anomalies=CASE_A)).values
        assert M[0, 0] == pytest.approx(1.0001678624098442, abs=1e-15)
        assert M[2, 500] == pytest.approx(1.0488224266894182, abs=1e-15)
        assert M[27, 999] == pytest.approx(0.9997357133852753, abs=1e-15)
        assert float(M.mean()) == pytest.approx(1.0035662675769295, abs=1e-12)

    def test_anomalous_channels_shift_mean(self):
        M = generate(ScenarioConfig(seed=1, anomalies=CASE_A)).values
        post = slice(500, 1000)
        for ch in (3, 5, 17, 19):
            assert M[ch - 1, post].mean() - M[ch - 1, :500].mean() > 0.04
        assert abs(M[0, post].mean() - M[0, :500].mean()) < 0.01


class TestScenarioFromDict:
    def test_round_trip_case_a(self):
        doc = {
            "channels": 28, "samples": 1000, "baselines": 1.0,
            "white_sigma": 1e-3,
            "anomalies": [{"kind": "step", "onset": 501, "end": 1000,
                           "channels": [3, 5, 17, 19], "magnitude": 0.05}],
            "noise": {"b": 0.5, "snr": 1000.0, "enabled": True},
            "seed": 0,
        }
        cfg = scenario_from_dict(doc)
        assert cfg.anomalies == CASE_A
        assert cfg.noise == NoiseConfig()

    def test_defaults_fill_in(self):
        cfg = scenario_from_dict({})
        assert cfg == ScenarioConfig()

    def test_baselines_list(self):
        cfg = scenario_from_dict({"channels": 2, "baselines": [1.0, 2.0]})
        assert np.array_equal(cfg.baseline_vector(), [1.0, 2.0])

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            scenario_from_dict({"channel_count": 28})

    def test_unknown_anomaly_field_rejected(self):
        with pytest.raises(ConfigError):
            scenario_from_dict({"anomalies": [
                {"kind": "step", "channels": [1], "size": 0.1}]})

    def test_unknown_noise_field_rejected(self):
        with pytest.raises(ConfigError):
            scenario_from_dict({"noise": {"rho": 0.5}})

    def test_bad_kind_propagates(self):
        with pytest.raises(ConfigError):
            scenario_from_dict({"anomalies": [
                {"kind": "impulse", "channels": [1], "magnitude": 0.1}]})
