import numpy as np
import pytest

from kronlift.autoencoder import (
    AdamState,
    AutoencoderModel,
    TrainConfig,
    fit_scaler,
    init_model,
    load_checkpoint,
    loss_and_gradients,
    run_sae_detailed,
    save_checkpoint,
    sigmoid,
    train,
)
from kronlift.data_model import LiftConfig, SpatioTemporalMatrix
from kronlift.errors import ConfigError, DimensionError, DivergenceError
from oracles import (
    forward,
    rmse_indicator,
    rmse_of_error,
    sigmoid_reference,
    train_reference,
)


def stm(values, t0=1):
    ids = [f"c{i}" for i in range(values.shape[0])]
    return SpatioTemporalMatrix(values=np.asarray(values, float), channel_ids=ids, t0=t0)


class TestInitModel:
    def test_shapes_28(self):
        m = init_model(28, seed=0)
        assert [w.shape for w in m.weights] == [
            (28, 48), (48, 24), (24, 48), (48, 28)
        ]
        assert [b.shape for b in m.biases] == [(48,), (24,), (48,), (28,)]

    def test_shapes_196(self):
        m = init_model(196, seed=0)
        assert m.weights[0].shape == (196, 48)

    def test_biases_zero(self):
        m = init_model(12, seed=1)
        for b in m.biases:
            assert np.all(b == 0.0)

    def test_xavier_bounds(self):
        m = init_model(28, seed=2)
        for w in m.weights:
            lim = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            assert np.abs(w).max() <= lim

    def test_seed_determinism(self):
        a = init_model(10, seed=7)
        b = init_model(10, seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_custom_layer_sizes_validated(self):
        with pytest.raises(ConfigError):
            AutoencoderModel(
                layer_sizes=(4, 3, 4),
                weights=[np.zeros((4, 3)), np.zeros((2, 4))],
                biases=[np.zeros(3), np.zeros(4)],
                seed=0,
            )


class TestSigmoidAndForward:
    def test_sigmoid_stable_at_extremes(self):
        vals = sigmoid(np.array([-800.0, 0.0, 800.0]))
        assert vals[0] == pytest.approx(0.0, abs=1e-300)
        assert vals[1] == 0.5
        assert vals[2] == 1.0
        assert np.all(np.isfinite(vals))

    @pytest.mark.parametrize("cols", [196, 48, 24])
    def test_sigmoid_matches_reference_bit_for_bit(self, cols):
        rng = np.random.default_rng(cols)
        z = rng.normal(0.0, 8.0, size=(200, cols))
        specials = [0.0, -0.0, 700.0, -700.0, 745.0, -745.0, np.inf, -np.inf]
        z.flat[: len(specials)] = specials
        z[-1, :] = np.linspace(-40.0, 40.0, cols)
        assert sigmoid(z).tobytes() == sigmoid_reference(z).tobytes()

    def test_sigmoid_nan_in_nan_out(self):
        vals = sigmoid(np.array([np.nan, -1.0, 1.0]))
        assert np.isnan(vals[0])
        np.testing.assert_array_equal(vals[1:], sigmoid_reference([-1.0, 1.0]))

    def test_zero_parameters_give_half(self):
        m = init_model(5, seed=0)
        zero = AutoencoderModel(
            layer_sizes=m.layer_sizes,
            weights=[np.zeros_like(w) for w in m.weights],
            biases=[np.zeros_like(b) for b in m.biases],
            seed=0,
        )
        recon, _ = forward(zero, np.array([0.1, 0.9, 0.4, 0.2, 0.7]))
        np.testing.assert_array_equal(recon, np.full(5, 0.5))

    def test_output_in_open_interval(self):
        m = init_model(8, seed=3)
        recon, _ = forward(m, np.linspace(0, 1, 8))
        assert np.all((recon > 0) & (recon < 1))

    def test_dimension_mismatch(self):
        m = init_model(8, seed=3)
        with pytest.raises(DimensionError):
            forward(m, np.ones(9))

    def test_activation_cache_layers(self):
        m = init_model(6, seed=4)
        _, cache = forward(m, np.linspace(0.1, 0.9, 6))
        assert len(cache) == 5  # input plus four layer outputs


class TestGradients:
    def test_backprop_matches_central_differences(self):
        rng = np.random.default_rng(5)
        model = init_model(6, seed=11, layer_sizes=(6, 4, 2, 4, 6))
        X = rng.uniform(0.05, 0.95, size=(7, 6))
        from kronlift.autoencoder import loss_and_gradients

        _, gW, gb = loss_and_gradients(model, X)
        analytic = np.concatenate(
            [g.ravel() for g in gW] + [g.ravel() for g in gb]
        )

        from kronlift.autoencoder import _Workspace

        def loss_at(flat):
            ws, bs, pos = [], [], 0
            for w in model.weights:
                ws.append(flat[pos : pos + w.size].reshape(w.shape))
                pos += w.size
            for b in model.biases:
                bs.append(flat[pos : pos + b.size].reshape(b.shape))
                pos += b.size
            recon = _Workspace([*ws, *bs], X.shape[0]).forward(X)
            return np.mean((recon - X) ** 2)

        flat0 = np.concatenate(
            [w.ravel() for w in model.weights]
            + [b.ravel() for b in model.biases]
        )
        h = 1e-5
        numeric = np.empty_like(flat0)
        for i in range(flat0.size):
            up = flat0.copy()
            dn = flat0.copy()
            up[i] += h
            dn[i] -= h
            numeric[i] = (loss_at(up) - loss_at(dn)) / (2 * h)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-5


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        params = [np.array([1.0, -2.0]), np.array([[0.5]])]
        state = AdamState.for_params(params, learning_rate=0.1)
        stepped = state.step(params, [np.zeros(2), np.zeros((1, 1))])
        for p, s in zip(params, stepped):
            np.testing.assert_array_equal(p, s)

    def test_step_leaves_arguments_unchanged(self):
        params = [np.array([[1.0, -2.0], [0.5, 3.0]]), np.array([0.25])]
        grads = [np.array([[0.1, -0.2], [0.3, 0.0]]), np.array([-1.0])]
        before = [a.copy() for a in params + grads]
        state = AdamState.for_params(params, learning_rate=0.1)
        stepped = state.step(params, grads)
        for a, b in zip(params + grads, before):
            np.testing.assert_array_equal(a, b)
        assert [s.shape for s in stepped] == [(2, 2), (1,)]
        assert not np.array_equal(stepped[0], params[0])

    def test_step_direction(self):
        params = [np.array([1.0])]
        state = AdamState.for_params(params, learning_rate=0.01)
        stepped = state.step(params, [np.array([1.0])])
        assert stepped[0][0] < 1.0


class TestTrain:
    def test_trace_length_and_decrease(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0.2, 0.8, size=(8, 30))  # coords x samples
        model = init_model(8, seed=1)
        trained, trace = train(model, X, TrainConfig(max_iterations=200))
        assert trace.losses.size == 200
        assert trace.losses[-1] < trace.losses[0]

    def test_memorize_single_point(self):
        # easiest possible instance: m copies of one vector
        x = np.array([0.3, 0.7, 0.45, 0.6, 0.25, 0.8])
        X = np.tile(x[:, None], (1, 40))
        model = init_model(6, seed=2)
        _, trace = train(
            model, X, TrainConfig(learning_rate=0.01, max_iterations=1000)
        )
        assert trace.losses[-1] < 1e-3

    def test_determinism(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0.1, 0.9, size=(5, 20))
        a, ta = train(init_model(5, seed=3), X, TrainConfig(max_iterations=50))
        b, tb = train(init_model(5, seed=3), X, TrainConfig(max_iterations=50))
        np.testing.assert_array_equal(ta.losses, tb.losses)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    @pytest.mark.parametrize("d,m,iterations", [(28, 200, 300), (196, 200, 20)])
    def test_matches_reference_bit_for_bit(self, d, m, iterations):
        rng = np.random.default_rng(d)
        X = rng.uniform(0.0, 1.0, size=(d, m))  # coords x samples
        model = init_model(d, seed=5)
        cfg = TrainConfig(learning_rate=1e-3, max_iterations=iterations)
        trained, trace = train(model, X, cfg)
        weights, biases, losses = train_reference(model, X, cfg)
        assert trace.losses.tobytes() == losses.tobytes()
        for got, want in zip(trained.weights + trained.biases, weights + biases):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("field,value", [
        ("beta1", 1.0), ("beta1", -0.5), ("beta2", 1.5), ("beta2", 1.0),
        ("epsilon", 0.0), ("epsilon", -1e-8), ("epsilon", np.nan),
        ("learning_rate", np.nan), ("learning_rate", np.inf),
    ])
    def test_bad_adam_settings_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_guard(self):
        m = init_model(4, seed=0)
        poisoned = AutoencoderModel(
            layer_sizes=m.layer_sizes,
            weights=[w * np.inf for w in m.weights],
            biases=m.biases,
            seed=0,
        )
        with pytest.raises(DivergenceError):
            train(poisoned, np.full((4, 3), 0.5), TrainConfig(max_iterations=5))

    def test_iterations_to_tolerance(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0.3, 0.7, size=(6, 25))
        _, trace = train(
            init_model(6, seed=4),
            X,
            TrainConfig(learning_rate=0.005, max_iterations=300),
        )
        it = trace.iterations_to_tolerance
        assert it is not None
        assert trace.losses[it] <= 1.1 * trace.losses[-1]
        if it > 0:
            assert trace.losses[it - 1] > 1.1 * trace.losses[-1]


def replay_train(model, data, cfg):
    """Training as perfbench's traced replay runs it: the list API per step.

    Each step builds a model from the last step's arrays, takes
    loss_and_gradients and hands both lists to AdamState.step.
    """
    X = np.asarray(data, dtype=float).T
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    n_layers = len(weights)
    adam = AdamState.for_params(weights + biases, cfg.learning_rate,
                                beta1=cfg.beta1, beta2=cfg.beta2,
                                epsilon=cfg.epsilon)
    losses = np.empty(cfg.max_iterations)
    for it in range(cfg.max_iterations):
        current = AutoencoderModel(layer_sizes=model.layer_sizes,
                                   weights=weights, biases=biases,
                                   seed=model.seed)
        losses[it], gW, gb = loss_and_gradients(current, X)
        new = adam.step(weights + biases, gW + gb)
        weights, biases = new[:n_layers], new[n_layers:]
    return weights, biases, losses


class TestReplayContract:
    """The list API reproduces train's bytes and hands out fresh arrays."""

    @pytest.mark.parametrize("d,m,iterations", [(28, 200, 300), (196, 200, 20)])
    def test_list_api_matches_train_bit_for_bit(self, d, m, iterations):
        rng = np.random.default_rng(d + 1)
        X = rng.uniform(0.0, 1.0, size=(d, m))  # coords x samples
        model = init_model(d, seed=6)
        cfg = TrainConfig(learning_rate=1e-3, max_iterations=iterations)
        trained, trace = train(model, X, cfg)
        weights, biases, losses = replay_train(model, X, cfg)
        assert trace.losses.tobytes() == losses.tobytes()
        for got, want in zip(trained.weights + trained.biases, weights + biases):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_successive_calls_share_no_memory(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0.0, 1.0, size=(30, 8))  # samples x coords
        model = init_model(8, seed=2)
        params = model.weights + model.biases
        _, gW1, gb1 = loss_and_gradients(model, X)
        _, gW2, gb2 = loss_and_gradients(model, X)
        adam = AdamState.for_params(params, learning_rate=0.01)
        p1 = adam.step(params, gW1 + gb1)
        p2 = adam.step(p1, gW2 + gb2)
        for first, second in [(gW1 + gb1, gW2 + gb2), (p1, p2),
                              (params, p1 + gW1 + gb1)]:
            for a in first:
                for b in second:
                    assert not np.shares_memory(a, b)


class TestRmseIndicator:
    def test_perfect_reconstruction(self):
        m = init_model(4, seed=0)
        x = np.array([0.5, 0.5, 0.5, 0.5])
        recon, _ = forward(m, x)
        assert rmse_indicator(m, recon) >= 0.0  # smoke: defined output

    def test_error_three_four(self):
        # direct formula on a crafted error vector via the brute force path
        assert rmse_of_error(np.array([3.0, 4.0])) == pytest.approx(
            3.5355339059327378
        )

    def test_constant_error(self):
        assert rmse_of_error(np.full(9, -0.2)) == pytest.approx(0.2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        m = init_model(7, seed=5)
        x = rng.uniform(0, 1, size=7)
        recon, _ = forward(m, x)
        e = x - recon
        brute = np.sqrt(np.sum(e * e) / e.size)
        assert rmse_indicator(m, x) == pytest.approx(brute, abs=1e-12)


class TestScaler:
    def test_stats_from_training_span_only(self):
        X = np.array([[0.0, 1.0, 2.0, 50.0], [5.0, 7.0, 6.0, -9.0]])
        sc = fit_scaler(X[:, :3])
        np.testing.assert_array_equal(sc.lo, [0.0, 5.0])
        np.testing.assert_array_equal(sc.span, [2.0, 2.0])
        out = sc.apply(X)
        np.testing.assert_allclose(out[:, :3].min(axis=1), [0.0, 0.0])
        np.testing.assert_allclose(out[:, :3].max(axis=1), [1.0, 1.0])
        assert out[0, 3] == pytest.approx(25.0)  # test span may exceed [0,1]

    def test_zero_range_coordinate_flagged(self):
        X = np.array([[1.0, 1.0, 1.0], [0.0, 2.0, 4.0]])
        sc = fit_scaler(X)
        assert list(sc.flagged) == [True, False]
        out = sc.apply(X)
        np.testing.assert_array_equal(out[0], [0.5, 0.5, 0.5])


class TestRunSae:
    def data(self, seed=0, N=60, step_at=None):
        rng = np.random.default_rng(seed)
        vals = 1.0 + 1e-2 * rng.standard_normal((6, N))
        if step_at is not None:
            vals[2, step_at - 1 :] += 0.5
        return stm(vals)

    def test_series_geometry(self):
        series = run_sae_detailed(
            self.data(), None, train_span=(1, 30),
            cfg=TrainConfig(max_iterations=40),
        ).series
        assert series.kind == "RMSE"
        assert series.start_index == 31
        assert series.values.size == 30
        assert np.all(series.values >= 0.0)

    def test_lifted_variant(self):
        series = run_sae_detailed(
            self.data(), LiftConfig(k=2, n=3), train_span=(1, 30),
            cfg=TrainConfig(max_iterations=40),
        ).series
        assert series.values.size == 30

    def test_obvious_step_scores_high(self):
        result = run_sae_detailed(
            self.data(step_at=45), None, train_span=(1, 30),
            cfg=TrainConfig(learning_rate=0.01, max_iterations=300),
        )
        v = result.series.values
        t = result.series.times()
        pre = v[t < 45]
        post = v[t >= 45]
        assert post.max() > 5.0 * np.median(pre)

    def test_train_span_validation(self):
        with pytest.raises(ConfigError):
            run_sae_detailed(self.data(), None, train_span=(1, 60),
                             cfg=TrainConfig(max_iterations=5))
        with pytest.raises(ConfigError):
            run_sae_detailed(self.data(), None, train_span=(0, 30),
                             cfg=TrainConfig(max_iterations=5))

    def test_determinism(self):
        a = run_sae_detailed(self.data(), None, train_span=(1, 30),
                             cfg=TrainConfig(max_iterations=30)).series
        b = run_sae_detailed(self.data(), None, train_span=(1, 30),
                             cfg=TrainConfig(max_iterations=30)).series
        np.testing.assert_array_equal(a.values, b.values)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        data = stm(1.0 + 0.01 * rng.standard_normal((6, 50)))
        result = run_sae_detailed(
            data, None, train_span=(1, 25), cfg=TrainConfig(max_iterations=30)
        )
        path = tmp_path / "model.json"
        save_checkpoint(result.model, result.scaler, path)
        model2, scaler2 = load_checkpoint(path)
        for w1, w2 in zip(result.model.weights, model2.weights):
            np.testing.assert_array_equal(w1, w2)
        for b1, b2 in zip(result.model.biases, model2.biases):
            np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(result.scaler.lo, scaler2.lo)
        np.testing.assert_array_equal(result.scaler.span, scaler2.span)
        np.testing.assert_array_equal(result.scaler.flagged, scaler2.flagged)

    def test_inference_reproduces_scores(self, tmp_path):
        rng = np.random.default_rng(11)
        data = stm(1.0 + 0.01 * rng.standard_normal((6, 50)))
        result = run_sae_detailed(
            data, None, train_span=(1, 25), cfg=TrainConfig(max_iterations=30)
        )
        path = tmp_path / "model.json"
        save_checkpoint(result.model, result.scaler, path)
        model2, scaler2 = load_checkpoint(path)
        from kronlift.autoencoder import score_matrix

        scores = score_matrix(model2, scaler2, data.values[:, 25:])
        np.testing.assert_array_equal(scores, result.series.values)
