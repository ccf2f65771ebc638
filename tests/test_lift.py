import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kronlift.data_model import LiftConfig, SpatioTemporalMatrix
from kronlift.errors import PreconditionError
from kronlift.lift import lift_matrix
from oracles import kronecker, lift_column, normalize_segment

nonzero_vec = lambda size: arrays(
    np.float64,
    size,
    elements=st.floats(-10, 10, allow_nan=False),
).filter(lambda v: np.linalg.norm(v) > 1e-6)


class TestKronecker:
    def test_basic_product(self):
        out = kronecker(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        np.testing.assert_array_equal(out, [3.0, 4.0, 6.0, 8.0])

    def test_basis_vector(self):
        out = kronecker(np.array([1.0, 0.0]), np.array([3.0, 4.0]))
        np.testing.assert_array_equal(out, [3.0, 4.0, 0.0, 0.0])

    def test_output_size(self):
        out = kronecker(np.ones(3), np.ones(5))
        assert out.shape == (15,)

    def test_rejects_empty(self):
        with pytest.raises(PreconditionError,
                           match="kronecker factors must be non-empty"):
            kronecker(np.array([]), np.ones(2))

    @settings(max_examples=50, deadline=None)
    @given(nonzero_vec(3), nonzero_vec(4))
    def test_norm_multiplicativity(self, a, b):
        lhs = np.linalg.norm(kronecker(a, b))
        rhs = np.linalg.norm(a) * np.linalg.norm(b)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(nonzero_vec(2), nonzero_vec(3), nonzero_vec(2))
    def test_associativity(self, a, b, c):
        left = kronecker(kronecker(a, b), c)
        right = kronecker(a, kronecker(b, c))
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-12)


class TestNormalizeSegment:
    def test_three_four_five(self):
        out = normalize_segment(np.array([3.0, 4.0]))
        np.testing.assert_allclose(out, [0.6, 0.8], rtol=1e-15)

    def test_idempotent_on_unit_vector(self):
        out = normalize_segment(np.array([0.0, 1.0]))
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(PreconditionError,
                           match="cannot normalize zero segment"):
            normalize_segment(np.zeros(3))


class TestLiftColumn:
    def test_basis_segments(self):
        cfg = LiftConfig(k=2, n=2)
        out = lift_column(np.array([1.0, 0.0, 0.0, 1.0]), cfg)
        np.testing.assert_array_equal(out, [0.0, 1.0, 0.0, 0.0])

    def test_dim_28_to_196(self):
        cfg = LiftConfig(k=2, n=14)
        out = lift_column(np.arange(1.0, 29.0), cfg)
        assert out.shape == (196,)

    def test_dim_54_to_729(self):
        cfg = LiftConfig(k=2, n=27)
        out = lift_column(np.arange(1.0, 55.0), cfg)
        assert out.shape == (729,)

    def test_length_mismatch(self):
        cfg = LiftConfig(k=2, n=14)
        with pytest.raises(PreconditionError,
                           match=r"column length 27 does not match k\*n = 28"):
            lift_column(np.ones(27), cfg)

    def test_zero_segment_propagates(self):
        cfg = LiftConfig(k=2, n=2)
        with pytest.raises(PreconditionError, match="segment 2"):
            lift_column(np.array([1.0, 1.0, 0.0, 0.0]), cfg)

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            np.float64, 6, elements=st.floats(0.1, 10, allow_nan=False)
        )
    )
    def test_unit_output_norm(self, d):
        cfg = LiftConfig(k=2, n=3)
        out = lift_column(d, cfg)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            np.float64, 6, elements=st.floats(0.1, 10, allow_nan=False)
        ),
        st.floats(0.01, 100),
    )
    def test_positive_scaling_invariance(self, d, c):
        cfg = LiftConfig(k=2, n=3)
        np.testing.assert_allclose(
            lift_column(c * d, cfg), lift_column(d, cfg), rtol=1e-9, atol=1e-12
        )


class TestLiftMatrix:
    def stm(self, values, t0=1):
        ids = [f"c{i}" for i in range(values.shape[0])]
        return SpatioTemporalMatrix(values=values, channel_ids=ids, t0=t0)

    def test_shape_28x1000(self):
        rng = np.random.default_rng(0)
        D = self.stm(1.0 + 0.01 * rng.standard_normal((28, 50)))
        lifted = lift_matrix(D, LiftConfig(k=2, n=14))
        assert lifted.dim == 196
        assert lifted.samples == 50

    def test_matches_lift_column(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0.5, 1.5, size=(6, 7))
        D = self.stm(vals)
        cfg = LiftConfig(k=2, n=3)
        lifted = lift_matrix(D, cfg)
        for j in range(7):
            np.testing.assert_allclose(
                lifted.values[:, j],
                lift_column(vals[:, j], cfg),
                rtol=1e-12,
                atol=1e-15,
            )

    def test_sqrt_dim_column_norms(self):
        rng = np.random.default_rng(2)
        D = self.stm(rng.uniform(0.5, 1.5, size=(28, 10)))
        lifted = lift_matrix(D, LiftConfig(k=2, n=14), scale_mode="sqrt-dim")
        norms = np.linalg.norm(lifted.values, axis=0)
        np.testing.assert_allclose(norms, 14.0, rtol=1e-9)

    @pytest.mark.parametrize("k,n", [(1, 6), (2, 3), (3, 2)])
    def test_sqrt_dim_is_unit_norm_times_sqrt_dim_bit_for_bit(self, k, n):
        D = self.stm(np.random.default_rng(3).uniform(0.5, 1.5, size=(6, 9)))
        cfg = LiftConfig(k=k, n=n)
        unit = lift_matrix(D, cfg, "unit-norm").values
        scaled = lift_matrix(D, cfg, "sqrt-dim").values
        np.testing.assert_array_equal(scaled, unit * np.sqrt(cfg.lifted_dim),
                                      strict=True)

    def test_failure_names_time_index(self):
        vals = np.ones((4, 3))
        vals[2:, 1] = 0.0  # kills segment 2 of the column at t=6
        D = self.stm(vals, t0=5)
        with pytest.raises(PreconditionError, match="t=6"):
            lift_matrix(D, LiftConfig(k=2, n=2))

    def test_t0_preserved(self):
        D = self.stm(np.ones((4, 3)), t0=11)
        lifted = lift_matrix(D, LiftConfig(k=2, n=2))
        assert lifted.t0 == 11

    def test_identity_factorization_normalizes_whole_column(self):
        D = self.stm(np.array([[3.0], [4.0]]))
        lifted = lift_matrix(D, LiftConfig(k=1, n=2))
        np.testing.assert_allclose(lifted.values[:, 0], [0.6, 0.8])

    def test_channel_count_mismatch(self):
        D = self.stm(np.ones((6, 4)))
        with pytest.raises(PreconditionError,
                           match=r"6 channels do not match k\*n = 28"):
            lift_matrix(D, LiftConfig(k=2, n=14))
