import numpy as np
import pytest

from kronlift.data_model import IndicatorSeries
from kronlift.errors import ConfigError, PreconditionError
from kronlift.indicators import (
    TestFunction,
    chebyshev,
    entropy,
    les,
    likelihood_ratio,
    msr,
    normalize_curve,
)
from kronlift.spectral import haar_unitary


class TestTestFunctions:
    def test_entropy_at_one(self):
        assert entropy()(np.array([1.0, 1.0])).sum() == 0.0

    def test_entropy_at_inverse_e(self):
        val = entropy()(np.array([1.0 / np.e]))[0]
        assert val == pytest.approx(1.0 / np.e, rel=1e-12)

    def test_entropy_continuous_at_zero(self):
        assert entropy()(np.array([0.0]))[0] == 0.0

    def test_likelihood_ratio_at_one(self):
        assert likelihood_ratio()(np.array([1.0, 1.0, 1.0])).sum() == 0.0

    def test_chebyshev_identity(self):
        phi = chebyshev((0.0, 1.0))
        x = np.array([0.3, 1.7, 2.5])
        np.testing.assert_allclose(phi(x), x)

    def test_chebyshev_second_order(self):
        # T0 + T2 = 2x^2
        phi = chebyshev((1.0, 0.0, 1.0))
        np.testing.assert_allclose(
            phi(np.array([1.0, 2.0])), [2.0, 8.0], rtol=1e-12
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            TestFunction(kind="gaussian")

    def test_chebyshev_needs_coefficients(self):
        with pytest.raises(ConfigError):
            TestFunction(kind="chebyshev")


class TestLes:
    def test_entropy_examples(self):
        assert les(np.array([1.0, 1.0]), entropy()) == 0.0
        assert les(np.array([1.0 / np.e]), entropy()) == pytest.approx(
            1.0 / np.e
        )

    def test_likelihood_ratio_example(self):
        assert les(np.ones(3), likelihood_ratio()) == 0.0

    def test_identity_polynomial_equals_trace(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((9, 9))
        M = A @ A.T
        eigs = np.linalg.eigvalsh(M)
        assert les(eigs, chebyshev((0.0, 1.0))) == pytest.approx(
            np.trace(M), rel=1e-8
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        eigs = rng.uniform(0.01, 5.0, size=20)
        a = les(eigs, entropy())
        b = les(rng.permutation(eigs), entropy())
        assert a == pytest.approx(b, rel=1e-12)

    def test_numerically_zero_eigenvalues_floored(self):
        # rank-deficient windows produce tiny negatives from eigvalsh
        eigs = np.array([2.0, 1.0, -1e-15, 0.0])
        val = les(eigs, entropy())
        expected = -(2.0 * np.log(2.0))  # zeros contribute ~0 after flooring
        assert val == pytest.approx(expected, abs=1e-9)

    def test_genuinely_negative_rejected(self):
        with pytest.raises(PreconditionError,
                           match="outside the entropy test function's domain"):
            les(np.array([1.0, -0.5]), entropy())

    def test_chebyshev_skips_flooring(self):
        val = les(np.array([1.0, -0.5]), chebyshev((0.0, 1.0)))
        assert val == pytest.approx(0.5)


class TestMsr:
    def test_unit_moduli(self):
        assert msr(np.array([1.0, 1.0j, -1.0])) == pytest.approx(1.0)

    def test_zero(self):
        assert msr(np.array([0.0j])) == 0.0

    def test_mixed(self):
        assert msr(np.array([3.0 + 4.0j, 0.0])) == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError, match="empty spectrum"):
            msr(np.array([]))

    def test_unitary_spectrum(self):
        U = haar_unitary(30, np.random.default_rng(2))
        assert msr(np.linalg.eigvals(U)) == pytest.approx(1.0, abs=1e-10)


class TestNormalizeCurve:
    def series(self, vals, kind="MSR"):
        return IndicatorSeries(start_index=200, values=np.array(vals), kind=kind)

    def test_basic(self):
        out = normalize_curve(self.series([2.0, 4.0, 8.0]))
        np.testing.assert_allclose(out.values, [0.25, 0.5, 1.0])

    def test_single_point(self):
        out = normalize_curve(self.series([5.0]))
        np.testing.assert_array_equal(out.values, [1.0])

    def test_idempotent(self):
        once = normalize_curve(self.series([1.0, 3.0, 2.0]))
        twice = normalize_curve(once)
        np.testing.assert_allclose(twice.values, once.values)

    def test_preserves_argmax_and_ratios(self):
        vals = np.array([0.5, 2.0, 1.0, 4.0])
        out = normalize_curve(self.series(vals))
        assert np.argmax(out.values) == 3
        np.testing.assert_allclose(
            out.values[1] / out.values[2], vals[1] / vals[2], rtol=1e-12
        )

    def test_range_invariant(self):
        rng = np.random.default_rng(3)
        out = normalize_curve(self.series(rng.uniform(0.1, 9.0, size=50)))
        assert np.all(out.values > 0.0)
        assert np.all(out.values <= 1.0)
        assert out.values.max() == 1.0

    def test_all_nonpositive_rejected(self):
        with pytest.raises(PreconditionError,
                           match="no strictly positive value to normalize by"):
            normalize_curve(self.series([-1.0, 0.0, -3.0]))

    def test_metadata_keeps_start_and_kind(self):
        out = normalize_curve(self.series([1.0, 2.0], kind="LES"))
        assert out.start_index == 200
        assert out.kind == "LES"
