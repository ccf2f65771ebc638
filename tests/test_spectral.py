import warnings

import numpy as np
import pytest

from kronlift.data_model import LiftConfig, SpatioTemporalMatrix
from kronlift.errors import (
    DimensionError,
    NumericalError,
    ParameterError,
    PreconditionError,
    StandardizationError,
)
from kronlift.lift import lift_matrix
from kronlift.rmt_detector import window_at
from kronlift.spectral import (
    covariance_eigenvalues,
    esd_ks_distance,
    haar_unitary,
    mp_law,
    ring_coverage,
    ring_reference,
    row_standardize,
    singular_value_equivalent,
    summarize_window,
    tensor_covariance,
    window_spectra,
)
from oracles import mp_cdf_reference, mp_pdf


def mp_ppf(law, q, lo=None, hi=None):
    # bisection on the cdf; test-side quantile oracle
    lo = law.support[0] if lo is None else lo
    hi = law.support[1] if hi is None else hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if law.cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTensorCovariance:
    def test_rank_one_single_column(self):
        X = np.array([[0.0], [1.0], [0.0], [0.0]])
        M = tensor_covariance(X, np.array([1.0]))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        np.testing.assert_array_equal(M, expected)

    def test_uniform_weights_unit_columns_trace_one(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 9))
        X /= np.linalg.norm(X, axis=0)
        M = tensor_covariance(X)
        assert np.trace(M) == pytest.approx(1.0, rel=1e-12)

    def test_unit_weights_trace_is_energy(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 7))
        M = tensor_covariance(X, np.ones(7))
        assert np.trace(M) == pytest.approx(
            np.sum(X**2), rel=1e-12
        )

    def test_matches_brute_force_triple_loop(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((5, 3))
        tau = rng.uniform(0.1, 1.0, size=3)
        M = tensor_covariance(X, tau)
        brute = np.zeros((5, 5))
        for a in range(3):
            for i in range(5):
                for j in range(5):
                    brute[i, j] += tau[a] * X[i, a] * X[j, a]
        np.testing.assert_allclose(M, brute, atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((8, 5))
        M = tensor_covariance(X)
        np.testing.assert_array_equal(M, M.T)

    def test_weight_count_mismatch(self):
        with pytest.raises(DimensionError):
            tensor_covariance(np.ones((3, 4)), np.ones(5))


class TestCovarianceEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(
            covariance_eigenvalues(np.eye(3)), [1.0, 1.0, 1.0]
        )

    def test_diagonal_sorted_ascending(self):
        np.testing.assert_allclose(
            covariance_eigenvalues(np.diag([5.0, 1.0, 2.0])), [1.0, 2.0, 5.0]
        )

    def test_rank_one_spectrum(self):
        v = np.array([0.5, 0.5, 0.5, 0.5])
        eigs = covariance_eigenvalues(np.outer(v, v))
        np.testing.assert_allclose(eigs, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((12, 12))
        M = A @ A.T
        eigs = covariance_eigenvalues(M)
        assert eigs.sum() == pytest.approx(np.trace(M), rel=1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(PreconditionError):
            covariance_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMpLaw:
    def test_support_c075(self):
        law = mp_law(0.75, 1.0)
        assert law.support[0] == pytest.approx(0.017949, abs=1e-6)
        assert law.support[1] == pytest.approx(3.482051, abs=1e-6)

    def test_support_c1(self):
        law = mp_law(1.0, 1.0)
        assert law.support == (0.0, 4.0)

    def test_pdf_integrates_to_continuous_mass(self):
        # change of variables x = s2*(1+c+2*sqrt(c)*sin(theta)) removes the
        # edge singularities, so plain Gauss-Legendre nails the integral
        for c in (0.3, 0.75, 1.0, 4.0 / 3.0, 2.0):
            law = mp_law(c, 1.0)
            nodes, wts = np.polynomial.legendre.leggauss(400)
            theta = 0.5 * np.pi * nodes
            x = 1.0 + c + 2.0 * np.sqrt(c) * np.sin(theta)
            dx = 2.0 * np.sqrt(c) * np.cos(theta) * 0.5 * np.pi
            integral = np.sum(wts * mp_pdf(law, x) * dx)
            assert integral == pytest.approx(
                1.0 - max(0.0, 1.0 - 1.0 / c), abs=1e-8
            )

    def test_cdf_endpoints(self):
        law = mp_law(0.75, 1.0)
        a, b = law.support
        assert law.cdf(a) == pytest.approx(0.0, abs=1e-12)
        assert law.cdf(b) == pytest.approx(1.0, abs=1e-12)
        assert law.cdf(b + 1.0) == 1.0

    def test_cdf_monotone(self):
        law = mp_law(1.5, 1.0)
        xs = np.linspace(-0.5, law.support[1] + 0.5, 300)
        cs = law.cdf(xs)
        assert np.all(np.diff(cs) >= -1e-14)
        assert cs[0] == 0.0
        assert cs[-1] == 1.0

    def test_atom_for_c_above_one(self):
        law = mp_law(2.0, 1.0)
        assert law.atom_at_zero == pytest.approx(0.5)
        assert law.cdf(0.0) == pytest.approx(0.5)
        assert law.cdf(-1e-9) == 0.0
        assert law.cdf(np.nextafter(law.support[0], 0.0)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_no_atom_for_c_below_one(self):
        assert mp_law(0.5, 1.0).atom_at_zero == 0.0

    def test_sigma_scaling(self):
        law = mp_law(0.5, 2.0)
        base = mp_law(0.5, 1.0)
        assert law.support[1] == pytest.approx(2.0 * base.support[1])
        assert law.cdf(2.0 * 1.3) == pytest.approx(base.cdf(1.3), abs=1e-12)

    @pytest.mark.parametrize("sigma2", [1.0, 2.0])
    @pytest.mark.parametrize(
        "c", [0.14, 0.5, 0.98, 0.999, 1.0, 1.001, 1.5, 3.645])
    def test_cdf_matches_quadrature_reference(self, c, sigma2):
        # 0.999 to 1.001 is where a fixed quadrature rule loses digits and,
        # at c = 1, divides by zero at the lower edge
        law = mp_law(c, sigma2)
        a, b = law.support
        xs = np.concatenate([[a + 1e-9 * (b - a)], np.linspace(a, b, 197)[1:]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = law.cdf(xs)
        np.testing.assert_allclose(got, mp_cdf_reference(law, xs),
                                   rtol=0, atol=1e-12)
        assert got[-1] == 1.0

    @pytest.mark.parametrize("sigma2", [1.0, 2.0])
    def test_cdf_at_c1_is_elementary(self, sigma2):
        # at c = 1 the mass below x = sigma2*(2 + 2*sin(theta)) is
        # (theta + cos(theta) + pi/2)/pi, down to the smallest x > 0
        law = mp_law(1.0, sigma2)
        xs = np.concatenate([[5e-324, 1e-300, 1e-20, 1e-10, 2e-7],
                             np.linspace(0.0, 4.0 * sigma2, 197)[1:-1]])
        theta = 2.0 * np.arcsin(np.sqrt(xs / (4.0 * sigma2))) - 0.5 * np.pi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = law.cdf(xs)
        np.testing.assert_allclose(
            got, (theta + np.cos(theta) + 0.5 * np.pi) / np.pi,
            rtol=0, atol=1e-12)
        assert np.all(got < 1.0)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            mp_law(0.0, 1.0)
        with pytest.raises(ParameterError):
            mp_law(0.5, -1.0)


class TestRingReference:
    def test_half(self):
        inner, outer = ring_reference(0.5)
        assert inner == pytest.approx(0.70711, abs=1e-5)
        assert outer == 1.0

    def test_full_disk(self):
        assert ring_reference(1.0)[0] == 0.0

    def test_three_quarters(self):
        assert ring_reference(0.75)[0] == pytest.approx(0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            ring_reference(1.2)
        with pytest.raises(ParameterError):
            ring_reference(0.0)


class TestRowStandardize:
    def test_documented_example(self):
        out = row_standardize(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(
            out, [[-1.224744871391589, 0.0, 1.224744871391589]], rtol=1e-12
        )

    def test_population_moments(self):
        rng = np.random.default_rng(5)
        out = row_standardize(rng.standard_normal((4, 100)))
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=1), 1.0, rtol=1e-12)

    def test_constant_row_named(self):
        X = np.ones((3, 5))
        X[1] = np.arange(5)
        X[2] = np.arange(5)
        with pytest.raises(StandardizationError, match="row 0"):
            row_standardize(X)

    def test_row_constant_up_to_rounding_is_dead(self):
        # 6 white-noise channels frozen from t=18, k=2, n=3: the window
        # ending at t=40 repeats one lifted column 12 times, yet with data
        # seed 159 no row's computed std is exactly 0
        vals = np.random.default_rng(159).standard_normal((6, 40))
        vals[:, 17:] = vals[:, 17:18]
        D = SpatioTemporalMatrix(values=vals, channel_ids=list("abcdef"))
        lifted = lift_matrix(D, LiftConfig(k=2, n=3), scale_mode="sqrt-dim")
        W = window_at(lifted, 40, 12)
        assert np.all(W == W[:, :1])
        assert np.all(W.std(axis=1) > 0.0)
        with pytest.raises(StandardizationError, match="row 0"):
            row_standardize(W)


class TestHaarUnitary:
    def test_unitarity(self):
        U = haar_unitary(17, np.random.default_rng(0))
        np.testing.assert_allclose(
            U @ U.conj().T, np.eye(17), atol=1e-12
        )

    def test_determinism(self):
        a = haar_unitary(9, np.random.default_rng(42))
        b = haar_unitary(9, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_eigenvalues_on_unit_circle(self):
        U = haar_unitary(25, np.random.default_rng(1))
        np.testing.assert_allclose(
            np.abs(np.linalg.eigvals(U)), 1.0, atol=1e-10
        )


class TestSingularValueEquivalent:
    def test_orthonormal_rows_give_haar_factor(self):
        # X X^T = I so the PSD square root is the identity and the raw
        # product is exactly the Haar unitary drawn from the same seed
        rng = np.random.default_rng(7)
        A = np.linalg.qr(rng.standard_normal((20, 8)))[0].T  # 8 x 20
        Xu = singular_value_equivalent(A, seed=123, row_normalize=False)
        np.testing.assert_allclose(
            Xu, haar_unitary(8, np.random.default_rng(123)), atol=1e-12
        )
        np.testing.assert_allclose(np.abs(np.linalg.eigvals(Xu)), 1.0, atol=1e-10)

    def test_seed_determinism(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((6, 30))
        a = singular_value_equivalent(X, seed=5)
        b = singular_value_equivalent(X, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_singular_values_preserved_pre_normalization(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((7, 40))
        Xu = singular_value_equivalent(X, seed=1, row_normalize=False)
        w = np.linalg.eigvalsh(X @ X.T)
        expected = np.sqrt(np.clip(w, 0.0, None))
        got = np.sort(np.linalg.svd(Xu, compute_uv=False))
        np.testing.assert_allclose(got, np.sort(expected), atol=1e-8)

    def test_row_variances_normalized(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((12, 50))
        Xu = singular_value_equivalent(X, seed=2)
        np.testing.assert_allclose(Xu.var(axis=1), 1.0 / 50, rtol=1e-10)

    def test_white_noise_ring_coverage(self):
        rng = np.random.default_rng(11)
        p, q = 196, 200
        X = row_standardize(rng.standard_normal((p, q)))
        Xu = singular_value_equivalent(X, seed=3)
        eigs = np.linalg.eigvals(Xu)
        inner = ring_reference(p / q)[0]
        assert ring_coverage(eigs, inner) >= 0.90


class TestEsdKsDistance:
    def test_quantile_construction_small_distance(self):
        law = mp_law(0.5, 1.0)
        m = 50
        eigs = np.array(
            [mp_ppf(law, (i + 0.5) / m) for i in range(m)]
        )
        assert esd_ks_distance(eigs, law) <= 0.5 / m + 1e-9

    def test_degenerate_spectrum_at_edge(self):
        law = mp_law(0.5, 1.0)
        eigs = np.full(20, law.support[1])
        assert esd_ks_distance(eigs, law) >= 0.99

    def test_ordering_invariance_and_range(self):
        rng = np.random.default_rng(12)
        law = mp_law(0.75, 1.0)
        eigs = rng.uniform(0.1, 3.0, size=40)
        d1 = esd_ks_distance(eigs, law)
        d2 = esd_ks_distance(eigs[::-1], law)
        assert d1 == d2
        assert 0.0 <= d1 <= 1.0

    def test_atom_aware_zero_block(self):
        # for c=2 half the mass sits in the atom at zero; an ESD built from
        # 25 exact zeros plus quantiles of the continuous part must sit close
        # to the law, which the naive two-sided formula would miss
        law = mp_law(2.0, 1.0)
        m = 25
        cont = [
            mp_ppf(law, 0.5 + 0.5 * (i + 0.5) / m) for i in range(m)
        ]
        eigs = np.concatenate([np.zeros(m), cont])
        assert esd_ks_distance(eigs, law) <= 0.5 / m + 1e-9

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            esd_ks_distance(np.array([]), mp_law(1.0, 1.0))


class TestWindowSpectra:
    def test_tall_window_ring_on_transpose(self):
        rng = np.random.default_rng(17)
        W = rng.standard_normal((64, 48))
        cov_eigs, ring_eigs = window_spectra(W, (3, 7))
        assert cov_eigs.shape == (64,)
        assert ring_eigs.shape == (48,)
        s = summarize_window(W, seed=(3, 7))
        assert cov_eigs.tobytes() == s.covariance_eigs.tobytes()
        assert ring_eigs.tobytes() == s.ring_eigs.tobytes()

    def test_ring_solver_failure_is_numerical(self, monkeypatch):
        def eigvals(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        W = np.random.default_rng(18).standard_normal((8, 12))
        with pytest.raises(NumericalError, match="ring eigensolver failed"):
            window_spectra(W, 0)


class TestSummarizeWindow:
    def test_field_shapes_tall_window(self):
        # dimension > samples: ring analysis runs on the transposed window
        rng = np.random.default_rng(13)
        W = rng.standard_normal((64, 48))
        s = summarize_window(W, seed=0)
        assert s.covariance_eigs.shape == (64,)
        assert s.c_ratio == pytest.approx(48 / 64)
        assert s.ring_eigs.shape == (48,)
        assert 0.0 <= s.ks_distance_mp <= 1.0
        assert 0.0 <= s.ring_coverage <= 1.0
        assert s.ring_inner == pytest.approx(np.sqrt(1.0 - 48 / 64))
        # c = dim/samples = 4/3 > 1 so the MP reference carries an atom
        assert s.mp_support[0] == pytest.approx((1 - np.sqrt(4 / 3)) ** 2)
        assert s.mp_support[1] == pytest.approx((1 + np.sqrt(4 / 3)) ** 2)

    def test_wide_window_ring_uses_own_dim(self):
        rng = np.random.default_rng(14)
        W = rng.standard_normal((16, 40))
        s = summarize_window(W, seed=1)
        assert s.ring_eigs.shape == (16,)
        assert s.ring_inner == pytest.approx(np.sqrt(1.0 - 16 / 40))

    def test_white_noise_coverage_sane(self):
        rng = np.random.default_rng(15)
        W = rng.standard_normal((96, 120))
        s = summarize_window(W, seed=2)
        assert s.ring_coverage >= 0.85

    def test_determinism(self):
        rng = np.random.default_rng(16)
        W = rng.standard_normal((20, 30))
        a = summarize_window(W, seed=9)
        b = summarize_window(W, seed=9)
        np.testing.assert_array_equal(a.ring_eigs, b.ring_eigs)
        np.testing.assert_array_equal(a.covariance_eigs, b.covariance_eigs)
