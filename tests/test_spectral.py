import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd
from wwae.numerics import Rng
from wwae.spectral import (
    GaussStats,
    batch_stats,
    batch_stats_backward,
    centered_stats,
    eigh,
    eigh_psd,
    grad_trace_sqrtm,
    sqrtm_from_eigh,
    sqrtm_psd,
)

SQRT3 = np.sqrt(3.0)


class TestEigh:
    def test_diagonal(self):
        dec = eigh(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-14)

    def test_two_by_two(self):
        # characteristic polynomial of [[2,1],[1,2]] gives 3 and 1
        dec = eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-12)

    def test_reconstruction_and_orthogonality(self, rng):
        a = rng.normal(16, 16)
        a = a + a.T
        dec = eigh(a)
        v = dec.eigenvectors
        assert np.linalg.norm(v.T @ v - np.eye(16)) < 1e-10
        recon = (v * dec.eigenvalues) @ v.T
        assert np.linalg.norm(recon - a) < 1e-9
        assert np.all(np.diff(dec.eigenvalues) <= 0)  # descending

    def test_eigenvalue_sum_is_trace(self, rng):
        a = random_spd(rng, 12)
        dec = eigh(a)
        assert abs(dec.eigenvalues.sum() - np.trace(a)) <= 1e-10 * abs(np.trace(a))

    def test_non_square(self):
        with pytest.raises(ValueError):
            eigh(np.zeros((2, 3)))


class TestSqrtm:
    def test_identity(self):
        np.testing.assert_allclose(sqrtm_psd(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(sqrtm_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_closed_form_two_by_two(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        want = np.array(
            [[(SQRT3 + 1) / 2, (SQRT3 - 1) / 2], [(SQRT3 - 1) / 2, (SQRT3 + 1) / 2]]
        )
        np.testing.assert_allclose(sqrtm_psd(a), want, atol=1e-12)

    @pytest.mark.parametrize("d,cond", [(4, 10.0), (16, 1e3), (64, 1e6)])
    def test_square_back(self, rng, d, cond):
        a = random_spd(rng, d, cond)
        root = sqrtm_psd(a)
        assert np.linalg.norm(root @ root - a) < 1e-8 * max(1.0, np.linalg.norm(a))

    def test_not_psd_error(self):
        with pytest.raises(ValueError, match="not PSD"):
            sqrtm_psd(np.diag([1.0, -1.0]))

    def test_small_negative_clamped(self):
        # -1e-9 sits inside the tolerated band and clamps up to eps
        out = sqrtm_psd(np.diag([1.0, -1e-9]))
        assert out[1, 1] >= 0.0

    def test_is_the_root_of_the_checked_decomposition(self, rng):
        a = random_spd(rng, 8)
        assert sqrtm_psd(a).tobytes() == sqrtm_from_eigh(eigh_psd(a)).tobytes()

    def test_tolerance_scales_with_spectrum(self):
        # -1e-6 is rounding next to an eigenvalue of 1e4, not next to 1
        eigh_psd(np.diag([1e4, -1e-6]))
        with pytest.raises(ValueError, match="not PSD"):
            eigh_psd(np.diag([1.0, -1e-6]))


class TestGradTraceSqrtm:
    def test_identity_pair(self):
        np.testing.assert_allclose(grad_trace_sqrtm(eigh_psd(np.eye(2)), np.eye(2)), 0.5 * np.eye(2), atol=1e-12)

    def test_diagonal(self):
        g = grad_trace_sqrtm(eigh_psd(np.diag([4.0, 9.0])), np.eye(2))
        np.testing.assert_allclose(g, np.diag([0.25, 1.0 / 6.0]), atol=1e-12)

    def test_output_symmetric(self, rng):
        g = grad_trace_sqrtm(eigh_psd(random_spd(rng, 6)), rng.normal(6, 6))
        np.testing.assert_array_equal(g, g.T)

    def test_matches_finite_differences(self, rng):
        d = 8
        a = random_spd(rng, d)
        c = rng.normal(d, d)
        g = grad_trace_sqrtm(eigh_psd(a), c)
        h = 1e-6
        for _ in range(20):
            i, j = rng.integers(0, d, 2)
            e = np.zeros((d, d))
            # symmetric perturbation, matching the symmetric-domain gradient
            e[i, j] += 0.5
            e[j, i] += 0.5
            up = np.trace(c @ sqrtm_psd(a + h * e))
            dn = np.trace(c @ sqrtm_psd(a - h * e))
            fd = (up - dn) / (2 * h)
            an = float((g * e).sum())
            assert abs(an - fd) <= 1e-6 * max(abs(fd), 1.0)


class TestBatchStats:
    def test_hand_example(self):
        s = batch_stats(np.array([[0.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(s.mean, [1.0, 0.0])
        np.testing.assert_array_equal(s.cov, [[2.0, 0.0], [0.0, 0.0]])

    def test_identical_rows(self):
        s = batch_stats(np.ones((5, 3)))
        np.testing.assert_array_equal(s.cov, np.zeros((3, 3)))

    def test_symmetric_rows_zero_mean(self):
        z = np.array([[1.0, -2.0], [-1.0, 2.0]])
        np.testing.assert_array_equal(batch_stats(z).mean, [0.0, 0.0])

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            batch_stats(np.ones((1, 3)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_cov_near_psd(self, seed):
        rng = Rng(seed)
        z = rng.normal(5, 7)  # rank-deficient fit on purpose (n < d)
        vals = np.linalg.eigvalsh(batch_stats(z).cov)
        assert vals.min() >= -1e-12


class TestBatchStatsBackward:
    def test_mean_only_path(self):
        z = np.arange(8.0).reshape(4, 2)
        gm = np.array([2.0, -4.0])
        out = batch_stats_backward(centered_stats(z)[1], gm, np.zeros((2, 2)))
        np.testing.assert_allclose(out, np.tile(gm / 4.0, (4, 1)))

    def test_cov_identity_path(self):
        z = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])  # centred
        stats, centered = centered_stats(z)
        assert centered.tobytes() == z.tobytes() and stats.mean.tobytes() == np.zeros(2).tobytes()
        out = batch_stats_backward(centered, np.zeros(2), np.eye(2))
        np.testing.assert_allclose(out, (2.0 / 3.0) * z)

    def test_adjoint_matches_finite_differences(self, rng):
        n, d = 6, 3
        z = rng.normal(n, d)
        gm = rng.normal(d, 1).ravel()
        gc = rng.normal(d, d)
        grad = batch_stats_backward(centered_stats(z)[1], gm, gc)

        def scalar(zz):
            s = batch_stats(zz)
            return float(gm @ s.mean + (gc * s.cov).sum())

        h = 1e-6
        for _ in range(20):
            i = int(rng.integers(0, n, 1)[0])
            j = int(rng.integers(0, d, 1)[0])
            zp, zm = z.copy(), z.copy()
            zp[i, j] += h
            zm[i, j] -= h
            fd = (scalar(zp) - scalar(zm)) / (2 * h)
            assert abs(grad[i, j] - fd) <= 1e-6 * max(abs(fd), 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            batch_stats_backward(np.ones((4, 2)), np.ones(3), np.eye(2))


def test_gauss_stats_dim():
    s = GaussStats(np.zeros(3), np.eye(3))
    assert s.dim == 3
