import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_bits,
    imq_kernel_matrix,
    mmd_imq,
    mmd_imq_grad_y,
    random_spd,
    w2_1d_empirical,
)
from wwae import divergences, models, nn, spectral
from wwae.config import TrainConfig
from wwae.divergences import (
    W2Variant,
    gaussian_w2,
    gaussian_w2_value_and_grad,
    imq_prior_side,
    mmd_imq_value_and_grad,
)
from wwae.numerics import Rng
from wwae.spectral import GaussStats, batch_stats, eigh_psd, grad_trace_sqrtm, sqrtm_psd

BOTH = [W2Variant.ROOT_PRODUCT, W2Variant.BURES]


def random_stats(rng: Rng, d: int) -> GaussStats:
    return GaussStats(rng.normal(d, 1).ravel(), random_spd(rng, d))


class TestGaussianW2:
    @pytest.mark.parametrize("variant", BOTH)
    def test_identical_is_exact_zero(self, rng, variant):
        p = random_stats(rng, 4)
        q = GaussStats(p.mean.copy(), p.cov.copy())
        assert gaussian_w2(p, q, variant) == 0.0

    @pytest.mark.parametrize("variant", BOTH)
    def test_mean_shift_only(self, variant):
        p = GaussStats(np.zeros(2), np.eye(2))
        q = GaussStats(np.array([3.0, 4.0]), np.eye(2))
        assert abs(gaussian_w2(p, q, variant) - 25.0) < 1e-12

    @pytest.mark.parametrize("variant", BOTH)
    def test_commuting_case(self, variant):
        # per-coordinate formula: (1-2)^2 + (2-1)^2 + |(1,1)|^2 = 4
        p = GaussStats(np.zeros(2), np.diag([1.0, 4.0]))
        q = GaussStats(np.array([1.0, 1.0]), np.diag([4.0, 1.0]))
        assert abs(gaussian_w2(p, q, variant) - 4.0) < 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_w2(
                GaussStats(np.zeros(2), np.eye(2)),
                GaussStats(np.zeros(3), np.eye(3)),
                W2Variant.BURES,
            )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_and_nonnegative(self, seed):
        rng = Rng(seed)
        p, q = random_stats(rng, 5), random_stats(rng, 5)
        for variant in BOTH:
            ab = gaussian_w2(p, q, variant)
            ba = gaussian_w2(q, p, variant)
            assert ab >= 0.0 and ba >= 0.0
            assert abs(ab - ba) <= 1e-9 * max(1.0, ab)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bures_below_root_product(self, seed):
        rng = Rng(seed)
        p, q = random_stats(rng, 5), random_stats(rng, 5)
        bures = gaussian_w2(p, q, W2Variant.BURES)
        cross = gaussian_w2(p, q, W2Variant.ROOT_PRODUCT)
        assert bures <= cross + 1e-9

    def test_variants_agree_when_commuting(self, rng):
        # simultaneously diagonalizable pair: same eigenvectors
        v = np.linalg.qr(rng.normal(4, 4))[0]
        p = GaussStats(rng.normal(4, 1).ravel(), (v * rng.uniform(4, 1).ravel()) @ v.T)
        q = GaussStats(rng.normal(4, 1).ravel(), (v * rng.uniform(4, 1).ravel()) @ v.T)
        a = gaussian_w2(p, q, W2Variant.BURES)
        b = gaussian_w2(p, q, W2Variant.ROOT_PRODUCT)
        assert abs(a - b) <= 1e-9 * max(1.0, a)

    def test_root_product_is_root_frobenius(self, rng):
        p, q = random_stats(rng, 5), random_stats(rng, 5)
        got = gaussian_w2(p, q, W2Variant.ROOT_PRODUCT)
        diff = sqrtm_psd(p.cov) - sqrtm_psd(q.cov)
        want = float(np.sum((p.mean - q.mean) ** 2) + np.sum(diff * diff))
        assert abs(got - want) <= 1e-9 * max(1.0, want)


class TestGaussianW2Grad:
    @pytest.mark.parametrize("variant", BOTH)
    def test_minimum_has_zero_mean_grad(self, variant):
        p = GaussStats(np.zeros(3), 2.0 * np.eye(3))
        _, gm, _ = gaussian_w2_value_and_grad(p, p, variant)
        np.testing.assert_allclose(gm, np.zeros(3), atol=1e-12)

    @pytest.mark.parametrize("variant", BOTH)
    def test_quadratic_mean_term(self, variant):
        m = np.array([1.0, -2.0, 0.5])
        p = GaussStats(np.zeros(3), np.eye(3))
        q = GaussStats(m, np.eye(3))
        _, gm, _ = gaussian_w2_value_and_grad(p, q, variant)
        np.testing.assert_allclose(gm, 2.0 * m, atol=1e-12)

    @pytest.mark.parametrize("variant", BOTH)
    def test_matches_finite_differences(self, rng, variant):
        d = 6
        p, q = random_stats(rng, d), random_stats(rng, d)
        _, gm, gc = gaussian_w2_value_and_grad(p, q, variant)
        h = 1e-6

        for k in range(d):
            mp, mm = q.mean.copy(), q.mean.copy()
            mp[k] += h
            mm[k] -= h
            fd = (
                gaussian_w2(p, GaussStats(mp, q.cov), variant)
                - gaussian_w2(p, GaussStats(mm, q.cov), variant)
            ) / (2 * h)
            assert abs(gm[k] - fd) <= 1e-6 * max(abs(fd), 1.0)

        for _ in range(15):
            i, j = rng.integers(0, d, 2)
            e = np.zeros((d, d))
            e[i, j] += 0.5
            e[j, i] += 0.5
            up = gaussian_w2(p, GaussStats(q.mean, q.cov + h * e), variant)
            dn = gaussian_w2(p, GaussStats(q.mean, q.cov - h * e), variant)
            fd = (up - dn) / (2 * h)
            an = float((gc * e).sum())
            assert abs(an - fd) <= 1e-6 * max(abs(fd), 1.0)


class TestGaussianW2ValueAndGrad:
    """The shared-decomposition call against the value and the gradient
    written out separately, each taking its own matrix roots."""

    @staticmethod
    def separate(p, q, variant):
        eye = np.eye(p.dim)
        p_root = sqrtm_psd(p.cov)
        if variant is W2Variant.ROOT_PRODUCT:
            cross = float(np.trace(p_root @ sqrtm_psd(q.cov)))
            grad_cov = eye - grad_trace_sqrtm(eigh_psd(q.cov), 2.0 * p_root)
        else:
            sandwich = p_root @ q.cov @ p_root
            cross = float(np.trace(sqrtm_psd(sandwich)))
            inner = grad_trace_sqrtm(eigh_psd(sandwich), eye)
            grad_cov = eye - 2.0 * p_root @ inner @ p_root
        val = float(np.sum((p.mean - q.mean) ** 2))
        val = val + float(np.trace(p.cov) + np.trace(q.cov))
        val -= 2.0 * cross
        return max(val, 0.0), 2.0 * (q.mean - p.mean), grad_cov

    @pytest.mark.parametrize("variant", BOTH)
    @pytest.mark.parametrize("prior", ["sampled", "exact"])
    @pytest.mark.parametrize("d", [1, 2, 8, 16])
    def test_bit_equal_to_separate_expressions(self, variant, prior, d):
        rng = Rng(100 + d)
        if prior == "exact":
            p = GaussStats(np.zeros(d), np.eye(d))
        else:
            p = batch_stats(rng.normal(64, d))
        q = batch_stats(0.5 + 2.0 * rng.normal(64, d))
        value, gm, gc = gaussian_w2_value_and_grad(p, q, variant)
        want_value, want_gm, want_gc = self.separate(p, q, variant)
        assert value == want_value and value > 0.0
        assert gm.tobytes() == want_gm.tobytes()
        assert gc.tobytes() == want_gc.tobytes()
        assert gaussian_w2(p, q, variant) == value

    @pytest.mark.parametrize("variant", BOTH)
    @pytest.mark.parametrize("d", [1, 2, 8, 16, 64])
    def test_identity_prior_skips_its_root_and_no_bits(self, monkeypatch, variant, d):
        # the identity prior passes I as its root, so only q's side is
        # decomposed; sqrtm_psd(I) is I bit for bit, so the result equals
        # the one that takes the root, written out separately (that the
        # exact prior entry builds I without decomposing it is checked in
        # test_models.py)
        assert sqrtm_psd(np.eye(d)).tobytes() == np.eye(d).tobytes()
        p = GaussStats(np.zeros(d), np.eye(d))
        q = batch_stats(0.5 + 2.0 * Rng(200 + d).normal(64, d))
        calls = []
        eigh = spectral.eigh
        monkeypatch.setattr(spectral, "eigh", lambda a: calls.append(a) or eigh(a))
        value, gm, gc = gaussian_w2_value_and_grad(p, q, variant, np.eye(d))
        assert len(calls) == 1
        monkeypatch.undo()
        want_value, want_gm, want_gc = self.separate(p, q, variant)
        assert value == want_value and value > 0.0
        assert gm.tobytes() == want_gm.tobytes()
        assert gc.tobytes() == want_gc.tobytes()

    @pytest.mark.parametrize("variant", BOTH)
    @pytest.mark.parametrize("prior", ["sampled", "exact"])
    def test_value_alone_builds_no_gradient(self, monkeypatch, variant, prior):
        rng = Rng(300)
        p = batch_stats(rng.normal(64, 4)) if prior == "sampled" else GaussStats(np.zeros(4), np.eye(4))
        q = batch_stats(0.5 + 2.0 * rng.normal(64, 4))
        want = gaussian_w2_value_and_grad(p, q, variant)[0]
        calls = []
        monkeypatch.setattr(
            divergences, "grad_trace_sqrtm", lambda *a: calls.append(a) or grad_trace_sqrtm(*a)
        )
        value = gaussian_w2(p, q, variant)
        assert calls == []
        assert np.float64(value).tobytes() == np.float64(want).tobytes()
        gaussian_w2_value_and_grad(p, q, variant)
        assert len(calls) == 1  # the spy sees the gradient's call

    @pytest.mark.parametrize("variant", BOTH)
    def test_identical_stats_give_exact_zero(self, rng, variant):
        p = random_stats(rng, 6)
        value, gm, _ = gaussian_w2_value_and_grad(p, GaussStats(p.mean.copy(), p.cov.copy()), variant)
        assert value == 0.0
        assert not np.any(gm)


def kl_term(mu: np.ndarray, logvar: np.ndarray) -> float:
    """The KL regularizer of one example whose encoder heads output mu and
    logvar, through `models.encode` (which clamps) and the table entry."""
    ell = len(mu)
    enc = nn.MlpParams([np.zeros((2 * ell, 1))], [np.concatenate([mu, logvar])])
    out = models.encode(enc, np.zeros((1, 1)))
    cfg = TrainConfig(regularizer="kl", latent_dim=ell)
    return models.REGULARIZERS["kl"].term(cfg, out.mu, out, None, None, False)[0]


class TestKl:
    def test_zero_at_prior(self):
        assert kl_term(np.zeros(3), np.zeros(3)) == 0.0

    def test_hand_values(self):
        assert abs(kl_term(np.array([1.0]), np.array([0.0])) - 0.5) < 1e-12
        want = 0.5 * (np.e - 2.0)
        assert abs(kl_term(np.array([0.0]), np.array([1.0])) - want) < 1e-12

    def test_extreme_logvar_clamped(self):
        # values beyond +-30 clamp instead of overflowing
        v = kl_term(np.zeros(2), np.array([1000.0, -1000.0]))
        assert np.isfinite(v)


def mmd(x, y, scale_c):
    """The fused value and gradient, with x's side and C from `imq_prior_side`."""
    return mmd_imq_value_and_grad(x, y, imq_prior_side(x, scale_c))


def mmd_value(x, y, scale_c):
    return mmd(x, y, scale_c)[0]


class TestMmd:
    def test_hand_expansion(self):
        # two equal point sets, kernel C = 1: the unbiased U-statistic
        # evaluates to 2*(0.2) - (1/2)*(2 + 2*0.2) = -0.8
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert abs(mmd_value(x, x.copy(), scale_c=0.25) - (-0.8)) < 1e-12

    def test_null_distribution_small(self):
        rng = Rng(11)
        x, y = rng.normal(500, 2), rng.normal(500, 2)
        assert abs(mmd_value(x, y, 1.0)) < 0.02

    def test_unbiased_null_mean(self):
        rng = Rng(13)
        trials = np.array(
            [mmd_value(rng.normal(20, 2), rng.normal(20, 2), 1.0) for _ in range(200)]
        )
        se = trials.std(ddof=1) / np.sqrt(len(trials))
        assert abs(trials.mean()) <= 3.0 * se

    def test_preconditions(self):
        one = np.ones((1, 2))
        two = np.ones((2, 2))
        with np.errstate(invalid="ignore"):  # kxx's term of one point is 0 / 0
            one_side = imq_prior_side(one, 1.0)
        with pytest.raises(ValueError, match="at least 2 points per side, got 1, 2"):
            mmd_imq_value_and_grad(one, two, one_side)
        with pytest.raises(ValueError, match="at least 2 points per side, got 2, 1"):
            mmd(two, one, 1.0)
        with pytest.raises(ValueError, match="scale_c must be positive, got 0.0"):
            imq_prior_side(two, 0.0)

    def test_grad_y_matches_finite_differences(self, rng):
        x, y = rng.normal(6, 3), rng.normal(5, 3)
        g = mmd(x, y, 1.0)[1]
        h = 1e-6
        for _ in range(20):
            i = int(rng.integers(0, 5, 1)[0])
            j = int(rng.integers(0, 3, 1)[0])
            yp, ym = y.copy(), y.copy()
            yp[i, j] += h
            ym[i, j] -= h
            fd = (mmd_value(x, yp, 1.0) - mmd_value(x, ym, 1.0)) / (2 * h)
            assert abs(g[i, j] - fd) <= 1e-6 * max(abs(fd), 1.0)


class TestMmdValueAndGrad:
    SIZES = (2, 3, 64, 256)

    @pytest.mark.parametrize("d", [1, 2, 16, 64])
    @pytest.mark.parametrize("scale_c", [0.25, 1.0, 3.0])
    def test_bit_equal_to_separate_calls(self, d, scale_c):
        # the value and the gradient byte for byte against the separate
        # calls that built kyy and kxy twice, for every pair of sizes and
        # for y a copy of x
        rng = Rng(1000 * d + int(4 * scale_c))
        cases = [(rng.normal(n, d), rng.normal(m, d)) for n in self.SIZES for m in self.SIZES]
        cases += [(x, x.copy()) for x in (rng.normal(n, d) for n in self.SIZES)]
        for x, y in cases:
            value, grad = mmd(x, y, scale_c)
            assert type(value) is float
            assert value == mmd_imq(x, y, scale_c)
            assert grad.shape == y.shape
            assert grad.tobytes() == mmd_imq_grad_y(x, y, scale_c).tobytes()


def imq_cases():
    """(x, y) pairs: n != m, rows of y that repeat rows of x and of y (their
    squared distance can round below 0 and be clamped), magnitudes near
    1e150 and past float64 overflow, at latent widths 1 and 16."""
    cases = []
    for ell in (1, 16):
        rng = Rng(ell)
        for scale in (1.0, 0.1, 1e150, 1e154):
            x, y = scale * rng.normal(9, ell), scale * rng.normal(6, ell)
            cases.append((x, y))
            cases.append((x, np.concatenate([x[:4], y[:2], x[:4], y[:2]])))
    return cases


IMQ_CASES = imq_cases()


class TestImqInPlace:
    # The in-place kernels against the conftest formulas, which allocate a
    # temporary per step: the same operations, so the same bits.

    def test_cases_reach_the_clamp_and_overflow(self):
        negative = overflow = 0
        for _, y in IMQ_CASES:
            with np.errstate(over="ignore", invalid="ignore"):
                sq = np.sum(y**2, axis=1)
                dist = sq[:, None] + sq[None, :] - 2.0 * y @ y.T
            negative += int((dist < 0.0).sum())
            overflow += int(np.isnan(dist).sum())
        assert negative > 0 and overflow > 0

    @pytest.mark.parametrize("case", range(len(IMQ_CASES)))
    @pytest.mark.parametrize("scale_c", [0.5, 1.0])
    def test_bit_equal_to_allocating_formulas(self, case, scale_c):
        x, y = IMQ_CASES[case]
        n, m, c = x.shape[0], y.shape[0], scale_c * 2.0 * x.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            kxx, kyy, kxy = (imq_kernel_matrix(a, b, c) for a, b in ((x, x), (y, y), (x, y)))
            x_sq, term_x = np.sum(x**2, axis=1), (kxx.sum() - np.trace(kxx)) / (n * (n - 1))
            value, grad = mmd_imq(x, y, scale_c), mmd_imq_grad_y(x, y, scale_c)
            side = imq_prior_side(x, scale_c)
            got = divergences._mmd_imq_parts(x, y, side)
            fused = mmd_imq_value_and_grad(x, y, side)
        assert side[0] == c
        assert_same_bits(side[1], x_sq)
        assert_same_bits(side[2], term_x)
        assert type(got[0]) is float and got[1] == c
        for part, want in zip(got, (value, c, kyy, kxy)):
            assert_same_bits(part, want)
        assert type(fused[0]) is float
        assert_same_bits(fused[0], value)
        assert_same_bits(fused[1], grad)

    @pytest.mark.parametrize("d", [2, 16])
    @pytest.mark.parametrize("fused", [False, True], ids=["parts", "value_and_grad"])
    def test_peak_memory_is_three_kernel_matrices(self, d, fused):
        # kyy and kxy are kept and one Gram product is live at a time; the
        # allocating formulas peaked at about 4 n x m arrays
        n = m = 256
        rng = Rng(7)
        x, y = rng.normal(n, d), rng.normal(m, d)
        call = mmd_imq_value_and_grad if fused else divergences._mmd_imq_parts
        tracemalloc.start()
        try:
            call(x, y, imq_prior_side(x, 1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (3 * n * m + 4 * (n + m) * d)


class TestW21d:
    def test_identical(self):
        x = np.array([1.0, 2.0, 3.0])
        assert w2_1d_empirical(x, x.copy()) == 0.0

    def test_monotone_pairing(self):
        assert abs(w2_1d_empirical(np.array([0.0, 1.0]), np.array([1.0, 2.0])) - 1.0) < 1e-12
        # unsorted input is sorted internally: {0,2} vs {3,1} pairs as (0,1),(2,3)
        assert abs(w2_1d_empirical(np.array([0.0, 2.0]), np.array([3.0, 1.0])) - 1.0) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            w2_1d_empirical(np.zeros(3), np.zeros(4))

    def test_against_gaussian_closed_form(self):
        # two Gaussian samples: empirical coupling vs closed form on the fits
        rng = Rng(17)
        n = 10_000
        x = 1.5 * rng.normal(n, 1).ravel() + 0.3
        y = 0.7 * rng.normal(n, 1).ravel() - 0.5
        emp = w2_1d_empirical(x, y)
        cf = gaussian_w2(
            batch_stats(x[:, None]), batch_stats(y[:, None]), W2Variant.BURES
        )
        assert abs(emp - cf) <= 0.05 * max(emp, cf)
