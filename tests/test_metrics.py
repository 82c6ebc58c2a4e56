import numpy as np
import pytest

from wwae import nn
from wwae.data import Dataset, make_ring, ring_centers
from wwae.images import write_points_csv
from wwae.metrics import (
    DeskFid,
    fid,
    fit_pca_basis,
    latent_report,
    latent_summary,
    load_basis,
    mode_coverage,
    pixel_pca_features,
    read_features_csv,
    save_basis,
)
from wwae.numerics import Rng
from wwae.spectral import GaussStats


def four_point_sets():
    # set a: mean 0, unbiased cov diag(1, 4); set b: axes swapped, shifted
    # by (1, 1). Gaussian-fit distance is 1 + 1 + (1-2)^2 + (2-1)^2 = 4.
    s, t = np.sqrt(1.5), np.sqrt(6.0)
    a = np.array([[s, 0.0], [-s, 0.0], [0.0, t], [0.0, -t]])
    b = np.array([[t, 0.0], [-t, 0.0], [0.0, s], [0.0, -s]]) + 1.0
    return a, b


class TestFid:
    def test_identical_features_exactly_zero(self, rng):
        f = rng.normal(20, 5)
        assert fid(f, f.copy()) == 0.0

    def test_exactly_symmetric(self, rng):
        a = rng.normal(40, 6)
        b = rng.normal(30, 6) * 2.0 + 0.5
        assert fid(a, b) == fid(b, a)

    def test_hand_value(self):
        a, b = four_point_sets()
        np.testing.assert_allclose(fid(a, b), 4.0, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimensions differ"):
            fid(rng.normal(5, 3), rng.normal(5, 4))


class TestPixelPca:
    def test_full_rank_preserves_distances(self, rng):
        x = rng.normal(30, 8)
        feats = pixel_pca_features(x, fit_pca_basis(x, 8))
        dx = np.linalg.norm(x[:, None] - x[None, :], axis=2)
        df = np.linalg.norm(feats[:, None] - feats[None, :], axis=2)
        np.testing.assert_allclose(df, dx, atol=1e-8)

    def test_rank_one_data_captured_by_k1(self, rng):
        direction = rng.normal(1, 10)[0]
        coeffs = rng.normal(50, 1)
        x = coeffs @ direction[None, :] + 1e-4 * rng.normal(50, 10)
        feats = pixel_pca_features(x, fit_pca_basis(x, 1))
        total = np.var(x - x.mean(0), axis=0).sum()
        kept = np.var(feats - feats.mean(0), axis=0).sum()
        assert kept / total >= 0.999

    def test_basis_orthonormal(self, rng):
        basis = fit_pca_basis(rng.normal(40, 12), 5)
        np.testing.assert_allclose(basis.T @ basis, np.eye(5), atol=1e-9)

    def test_sign_convention(self, rng):
        basis = fit_pca_basis(rng.normal(40, 12), 5)
        for j in range(5):
            col = basis[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_k_too_large(self, rng):
        with pytest.raises(ValueError, match="exceeds min"):
            fit_pca_basis(rng.normal(4, 10), 5)

    def test_basis_row_mismatch(self, rng):
        with pytest.raises(ValueError, match="do not match pixel count"):
            pixel_pca_features(rng.normal(4, 10), np.eye(7))

    def test_non_matrix_input(self):
        with pytest.raises(ValueError, match="n x d"):
            fit_pca_basis(np.zeros(5), 1)
        with pytest.raises(ValueError, match="n x d"):
            pixel_pca_features(np.zeros(5), np.eye(1))


class TestDeskFid:
    def test_reused_basis_matches_fit_output(self, rng):
        x = rng.normal(25, 6)
        fitted = DeskFid(x, image_data=True)
        reused = DeskFid(x, image_data=True, basis=fitted.basis)
        np.testing.assert_array_equal(fitted.real, reused.real)
        assert reused.basis is fitted.basis

    def test_image_basis_is_top_k_of_real_rows(self, rng):
        x = rng.normal(50, 40)
        desk = DeskFid(x, image_data=True)
        np.testing.assert_array_equal(desk.basis, fit_pca_basis(x, 32))
        np.testing.assert_array_equal(desk.real, pixel_pca_features(x, desk.basis))

    def test_k_capped_by_rows(self, rng):
        assert DeskFid(rng.normal(10, 40), image_data=True).basis.shape == (40, 10)

    def test_score_in_the_fixed_space(self, rng):
        x, g = rng.normal(40, 12), rng.normal(30, 12) + 0.5
        basis = fit_pca_basis(rng.normal(40, 12), 4)
        desk = DeskFid(x, image_data=True, basis=basis)
        want = fid(pixel_pca_features(x, basis), pixel_pca_features(g, basis))
        assert desk.score(g) == want

    def test_point_data_uses_raw_coordinates(self, rng):
        x, g = rng.normal(40, 2), rng.normal(30, 2) * 2.0
        desk = DeskFid(x, image_data=False)
        assert desk.basis is None
        assert desk.score(g) == fid(x, g)


class TestBasisFile:
    def test_roundtrip(self, rng, tmp_path):
        basis = fit_pca_basis(rng.normal(30, 9), 4)
        p = tmp_path / "real.basis"
        save_basis(p, basis)
        np.testing.assert_array_equal(load_basis(p), basis)

    def test_failed_save_keeps_previous_file(self, rng, tmp_path, monkeypatch):
        basis = fit_pca_basis(rng.normal(30, 9), 4)
        p = tmp_path / "real.basis"
        save_basis(p, basis)
        before = p.read_bytes()

        def disk_full(*args, **kwargs):
            raise OSError("disk full")

        # fails after the header is written
        monkeypatch.setattr(np, "ascontiguousarray", disk_full)
        with pytest.raises(OSError, match="disk full"):
            save_basis(p, 2.0 * basis)
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"something else\n{}\n")
        with pytest.raises(ValueError, match="not a basis file"):
            load_basis(p)

    def test_truncated(self, rng, tmp_path):
        basis = fit_pca_basis(rng.normal(30, 9), 4)
        p = tmp_path / "real.basis"
        save_basis(p, basis)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(ValueError, match="truncated"):
            load_basis(p)

    def test_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_basis(tmp_path / "no.basis")

    @pytest.mark.parametrize(
        "header",
        ['[1]', '{"rows": 9}', '{"rows": 9, "cols": 0}', '{"rows": 9.5, "cols": 4}',
         '{"rows": true, "cols": 4}'],
    )
    def test_header_values_checked(self, rng, tmp_path, header):
        p = tmp_path / "real.basis"
        save_basis(p, fit_pca_basis(rng.normal(30, 9), 4))
        magic, _, payload = p.read_bytes().split(b"\n", 2)
        p.write_bytes(magic + b"\n" + header.encode() + b"\n" + payload)
        with pytest.raises(ValueError, match="^basis header needs rows and cols as ints > 0"):
            load_basis(p)

    def test_header_not_json(self, tmp_path):
        p = tmp_path / "real.basis"
        p.write_bytes(b"WWAEBASIS 1\n{rows: 9}\n")
        with pytest.raises(ValueError, match="^basis header is not a JSON line"):
            load_basis(p)

    def test_extra_byte_rejected(self, rng, tmp_path):
        p = tmp_path / "real.basis"
        save_basis(p, fit_pca_basis(rng.normal(30, 9), 4))
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="basis has 1 trailing bytes"):
            load_basis(p)


class TestFeaturesCsv:
    def test_roundtrip_exact(self, rng, tmp_path):
        f = rng.normal(7, 3)
        p = tmp_path / "f.csv"
        write_points_csv(p, f)
        np.testing.assert_array_equal(read_features_csv(p), f)

    def test_no_header(self, rng, tmp_path):
        p = tmp_path / "f.csv"
        write_points_csv(p, np.array([[1.5, -2.0]]))
        assert p.read_text() == "1.5,-2\n"

    def test_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_features_csv(tmp_path / "absent.csv")

    def test_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("\n\n")
        with pytest.raises(ValueError, match="empty"):
            read_features_csv(p)


class TestModeCoverage:
    def test_samples_on_centers(self):
        centers = ring_centers()
        covered, frac = mode_coverage(np.repeat(centers, 4, axis=0), centers, 0.1)
        assert covered == 8 and frac == 1.0

    def test_single_mode_collapse(self):
        centers = ring_centers()
        samples = np.tile(centers[0], (100, 1))
        covered, frac = mode_coverage(samples, centers, 0.1)
        assert covered == 1 and frac == 1.0

    def test_all_samples_far(self):
        centers = ring_centers()
        covered, frac = mode_coverage(np.full((20, 2), 50.0), centers, 0.3)
        assert covered == 0 and frac == 0.0

    def test_threshold_is_tenth_of_even_share(self):
        centers = np.array([[0.0, 0.0], [10.0, 0.0]])
        # 20 samples, m=2 -> a center needs >= 1 sample within range
        samples = np.vstack([np.zeros((19, 2)), [[10.0, 0.0]]])
        covered, _ = mode_coverage(samples, centers, 0.5)
        assert covered == 2

    def test_real_ring_data_within_three_sigma(self):
        ds = make_ring(Rng(5).split(3), 4096)
        _, frac = mode_coverage(ds.examples, ring_centers(), 0.3)
        assert frac >= 0.95

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            mode_coverage(np.zeros((0, 2)), ring_centers(), 0.3)


class TestLatentReport:
    def zero_encoder(self, d, ell):
        w = np.zeros((2 * ell, d))
        return nn.MlpParams([w], [np.zeros(2 * ell)])

    def test_zero_encoder_codes_are_noise(self, rng):
        ds = make_ring(Rng(5).split(3), 512)
        enc = self.zero_encoder(2, 2)
        rep = latent_report(enc, ds, Rng(9), 256)
        np.testing.assert_array_equal(rep.codes, Rng(9).normal(256, 2))
        mu_norm, cov_dist = latent_summary(rep.stats)
        assert mu_norm < 0.2 and cov_dist < 0.3

    def test_labels_carried(self):
        ds = make_ring(Rng(5).split(3), 64)
        rep = latent_report(self.zero_encoder(2, 2), ds, Rng(9), 32)
        np.testing.assert_array_equal(rep.labels, ds.labels[:32])

    def test_unlabeled_dataset(self):
        ds = Dataset(np.zeros((16, 3)), None)
        rep = latent_report(self.zero_encoder(3, 2), ds, Rng(1), 8)
        assert rep.labels is None

    def test_deterministic(self):
        ds = make_ring(Rng(5).split(3), 64)
        a = latent_report(self.zero_encoder(2, 2), ds, Rng(3), 16)
        b = latent_report(self.zero_encoder(2, 2), ds, Rng(3), 16)
        np.testing.assert_array_equal(a.codes, b.codes)

    def test_n_capped_at_dataset_size(self):
        ds = make_ring(Rng(5).split(3), 20)
        rep = latent_report(self.zero_encoder(2, 2), ds, Rng(1), 1000)
        assert rep.codes.shape == (20, 2)

    def test_too_few_examples(self):
        ds = Dataset(np.zeros((5, 2)), None)
        with pytest.raises(ValueError, match="at least 2"):
            latent_report(self.zero_encoder(2, 2), ds, Rng(1), 1)


class TestLatentSummary:
    def test_hand_values(self):
        stats = GaussStats(np.array([3.0, 4.0]), np.diag([1.0, 3.0]))
        mu_norm, cov_dist = latent_summary(stats)
        assert abs(mu_norm - 5.0) < 1e-12
        assert abs(cov_dist - 2.0) < 1e-12

    def test_standard_normal_is_origin(self):
        mu_norm, cov_dist = latent_summary(GaussStats(np.zeros(3), np.eye(3)))
        assert mu_norm == 0.0 and cov_dist == 0.0
