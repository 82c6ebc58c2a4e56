import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_pgm
from wwae.checkpoint import load_checkpoint, save_checkpoint
from wwae.config import TrainConfig
from wwae.images import (
    atomic_open,
    pair_grid,
    tile_grid,
    to_bytes_image,
    write_latent_csv,
    write_pgm,
    write_points_csv,
)
from wwae.metrics import load_basis, save_basis
from wwae.models import init_train_state, train_step
from wwae.numerics import Rng


class TestToBytes:
    def test_rounding(self):
        out = to_bytes_image(np.array([0.0, 0.5, 1.0, 0.002]))
        np.testing.assert_array_equal(out, [0, 128, 255, 1])

    def test_clamps_out_of_range(self):
        out = to_bytes_image(np.array([-0.4, 1.7]))
        np.testing.assert_array_equal(out, [0, 255])

    def test_dtype(self):
        assert to_bytes_image(np.zeros((2, 2))).dtype == np.uint8


class TestPgm:
    def test_roundtrip(self, tmp_path):
        img = Rng(3).uniform(5, 7)
        p = tmp_path / "x.pgm"
        write_pgm(p, img)
        np.testing.assert_array_equal(read_pgm(p), to_bytes_image(img))

    def test_header(self, tmp_path):
        p = tmp_path / "x.pgm"
        write_pgm(p, np.zeros((2, 3)))
        assert p.read_bytes().startswith(b"P5\n3 2\n255\n")
        assert p.stat().st_size == len(b"P5\n3 2\n255\n") + 6

    def test_rejects_non_matrix(self, tmp_path):
        with pytest.raises(ValueError, match="h x w"):
            write_pgm(tmp_path / "bad.pgm", np.zeros(4))

    def test_read_rejects_other_magic(self, tmp_path):
        p = tmp_path / "not.pgm"
        p.write_bytes(b"P2\n1 1\n255\n0\n")
        with pytest.raises(ValueError, match="not a binary PGM"):
            read_pgm(p)

    def test_read_rejects_truncation(self, tmp_path):
        p = tmp_path / "x.pgm"
        write_pgm(p, np.zeros((4, 4)))
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(p)


class TestTileGrid:
    def test_64_images_makes_square(self):
        rows = Rng(1).uniform(64, 28 * 28)
        grid = tile_grid(rows, (28, 28))
        assert grid.shape == (224, 224)
        np.testing.assert_array_equal(grid[:28, :28], rows[0].reshape(28, 28))
        np.testing.assert_array_equal(grid[:28, 28:56], rows[1].reshape(28, 28))
        np.testing.assert_array_equal(grid[28:56, :28], rows[8].reshape(28, 28))

    def test_partial_row_zero_padded(self):
        rows = np.ones((3, 4))
        grid = tile_grid(rows, (2, 2))  # 2 cols, 2 rows, one empty cell
        assert grid.shape == (4, 4)
        np.testing.assert_array_equal(grid[2:, 2:], np.zeros((2, 2)))

    def test_explicit_cols(self):
        grid = tile_grid(np.ones((6, 1)), (1, 1), cols=3)
        assert grid.shape == (2, 3)

    def test_wrong_pixel_count(self):
        with pytest.raises(ValueError, match="needs"):
            tile_grid(np.zeros((2, 5)), (2, 2))


class TestPairGrid:
    def test_interleaves_pairs(self):
        orig = np.zeros((4, 4))
        recon = np.ones((4, 4))
        grid = pair_grid(orig, recon, (2, 2))
        # 8 tiles in 4 columns: orig, recon, orig, recon per row
        assert grid.shape == (4, 8)
        np.testing.assert_array_equal(grid[:2, :2], np.zeros((2, 2)))
        np.testing.assert_array_equal(grid[:2, 2:4], np.ones((2, 2)))
        np.testing.assert_array_equal(grid[:2, 4:6], np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pair_grid(np.zeros((2, 4)), np.zeros((3, 4)), (2, 2))


class TestCsvWriters:
    def test_points_exact_roundtrip(self, tmp_path):
        pts = Rng(2).normal(6, 2)
        p = tmp_path / "pts.csv"
        write_points_csv(p, pts)
        back = np.array(
            [[float(v) for v in line.split(",")] for line in p.read_text().splitlines()]
        )
        np.testing.assert_array_equal(back, pts)

    def test_latent_text_with_labels(self, tmp_path):
        p = tmp_path / "z.csv"
        write_latent_csv(p, np.array([[1.5, 2.0]]), np.array([3]))
        assert p.read_text() == "z_1,z_2,label\n1.5,2,3\n"

    def test_latent_header_with_labels(self, tmp_path):
        p = tmp_path / "z.csv"
        write_latent_csv(p, np.array([[0.5, -1.0, 2.0]]), np.array([7]))
        lines = p.read_text().splitlines()
        assert lines[0] == "z_1,z_2,z_3,label"
        assert lines[1] == "0.5,-1,2,7"

    def test_latent_header_without_labels(self, tmp_path):
        p = tmp_path / "z.csv"
        write_latent_csv(p, np.array([[0.25, 0.75]]), None)
        assert p.read_text().splitlines()[0] == "z_1,z_2"

    # Signed zero, NaN, infinities, the smallest subnormal and the largest
    # double, beside ordinary values of many magnitudes.
    SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, np.finfo(np.float64).max]

    def special_table(self):
        values = np.array(self.SPECIAL + list(Rng(8).normal(1, 7).ravel() * 1e5))
        return values.reshape(2, 7)

    @staticmethod
    def fstring_rows(values, labels):
        """The per-value f-string rows the writers produced before."""
        out = []
        for i, row in enumerate(values):
            cells = [f"{v:.17g}" for v in row]
            if labels is not None:
                cells.append(str(int(labels[i])))
            out.append(",".join(cells) + "\n")
        return "".join(out)

    def test_points_match_per_value_fstrings(self, tmp_path):
        values = self.special_table()
        p = tmp_path / "pts.csv"
        write_points_csv(p, values)
        assert p.read_bytes() == self.fstring_rows(values, None).encode()

    @pytest.mark.parametrize("labels", [None, np.array([4, 9])])
    def test_latent_matches_per_value_fstrings(self, tmp_path, labels):
        values = self.special_table()
        p = tmp_path / "z.csv"
        write_latent_csv(p, values, labels)
        header = ",".join(f"z_{j + 1}" for j in range(7))
        header += ",label\n" if labels is not None else "\n"
        assert p.read_bytes() == (header + self.fstring_rows(values, labels)).encode()

    def test_random_magnitudes_match_per_value_fstrings(self, tmp_path):
        rng = Rng(9)
        values = rng.normal(500, 4) * 10.0 ** rng.integers(-300, 300, 2000).reshape(500, 4)
        labels = rng.integers(0, 10, 500)
        p = tmp_path / "z.csv"
        write_latent_csv(p, values, labels)
        assert p.read_text().split("\n", 1)[1] == self.fstring_rows(values, labels)


class TestAtomicOpen:
    def test_replaces_the_file(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("old\n")
        with atomic_open(p) as fh:
            fh.write("new\n")
        assert p.read_text() == "new\n"
        assert list(tmp_path.iterdir()) == [p]

    def test_error_partway_keeps_previous_file(self, tmp_path):
        p = tmp_path / "f.bin"
        p.write_bytes(b"old")
        with pytest.raises(OSError, match="disk full"):
            with atomic_open(p, "wb") as fh:
                fh.write(b"half of the new content")
                raise OSError("disk full")
        assert p.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [p]


# Scalars and punctuation that a header edit puts in place of JSON tokens.
JSONISH = [b"0", b"-1", b"3", b"1.5", b"1e999", b"-1e999", b"NaN", b"Infinity", b"true",
           b"null", b'"x"', b"[]", b"{}", b"[1]", b'{"a": 1}', b",", b":", b"[", b"}", b'"']
JSON_TOKEN = re.compile(rb'-?[0-9][0-9.eE+-]*|"[^"]*"|true|false|null|[][{}:,]')


@st.composite
def damaged(draw, raw: bytes) -> bytes:
    """`raw` cut short, with bytes overwritten, or with 1-3 adjacent tokens
    of its header line replaced by up to 3 JSON-ish tokens."""
    how = draw(st.sampled_from(["cut", "overwrite", "header"]))
    if how == "cut":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if how == "overwrite":
        new = draw(st.binary(min_size=1, max_size=8))
        at = draw(st.integers(0, len(raw) - len(new)))
        return raw[:at] + new + raw[at + len(new) :]
    start = raw.index(b"\n") + 1
    tokens = list(JSON_TOKEN.finditer(raw, start, raw.index(b"\n", start)))
    first = draw(st.integers(0, len(tokens) - 1))
    last = tokens[min(first + draw(st.integers(0, 2)), len(tokens) - 1)]
    new = b"".join(draw(st.lists(st.sampled_from(JSONISH), max_size=3)))
    return raw[: tokens[first].start()] + new + raw[last.end() :]


class TestFramedFiles:
    """Every damaged checkpoint or basis file either loads or is refused with
    a ValueError; no other exception escapes the reader."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("framed")
        cfg = TrainConfig(enc_hidden=(4,), dec_hidden=(4,), limit=64, batch_size=8)
        state = init_train_state(cfg, 2, None)
        train_step(state, Rng(1).normal(8, 2))  # so the moment blocks are filled
        save_checkpoint(d / "model.ckpt", state)
        save_basis(d / "fid_basis.bin", Rng(2).normal(6, 3))
        return d

    @pytest.mark.parametrize(
        "name, load", [("model.ckpt", load_checkpoint), ("fid_basis.bin", load_basis)]
    )
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_file_loads_or_is_refused(self, saved, name, load, data):
        raw = (saved / name).read_bytes()
        p = saved / f"damaged-{name}"
        p.write_bytes(data.draw(damaged(raw)))
        try:
            load(p)
        except (ValueError, FileNotFoundError):
            pass
