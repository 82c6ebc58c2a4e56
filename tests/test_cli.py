import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    config_line,
    corrupt_first_gradient,
    edit_checkpoint_header,
    parse_manifest,
    read_pgm,
)
from wwae import data as wwae_data
import wwae
from wwae import cli, metrics
from wwae.checkpoint import load_checkpoint, save_checkpoint
from wwae.cli import main
from wwae.data import make_blob_images, write_idx_images, write_idx_labels
from wwae.images import write_points_csv
from wwae.numerics import Rng

# Final log record of the 500-step reference run below; regressions in any
# numeric component (data synthesis, init, noise order, losses, Adam) move it.
GOLDEN_FINAL_RECORD = (
    "step=500 total=0.11501045178692543 recon=0.012805181672743195 "
    "reg=0.10220527011418223 lr=0.005"
)

GOLDEN_CFG = {
    "dataset": "ring",
    "limit": 2048,
    "latent_dim": 2,
    "enc_hidden": "16",
    "dec_hidden": "16",
    "regularizer": "w2",
    "lambda": 1.0,
    "batch_size": 64,
    "steps": 500,
    "seed": 1,
}

RING_CFG = {
    "dataset": "ring",
    "limit": 256,
    "latent_dim": 2,
    "enc_hidden": "8",
    "dec_hidden": "8",
    "batch_size": 16,
    "steps": 20,
    "seed": 3,
}


# A ring run whose one update overflows the parameters to +-inf and NaN.
OVERFLOW_CFG = {
    "dataset": "ring",
    "limit": 64,
    "latent_dim": 2,
    "enc_hidden": "4",
    "dec_hidden": "4",
    "batch_size": 8,
    "steps": 1,
    "lr": "1e308",
}


# A few steps of a small image model; `data_path` comes from `blob_idx`.
SMALL_IMAGE_CFG = dict(
    dataset="idx", limit=96, latent_dim=2, enc_hidden="8", dec_hidden="8", batch_size=16,
    steps=4, seed=2,
)

# The note each desk-FID line carries, by the feature space it scores in.
PCA_NOTE = (
    "desk-FID uses fixed PCA-of-pixels features; "
    "values are not comparable to Inception-based FID tables"
)
RAW_NOTE = "desk-FID uses raw coordinates; values are not comparable to Inception-based FID tables"


def names_in(directory):
    return sorted(p.name for p in directory.iterdir())


def write_cfg(path, **kv):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return path


@pytest.fixture(scope="module")
def ring_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ring_run")
    cfg = write_cfg(out / "run.cfg", **RING_CFG, out_dir=out / "art")
    assert main(["train", "--config", str(cfg)]) == 0
    return {"cfg": cfg, "out": out / "art", "ckpt": out / "art" / "model.ckpt"}


@pytest.fixture(scope="module")
def blob_idx(tmp_path_factory):
    d = tmp_path_factory.mktemp("blobs")
    ds = make_blob_images(Rng(0), 96)
    ip = d / "blobs-images-idx3"
    write_idx_images(ip, ds.examples, ds.image_shape)
    write_idx_labels(d / "blobs-labels-idx1", ds.labels)
    return ip


@pytest.fixture(scope="module")
def image_run(tmp_path_factory, blob_idx):
    out = tmp_path_factory.mktemp("image_run")
    cfg = write_cfg(
        out / "run.cfg",
        dataset="idx",
        data_path=blob_idx,
        limit=96,
        latent_dim=2,
        enc_hidden="16",
        dec_hidden="16",
        batch_size=16,
        steps=30,
        seed=4,
        eval_every=15,
        out_dir=out / "art",
    )
    assert main(["train", "--config", str(cfg)]) == 0
    return {"cfg": cfg, "out": out / "art", "ckpt": out / "art" / "model.ckpt"}


class TestTrain:
    def test_missing_config(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "none.cfg")])
        assert rc == 1
        assert "none.cfg" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("lamda = 1\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_out_of_range_value_is_one_error_line(self, tmp_path, capsys):
        values = {**RING_CFG, "lr": "-1", "out_dir": tmp_path / "out"}
        cfg = write_cfg(tmp_path / "bad.cfg", **values)
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: lr must be > 0, got -1.0"]
        assert not (tmp_path / "out").exists()

    def test_growing_lr_schedule_is_one_error_line(self, tmp_path, capsys):
        # lr * decay_factor ** k would overflow its float power at k = 2
        values = {
            **RING_CFG, "batch_size": 8, "steps": 3, "lr": "1e-300", "decay_every": 1,
            "decay_factor": "1e300", "out_dir": tmp_path / "out",
        }
        cfg = write_cfg(tmp_path / "grow.cfg", **values)
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: decay_factor must be in (0, 1], got 1e+300"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("enc_hidden", "0", "enc_hidden must be all >= 1, got 0"),
            ("dec_hidden", "8,-2", "dec_hidden must be all >= 1, got 8,-2"),
            ("seed", "-1", "seed must be >= 0, got -1"),
            # valid configs whose data fails to load or to fill a batch
            ("limit", "1", "need at least 8 points, got 1"),
            ("limit", "10", "batch_size 16 exceeds dataset size 10"),
            ("dataset", "idx",
             "[Errno 2] No such file or directory: 'missing-images-idx3'"),
        ],
    )
    def test_bad_value_fails_before_any_work(
        self, tmp_path, capsys, monkeypatch, key, value, message
    ):
        monkeypatch.chdir(tmp_path)  # data_path is relative; ring runs ignore it
        values = {
            **RING_CFG, key: value, "data_path": "missing-images-idx3", "out_dir": tmp_path / "out"
        }
        cfg = write_cfg(tmp_path / "bad.cfg", **values)
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()

    def test_network_too_large_to_allocate_is_one_error_line(self, tmp_path, capsys):
        # 10**15 hidden units need petabytes, far above a 2**47-byte address
        # space, so the allocation fails at once and touches no memory
        values = {**RING_CFG, "enc_hidden": 10**15, "out_dir": tmp_path / "out"}
        cfg = write_cfg(tmp_path / "big.cfg", **values)
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
        assert not (tmp_path / "out").exists()

    def test_zero_steps_writes_initial_checkpoint(self, tmp_path):
        cfg = write_cfg(tmp_path / "z.cfg", **RING_CFG, out_dir=tmp_path / "a")
        cfg.write_text(cfg.read_text().replace("steps = 20", "steps = 0"))
        assert main(["train", "--config", str(cfg)]) == 0
        state = load_checkpoint(tmp_path / "a" / "model.ckpt")
        assert state.step == 0
        manifest = parse_manifest((tmp_path / "a" / "manifest.txt").read_text())
        assert manifest.final == ["final_step=0"]
        assert manifest.records == []

    def test_golden_final_record(self, tmp_path):
        cfg = write_cfg(tmp_path / "g.cfg", **GOLDEN_CFG, out_dir=tmp_path / "a")
        assert main(["train", "--config", str(cfg)]) == 0
        manifest = parse_manifest((tmp_path / "a" / "manifest.txt").read_text())
        assert manifest.records[-1] == GOLDEN_FINAL_RECORD

    def test_log_reports_the_rate_of_the_logged_step(self, tmp_path):
        values = {**RING_CFG, "steps": 2, "lr": 0.004, "decay_every": 1, "decay_factor": 0.5}
        cfg = write_cfg(tmp_path / "l.cfg", **values, out_dir=tmp_path / "a")
        assert main(["train", "--config", str(cfg)]) == 0
        manifest = parse_manifest((tmp_path / "a" / "manifest.txt").read_text())
        assert manifest.records == [manifest.records[0]]
        assert manifest.records[0].startswith("step=2 ")
        assert manifest.records[0].endswith(" lr=0.002")

    def test_log_independent_of_out_dir(self, tmp_path):
        for name in ("a", "b"):
            cfg = write_cfg(
                tmp_path / f"{name}.cfg", **RING_CFG, out_dir=tmp_path / name
            )
            assert main(["train", "--config", str(cfg)]) == 0
        ma = parse_manifest((tmp_path / "a" / "manifest.txt").read_text())
        mb = parse_manifest((tmp_path / "b" / "manifest.txt").read_text())
        assert ma.records == mb.records
        assert ma.final == mb.final
        diff = set(ma.config) ^ set(mb.config)
        assert all("out_dir" in line for line in diff)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "r.cfg", **RING_CFG, out_dir=tmp_path / "a")
        assert main(["train", "--config", str(cfg)]) == 0
        first = {
            p.name: p.read_bytes() for p in (tmp_path / "a").iterdir() if p.is_file()
        }
        assert main(["train", "--config", str(cfg)]) == 0
        second = {
            p.name: p.read_bytes() for p in (tmp_path / "a").iterdir() if p.is_file()
        }
        assert first == second

    def test_image_run_eval_artifacts(self, image_run):
        out = image_run["out"]
        assert (out / "fid_basis.bin").is_file()
        assert (out / "samples_step000015.pgm").is_file()
        assert (out / "samples_step000030.pgm").is_file()
        manifest = parse_manifest((out / "manifest.txt").read_text())
        fid_records = [r for r in manifest.records if "desk_fid=" in r]
        assert len(fid_records) == 2
        assert any("fid_final=" in line for line in manifest.final)
        state = load_checkpoint(image_run["ckpt"])
        assert state.step == 30
        assert state.image_shape == (28, 28)

    def test_tied_desk_fid_keeps_the_first_best(self, tmp_path, monkeypatch):
        monkeypatch.setattr(metrics.DeskFid, "score", lambda self, samples: 1.5)
        values = {**RING_CFG, "steps": 6, "eval_every": 2, "out_dir": tmp_path / "a"}
        cfg = write_cfg(tmp_path / "t.cfg", **values)
        assert main(["train", "--config", str(cfg)]) == 0
        manifest = parse_manifest((tmp_path / "a" / "manifest.txt").read_text())
        assert manifest.final[-1] == "fid_final=1.5 fid_best=1.5 fid_best_step=2"

    def test_basis_fitted_on_this_runs_data(self, tmp_path, capsys):
        # a basis left in out_dir by a run on other data must not be reused
        def idx(classes):
            ds = make_blob_images(Rng(1), 96, classes=classes)
            path = tmp_path / f"c{classes}-images-idx3"
            write_idx_images(path, ds.examples, ds.image_shape)
            return path

        def desk_fid(data_path, out_dir):
            cfg = write_cfg(
                tmp_path / "b.cfg", dataset="idx", data_path=data_path, limit=96,
                latent_dim=2, enc_hidden="8", dec_hidden="8", batch_size=16,
                steps=4, seed=2, eval_every=4, out_dir=out_dir,
            )
            assert main(["train", "--config", str(cfg)]) == 0
            return [r for r in capsys.readouterr().out.splitlines() if "desk_fid=" in r]

        two, ten = idx(2), idx(10)
        fresh = desk_fid(ten, tmp_path / "fresh")
        desk_fid(two, tmp_path / "shared")
        assert desk_fid(ten, tmp_path / "shared") == fresh
        assert (tmp_path / "shared" / "fid_basis.bin").read_bytes() == (
            tmp_path / "fresh" / "fid_basis.bin"
        ).read_bytes()

    @pytest.mark.parametrize(
        "values, message",
        [
            ({**RING_CFG, "steps": 10, "lr": "1e150"}, "non-finite loss at step"),
            # the last update overflows, so no loss ever sees its parameters
            ({**OVERFLOW_CFG, "eval_every": 0}, "non-finite parameters at step 1: enc."),
            ({**OVERFLOW_CFG, "eval_every": 1}, "non-finite parameters at step 1: enc."),
        ],
        ids=["loss", "last-update", "last-update-eval"],
    )
    def test_divergence_artifacts(self, tmp_path, capsys, values, message):
        cfg = write_cfg(tmp_path / "d.cfg", **values, out_dir=tmp_path / "a")
        rc = main(["train", "--config", str(cfg)])
        assert rc == 1
        captured = capsys.readouterr()
        assert message in captured.err
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "done" not in captured.out
        assert (tmp_path / "a" / "model.ckpt.diverged").is_file()
        manifest = parse_manifest((tmp_path / "a" / "manifest.txt").read_text())
        assert any(line.startswith("diverged_at_step=") for line in manifest.final)
        assert not (tmp_path / "a" / "model.ckpt").exists()

    # The five values that passed the parser before the kernel constant C
    # was ranged: 1e308 overflowed C and leaked a RuntimeWarning, 1e150 and
    # 1e17 made every kernel value 1 (reg=0.0), and 1e-300 and 5e-324 left a
    # penalty of order C (reg=-5.7e-300 and -3e-323), a plain auto-encoder.
    @example(latent_dim=2, mmd_scale=1e308)
    @example(latent_dim=2, mmd_scale=1e150)
    @example(latent_dim=2, mmd_scale=1e17)
    @example(latent_dim=2, mmd_scale=1e-300)
    @example(latent_dim=2, mmd_scale=5e-324)
    # the ends of the accepted range, C = 2**-52 and the float below 2**52,
    # and the first value past it
    @example(latent_dim=1, mmd_scale=2.0**-53)
    @example(latent_dim=1, mmd_scale=2.0**51 - 0.5)
    @example(latent_dim=1, mmd_scale=2.0**51)
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        latent_dim=st.integers(1, 4),
        mmd_scale=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_any_mmd_scale_trains_or_is_one_error_line(self, latent_dim, mmd_scale):
        values = {
            **OVERFLOW_CFG, "latent_dim": latent_dim, "steps": 3, "lr": 0.005,
            "regularizer": "mmd", "mmd_scale": repr(mmd_scale),
        }
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = Path(tmp) / "out"
            cfg = write_cfg(Path(tmp) / "mmd.cfg", **values, out_dir=out)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(["train", "--config", str(cfg)])
            assert caught == []  # a warning would print two more stderr lines
            assert not list(Path(tmp).glob("**/*.tmp"))
            c = mmd_scale * 2.0 * latent_dim
            if 2.0**-52 <= c < 2.0**52:
                assert rc == 0 and err.getvalue() == ""
                manifest = parse_manifest((out / "manifest.txt").read_text())
                numbers = [
                    float(token.partition("=")[2])
                    for line in manifest.records + manifest.final
                    for token in line.split()
                ]
                assert numbers and all(math.isfinite(v) for v in numbers)
            else:
                assert rc == 1 and not out.exists()
                assert err.getvalue().splitlines() == [
                    "error: mmd_scale must be in [2**-52, 2**52) once scaled to the kernel "
                    f"constant C = 2 * latent_dim * mmd_scale, got C = {c!r}"
                ]

    def test_diverged_rerun_leaves_none_of_the_earlier_runs_files(self, tmp_path, capsys):
        out = tmp_path / "a"
        first = {k: v for k, v in OVERFLOW_CFG.items() if k != "lr"}
        first.update(steps=4, eval_every=2, out_dir=out)
        assert main(["train", "--config", str(write_cfg(tmp_path / "1.cfg", **first))]) == 0
        assert names_in(out) == [
            "manifest.txt", "model.ckpt", "samples_step000002.csv", "samples_step000004.csv"
        ]
        cfg = write_cfg(tmp_path / "2.cfg", **OVERFLOW_CFG, out_dir=out)
        assert main(["train", "--config", str(cfg)]) == 1
        assert names_in(out) == ["manifest.txt", "model.ckpt.diverged"]
        capsys.readouterr()
        argv = ["sample", "--ckpt", str(out / "model.ckpt"), "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_rerun_leaves_no_earlier_basis_and_keeps_other_files(self, tmp_path, blob_idx):
        out = tmp_path / "a"
        values = dict(SMALL_IMAGE_CFG, data_path=blob_idx, out_dir=out)
        with_eval = write_cfg(tmp_path / "e.cfg", **values, eval_every=4)
        assert main(["train", "--config", str(with_eval)]) == 0
        assert "fid_basis.bin" in names_in(out)
        (out / "notes.txt").write_text("mine\n")
        assert main(["train", "--config", str(write_cfg(tmp_path / "n.cfg", **values))]) == 0
        assert names_in(out) == ["manifest.txt", "model.ckpt", "notes.txt"]
        assert (out / "notes.txt").read_text() == "mine\n"


class TestSample:
    def test_image_grid_dimensions(self, image_run, tmp_path):
        out = tmp_path / "grid.pgm"
        rc = main(
            ["sample", "--ckpt", str(image_run["ckpt"]), "--count", "64",
             "--out", str(out), "--seed", "5"]
        )
        assert rc == 0
        assert read_pgm(out).shape == (224, 224)

    def test_seed_determinism(self, image_run, tmp_path):
        outs = []
        for name in ("a.pgm", "b.pgm"):
            p = tmp_path / name
            main(["sample", "--ckpt", str(image_run["ckpt"]), "--count", "16",
                  "--out", str(p), "--seed", "9"])
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]
        p = tmp_path / "c.pgm"
        main(["sample", "--ckpt", str(image_run["ckpt"]), "--count", "16",
              "--out", str(p), "--seed", "10"])
        assert p.read_bytes() != outs[0]

    def test_zero_decoder_gives_flat_image(self, image_run, tmp_path):
        state = load_checkpoint(image_run["ckpt"])
        for i in range(len(state.model.dec.weights)):
            state.model.dec.weights[i][:] = 0.0
            state.model.dec.biases[i][:] = 0.0
        ckpt = tmp_path / "flat.ckpt"
        save_checkpoint(ckpt, state)
        out = tmp_path / "flat.pgm"
        assert main(["sample", "--ckpt", str(ckpt), "--count", "1",
                     "--out", str(out)]) == 0
        img = read_pgm(out)
        assert img.shape == (28, 28)
        assert np.all(img == 128)  # sigmoid(0) = 0.5

    def test_ring_points_csv(self, ring_run, tmp_path):
        out = tmp_path / "pts.csv"
        assert main(["sample", "--ckpt", str(ring_run["ckpt"]), "--count", "10",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 10
        assert all(len(line.split(",")) == 2 for line in lines)

    def test_nonpositive_count(self, ring_run, tmp_path, capsys):
        rc = main(["sample", "--ckpt", str(ring_run["ckpt"]), "--count", "0",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "count must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_bad_count_reads_no_checkpoint(
        self, image_run, tmp_path, capsys, monkeypatch, count
    ):
        loads = []
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: loads.append(path))
        rc = main(["sample", "--ckpt", str(image_run["ckpt"]), "--count", count,
                   "--out", str(tmp_path / "s.pgm")])
        assert rc == 1 and loads == []
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: count must be positive, got {count}"]
        assert not (tmp_path / "s.pgm").exists()


    def test_count_too_large_to_allocate_is_one_error_line(self, ring_run, tmp_path, capsys):
        # 10**14 two-value codes are 1.6e15 bytes, far above a 2**47-byte
        # address space, so the allocation fails at once and touches no memory
        rc = main(["sample", "--ckpt", str(ring_run["ckpt"]), "--count", str(10**14),
                   "--out", str(tmp_path / "pts.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
        assert not (tmp_path / "pts.csv").exists()

    def test_sigmoid_header_on_ring_run_is_one_error_line(self, ring_run, tmp_path, capsys):
        # a ring run decodes with a linear output; a header that claims a
        # sigmoid would squash every point into (0, 1)
        ckpt = edit_checkpoint_header(
            ring_run["ckpt"], tmp_path / "edited.ckpt",
            lambda m: m.update(output_activation="sigmoid"),
        )
        rc = main(["sample", "--ckpt", str(ckpt), "--count", "10",
                   "--out", str(tmp_path / "pts.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: checkpoint header values")
        assert "output_activation" in err[0]
        assert not (tmp_path / "pts.csv").exists()

    def test_negative_step_is_one_error_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "z.cfg", **{**RING_CFG, "steps": 0}, out_dir=tmp_path / "a")
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = edit_checkpoint_header(
            tmp_path / "a" / "model.ckpt", tmp_path / "edited.ckpt", lambda m: m.update(step=-5)
        )
        capsys.readouterr()
        rc = main(["sample", "--ckpt", str(ckpt), "--count", "4",
                   "--out", str(tmp_path / "pts.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: checkpoint step must be >= 0, got -5"]
        assert not (tmp_path / "pts.csv").exists()


class TestReconstruct:
    def test_ring_csv(self, ring_run, tmp_path, capsys):
        out = tmp_path / "rec.csv"
        rc = main(["reconstruct", "--ckpt", str(ring_run["ckpt"]),
                   "--count", "12", "--out", str(out)])
        assert rc == 0
        assert "recon=" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(lines) == 12
        assert all(len(line.split(",")) == 4 for line in lines)  # x then x_hat

    def test_image_pair_grid(self, image_run, tmp_path):
        out = tmp_path / "pairs.pgm"
        rc = main(["reconstruct", "--ckpt", str(image_run["ckpt"]),
                   "--count", "8", "--out", str(out)])
        assert rc == 0
        # 16 tiles in 2*ceil(sqrt(8)) = 6 columns -> 3 rows of 28 x 28
        assert read_pgm(out).shape == (84, 168)


class TestFid:
    def four_point_sets(self):
        s, t = np.sqrt(1.5), np.sqrt(6.0)
        a = np.array([[s, 0.0], [-s, 0.0], [0.0, t], [0.0, -t]])
        b = np.array([[t, 0.0], [-t, 0.0], [0.0, s], [0.0, -s]]) + 1.0
        return a, b

    def fid_of(self, capsys, fa, fb):
        rc = main(["fid", "--features-a", str(fa), "--features-b", str(fb)])
        assert rc == 0
        out = capsys.readouterr().out
        return float(out.splitlines()[-1].split("=", 1)[1])

    def test_same_file_is_zero(self, tmp_path, capsys):
        p = tmp_path / "f.csv"
        write_points_csv(p, Rng(2).normal(30, 3))
        assert self.fid_of(capsys, p, p) == 0.0

    def test_symmetric_across_argument_order(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a, b = self.four_point_sets()
        write_points_csv(pa, a)
        write_points_csv(pb, b)
        assert self.fid_of(capsys, pa, pb) == self.fid_of(capsys, pb, pa)

    def test_hand_value(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a, b = self.four_point_sets()
        write_points_csv(pa, a)
        write_points_csv(pb, b)
        assert abs(self.fid_of(capsys, pa, pb) - 4.0) < 1e-9

    def test_single_feature_flag_rejected(self, tmp_path, capsys):
        p = tmp_path / "a.csv"
        write_points_csv(p, np.zeros((3, 2)))
        assert main(["fid", "--features-a", str(p)]) == 1
        assert "needs both" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["nan,3", "3,inf", "-inf,1"])
    def test_non_finite_feature_is_one_error_line(self, tmp_path, capsys, row):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        pa.write_text(f"1,2\n{row}\n4,5\n")
        write_points_csv(pb, np.zeros((3, 2)))
        assert main(["fid", "--features-a", str(pa), "--features-b", str(pb)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: feature file {pa} line 2 is not finite: {row!r}"
        ]

    @pytest.mark.parametrize(
        "row, problem",
        [("3,abc", "is not a row of numbers"), ("3", "is not 2 values long")],
    )
    def test_bad_feature_row_is_one_error_line(self, tmp_path, capsys, row, problem):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        pa.write_text(f"1,2\n{row}\n4,5\n")
        write_points_csv(pb, np.zeros((3, 2)))
        assert main(["fid", "--features-a", str(pa), "--features-b", str(pb)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: feature file {pa} line 2 {problem}: {row!r}"
        ]

    @pytest.mark.parametrize("other", ["a.csv", "b.csv"])
    def test_overflowing_features_are_one_error_line(self, tmp_path, capsys, other):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        pa.write_text("1e308,1e308\n-1e308,-1e308\n1e308,-1e308\n")
        write_points_csv(pb, np.zeros((3, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["fid", "--features-a", str(pa), "--features-b", str(tmp_path / other)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: desk-FID is not finite: the feature statistics overflow float64"
        ]

    def test_feature_mode_prints_only_the_score(self, tmp_path, capsys):
        # the features are the user's, so no line claims a feature space
        p = tmp_path / "f.csv"
        write_points_csv(p, Rng(2).normal(30, 3))
        assert main(["fid", "--features-a", str(p), "--features-b", str(p)]) == 0
        assert capsys.readouterr().out == "desk_fid=0.0\n"

    @pytest.mark.parametrize("kind", ["ring", "image"])
    def test_note_names_the_feature_space(self, tmp_path, capsys, blob_idx, kind):
        # image runs score in the pixel-PCA basis, ring runs in raw
        # coordinates; train and fid --ckpt say which
        if kind == "ring":
            values, note = {**RING_CFG, "eval_every": 10}, RAW_NOTE
        else:
            values, note = dict(SMALL_IMAGE_CFG, data_path=blob_idx, eval_every=2), PCA_NOTE
        cfg = write_cfg(tmp_path / "c.cfg", **values, out_dir=tmp_path / "a")
        assert main(["train", "--config", str(cfg)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "desk_fid=" in line]
        assert len(lines) == 2 and all(line.endswith(f"  ({note})") for line in lines)
        assert main(["fid", "--ckpt", str(tmp_path / "a" / "model.ckpt"), "--count", "64"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 and out[0] == f"# {note}" and out[1].startswith("desk_fid=")

    def test_no_inputs_rejected(self, capsys):
        assert main(["fid"]) == 1
        assert "need either" in capsys.readouterr().err

    def test_checkpoint_mode_deterministic(self, image_run, capsys):
        args = ["fid", "--ckpt", str(image_run["ckpt"]), "--count", "64",
                "--seed", "2"]
        assert main(args) == 0
        first = capsys.readouterr().out
        score = float(first.splitlines()[-1].split("=", 1)[1])
        assert score >= 0.0
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert (image_run["out"] / "fid_basis.bin").is_file()

    @pytest.mark.parametrize(
        "header",
        ['[1]', '{"rows": 784}', '{"rows": 784, "cols": 0}', '{"rows": 784.5, "cols": 32}'],
    )
    def test_bad_basis_header_is_one_error_line(self, image_run, tmp_path, capsys, header):
        run = tmp_path / "art"
        shutil.copytree(image_run["out"], run)
        basis = run / "fid_basis.bin"
        magic, _, payload = basis.read_bytes().split(b"\n", 2)
        basis.write_bytes(magic + b"\n" + header.encode() + b"\n" + payload)
        assert main(["fid", "--ckpt", str(run / "model.ckpt"), "--count", "64"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: basis header needs rows and cols as ints > 0, got {header}"]


class TestEvaluationOnlyReads:
    @pytest.fixture(scope="class")
    def unevaluated_run(self, tmp_path_factory):
        # 256 images trained with eval_every = 0: no fid_basis.bin is written
        d = tmp_path_factory.mktemp("unevaluated")
        ds = make_blob_images(Rng(5), 256)
        ip = d / "blobs-images-idx3"
        write_idx_images(ip, ds.examples, ds.image_shape)
        cfg = write_cfg(
            d / "run.cfg", dataset="idx", data_path=ip, limit=256, latent_dim=2,
            enc_hidden="16", dec_hidden="16", batch_size=16, steps=20, seed=4,
            eval_every=0, out_dir=d / "art",
        )
        assert main(["train", "--config", str(cfg)]) == 0
        return {"data": ip, "out": d / "art", "ckpt": d / "art" / "model.ckpt"}

    def test_commands_leave_the_run_directory_as_it_was(
        self, unevaluated_run, tmp_path, capsys
    ):
        art = unevaluated_run["out"]
        ckpt, data = str(unevaluated_run["ckpt"]), str(unevaluated_run["data"])
        before = {p.name: p.read_bytes() for p in art.iterdir()}
        assert "fid_basis.bin" not in before
        fid_256 = ["fid", "--ckpt", ckpt, "--count", "256", "--seed", "2"]
        assert main(fid_256) == 0
        first = capsys.readouterr().out
        for args in (
            ["fid", "--ckpt", ckpt, "--count", "40", "--seed", "2"],
            ["fid", "--ckpt", ckpt, "--data", data, "--count", "40"],
            ["latent", "--ckpt", ckpt, "--out", str(tmp_path / "z.csv")],
            ["reconstruct", "--ckpt", ckpt, "--data", data, "--count", "8",
             "--out", str(tmp_path / "r.pgm")],
            ["sample", "--ckpt", ckpt, "--count", "8", "--out", str(tmp_path / "s.pgm")],
        ):
            assert main(args) == 0
        assert {p.name: p.read_bytes() for p in art.iterdir()} == before
        capsys.readouterr()
        assert main(fid_256) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "args,message",
        [
            (["reconstruct", "--count", "0", "--out", "r.pgm"],
             "count must be positive, got 0"),
            (["fid", "--count", "1"], "count must be at least 2, got 1"),
        ],
        ids=["reconstruct", "fid"],
    )
    def test_bad_count_is_one_error_line(self, unevaluated_run, capsys, args, message):
        ckpt, data = str(unevaluated_run["ckpt"]), str(unevaluated_run["data"])
        assert main([*args, "--ckpt", ckpt, "--data", data]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_fid_on_one_image_names_the_rows_found(self, unevaluated_run, tmp_path, capsys):
        one = tmp_path / "one-images-idx3"
        ds = make_blob_images(Rng(6), 1)
        write_idx_images(one, ds.examples, ds.image_shape)
        ckpt = str(unevaluated_run["ckpt"])
        assert main(["fid", "--ckpt", ckpt, "--data", str(one)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: desk-FID needs at least 2 data rows, found 1"]


    def test_training_data_reads_only_the_rows_used(
        self, unevaluated_run, tmp_path, monkeypatch
    ):
        # without --data, an IDX run's training set is read up to --count
        # rows; latent uses every row
        shapes = []
        load_idx = wwae_data.load_idx

        def spy(*args, **kwargs):
            ds = load_idx(*args, **kwargs)
            shapes.append(ds.examples.shape)
            return ds

        monkeypatch.setattr(wwae_data, "load_idx", spy)
        ckpt = str(unevaluated_run["ckpt"])
        for args in (
            ["reconstruct", "--count", "8", "--out", str(tmp_path / "r.pgm")],
            ["fid", "--count", "40", "--seed", "2"],
            ["latent", "--out", str(tmp_path / "z.csv")],
        ):
            assert main([*args, "--ckpt", ckpt]) == 0
        assert shapes == [(8, 784), (40, 784), (256, 784)]

    @pytest.mark.parametrize(
        "args",
        [["reconstruct", "--out", "r.pgm"], ["fid"]],
        ids=["reconstruct", "fid"],
    )
    def test_data_without_images_is_one_error_line(
        self, unevaluated_run, tmp_path, capsys, args
    ):
        empty = tmp_path / "empty-images-idx3"
        write_idx_images(empty, np.zeros((0, 784)), (28, 28))
        ckpt = str(unevaluated_run["ckpt"])
        assert main([*args, "--ckpt", ckpt, "--data", str(empty)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: IDX file {empty} holds no images"
        ]


# `wwae gradcheck` report of the tiny config of TestGradcheckCmd.test_passes,
# as printed before the probes stopped running a backward pass; the probe
# totals decide every number in it.
GOLDEN_GRADCHECK_LINE = (
    "regularizer=w2_root_product max_rel_err=2.494952e-08 worst=dec.W0[3,0] "
    "checked=78 tol=0.0001 status=pass"
)


class TestGradcheckCmd:
    def test_passes(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "g.cfg",
            dataset="ring", limit=64, latent_dim=2, enc_hidden="6",
            dec_hidden="6", batch_size=8, seed=2,
        )
        assert main(["gradcheck", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == GOLDEN_GRADCHECK_LINE + "\n"

    def test_detects_corruption(self, tmp_path, capsys, monkeypatch):
        corrupt_first_gradient(monkeypatch, 1.0)
        cfg = write_cfg(
            tmp_path / "g.cfg",
            dataset="ring", limit=64, latent_dim=2, enc_hidden="6",
            dec_hidden="6", batch_size=8, seed=2,
        )
        assert main(["gradcheck", "--config", str(cfg)]) == 1
        assert "status=fail" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "kv,message",
        [
            (dict(dataset="ring", limit=8, batch_size=64), "exceeds dataset size 8"),
            (dict(dataset="idx", limit=1, regularizer="kl"), "exceeds dataset size 1"),
        ],
        ids=["ring", "idx-kl"],
    )
    def test_batch_larger_than_dataset_is_one_error_line(
        self, tmp_path, capsys, blob_idx, kv, message
    ):
        # the check used to run quietly on fewer rows than batch_size
        cfg = write_cfg(
            tmp_path / "g.cfg", data_path=blob_idx, enc_hidden="4", dec_hidden="4", **kv
        )
        assert main(["gradcheck", "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: batch_size 64 {message}"]


class TestLatent:
    def test_csv_and_summary(self, ring_run, tmp_path, capsys):
        out = tmp_path / "z.csv"
        rc = main(["latent", "--ckpt", str(ring_run["ckpt"]), "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "latent_mu_norm=" in printed and "latent_cov_dist=" in printed
        lines = out.read_text().splitlines()
        assert lines[0] == "z_1,z_2,label"
        assert len(lines) == 1 + 256  # header + one row per training example

    def test_deterministic(self, ring_run, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            p = tmp_path / name
            main(["latent", "--ckpt", str(ring_run["ckpt"]), "--out", str(p)])
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_checkpoint(self, tmp_path, capsys):
        rc = main(["latent", "--ckpt", str(tmp_path / "no.ckpt"),
                   "--out", str(tmp_path / "z.csv")])
        assert rc == 1
        assert "checkpoint not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            {"enc": 5},
            {"enc": {"widths": [2, "8", 4]}},
            {"image_shape": 5},
            {"step": float("inf")},
        ],
        ids=["enc", "widths", "image_shape", "step"],
    )
    def test_wrong_type_in_header_is_one_error_line(self, ring_run, tmp_path, capsys, edit):
        ckpt = edit_checkpoint_header(
            ring_run["ckpt"], tmp_path / "edited.ckpt", lambda m: m.update(edit)
        )
        rc = main(["latent", "--ckpt", str(ckpt), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: checkpoint")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("seed = 1.5", "checkpoint config: bad value for 'seed'"),
            ("limit = 64.0", "checkpoint config: bad value for 'limit'"),
            ("lambda = nan", "checkpoint config: lambda must be finite"),
            ("enc_hidden = 9", "checkpoint header values do not match"),
        ],
        ids=["seed", "limit", "lambda", "enc_hidden"],
    )
    def test_bad_config_line_in_header_is_one_error_line(
        self, ring_run, tmp_path, capsys, line, message
    ):
        ckpt = edit_checkpoint_header(ring_run["ckpt"], tmp_path / "edited.ckpt", config_line(line))
        rc = main(["latent", "--ckpt", str(ckpt), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not (tmp_path / "x.csv").exists()

    def test_checkpoint_of_older_format_is_one_error_line(self, ring_run, tmp_path, capsys):
        # older checkpoints kept the config as a JSON object
        ckpt = edit_checkpoint_header(
            ring_run["ckpt"], tmp_path / "old.ckpt",
            lambda m: m.update(config=dict(line.split(" = ", 1) for line in m["config"])),
        )
        rc = main(["latent", "--ckpt", str(ckpt), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: checkpoint config must be a list of 'key = value' lines"]
        assert not (tmp_path / "x.csv").exists()

    def test_image_shape_of_other_width_is_one_error_line(self, image_run, tmp_path, capsys):
        # a 28 x 28 run; a (20, 20) grid needs 400-value rows
        ckpt = edit_checkpoint_header(
            image_run["ckpt"], tmp_path / "edited.ckpt", lambda m: m.update(image_shape=[20, 20])
        )
        rc = main(["latent", "--ckpt", str(ckpt), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: checkpoint image_shape [20, 20] does not fit 784-value rows"]
        assert not (tmp_path / "x.csv").exists()

    def test_empty_header_is_one_error_line(self, tmp_path, capsys):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(b"WWAECKPT 1\n{}\n")  # printf 'WWAECKPT 1\n{}\n'
        rc = main(["latent", "--ckpt", str(ckpt), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: checkpoint header lacks")
        assert not (tmp_path / "x.csv").exists()


# A child `wwae` whose files may not grow past this many bytes.
FSIZE_LIMIT = 4096
LIMITED_MAIN = (
    "import resource, sys\n"
    f"resource.setrlimit(resource.RLIMIT_FSIZE, ({FSIZE_LIMIT}, {FSIZE_LIMIT}))\n"
    "from wwae.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


class TestArtifactWrites:
    @pytest.mark.parametrize("command", ["sample", "latent"])
    def test_missing_directory_names_the_given_path(
        self, ring_run, tmp_path, capsys, monkeypatch, command
    ):
        monkeypatch.chdir(tmp_path)
        rc = main([command, "--ckpt", str(ring_run["ckpt"]), "--out", "missing/s.csv"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "missing/s.csv" in err[0] and ".tmp" not in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "run, command, name",
        [
            ("ring_run", ["latent"], "z.csv"),
            ("ring_run", ["sample", "--count", "2000"], "pts.csv"),
            ("image_run", ["sample", "--count", "64"], "grid.pgm"),
        ],
        ids=["latent-csv", "sample-csv", "sample-pgm"],
    )
    def test_failed_write_keeps_the_previous_file(self, request, tmp_path, run, command, name):
        # the write fails partway, past the file size limit; the artifact
        # it would replace keeps its bytes, and no temporary file is left
        out = tmp_path / name
        out.write_bytes(b"previous artifact\n")
        ckpt = request.getfixturevalue(run)["ckpt"]
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(wwae.__file__).parents[1]),
            PYTHONDONTWRITEBYTECODE="1",
        )
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_MAIN, *command, "--ckpt", str(ckpt), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "File too large" in err[0]
        assert out.read_bytes() == b"previous artifact\n"
        assert list(tmp_path.iterdir()) == [out]
