"""File formats, config grammar, and the command-line pipeline."""

import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import flowunfold.cli
import flowunfold.io
import flowunfold.train
import flowunfold.unfold
from flowunfold.cli import echo_config, main, parse_config
from flowunfold.diff import ParamStore
from flowunfold.errors import CheckpointError, ConfigError, DataError
from flowunfold.io import (
    load_checkpoint,
    load_dataset,
    load_image,
    restore_into,
    save_checkpoint,
    save_image,
    split_counts,
    synth_blobs,
)
from flowunfold.flow import FlowModel, FlowPlan
from flowunfold.numerics import Prng, derive_seed
from flowunfold.operators import make_measurement, operator_for_task
from flowunfold.train import TrainConfig, psnr
from flowunfold.unfold import UnrolledNet, reconstruct


class TestImageFiles:
    def test_quantization_bound(self, tmp_path):
        x = Prng(0xC1).uniform_array((1, 8, 8)) - 0.5
        p = tmp_path / "a.pgm"
        save_image(p, x)
        assert np.max(np.abs(load_image(p) - x)) <= 1.0 / 510 + 1e-12

    def test_quantized_values_round_trip_exactly(self, tmp_path):
        x = Prng(0xC2).uniform_array((1, 8, 8)) - 0.5
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        save_image(p1, x)
        once = load_image(p1)
        save_image(p2, once)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(load_image(p2), once)

    def test_color_round_trip(self, tmp_path):
        x = Prng(0xC3).uniform_array((3, 4, 6)) - 0.5
        p = tmp_path / "a.ppm"
        save_image(p, x)
        assert p.read_bytes().startswith(b"P6")
        back = load_image(p)
        assert back.shape == (3, 4, 6)
        assert np.max(np.abs(back - x)) <= 1.0 / 510 + 1e-12

    def test_out_of_range_values_clamp(self, tmp_path):
        x = np.array([[[-3.0, 3.0]]])
        p = tmp_path / "a.pgm"
        save_image(p, x)
        assert np.array_equal(load_image(p)[0, 0], [-0.5, 0.5])

    def test_header_comments_are_skipped(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5 # magic\n# a full comment line\n4 4 # dims\n255\n" + bytes(range(16)))
        img = load_image(p)
        assert img.shape == (1, 4, 4)
        assert img[0, 0, 0] == -0.5

    def test_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P3\n2 2\n255\n0 0 0 0")
        with pytest.raises(DataError):
            load_image(p)

    def test_rejects_wide_maxval(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(DataError):
            load_image(p)

    def test_rejects_truncated_raster(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
        with pytest.raises(DataError):
            load_image(p)

    def test_rejects_truncated_header(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5 4 4")
        with pytest.raises(DataError):
            load_image(p)

    @pytest.mark.parametrize("size", [b"-4 -4", b"0 4"])
    def test_rejects_a_non_positive_size(self, tmp_path, size):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(16))
        with pytest.raises(DataError, match="not positive"):
            load_image(p)

    def test_missing_file_names_the_path(self, tmp_path):
        with pytest.raises(DataError, match="nope.pgm"):
            load_image(tmp_path / "nope.pgm")

    def test_save_rejects_odd_channel_count(self, tmp_path):
        with pytest.raises(DataError):
            save_image(tmp_path / "a.pgm", np.zeros((2, 4, 4)))


def _sample_store():
    store = ParamStore()
    store.add("fold0.mu", np.array(0.5))
    store.add("fold0.rho", np.array(-2.302585092994046))
    store.add("w.small", np.array([1e-300, -1e-300, 0.0]))
    store.add("w.block", Prng(0xC4).gauss_array((2, 3, 1)))
    return store


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        store = _sample_store()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, store)
        back = load_checkpoint(p)
        assert list(back) == store.names()
        for param in store:
            assert back[param.name].shape == param.value.shape
            assert np.array_equal(back[param.name], param.value)

    def test_second_save_is_byte_identical(self, tmp_path):
        store = _sample_store()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, store)
        save_checkpoint(p2, store)
        assert p1.read_bytes() == p2.read_bytes()

    def test_a_failed_save_keeps_the_old_checkpoint(self, tmp_path):
        # a write that fails after its first entry (say, a full disk) must
        # leave the previous checkpoint whole and no temporary file behind
        class FailsAfterOneEntry:
            def __len__(self):
                return len(store)

            def __iter__(self):
                yield next(iter(store))
                raise OSError(28, "No space left on device")

        store = _sample_store()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, store)
        old = p.read_bytes()
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(p, FailsAfterOneEntry())
        assert p.read_bytes() == old
        assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]

    def test_rejects_unknown_magic(self, tmp_path):
        p = tmp_path / "a.ckpt"
        p.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p)

    def test_rejects_unknown_version(self, tmp_path):
        p = tmp_path / "a.ckpt"
        p.write_bytes(b"UNFW" + struct.pack("<I", 99) + struct.pack("<Q", 0))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(p)

    def test_rejects_truncated_file(self, tmp_path):
        store = _sample_store()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, store)
        (tmp_path / "t.ckpt").write_bytes(p.read_bytes()[:-4])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "t.ckpt")

    @pytest.mark.parametrize("size", [6, 12])
    def test_rejects_a_short_header(self, tmp_path, size):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, _sample_store())
        p.write_bytes(p.read_bytes()[:size])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(p)

    def test_rejects_a_repeated_entry(self, tmp_path):
        store = ParamStore()
        for name in "abc":
            store.add(name, np.array(1.0))
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, store)
        p.write_bytes(p.read_bytes().replace(b"\x01\x00\x00\x00c", b"\x01\x00\x00\x00a"))
        with pytest.raises(CheckpointError, match="entry a appears twice"):
            load_checkpoint(p)

    def test_missing_file_names_the_path(self, tmp_path):
        with pytest.raises(CheckpointError, match="nope.ckpt"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_rejects_trailing_bytes(self, tmp_path):
        store = _sample_store()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, store)
        p.write_bytes(p.read_bytes() + bytes(8))
        with pytest.raises(CheckpointError, match="8 trailing bytes"):
            load_checkpoint(p)

    @pytest.mark.parametrize("dims", [(2**32, 2**32), (2**64 - 1,)])
    def test_rejects_dims_past_the_index_range(self, tmp_path, dims):
        # a value count past what an array can index is a corrupt file, not
        # an OverflowError
        p = tmp_path / "huge.ckpt"
        p.write_bytes(b"UNFW" + struct.pack("<IQ", 1, 1) + struct.pack("<I", 1) + b"w"
                      + struct.pack(f"<I{len(dims)}Q", len(dims), *dims) + bytes(8))
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            load_checkpoint(p)

    def test_loaded_entries_are_writable_float64(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, _sample_store())
        for value in load_checkpoint(p).values():
            assert value.dtype == np.float64 and value.flags.writeable

    def test_restore_copies_values(self, tmp_path):
        store = _sample_store()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, store)
        entries = load_checkpoint(p)
        target = _sample_store()
        for param in target:
            param.value[...] = 0.0
        restore_into(target, entries)
        for a, b in zip(target, store):
            assert np.array_equal(a.value, b.value)
        entries["fold0.mu"][...] = 9.0  # loaded dict must not alias the store
        assert float(target["fold0.mu"].value) == 0.5

    def test_restore_rejects_name_mismatch(self):
        store = _sample_store()
        with pytest.raises(CheckpointError):
            restore_into(store, {"fold0.mu": np.array(0.5)})

    def test_restore_rejects_shape_mismatch(self):
        store = _sample_store()
        entries = {p.name: p.value.copy() for p in store}
        entries["w.block"] = np.zeros((3, 2, 1))
        with pytest.raises(CheckpointError, match="shape"):
            restore_into(store, entries)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_restore_rejects_non_finite_values(self, bad):
        store = _sample_store()
        before = store.snapshot()
        entries = {p.name: p.value + 1.0 for p in store}
        entries["w.block"][1, 0, 0] = bad
        with pytest.raises(CheckpointError, match="w.block"):
            restore_into(store, entries)
        assert np.array_equal(store.values, before)

    @pytest.mark.parametrize("first, second", [("non-finite", "shape"), ("shape", "non-finite")])
    def test_restore_names_the_first_bad_entry(self, first, second):
        # two faults, in either order: the earlier entry is named, and the
        # store is left as it was
        faults = {"non-finite": lambda v: np.full(v.shape, np.nan),
                  "shape": lambda v: np.zeros(v.size + 1)}
        store = _sample_store()
        before = store.snapshot()
        entries = {p.name: p.value + 1.0 for p in store}
        entries["w.small"] = faults[first](entries["w.small"])  # before w.block
        entries["w.block"] = faults[second](entries["w.block"])
        named = "holds non-finite values" if first == "non-finite" else "shape"
        with pytest.raises(CheckpointError, match=f"entry w.small: {named}"):
            restore_into(store, entries)
        assert np.array_equal(store.values, before)


class TestConfig:
    def test_parse_values_and_comments(self, tmp_path):
        p = tmp_path / "t.cfg"
        p.write_text("# header\ntask = inpaint\n\nK = 4  # folds\nlr = 2e-4\n")
        assert parse_config(p) == TrainConfig(task="inpaint", K=4, lr=2e-4)

    def test_unknown_key_is_an_error(self, tmp_path):
        p = tmp_path / "t.cfg"
        p.write_text("momentum = 0.9\n")
        with pytest.raises(ConfigError, match="momentum"):
            parse_config(p)

    def test_malformed_line_is_an_error(self, tmp_path):
        p = tmp_path / "t.cfg"
        p.write_text("just some words\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_wrong_type_is_an_error(self, tmp_path):
        p = tmp_path / "t.cfg"
        p.write_text("K = three\n")
        with pytest.raises(ConfigError, match="K"):
            parse_config(p)

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("kind", ["directory", "undecodable"])
    def test_unreadable_file_is_an_error(self, tmp_path, kind):
        p = tmp_path / "t.cfg"
        if kind == "directory":
            p.mkdir()
        else:
            p.write_bytes(b"\xff\xfe = 2\n")
        with pytest.raises(ConfigError, match=f"^cannot read config file {re.escape(str(p))}: "):
            parse_config(p)

    def test_repeated_key_is_an_error(self, tmp_path):
        p = tmp_path / "t.cfg"
        p.write_text("K = 2\nlr = 2e-4\n# K = 3\nK = 5\n")
        with pytest.raises(ConfigError, match=r":4: key 'K' is already set on line 1$"):
            parse_config(p)

    def test_noise_default_depends_on_task(self):
        assert TrainConfig(task="denoise").resolved().sigma_n == 0.1
        assert TrainConfig(task="inpaint").resolved().sigma_n == 0.0
        assert TrainConfig(task="denoise", sigma_n=0.25).resolved().sigma_n == 0.25
        assert TrainConfig(task="denoise", sigma_n=0.0).resolved().sigma_n == 0.0

    def test_lr_default_depends_on_image_size(self):
        assert TrainConfig().resolved((1, 16, 16)).lr == 1e-4
        assert TrainConfig().resolved((1, 64, 64)).lr == 1e-5
        assert TrainConfig(lr=3e-3).resolved((1, 16, 16)).lr == 3e-3

    def test_geometry_defaults(self):
        cfg = TrainConfig(sigma_b=1.5).resolved((1, 16, 16))
        assert cfg.mask_w == 5  # ceil(0.3 * 16)
        assert cfg.blur_radius == 5  # ceil(3 * 1.5)

    def test_task_override_wins(self):
        cfg = TrainConfig(task="denoise").resolved(task="deblur")
        assert cfg.task == "deblur"
        assert cfg.sigma_n == 0.0

    def test_echoed_config_is_a_fixed_point(self, tmp_path):
        cfg = TrainConfig(task="inpaint", K=5).resolved((1, 8, 8))
        echo_config(cfg, tmp_path)
        again = parse_config(tmp_path / "resolved.cfg").resolved()
        assert again == cfg

    def test_traincfg_mapping(self, tmp_path):
        # config-file keys are the TrainConfig fields, types included
        p = tmp_path / "t.cfg"
        p.write_text("K = 5\nL = 1\nD = 2\nhidden = 6\n")
        cfg = parse_config(p).resolved((1, 16, 16)).validate()
        assert (cfg.K, cfg.L, cfg.D, cfg.hidden) == (5, 1, 2, 6)
        assert all(type(v) is int for v in (cfg.K, cfg.L, cfg.D, cfg.hidden))
        assert cfg.lr == 1e-4


class TestSynthBlobs:
    def test_shape_and_range(self):
        imgs = synth_blobs(6, (1, 8, 8), seed=1)
        assert imgs.shape == (6, 1, 8, 8)
        assert imgs.min() >= -0.5 and imgs.max() <= 0.5
        # every image spans the full range after rescaling
        assert np.allclose(imgs.reshape(6, -1).min(axis=1), -0.5)
        assert np.allclose(imgs.reshape(6, -1).max(axis=1), 0.5)

    def test_deterministic_and_varied(self):
        a = synth_blobs(4, (1, 8, 8), seed=2)
        b = synth_blobs(4, (1, 8, 8), seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a[0], a[1])

    def test_color_channels_differ(self):
        imgs = synth_blobs(2, (3, 8, 8), seed=3)
        assert not np.array_equal(imgs[0, 0], imgs[0, 1])

    def test_split_counts(self):
        assert split_counts(100) == (80, 10, 10)
        assert split_counts(500) == (400, 50, 50)
        assert split_counts(7) == (5, 0, 2)


class TestDatasetDir:
    def test_synth_command_writes_a_loadable_dataset(self, tmp_path):
        out = tmp_path / "data"
        rc = main(["synth-data", "--out", str(out), "--count", "20",
                   "--size", "8", "8", "--seed", "5"])
        assert rc == 0
        assert (out / "manifest.txt").exists()
        assert (out / "resolved.cfg").exists()
        ds = load_dataset(out)
        assert ds.train.shape == (16, 1, 8, 8)
        assert ds.val.shape == (2, 1, 8, 8)
        assert ds.test.shape == (2, 1, 8, 8)
        assert ds.ids["test"] == [18, 19]

    def test_existing_directory_needs_force(self, tmp_path):
        out = tmp_path / "data"
        args = ["synth-data", "--out", str(out), "--count", "4", "--size", "8", "8"]
        assert main(args) == 0
        assert main(args) == 1
        assert main(args + ["--force"]) == 0

    def test_out_must_be_a_directory(self, tmp_path, capsys):
        out = tmp_path / "data"
        out.write_text("a file\n")
        assert main(["synth-data", "--out", str(out), "--count", "4", "--size", "8", "8"]) == 1
        assert capsys.readouterr().err == f"error: {out} exists and is not a directory\n"
        assert out.read_text() == "a file\n"

    @pytest.mark.parametrize("args", [["--count", "-3"], ["--size", "0", "8"]])
    def test_synth_rejects_bad_sizes(self, tmp_path, args):
        out = tmp_path / "data"
        assert main(["synth-data", "--out", str(out)] + args) == 2
        assert not out.exists()

    def test_synth_is_bitwise_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["synth-data", "--out", str(out), "--count", "4",
                  "--size", "8", "8", "--seed", "9"])
        for name in ("00000.pgm", "00003.pgm", "manifest.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_directory_without_manifest_is_all_test(self, tmp_path):
        for i in range(3):
            save_image(tmp_path / f"{i:05d}.pgm", np.zeros((1, 4, 4)))
        ds = load_dataset(tmp_path)
        assert len(ds.train) == 0 and len(ds.val) == 0
        assert ds.test.shape == (3, 1, 4, 4)

    def test_manifest_errors(self, tmp_path):
        for i in range(3):
            save_image(tmp_path / f"{i:05d}.pgm", np.zeros((1, 4, 4)))
        cases = {
            "what is this": "malformed line",
            "0\tfuture": "unknown split",
            "7\ttrain": "no image file for index 7",
            # one image in two splits would leak test data into training
            "0\ttrain\n1\ttrain\n0\ttest\n2\tval": r":3: index 0 is already listed on line 1$",
        }
        for bad, named in cases.items():
            (tmp_path / "manifest.txt").write_text(bad + "\n")
            with pytest.raises(DataError, match=named):
                load_dataset(tmp_path)

    def test_a_link_to_nothing_is_a_missing_image(self, tmp_path):
        # as Path.exists() has it: index 1's dangling .pgm link is passed
        # over for its .ppm, and index 2 has no image at all
        save_image(tmp_path / "00000.pgm", np.zeros((1, 4, 4)))
        save_image(tmp_path / "00001.ppm", np.zeros((3, 4, 4)))
        for i in (1, 2):
            (tmp_path / f"0000{i}.pgm").symlink_to(tmp_path / "nowhere.pgm")
        (tmp_path / "manifest.txt").write_text("0\ttrain\n1\ttest\n")
        ds = load_dataset(tmp_path)
        assert ds.test.shape == (1, 3, 4, 4) and ds.ids["test"] == [1]
        (tmp_path / "manifest.txt").write_text("0\ttrain\n2\ttest\n")
        with pytest.raises(DataError, match=":2: no image file for index 2"):
            load_dataset(tmp_path)

    def test_mixed_shapes_are_an_error(self, tmp_path):
        save_image(tmp_path / "00000.pgm", np.zeros((1, 4, 4)))
        save_image(tmp_path / "00001.pgm", np.zeros((1, 6, 6)))
        (tmp_path / "manifest.txt").write_text("0\ttest\n1\ttest\n")
        with pytest.raises(DataError):
            load_dataset(tmp_path)

    def test_missing_directory_is_an_error(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path / "nope")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One shared synth -> pretrain -> train run for the command tests."""
    root = tmp_path_factory.mktemp("pipe")
    cfg = root / "toy.cfg"
    cfg.write_text(
        "K = 2\nL = 1\nD = 1\nhidden = 4\nlr = 1e-4\nbatch_size = 16\n"
        "max_epochs = 2\npatience = 5\nseed = 7\n"
    )
    data = root / "data"
    assert main(["synth-data", "--out", str(data), "--count", "40",
                 "--size", "8", "8", "--seed", "7"]) == 0
    prior = root / "prior.ckpt"
    assert main(["pretrain", "--data", str(data), "--config", str(cfg),
                 "--out", str(prior)]) == 0
    net = root / "net.ckpt"
    assert main(["train", "--task", "denoise", "--data", str(data),
                 "--config", str(cfg), "--pretrained", str(prior),
                 "--out", str(net)]) == 0
    return SimpleNamespace(
        root=root, cfg=cfg, data=data, prior=prior, net=net,
        resolved=root / "resolved.cfg",
    )


class TestCommands:
    def test_checkpoints_and_logs_exist(self, pipeline):
        assert load_checkpoint(pipeline.prior)
        entries = load_checkpoint(pipeline.net)
        assert "fold0.mu" in entries and "fold1.rho" in entries
        assert entries["fold0.mu"].shape == ()
        for ckpt in (pipeline.prior, pipeline.net):
            log = ckpt.with_name(ckpt.name + ".log")
            assert len(log.read_text().splitlines()) == 2
        assert pipeline.resolved.exists()

    def test_resolved_config_replays(self, pipeline):
        cfg = parse_config(pipeline.resolved).resolved()
        assert cfg.height == 8 and cfg.width == 8
        assert cfg.task == "denoise"

    def test_train_demands_an_explicit_prior_choice(self, pipeline):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--task", "denoise", "--data", str(pipeline.data),
                  "--config", str(pipeline.cfg), "--out", str(pipeline.root / "x.ckpt")])
        assert exc.value.code == 2

    def test_unknown_task_is_a_usage_error(self, pipeline):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--task", "sharpen", "--data", str(pipeline.data),
                  "--config", str(pipeline.cfg), "--no-pretrain",
                  "--out", str(pipeline.root / "x.ckpt")])
        assert exc.value.code == 2

    def test_no_pretrain_arm_runs(self, pipeline):
        out = pipeline.root / "scratch.ckpt"
        assert main(["train", "--task", "denoise", "--data", str(pipeline.data),
                     "--config", str(pipeline.cfg), "--no-pretrain",
                     "--out", str(out)]) == 0
        assert load_checkpoint(out)

    def test_train_rerun_is_byte_identical(self, pipeline):
        out = pipeline.root / "again.ckpt"
        assert main(["train", "--task", "denoise", "--data", str(pipeline.data),
                     "--config", str(pipeline.cfg), "--pretrained", str(pipeline.prior),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == pipeline.net.read_bytes()

    def test_reconstruct_writes_output_and_init(self, pipeline):
        out = pipeline.root / "recon" / "r.pgm"
        args = ["reconstruct", "--model", str(pipeline.net),
                "--input", str(pipeline.data / "00036.pgm"), "--task", "denoise",
                "--config", str(pipeline.resolved), "--output", str(out),
                "--emit-init", "--measure"]
        assert main(args) == 0
        init = out.with_name("r_init.pgm")
        assert out.exists() and init.exists()
        extras = sorted(p.name for p in out.parent.iterdir())
        assert extras == ["r.pgm", "r_init.pgm", "resolved.cfg"]
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_identity_checkpoint_passes_input_through(self, pipeline):
        # mu = 1 with a unit shrink factor makes each fold copy the
        # measurement, so the output must reproduce the input bytes
        net = UnrolledNet((1, 8, 8), 2, 1, 1, 4)
        for fold in net.folds:
            fold.mu.value[...] = 1.0
            fold.rho.value[...] = -40.0
        ckpt = pipeline.root / "identity.ckpt"
        save_checkpoint(ckpt, net.store)
        src = pipeline.data / "00000.pgm"
        out = pipeline.root / "identity_out.pgm"
        assert main(["reconstruct", "--model", str(ckpt), "--input", str(src),
                     "--task", "denoise", "--config", str(pipeline.resolved),
                     "--output", str(out)]) == 0
        assert out.read_bytes() == src.read_bytes()

    def test_shape_mismatch_names_both_shapes(self, pipeline, capsys):
        big = pipeline.root / "big.pgm"
        save_image(big, np.zeros((1, 16, 16)))
        rc = main(["reconstruct", "--model", str(pipeline.net), "--input", str(big),
                   "--task", "denoise", "--config", str(pipeline.resolved),
                   "--output", str(pipeline.root / "x.pgm")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "(1, 16, 16)" in err and "(1, 8, 8)" in err

    def test_wrong_architecture_checkpoint_is_an_error(self, pipeline, capsys):
        cfg = pipeline.root / "bigger.cfg"
        cfg.write_text(pipeline.resolved.read_text().replace("hidden = 4", "hidden = 6"))
        rc = main(["reconstruct", "--model", str(pipeline.net),
                   "--input", str(pipeline.data / "00000.pgm"), "--task", "denoise",
                   "--config", str(cfg), "--output", str(pipeline.root / "x.pgm")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "(4, 2, 3, 3)" in err and "(6, 2, 3, 3)" in err

    def _eval(self, pipeline, data, tag):
        return main(["eval", "--model", str(pipeline.net), "--data", str(data),
                     "--task", "denoise", "--config", str(pipeline.resolved),
                     "--report", str(pipeline.root / tag / "report.csv")])

    def test_eval_reads_only_the_test_images(self, pipeline, monkeypatch):
        read = []
        monkeypatch.setattr(flowunfold.io, "load_image",
                            lambda path: read.append(path.name) or load_image(path))
        assert self._eval(pipeline, pipeline.data, "test-only") == 0
        lines = (pipeline.data / "manifest.txt").read_text().splitlines()
        test = [f"{int(line.split()[0]):05d}.pgm" for line in lines if line.endswith("\ttest")]
        assert test and read == test

    @pytest.mark.parametrize("line", ["0\ttrain", "99\ttrain", "1\tfuture"])
    def test_eval_still_checks_every_manifest_line(self, pipeline, capsys, line):
        # a repeated index, a missing file and an unknown split, none of them
        # on a test line
        data = pipeline.root / f"bad-manifest-{line.split()[0]}"
        shutil.copytree(pipeline.data, data)
        with open(data / "manifest.txt", "a") as fh:
            fh.write(line + "\n")
        assert self._eval(pipeline, data, f"bad-{line.split()[0]}") == 1
        assert "manifest.txt" in capsys.readouterr().err

    def test_eval_rejects_trailing_bytes(self, pipeline, capsys):
        ckpt = pipeline.root / "padded.ckpt"
        ckpt.write_bytes(pipeline.net.read_bytes() + bytes(8))
        rc = main(["eval", "--model", str(ckpt), "--data", str(pipeline.data),
                   "--task", "denoise", "--config", str(pipeline.resolved),
                   "--report", str(pipeline.root / "padded" / "report.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "trailing bytes" in err and "trained at this size" not in err

    @staticmethod
    def _eval_with_weight(pipeline, tag, weight, name="fold0.level0.step0.invconv.weight"):
        """Run ``eval`` on the trained net with the 1x1 conv weight ``name``
        replaced; returns (exit code, report path)."""
        entries = load_checkpoint(pipeline.net)
        entries[name][...] = weight
        store = ParamStore()
        for name, value in entries.items():
            store.add(name, value)
        ckpt = pipeline.root / f"{tag}.ckpt"
        save_checkpoint(ckpt, store)
        report = pipeline.root / tag / "report.csv"
        rc = main(["eval", "--model", str(ckpt), "--data", str(pipeline.data),
                   "--task", "denoise", "--config", str(pipeline.resolved),
                   "--report", str(report)])
        return rc, report

    def test_eval_rejects_a_nan_parameter(self, pipeline, capsys):
        weight = load_checkpoint(pipeline.net)["fold0.level0.step0.invconv.weight"]
        weight[0, 0] = np.nan
        rc, report = self._eval_with_weight(pipeline, "nan", weight)
        assert rc == 1
        assert "fold0.level0.step0.invconv.weight" in capsys.readouterr().err
        assert not report.exists()

    def test_eval_names_a_singular_layer(self, pipeline, capsys):
        rc, report = self._eval_with_weight(pipeline, "singular", 1.0)
        assert rc == 1
        err = capsys.readouterr().err
        assert "fold0.level0.step0.invconv.weight: matrix of size 4" in err
        assert not report.exists()

    @pytest.mark.parametrize("fold", ["fold0", "fold1"])
    def test_eval_names_an_image_whose_reconstruction_overflows(self, pipeline, capsys, fold):
        # a finite checkpoint whose data step overflows: fold 0's sends inf
        # and nan through the flow, the last fold's (fold 1) gives finite
        # values whose squared error overflows
        rc, report = self._eval_with_weight(pipeline, f"huge-{fold}-mu", 1e300, f"{fold}.mu")
        assert rc == 1
        first = load_dataset(pipeline.data, splits=("test",)).ids["test"][0]
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: test image {first}: ")
        assert not report.exists()

    def test_eval_names_a_singular_layer_of_the_unused_last_fold(self, pipeline, capsys):
        # fold 1 is the K=2 net's last fold, whose flow no reconstruction
        # runs; restoring checks its 1x1 convs all the same
        name = "fold1.level0.step0.invconv.weight"
        rc, report = self._eval_with_weight(pipeline, "singular-last", 1.0, name)
        assert rc == 1
        assert f"{name}: matrix of size 4" in capsys.readouterr().err
        assert not report.exists()

    def test_prior_of_another_shape_names_the_model_shape(self, pipeline, capsys):
        color = pipeline.root / "color"
        assert main(["synth-data", "--out", str(color), "--count", "20",
                     "--size", "8", "8", "--channels", "3", "--seed", "7"]) == 0
        rc = main(["train", "--task", "denoise", "--data", str(color),
                   "--config", str(pipeline.cfg), "--pretrained", str(pipeline.prior),
                   "--out", str(pipeline.root / "color.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "model built for image shape (3, 8, 8)" in err

    @pytest.mark.parametrize("fault", ["nan", "shape"])
    def test_size_hint_only_on_a_mismatch(self, pipeline, capsys, fault):
        # a non-finite entry is a bad file, not a prior trained at another size
        entries = load_checkpoint(pipeline.prior)
        name = "level0.step0.invconv.weight"
        if fault == "nan":
            entries[name][0, 0] = np.nan
        else:
            entries[name] = np.eye(entries[name].shape[0] + 1)
        store = ParamStore()
        for key, value in entries.items():
            store.add(key, value)
        ckpt = pipeline.root / f"{fault}-prior.ckpt"
        save_checkpoint(ckpt, store)
        rc = main(["train", "--task", "denoise", "--data", str(pipeline.data),
                   "--config", str(pipeline.cfg), "--pretrained", str(ckpt),
                   "--out", str(pipeline.root / f"{fault}-net.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert name in err
        assert ("check that the checkpoint was trained at this size" in err) == (fault == "shape")

    def test_eval_report_layout(self, pipeline, capsys):
        report = pipeline.root / "report.csv"
        args = ["eval", "--model", str(pipeline.net), "--data", str(pipeline.data),
                "--task", "denoise", "--config", str(pipeline.resolved),
                "--report", str(report)]
        assert main(args) == 0
        assert "mean PSNR" in capsys.readouterr().out
        lines = report.read_text().splitlines()
        assert lines[0] == "image_id,task,psnr_input,psnr_output"
        assert len(lines) == 4 + 2  # 4 test images + header + mean
        assert lines[-1].startswith("MEAN,denoise,")
        body = [line.split(",") for line in lines[1:-1]]
        mean_in = sum(float(r[2]) for r in body) / len(body)
        assert abs(mean_in - float(lines[-1].split(",")[2])) < 1e-5
        first = report.read_bytes()
        assert main(args) == 0
        assert report.read_bytes() == first

    @pytest.mark.parametrize("size", [6, 12])
    def test_eval_rejects_a_short_header(self, pipeline, capsys, size):
        ckpt = pipeline.root / f"short{size}.ckpt"
        ckpt.write_bytes(pipeline.net.read_bytes()[:size])
        rc = main(["eval", "--model", str(ckpt), "--data", str(pipeline.data),
                   "--task", "denoise", "--config", str(pipeline.resolved),
                   "--report", str(pipeline.root / "short" / "report.csv")])
        assert rc == 1
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "batch_size = -3", "batch_size = 0", "sigma_n = -0.5", "sigma_b = nan",
        "sigma_b = inf", "sigma_b = -inf", "sigma_b = 0", "sigma_n = nan", "lr = inf",
        "scalar_lr = nan", "eps_adam = nan"])
    def test_eval_rejects_an_invalid_config(self, pipeline, line):
        # the line replaces the resolved value of the same key
        key = line.split(" = ")[0]
        kept = [row for row in pipeline.resolved.read_text().splitlines()
                if row.split(" = ")[0] != key]
        cfg = pipeline.root / "invalid.cfg"
        cfg.write_text("\n".join(kept + [line]) + "\n")
        report = pipeline.root / "invalid" / "report.csv"
        rc = main(["eval", "--model", str(pipeline.net), "--data", str(pipeline.data),
                   "--task", "denoise", "--config", str(cfg), "--report", str(report)])
        assert rc == 2
        assert not report.parent.exists()

    def test_eval_needs_a_test_split(self, pipeline, tmp_path):
        save_image(tmp_path / "00000.pgm", np.zeros((1, 8, 8)))
        (tmp_path / "manifest.txt").write_text("0\ttrain\n")
        rc = main(["eval", "--model", str(pipeline.net), "--data", str(tmp_path),
                   "--task", "denoise", "--config", str(pipeline.resolved),
                   "--report", str(tmp_path / "r.csv")])
        assert rc == 1

    @pytest.mark.parametrize("command", [["pretrain"], ["train", "--task", "denoise",
                                                        "--no-pretrain"]])
    def test_training_needs_a_train_split(self, pipeline, tmp_path, capsys, command):
        save_image(tmp_path / "00000.pgm", np.zeros((1, 8, 8)))  # no manifest: all test
        rc = main(command + ["--data", str(tmp_path), "--config", str(pipeline.cfg),
                             "--out", str(tmp_path / "out" / "m.ckpt")])
        assert rc == 1
        assert "empty train split" in capsys.readouterr().err


    def _command(self, pipeline, command):
        out = pipeline.root / "missing-input"
        common = ["--task", "denoise", "--config", str(pipeline.resolved)]
        return {
            "eval": ["eval", "--model", str(pipeline.net), "--data", str(pipeline.data)]
                    + common + ["--report", str(out / "r.csv")],
            "reconstruct": ["reconstruct", "--model", str(pipeline.net),
                            "--input", str(pipeline.data / "00000.pgm")]
                           + common + ["--output", str(out / "r.pgm")],
            "train": ["train", "--data", str(pipeline.data), "--pretrained", str(pipeline.prior)]
                     + common + ["--out", str(out / "m.ckpt")],
        }[command]

    @pytest.mark.parametrize("command, flag", [
        ("eval", "--model"), ("reconstruct", "--model"), ("train", "--pretrained"),
        ("reconstruct", "--input")])
    def test_a_missing_input_file_exits_1(self, pipeline, capsys, command, flag):
        args = self._command(pipeline, command)
        missing = pipeline.root / "nope"
        args[args.index(flag) + 1] = str(missing)
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(missing) in err[0]
        assert not (pipeline.root / "missing-input").exists()

    _OUTPUTS = [("pretrain", "--out"), ("train", "--out"), ("eval", "--report"),
                ("reconstruct", "--output")]

    @pytest.mark.parametrize("command, flag, target", [
        pytest.param(command, flag, target, id=f"{command}-{flag}{suffix}")
        for command, flag in _OUTPUTS
        for target, suffix in (("under a file", ""), ("a directory", "-is-a-directory"))])
    def test_an_output_path_under_a_file_exits_1(self, pipeline, tmp_path, capsys,
                                                 monkeypatch, command, flag, target):
        # found before any work: pretrain and train never start their epochs,
        # and no resolved.cfg is written beside an output that is a directory
        def fit(*args):
            raise AssertionError("training ran before the output path was checked")

        monkeypatch.setattr(flowunfold.train, "_fit", fit)
        blocker = tmp_path / "blocker"
        if target == "under a file":
            blocker.write_text("")
            out = blocker / "out"
        else:
            (blocker / "inside").mkdir(parents=True)
            out = blocker
        if command == "pretrain":
            args = ["pretrain", "--data", str(pipeline.data), "--config", str(pipeline.cfg),
                    "--out", ""]
        else:
            args = self._command(pipeline, command)
        args[args.index(flag) + 1] = str(out)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and str(blocker) in lines[0]
        assert list(tmp_path.iterdir()) == [blocker]
        if target == "a directory":
            assert list(blocker.iterdir()) == [blocker / "inside"]

    def test_console_entry_point_reports_a_missing_model(self, pipeline):
        # the real interpreter entry point, not main() called in-process
        src = str(Path(flowunfold.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        args = self._command(pipeline, "reconstruct")
        args[args.index("--model") + 1] = str(pipeline.root / "nope.ckpt")
        proc = subprocess.run([sys.executable, "-m", "flowunfold.cli"] + args,
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 1
        assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == [
            f"error: cannot read checkpoint {pipeline.root / 'nope.ckpt'}: "
            "No such file or directory"]
        assert "Traceback" not in proc.stderr


def _corpus(root, count=160):
    data = root / "data"
    assert main(["synth-data", "--out", str(data), "--count", str(count),
                 "--size", "16", "16", "--seed", "1"]) == 0
    return data


class TestTrainingReads:
    _COMMANDS = [["pretrain"], ["train", "--task", "inpaint", "--no-pretrain"]]

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_training_reads_only_train_and_val_images(self, tmp_path, monkeypatch, capsys,
                                                      command):
        data = _corpus(tmp_path)
        cfg = tmp_path / "t.cfg"
        cfg.write_text("max_epochs = 1\nK = 2\nL = 1\nD = 1\nhidden = 4\nbatch_size = 64\n")
        read = []
        monkeypatch.setattr(flowunfold.io, "load_image",
                            lambda path: read.append(path.name) or load_image(path))
        args = command + ["--data", str(data), "--config", str(cfg)]
        assert main(args + ["--out", str(tmp_path / "m.ckpt")]) == 0
        n_train, n_val, n_test = split_counts(160)
        assert (n_train, n_val, n_test) == (128, 16, 16)
        assert read == [f"{i:05d}.pgm" for i in range(n_train + n_val)]
        # the test split's manifest lines are still checked
        with open(data / "manifest.txt", "a") as fh:
            fh.write("160 test\n")  # a space, not a tab
        assert main(args + ["--out", str(tmp_path / "bad.ckpt")]) == 1
        assert "manifest.txt:161: malformed line" in capsys.readouterr().err

    def test_no_manifest_reads_no_images_for_training(self, tmp_path, monkeypatch, capsys):
        # without manifest.txt every image is test data, which pretraining
        # never reads: it fails on the empty train split before any file
        data = tmp_path / "data"
        assert main(["synth-data", "--out", str(data), "--count", "20",
                     "--size", "8", "8", "--seed", "1"]) == 0
        (data / "manifest.txt").unlink()
        cfg = tmp_path / "t.cfg"
        cfg.write_text("height = 8\nwidth = 8\nK = 2\nL = 1\nD = 1\nhidden = 4\n")
        read = []
        monkeypatch.setattr(flowunfold.io, "load_image",
                            lambda path: read.append(path.name) or load_image(path))
        capsys.readouterr()
        assert main(["pretrain", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "m.ckpt")]) == 1
        assert "empty train split" in capsys.readouterr().err
        assert read == []


class TestEvalBatching:
    def test_tiled_eval_matches_per_image_reconstructs(self, tmp_path, monkeypatch):
        # one and a half tiles of 16x16 test images at batch_size 16: one
        # reconstruct_batch call that runs in two tiles, each image's PSNR
        # bitwise that of its own reconstruct call
        rows = max(1, flowunfold.unfold.TILE_VALUES // 256)
        count = rows + rows // 2
        data = _corpus(tmp_path, count)
        (data / "manifest.txt").write_text("".join(f"{i}\ttest\n" for i in range(count)))
        shape, arch = (1, 16, 16), (2, 4, 16)
        prior = FlowModel(shape, *arch, ParamStore())
        prior.randomize(Prng(0xE7A), scale=0.05)
        net = UnrolledNet(shape, 3, *arch)
        net.load_pretrained_prior(prior)
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(ckpt, net.store)
        cfg = tmp_path / "t.cfg"
        cfg.write_text("task = deblur\nbatch_size = 16\nheight = 16\nwidth = 16\n")
        batches, tiles, scores = [], [], []
        batch, unroll = UnrolledNet.reconstruct_batch, UnrolledNet._unroll
        monkeypatch.setattr(flowunfold.cli, "psnr",
                            lambda a, b: scores.append(psnr(a, b)) or scores[-1])
        monkeypatch.setattr(UnrolledNet, "reconstruct_batch",
                            lambda self, y, op: batches.append(len(y)) or batch(self, y, op))
        monkeypatch.setattr(UnrolledNet, "_unroll",
                            lambda self, x0, y, op, rec: tiles.append(len(y))
                            or unroll(self, x0, y, op, rec))
        report = tmp_path / "r.csv"
        assert main(["eval", "--model", str(ckpt), "--data", str(data), "--task", "deblur",
                     "--config", str(cfg), "--report", str(report)]) == 0
        assert batches == [count]
        assert len(tiles) == -(-count // rows) > 1 and sum(tiles) == count
        monkeypatch.undo()

        resolved = parse_config(tmp_path / "resolved.cfg")
        op = operator_for_task("deblur", shape, resolved.mask_w, resolved.sigma_b,
                               resolved.blur_radius)
        test = load_dataset(data, splits=("test",)).test
        lines = report.read_text().splitlines()[1:-1]
        assert len(lines) == count
        for i, line in enumerate(lines):
            rng = Prng(derive_seed(resolved.seed, flowunfold.cli._TAG_EVAL, i))
            y = make_measurement(op, test[i], resolved.sigma_n, rng)
            expect = psnr(reconstruct(net, y, op), test[i])
            assert scores[2 * i + 1] == expect  # bitwise, not to the report's 6 places
            assert line == f"{i},deblur,{psnr(y, test[i]):.6f},{expect:.6f}"

    def test_eval_builds_one_plan_per_fold(self, tmp_path, monkeypatch):
        # restoring builds every fold's plan, the unused last fold's too (its
        # singular-weight check); the reconstruction reuses the others'
        data = _corpus(tmp_path, 20)
        shape, arch = (1, 16, 16), (1, 1, 4)
        net = UnrolledNet(shape, 3, *arch)
        for fold in net.folds:
            fold.flow.randomize(Prng(0xE7B), scale=0.05)
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(ckpt, net.store)
        cfg = tmp_path / "t.cfg"
        cfg.write_text("K = 3\nL = 1\nD = 1\nhidden = 4\nheight = 16\nwidth = 16\n")
        builds = []
        init = FlowPlan.__init__
        monkeypatch.setattr(FlowPlan, "__init__",
                            lambda self, flow, weights: builds.append(1)
                            or init(self, flow, weights))
        assert main(["eval", "--model", str(ckpt), "--data", str(data), "--task", "inpaint",
                     "--config", str(cfg), "--report", str(tmp_path / "r.csv")]) == 0
        assert len(builds) == 3


class TestNoiseFloor:
    def test_input_psnr_sits_at_the_analytic_floor(self, tmp_path, capsys):
        # sigma 0.1 noise on peak-1 data: 10 log10(1 / 0.01) = 20 dB, so the
        # psnr_input column must average 20 +- 0.5 over a large test split
        data = tmp_path / "data"
        assert main(["synth-data", "--out", str(data), "--count", "120",
                     "--size", "16", "16", "--seed", "31"]) == 0
        n = 120
        (data / "manifest.txt").write_text(
            "".join(f"{i}\ttest\n" for i in range(n))
        )
        ckpt = tmp_path / "identity.ckpt"
        save_checkpoint(ckpt, UnrolledNet((1, 16, 16), 3, 2, 4, 16).store)
        cfg = tmp_path / "t.cfg"
        cfg.write_text("task = denoise\nheight = 16\nwidth = 16\n")
        report = tmp_path / "r.csv"
        assert main(["eval", "--model", str(ckpt), "--data", str(data),
                     "--task", "denoise", "--config", str(cfg),
                     "--report", str(report)]) == 0
        mean_line = report.read_text().splitlines()[-1].split(",")
        psnr_in = float(mean_line[2])
        assert abs(psnr_in - 20.0) < 0.5
        assert len(report.read_text().splitlines()) == n + 2


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        for name in ("flow-round-trip", "logdet-vs-jacobian", "operator-adjoints",
                     "prox-grid-oracle", "landweber-equivalence",
                     "end-to-end-gradients", "adam-recurrence"):
            assert f"PASS {name}" in out
        assert "FAIL" not in out

    def test_overtight_gradient_tolerance_fails(self, capsys):
        assert main(["selftest", "--tol-grad", "1e-12"]) == 1
        out = capsys.readouterr().out
        assert "FAIL end-to-end-gradients" in out

    def test_zero_inversion_tolerance_fails(self, capsys):
        assert main(["selftest", "--tol-inv", "0"]) == 1
        assert "FAIL flow-round-trip" in capsys.readouterr().out
