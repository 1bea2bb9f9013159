"""The acceptance gate: one test per criterion, each printing a single
pass/fail line with the measured numbers (visible with -s; pytest -v adds
its own PASSED/FAILED line per criterion).

Criteria 6-9 exercise the real command pipeline on a 500-image synthetic
corpus at 1x16x16; the heavy artifacts are built once in module fixtures
and reused.  Criterion 9's repeat of that pipeline runs in a child process,
started with the module's first heavy fixture, so on a host with two or
more CPUs it runs beside the module's own pipeline; the criterion then
compares the two processes' artifacts byte for byte.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import flowunfold
from flowunfold import checks
from flowunfold.cli import main
from flowunfold.io import load_checkpoint, load_dataset, restore_into, save_checkpoint
from flowunfold.operators import operator_for_task
from flowunfold.unfold import UnrolledNet

SEED = 42
ARCH = dict(folds=3, levels=2, depth=4, hidden=16)
SHAPE = (1, 16, 16)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# -- fast property criteria: the checks `flowunfold selftest` runs -----------------


class TestCriterion1Invertibility:
    def test_round_trip_both_directions(self):
        t0 = time.monotonic()
        ok, detail = checks.flow_round_trip()
        dt = time.monotonic() - t0
        _report(1, ok and dt < 5.0, f"{detail} in {dt:.2f}s")


class TestCriterion2ExactLikelihood:
    def test_logdet_matches_jacobian(self):
        t0 = time.monotonic()
        ok, detail = checks.logdet_vs_jacobian()
        dt = time.monotonic() - t0
        _report(2, ok and dt < 30.0, f"{detail} in {dt:.2f}s")


class TestCriterion3GradientFidelity:
    def test_likelihood_and_end_to_end_gradients(self):
        t0 = time.monotonic()
        ok, detail = checks.gradients()
        dt = time.monotonic() - t0
        _report(3, ok and dt < 120.0, f"{detail} in {dt:.1f}s")


class TestCriterion4OperatorCorrectness:
    def test_adjoints_symmetry_idempotence(self):
        _report(4, *checks.operator_adjoints())


class TestCriterion5PipelineReduction:
    def test_identity_flows_match_landweber(self):
        _report(5, *checks.landweber_equivalence())


# -- trained-pipeline criteria --------------------------------------------------------


# (task, name, from the prior) of each training arm
ARMS = (("denoise", "denoise", True), ("inpaint", "inpaint", True),
        ("inpaint", "scratch", False))


def _synth_args(out):
    return ["synth-data", "--out", str(out), "--count", "500",
            "--size", "16", "16", "--seed", str(SEED)]


def _pretrain_args(corpus, cfg, out):
    return ["pretrain", "--data", str(corpus), "--config", str(cfg), "--out", str(out)]


def _arm_args(root, corpus, cfg, task, name, prior):
    """The train and eval commands of one arm, in its own directory."""
    d = root / name
    train = ["train", "--task", task, "--data", str(corpus), "--config", str(cfg)]
    train += ["--pretrained", str(prior)] if prior else ["--no-pretrain"]
    train += ["--out", str(d / "net.ckpt")]
    evaluate = ["eval", "--model", str(d / "net.ckpt"), "--data", str(corpus),
                "--task", task, "--config", str(d / "resolved.cfg"),
                "--report", str(d / "report.csv")]
    return train, evaluate


def _arm_files(root, name):
    d = root / name
    return SimpleNamespace(ckpt=d / "net.ckpt", report=d / "report.csv", log=d / "net.ckpt.log")


def _train_and_eval(root, corpus, cfg, task, name, prior):
    """One training arm plus its evaluation report, in its own directory."""
    train, evaluate = _arm_args(root, corpus, cfg, task, name, prior)
    t0 = time.monotonic()
    assert main(train) == 0
    train_time = time.monotonic() - t0
    assert main(evaluate) == 0
    return SimpleNamespace(**vars(_arm_files(root, name)), train_time=train_time)


# runs each command line of argv[1] (a JSON list) through the CLI entry point
# and stops at the first that fails, with its exit status
_RUN_COMMANDS = """
import json, sys
from flowunfold.cli import main
for argv in json.loads(sys.argv[1]):
    status = main(argv)
    if status != 0:
        sys.exit(f"command {argv[0]} exited {status}: {' '.join(argv)}")
"""


def _mean_row(report_path):
    last = report_path.read_text().splitlines()[-1].split(",")
    assert last[0] == "MEAN"
    return float(last[2]), float(last[3])  # psnr_input, psnr_output


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("accept")


@pytest.fixture(scope="module")
def base_cfg(work):
    p = work / "base.cfg"
    p.write_text(f"seed = {SEED}\n")
    return p


@pytest.fixture(scope="module")
def repeat(work, base_cfg):
    """Criterion 9's repeat pipeline in a child process: synth-data,
    pretrain and the three arms again, under ``work/repeat``.  Its output
    goes to files there, so a full pipe never stalls it.  Teardown ends it
    if it is still running, as when criterion 9 is deselected."""
    root = work / "repeat"
    root.mkdir()
    corpus, prior = root / "data", root / "prior" / "prior.ckpt"
    commands = [_synth_args(corpus), _pretrain_args(corpus, base_cfg, prior)]
    for task, name, pretrained in ARMS:
        commands += _arm_args(root, corpus, base_cfg, task, name,
                              prior if pretrained else None)
    src = str(Path(flowunfold.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    with open(root / "stdout.txt", "w") as out, open(root / "stderr.txt", "w") as err:
        proc = subprocess.Popen([sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands)],
                                stdout=out, stderr=err, env=env)
    try:
        yield SimpleNamespace(proc=proc, root=root, prior=prior, stderr=root / "stderr.txt")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=60)


@pytest.fixture(scope="module")
def corpus(work, repeat):
    # requests the repeat pipeline first, so it runs beside everything below
    out = work / "data"
    assert main(_synth_args(out)) == 0
    return out


@pytest.fixture(scope="module")
def prior(work, corpus, base_cfg):
    out = work / "prior" / "prior.ckpt"
    assert main(_pretrain_args(corpus, base_cfg, out)) == 0
    return out


@pytest.fixture(scope="module")
def denoise_arm(work, corpus, base_cfg, prior):
    return _train_and_eval(work, corpus, base_cfg, "denoise", "denoise", prior)


@pytest.fixture(scope="module")
def inpaint_arm(work, corpus, base_cfg, prior):
    return _train_and_eval(work, corpus, base_cfg, "inpaint", "inpaint", prior)


@pytest.fixture(scope="module")
def scratch_arm(work, corpus, base_cfg, prior):
    return _train_and_eval(work, corpus, base_cfg, "inpaint", "scratch", None)


class TestCriterion6ToyDenoising:
    def test_trained_net_beats_noisy_input_and_identity_net(
        self, work, corpus, denoise_arm
    ):
        psnr_in, psnr_out = _mean_row(denoise_arm.report)

        ident_dir = work / "identity"
        ident_dir.mkdir(exist_ok=True)
        ident_ckpt = ident_dir / "net.ckpt"
        save_checkpoint(ident_ckpt, UnrolledNet(SHAPE, **ARCH).store)
        ident_report = ident_dir / "report.csv"
        assert main(["eval", "--model", str(ident_ckpt), "--data", str(corpus),
                     "--task", "denoise",
                     "--config", str(work / "denoise" / "resolved.cfg"),
                     "--report", str(ident_report)]) == 0
        _, psnr_ident = _mean_row(ident_report)

        epochs = len(denoise_arm.log.read_text().splitlines())
        ok = (
            psnr_out >= psnr_in + 2.0
            and psnr_out >= psnr_ident + 1.0
            and epochs <= 30
            and denoise_arm.train_time < 600.0
        )
        _report(6, ok, f"denoise PSNR {psnr_out:.2f} dB vs noisy {psnr_in:.2f} dB "
                       f"and untrained identity net {psnr_ident:.2f} dB, "
                       f"{epochs} epochs in {denoise_arm.train_time:.0f}s")


class TestCriterion7ToyInpainting:
    def test_masked_region_beats_mean_fill(self, corpus, inpaint_arm):
        ds = load_dataset(corpus)
        net = UnrolledNet(SHAPE, **ARCH)
        restore_into(net.store, load_checkpoint(inpaint_arm.ckpt))
        op = operator_for_task("inpaint", SHAPE)  # default 5x5 center mask
        hole = op.apply(np.ones(SHAPE)) == 0
        assert int(hole.sum()) == 25

        mse_net, mse_fill = [], []
        for x in ds.test:
            y = op.apply(x)
            x_hat = net.reconstruct_batch(y[None], op)[0]
            fill = y.copy()
            fill[hole] = y[~hole].mean()
            mse_net.append(float(((x_hat - x)[hole] ** 2).mean()))
            mse_fill.append(float(((fill - x)[hole] ** 2).mean()))
        ratio = np.mean(mse_net) / np.mean(mse_fill)
        ok = ratio < 0.5 and inpaint_arm.train_time < 600.0
        _report(7, ok, f"masked-region MSE {np.mean(mse_net):.2e} vs mean-fill "
                       f"{np.mean(mse_fill):.2e} (ratio {ratio:.3f}) "
                       f"in {inpaint_arm.train_time:.0f}s")


class TestCriterion8PretrainingAblation:
    def test_pretrained_arm_holds_up(self, inpaint_arm, scratch_arm):
        _, psnr_pre = _mean_row(inpaint_arm.report)
        _, psnr_scratch = _mean_row(scratch_arm.report)
        ok = psnr_pre >= psnr_scratch - 0.1
        _report(8, ok, f"inpainting with pretraining {psnr_pre:.2f} dB, "
                       f"from scratch {psnr_scratch:.2f} dB (both emitted in "
                       f"{inpaint_arm.report.name} / {scratch_arm.report.name})")


class TestCriterion9Determinism:
    def test_repeat_runs_are_bitwise_identical(
        self, repeat, prior, denoise_arm, inpaint_arm, scratch_arm
    ):
        try:
            status = repeat.proc.wait(timeout=900)
        except subprocess.TimeoutExpired:
            status = "still running after 900 s"
        assert status == 0, (f"repeat pipeline: exit {status}, stderr:\n"
                             f"{repeat.stderr.read_text()}")
        firsts = {"denoise": denoise_arm, "inpaint": inpaint_arm,
                  "scratch": scratch_arm}
        same = [prior.read_bytes() == repeat.prior.read_bytes()]
        for name, arm in firsts.items():
            again = _arm_files(repeat.root, name)
            same.append(arm.ckpt.read_bytes() == again.ckpt.read_bytes())
            same.append(arm.report.read_bytes() == again.report.read_bytes())
        ok = all(same)
        _report(9, ok, f"prior + 3 checkpoints + 3 reports byte-identical on "
                       f"repeat: {same}")
