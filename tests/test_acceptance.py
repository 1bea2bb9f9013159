"""The acceptance gate: one test per criterion, each printing a single
pass/fail line with the measured numbers (visible with -s; pytest -v adds
its own PASSED/FAILED line per criterion).

Criteria 6-9 exercise the real command pipeline on a 500-image synthetic
corpus at 1x16x16; the heavy artifacts are built once in module fixtures
and reused.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

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


def _train_and_eval(root, corpus, cfg, task, name, prior):
    """One training arm plus its evaluation report, in its own directory."""
    d = root / name
    ckpt = d / "net.ckpt"
    args = ["train", "--task", task, "--data", str(corpus), "--config", str(cfg)]
    args += ["--pretrained", str(prior)] if prior else ["--no-pretrain"]
    t0 = time.monotonic()
    assert main(args + ["--out", str(ckpt)]) == 0
    train_time = time.monotonic() - t0
    report = d / "report.csv"
    assert main(["eval", "--model", str(ckpt), "--data", str(corpus),
                 "--task", task, "--config", str(d / "resolved.cfg"),
                 "--report", str(report)]) == 0
    return SimpleNamespace(ckpt=ckpt, report=report, log=d / "net.ckpt.log",
                           train_time=train_time)


def _mean_row(report_path):
    last = report_path.read_text().splitlines()[-1].split(",")
    assert last[0] == "MEAN"
    return float(last[2]), float(last[3])  # psnr_input, psnr_output


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("accept")


@pytest.fixture(scope="module")
def corpus(work):
    out = work / "data"
    assert main(["synth-data", "--out", str(out), "--count", "500",
                 "--size", "16", "16", "--seed", str(SEED)]) == 0
    return out


@pytest.fixture(scope="module")
def base_cfg(work):
    p = work / "base.cfg"
    p.write_text(f"seed = {SEED}\n")
    return p


@pytest.fixture(scope="module")
def prior(work, corpus, base_cfg):
    out = work / "prior" / "prior.ckpt"
    assert main(["pretrain", "--data", str(corpus), "--config", str(base_cfg),
                 "--out", str(out)]) == 0
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
        self, work, base_cfg, prior, denoise_arm, inpaint_arm, scratch_arm
    ):
        repeat = work / "repeat"
        corpus2 = repeat / "data"
        assert main(["synth-data", "--out", str(corpus2), "--count", "500",
                     "--size", "16", "16", "--seed", str(SEED)]) == 0
        prior2 = repeat / "prior" / "prior.ckpt"
        assert main(["pretrain", "--data", str(corpus2), "--config", str(base_cfg),
                     "--out", str(prior2)]) == 0
        arms2 = {
            "denoise": _train_and_eval(repeat, corpus2, base_cfg, "denoise",
                                       "denoise", prior2),
            "inpaint": _train_and_eval(repeat, corpus2, base_cfg, "inpaint",
                                       "inpaint", prior2),
            "scratch": _train_and_eval(repeat, corpus2, base_cfg, "inpaint",
                                       "scratch", None),
        }
        firsts = {"denoise": denoise_arm, "inpaint": inpaint_arm,
                  "scratch": scratch_arm}
        same = [prior.read_bytes() == prior2.read_bytes()]
        for name, arm in firsts.items():
            same.append(arm.ckpt.read_bytes() == arms2[name].ckpt.read_bytes())
            same.append(arm.report.read_bytes() == arms2[name].report.read_bytes())
        ok = all(same)
        _report(9, ok, f"prior + 3 checkpoints + 3 reports byte-identical on "
                       f"repeat: {same}")
