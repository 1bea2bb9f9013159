"""The workloads: their set-up, their timed rounds and their checks.

A workload drives flowunfold only through ``flowunfold.cli.main`` and through
``flowunfold.reconstruct`` on a net restored from ``cli.load_checkpoint``.
Every program function is looked up on its module at call time, so the
traced pass sees the calls the benchmark makes.

Each run of a workload is: ``prepare``; ``setup_rep`` several times;
``finish_setup``; whole ``round``s until the run's seconds are spent; then
``check``.  Command times, latencies and throughputs go into ``samples``.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks

SHAPE16 = (1, 16, 16)
SHAPE64 = (1, 64, 64)
FOLDS, LEVELS, DEPTH, HIDDEN = 3, 2, 4, 16
BATCH = 16
# 128 train, 16 val and 16 test images: one fine-tune epoch takes about 1.5 s,
# so a run holds many short commands and many bursts of single reconstructs
# between them, and its medians average over the host's fast and slow spells
# instead of landing in one of them
CORPUS = 160
SETUP_REPS = 5  # setup_s takes the median over these repetitions
SINGLES_PER_BURST = 25
MIN_SINGLE_CALLS = 100  # behind the latency percentiles, so >= 10 lie above p90


class Ops:
    """Counts attempted and failed operations; a failed check is a failed
    operation, and so is a command that raises or exits non-zero."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc()
            return None

    def check(self, what, fn, *args):
        self.attempted += 1
        try:
            ok, detail = fn(*args)
        except Exception:
            ok, detail = False, traceback.format_exc()
        if not ok:
            self.failed += 1
            print(f"check failed: {what}: {detail}", file=sys.stderr)


def write_config(path: Path, **keys) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


class Workload:
    name = ""
    task = ""
    # sample keys whose times are reported unscaled by the host-speed probe
    # (see run.Probe): work on large arrays barely slows in the host's
    # slow state, so the probe, made of small calls, would over-correct it
    unscaled: tuple = ()
    # epoch counts of the `pretrain` and `train` commands; patience equals the
    # epoch count, so early stopping never shortens a command
    pretrain_epochs = 0
    finetune_epochs = 0
    finetune_keys: dict = {}
    evals_per_round = 1

    def __init__(self, fu, work: Path, seed: int, ops: Ops):
        self.fu = fu
        self.work = work
        self.seed = seed
        self.ops = ops
        # key -> [(group, ...)]; the runner sets `group` to one value per
        # set-up repetition and per round
        self.samples: dict[str, list] = defaultdict(list)
        self.group = 0
        self.data = work / "data"
        self.prior = work / "prior" / "prior.ckpt"
        self.net_ckpt = work / "net" / "net.ckpt"
        self.reports: list[str] = []
        self.single_outputs: dict[int, np.ndarray] = {}
        self.calls = 0

    # -- the program's surface ----------------------------------------------------

    def command(self, *args) -> float:
        """Run one CLI command in-process; returns its wall time in seconds."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = self.fu.cli.main([str(a) for a in args])
            dt = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"{args[0]} exited with {code}: {out.getvalue()}")
        return dt

    def load_net(self, shape):
        cli = self.fu.cli
        net = self.fu.UnrolledNet(shape, FOLDS, LEVELS, DEPTH, HIDDEN)
        cli.restore_into(net.store, cli.load_checkpoint(self.net_ckpt))
        for fold in net.folds:
            fold.flow.mark_initialized()
        return net

    def load_prior(self):
        cli = self.fu.cli
        flow = self.fu.FlowModel(SHAPE16, LEVELS, DEPTH, HIDDEN, self.fu.diff.ParamStore())
        cli.restore_into(flow.store, cli.load_checkpoint(self.prior))
        flow.mark_initialized()
        return flow

    def operator(self, shape):
        return self.fu.operator_for_task(self.task, shape)

    @staticmethod
    def measurements(op, images):
        """What `eval` synthesises: inpainting and deblurring default to
        sigma_n = 0, so each measurement is exactly A x."""
        return np.stack([op.apply(x) for x in images])

    # -- shared steps -----------------------------------------------------------------

    def prepare(self) -> None:
        self.work.mkdir(parents=True)
        self.pretrain_cfg = write_config(
            self.work / "pretrain.cfg", seed=self.seed,
            max_epochs=self.pretrain_epochs, patience=self.pretrain_epochs)
        self.finetune_cfg = write_config(
            self.work / "finetune.cfg", seed=self.seed,
            max_epochs=self.finetune_epochs, patience=self.finetune_epochs,
            **self.finetune_keys)

    def synth(self) -> None:
        self.ops.run("synth-data", self.command, "synth-data", "--out", self.data,
                     "--count", CORPUS, "--size", 16, 16, "--seed", self.seed, "--force")

    def read_split(self):
        """(train count, test ids, test images) from the manifest and PGM files."""
        lines = (self.data / "manifest.txt").read_text().splitlines()
        pairs = [line.split("\t") for line in lines if line]
        n_train = sum(split == "train" for _, split in pairs)
        ids = [int(i) for i, split in pairs if split == "test"]
        images = np.stack([checks.pixels_to_image(checks.read_pgm(self.data / f"{i:05d}.pgm"))
                           for i in ids])
        return n_train, ids, images

    def pretrain(self) -> None:
        dt = self.ops.run("pretrain", self.command, "pretrain", "--data", self.data,
                          "--config", self.pretrain_cfg, "--out", self.prior)
        if dt is not None:
            self.samples["pretrain"].append((self.group, self.n_train * self.pretrain_epochs, dt))

    def finetune(self) -> None:
        dt = self.ops.run("train", self.command, "train", "--task", self.task,
                          "--data", self.data, "--config", self.finetune_cfg,
                          "--pretrained", self.prior, "--out", self.net_ckpt)
        if dt is not None:
            self.samples["finetune"].append((self.group, self.n_train * self.finetune_epochs, dt))

    def evaluate(self, data: Path, config: Path, count: int) -> None:
        """`evals_per_round` identical `eval` commands; every report is kept."""
        report = self.work / "eval" / "report.csv"
        for _ in range(self.evals_per_round):
            dt = self.ops.run("eval", self.command, "eval", "--model", self.net_ckpt,
                              "--data", data, "--task", self.task, "--config", config,
                              "--report", report)
            if dt is not None:
                self.samples["eval"].append((self.group, count, dt))
                self.reports.append(report.read_text())

    def singles(self, net, op, measurements) -> None:
        """Closed loop, one caller: each reconstruct starts when the last ends.
        Calls cycle through the measurements across rounds."""
        reconstruct = self.fu.reconstruct
        latencies = self.samples["recon_ms"]
        for _ in range(SINGLES_PER_BURST):
            i = self.calls % len(measurements)
            self.calls += 1
            t0 = time.perf_counter_ns()
            x_hat = self.ops.run("reconstruct", reconstruct, net, measurements[i], op)
            latencies.append((self.group, (time.perf_counter_ns() - t0) / 1e6))
            self.single_outputs[i] = x_hat

    # -- checks ---------------------------------------------------------------------------

    def batched(self, net, op, measurements):
        return np.concatenate([net.reconstruct_batch(measurements[s : s + BATCH], op)
                               for s in range(0, len(measurements), BATCH)])

    def check_reports(self, ids, measurements, outputs, truth) -> None:
        """Every `eval` report against PSNRs recomputed here; sets eval_psnr_db."""
        p_in = [checks.psnr_db(y, x) for y, x in zip(measurements, truth)]
        p_out = [checks.psnr_db(x_hat, x) for x_hat, x in zip(outputs, truth)]
        self.psnr_in, self.psnr_out = float(np.mean(p_in)), float(np.mean(p_out))
        expect = [(str(i), a, b) for i, a, b in zip(ids, p_in, p_out)]
        expect.append(("MEAN", self.psnr_in, self.psnr_out))

        def compare(text):
            rows = [line.split(",") for line in text.splitlines()[1:]]
            if [r[0] for r in rows] != [e[0] for e in expect]:
                return False, "report rows do not match the test ids"
            worst = max(max(abs(float(r[2]) - e[1]), abs(float(r[3]) - e[2]))
                        for r, e in zip(rows, expect))
            return worst <= 1e-6, f"worst PSNR gap {worst:.3g} dB"

        for text in self.reports:
            self.ops.check("eval report PSNR", compare, text)

    def check_beats_measurement(self) -> None:
        self.ops.check("output beats measurement",
                       lambda: (self.psnr_out > self.psnr_in,
                                f"output {self.psnr_out:.3f} dB vs input {self.psnr_in:.3f} dB"))

    def check_round_trip(self, net, outputs) -> None:
        def run():
            worst = 0.0
            for fold in net.folds:
                z, _, _ = fold.flow.forward_batch(outputs)
                back, _ = fold.flow.inverse_batch(z)
                worst = max(worst, float(np.max(np.abs(back - outputs))))
            return worst < 1e-8, f"worst round-trip error {worst:.3g}"
        self.ops.check("flow round trip", run)

    def check_checkpoint(self, path: Path, store) -> None:
        """Load, restore, save again: same values, same bytes, as parsed here."""
        def run():
            cli = self.fu.cli
            reference = checks.read_checkpoint(path)
            loaded = cli.load_checkpoint(path)
            if list(loaded) != list(reference):
                return False, "entry names or order differ"
            if not all(checks.same_bits(loaded[k], reference[k]) for k in reference):
                return False, "load_checkpoint changed a value"
            cli.restore_into(store, loaded)
            again = path.with_suffix(".again")
            cli.save_checkpoint(again, store)
            resaved = checks.read_checkpoint(again)
            same = all(checks.same_bits(resaved[k], reference[k]) for k in reference)
            return same and again.read_bytes() == path.read_bytes(), "saved again"
        self.ops.check(f"checkpoint {path.name} round trip", run)

    def check_checkpoints(self, shape) -> None:
        fu = self.fu
        self.check_checkpoint(self.prior, fu.FlowModel(
            SHAPE16, LEVELS, DEPTH, HIDDEN, fu.diff.ParamStore()).store)
        self.check_checkpoint(self.net_ckpt, fu.UnrolledNet(
            shape, FOLDS, LEVELS, DEPTH, HIDDEN).store)

    def check_singles(self, batched) -> None:
        def run():
            worst = max(float(np.max(np.abs(x_hat - batched[i])))
                        for i, x_hat in self.single_outputs.items())
            return worst <= 1e-10, f"single vs batched differ by {worst:.3g}"
        self.ops.check("single-image vs batched", run)

    def check_landweber(self, shape, reference_op, y) -> None:
        """Identity flows plus the trained mu_k, rho_k reduce the net to
        Landweber iteration with shrinkage."""
        def run():
            fu = self.fu
            trained = checks.read_checkpoint(self.net_ckpt)
            mus = [float(trained[f"fold{k}.mu"]) for k in range(FOLDS)]
            rhos = [float(trained[f"fold{k}.rho"]) for k in range(FOLDS)]
            net = fu.UnrolledNet(shape, FOLDS, LEVELS, DEPTH, HIDDEN)
            for fold, mu, rho in zip(net.folds, mus, rhos):
                fold.mu.value[...] = mu
                fold.rho.value[...] = rho
            got = fu.reconstruct(net, y, self.operator(shape))
            err = float(np.max(np.abs(got - checks.landweber(y, reference_op, mus, rhos))))
            return err <= 1e-10, f"identity-flow net vs Landweber differ by {err:.3g}"
        self.ops.check(f"Landweber at {shape}", run)

    def check_logdet(self, image) -> None:
        """The prior's log-det against log|det| of a central-difference Jacobian."""
        def run():
            flow = self.load_prior()
            x = image[None]
            _, logdet, _ = flow.forward_batch(x)
            jac = checks.fd_jacobian(lambda batch: flow.forward_batch(batch)[0], x)
            _, numeric = np.linalg.slogdet(jac)
            err = abs(float(logdet[0]) - numeric)
            return err <= 1e-6, f"analytic {float(logdet[0]):.9f} vs numeric {numeric:.9f}"
        self.ops.check("prior log-det vs Jacobian", run)


class TrainInpaint16(Workload):
    """Set-up synthesises the corpus.  A round pretrains the prior, serves the
    previous round's net, fine-tunes the inpainting net from the new prior
    and serves that net; each round trains the same net again.  Serving is
    two `eval` commands and 25 single reconstructs."""

    name = "train-inpaint-16"
    task = "inpaint"
    pretrain_epochs = 4
    finetune_epochs = 1
    evals_per_round = 2

    def setup_rep(self) -> None:
        self.synth()

    def finish_setup(self) -> None:
        self.n_train, self.ids, self.truth = self.read_split()
        self.op = self.operator(SHAPE16)
        self.y = self.measurements(self.op, self.truth)
        self.net = None

    def serve(self) -> None:
        self.evaluate(self.data, self.net_ckpt.parent / "resolved.cfg", len(self.ids))
        self.singles(self.net, self.op, self.y)

    def round(self) -> None:
        self.pretrain()
        if self.net is not None:
            self.serve()
        self.finetune()
        self.net = self.ops.run("load net", self.load_net, SHAPE16)
        self.serve()

    def check(self) -> None:
        # The round trip catches a fine-tune that diverged (CHANGES.md,
        # FOUND).  The net is not checked against its measurement or a
        # mean-fill of the hole: after one epoch it beats them on some seeds
        # only, so the share of failed checks would depend on the seed.
        outputs = self.batched(self.net, self.op, self.y)
        self.check_reports(self.ids, self.y, outputs, self.truth)
        self.check_round_trip(self.net, outputs)
        self.check_checkpoints(SHAPE16)
        self.check_singles(outputs)
        self.check_landweber(SHAPE16, checks.Masking(16, 16), self.y[0])
        self.check_logdet(self.truth[0])


class EvalDeblur64(Workload):
    """Set-up synthesises the corpus, pretrains a prior for 2 epochs,
    fine-tunes a deblurring net from it for 2 and tiles each of the 16 test
    images 4x4 into a 64x64 image.  A round is 25
    single reconstructs at 16x16 and one `eval` of the 16 tilings at batch
    16, so both spread over the whole run.

    The raised scalar step size lets the 16 fine-tune steps move mu_k and
    lambda_k far enough for the net to beat its measurements.  The net is
    trained at 16x16; on tilings its 64x64 output must be the tiling of its
    16x16 output, because every layer and the blur are circular and 16 is a
    multiple of the squeeze factor 2^levels."""

    name = "eval-deblur-64"
    task = "deblur"
    unscaled = ("eval",)
    pretrain_epochs = 2
    finetune_epochs = 2
    finetune_keys = {"scalar_lr": 0.05}

    def setup_rep(self) -> None:
        self.synth()
        self.n_train, self.ids, self.truth = self.read_split()
        self.pretrain()
        self.finetune()
        self.tiles = self.work / "tiles"
        self.tiles.mkdir(exist_ok=True)
        for n, i in enumerate(self.ids):
            pixels = checks.read_pgm(self.data / f"{i:05d}.pgm")
            checks.write_pgm(self.tiles / f"{n:05d}.pgm", np.tile(pixels, (4, 4)))

    def finish_setup(self) -> None:
        self.op = self.operator(SHAPE16)
        self.y = self.measurements(self.op, self.truth)
        self.net = self.load_net(SHAPE16)
        self.eval_cfg = write_config(self.work / "eval64.cfg", seed=self.seed,
                                     height=64, width=64, batch_size=BATCH)

    def round(self) -> None:
        self.singles(self.net, self.op, self.y)
        self.evaluate(self.tiles, self.eval_cfg, len(self.ids))

    def check(self) -> None:
        op64 = self.operator(SHAPE64)
        net64 = self.load_net(SHAPE64)
        count = len(self.ids)
        truth64 = np.stack([checks.pixels_to_image(checks.read_pgm(self.tiles / f"{n:05d}.pgm"))
                            for n in range(count)])
        y64 = self.measurements(op64, truth64)
        outputs64 = self.batched(net64, op64, y64)
        self.check_reports(list(range(count)), y64, outputs64, truth64)
        self.check_beats_measurement()
        self.check_round_trip(net64, outputs64)
        self.check_checkpoints(SHAPE64)
        self.check_singles(self.batched(self.net, self.op, self.y))

        def tiling():
            small = np.stack([self.single_outputs[i] for i in range(count)])
            err = float(np.max(np.abs(outputs64 - np.tile(small, (1, 1, 4, 4)))))
            return err <= 1e-10, f"64x64 output vs tiled 16x16 output differ by {err:.3g}"

        self.ops.check("64x64 output is the tiled 16x16 output", tiling)
        rng = np.random.default_rng(self.seed)
        for shape, y in ((SHAPE16, self.y[0]), (SHAPE64, y64[0])):
            reference = checks.FftBlur(shape[1], shape[2])
            x = rng.standard_normal(shape)

            def blur(shape=shape, reference=reference, x=x):
                err = float(np.max(np.abs(self.operator(shape).apply(x) - reference.apply(x))))
                return err <= 1e-12, f"blur vs FFT differ by {err:.3g}"

            self.ops.check(f"blur at {shape} vs FFT", blur)
            self.check_landweber(shape, reference, y)
        self.check_logdet(self.truth[0])


WORKLOADS = {w.name: w for w in (TrainInpaint16, EvalDeblur64)}
