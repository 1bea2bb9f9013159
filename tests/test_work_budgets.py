"""Deterministic work budgets: how many conv gathers, flow passes, plan
builds and 1x1 det inverses a reconstruction or a grad step makes, and how
many values those gathers produce.  A timing moves with the machine; these
counts do not, so a change that adds a flow pass, misses the initial-guess
cache, rebuilds a plan from unchanged weights, inverts a 1x1 weight more
than once per value or gathers the wide side of a conv again fails here on
any host.

A gather is one call of ``numerics._im2col`` or ``numerics._col2im``, and
the values it gathered are the size of the array it returns: im2col's
(B, C*kh*kw, H*W) patch matrix, col2im's (B, Cout, H*W) sum over the moved
taps.  A flow pass is one ``FlowPlan.forward`` or ``inverse`` call,
recording or not (``FlowModel.forward_batch`` and ``inverse_batch`` are
recording walks of the plan, so they are not counted again); a plan build
is one ``FlowPlan`` constructed; a det inverse is one ``small_det_inv`` call
from the flow, made by a plan build for each channel count of its 1x1
convs, over the stack of those weights.  Everything runs at
K=3, L=2, D=4, hidden=16.  A change that lowers the work lowers the budget
with it.

The record budget counts the bytes of the distinct buffers a grad step's
reverse-sweep record keeps alive, as perfbench's
``unfold.reconstruct_batch_grad.record_mb`` does: a view keeps its whole
base array.  It is what training holds per batch, twice at a time.

The start-up budget counts what one `eval` command does around its
reconstruction: image and checkpoint reads, plan builds, parser builds and
the loader calls perfbench's ``cli.*`` spans time.
"""

import argparse
import itertools
import pathlib
import threading
from collections import Counter

import numpy as np
import pytest

from flowunfold import cli, flow, io, numerics
from flowunfold.flow import FlowPlan
from flowunfold.io import save_checkpoint
from flowunfold.numerics import Prng
from flowunfold.operators import operator_for_task
from flowunfold.unfold import UnrolledNet, reconstruct


@pytest.fixture
def work(monkeypatch):
    """Counts of the calls below, and of the values the gathers return;
    tiles on the thread pool count too."""
    counts, lock = Counter(), threading.Lock()

    def count(owner, attr, key, values):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            with lock:
                counts[key] += 1
                if values:
                    counts[key + " values"] += result.size
            return result

        monkeypatch.setattr(owner, attr, wrapper)

    count(numerics, "_im2col", "im2col", True)
    count(numerics, "_col2im", "col2im", True)
    count(FlowPlan, "forward", "flow passes", False)
    count(FlowPlan, "inverse", "flow passes", False)
    count(FlowPlan, "__init__", "plan builds", False)
    count(flow, "small_det_inv", "det inverses", False)
    return counts


def _net(shape):
    net = UnrolledNet(shape, 3, 2, 4, 16)
    rng = Prng(0xB0D6)
    for fold in net.folds:
        fold.flow.randomize(rng, scale=0.05)
    return net


_KEYS = ("im2col", "col2im", "im2col values", "col2im values", "flow passes", "plan builds",
         "det inverses")


def _budget(*counts):
    return dict(zip(_KEYS, counts, strict=True))


def _seen(work):
    return {key: work[key] for key in _KEYS}


def test_single_16x16_inpaint_reconstruction(work):
    shape = (1, 16, 16)
    net, op = _net(shape), operator_for_task("inpaint", shape)
    y = op.apply(Prng(1).gauss_array(shape))
    reconstruct(net, y, op)  # cold: the initial guess is one more inverse pass
    assert work["flow passes"] == 5
    assert work["plan builds"] == 2  # folds 0 and 1; the last runs no flow
    assert work["det inverses"] == 4  # their 1x1 convs, one stack per channel count (4, 8)
    work.clear()
    reconstruct(net, y, op)  # warm: no fold's weights changed
    assert _seen(work) == _budget(32, 32, 27648, 6144, 4, 0, 0)


def _grad_step(net, y, op):
    x_hat, record = net.reconstruct_batch_grad(y, op)
    net.reconstruct_backward(record, x_hat - y)


def test_batch_16_16x16_inpaint_grad_step(work):
    # each body fold's constants are derived once per step, by its first
    # recording pass, and read by its other passes
    shape = (1, 16, 16)
    net, op = _net(shape), operator_for_task("inpaint", shape)
    y = op.apply(Prng(2).gauss_array((16,) + shape))
    _grad_step(net, y, op)
    assert _seen(work) == _budget(120, 80, 1797120, 149760, 5, 2, 4)


def test_grad_step_after_a_reconstruction_at_the_same_weights(work):
    # the recording passes read the plans the reconstruction built
    shape = (1, 16, 16)
    net, op = _net(shape), operator_for_task("inpaint", shape)
    y = op.apply(Prng(2).gauss_array((16,) + shape))
    net.reconstruct_batch(y, op)
    work.clear()
    _grad_step(net, y, op)
    assert _seen(work) == _budget(120, 80, 1797120, 149760, 5, 0, 0)


def _record_buffers(record) -> list:
    """The distinct base arrays the arrays in a record (tuples and lists of
    arrays, at any depth) keep alive."""
    buffers, stack = {}, [record]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            buffers[id(item)] = item
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
    return list(buffers.values())


def _step_outputs(monkeypatch) -> list:
    """The base arrays every actnorm and 1x1 conv output is a view of, as
    the layers' passes return them; kept alive, so no id is reused."""
    outputs = []
    for layer, name in itertools.product((flow.ActNorm, flow.InvConv1x1),
                                         ("forward", "inverse")):
        original = getattr(layer, name)

        def wrapper(*args, original=original):
            out = original(*args)
            outputs.append(out if out.base is None else out.base)
            return out

        monkeypatch.setattr(layer, name, wrapper)
    return outputs


def _record_bytes(monkeypatch, task, size) -> int:
    """The bytes of a B=16 grad step's record on a size x size image, after
    checking that it keeps no hidden activation and no actnorm or 1x1
    output and no constant: each step keeps its input (its coupling's
    output, going up), the clamp's bool mask and the scale; the rest is
    each fold's latents and data-step terms."""
    shape = (1, size, size)
    net, op = _net(shape), operator_for_task(task, shape)
    y = op.apply(Prng(2).gauss_array((16,) + shape))
    outputs = _step_outputs(monkeypatch)
    _, record = net.reconstruct_batch_grad(y, op)
    buffers = _record_buffers(record)
    kept = {id(buf) for buf in buffers}
    assert outputs and not {id(out) for out in outputs} & kept
    plans = [fold.flow.plan().levels for fold in net.folds]
    assert not {id(buf) for buf in _record_buffers(plans)} & kept
    hidden = net.folds[0].flow.hidden
    assert [buf.shape for buf in buffers if buf.ndim > 2 and buf.shape[1] == hidden] == []
    return sum(buf.nbytes for buf in buffers)


def test_batch_16_16x16_grad_step_record(monkeypatch):
    assert _record_bytes(monkeypatch, "inpaint", 16) == 1411840


def test_batch_16_64x64_grad_step_record(monkeypatch):
    assert _record_bytes(monkeypatch, "deblur", 64) == 22589440


def test_batch_16_64x64_deblur_reconstruction(work):
    shape = (1, 64, 64)
    net, op = _net(shape), operator_for_task("deblur", shape)
    y = op.apply(Prng(3).gauss_array((16,) + shape))
    net.reconstruct_batch(y[:1], op)  # builds the plans and the initial guess
    work.clear()
    net.reconstruct_batch(y, op)  # 4 tiles of 4 images, every plan warm
    assert _seen(work) == _budget(176, 128, 12582912, 1572864, 16, 0, 0)


def test_eval_start_up(tmp_path, monkeypatch):
    # one eval of a 40-image corpus (4 test images) by a K=3 net: the test
    # images and the checkpoint are read once each, no manifest line asks
    # the file system whether its image exists, restoring builds each fold's
    # plan and the reconstruction builds none, and a second command reuses
    # the first one's parser
    data = tmp_path / "data"
    assert cli.main(["synth-data", "--out", str(data), "--count", "40",
                     "--size", "16", "16", "--seed", "3"]) == 0
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(ckpt, _net((1, 16, 16)).store)
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("K = 3\nL = 2\nD = 4\nhidden = 16\nheight = 16\nwidth = 16\n")
    lines = (data / "manifest.txt").read_text().splitlines()
    test_size = sum(line.endswith("\ttest") for line in lines)

    counts, phase = Counter(), ["other"]  # phase: the tagged call under way

    def count(owner, attr, key, during=None):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if during is None:
                return original(*args, **kwargs)
            outer, phase[0] = phase[0], during
            try:
                return original(*args, **kwargs)
            finally:
                phase[0] = outer

        monkeypatch.setattr(owner, attr, wrapper)

    count(io, "load_image", "images read")
    count(cli, "load_dataset", "cli.load_dataset", during="dataset")
    count(cli, "load_checkpoint", "cli.load_checkpoint")
    count(cli, "restore_into", "cli.restore_into")
    count(cli, "_restore", "restores", during="restore")
    count(UnrolledNet, "reconstruct_batch", "reconstructions", during="reconstruction")
    count(argparse.ArgumentParser, "add_subparsers", "parser builds")
    read_bytes, exists, plan_init = (pathlib.Path.read_bytes, pathlib.Path.exists,
                                     FlowPlan.__init__)

    def counted_read(path):
        counts["checkpoint reads"] += path == ckpt
        return read_bytes(path)

    def counted_exists(path, *args, **kwargs):
        counts[f"exists calls in {phase[0]}"] += 1
        return exists(path, *args, **kwargs)

    def counted_plan(plan, *args):
        counts[f"plan builds in {phase[0]}"] += 1
        plan_init(plan, *args)

    monkeypatch.setattr(pathlib.Path, "read_bytes", counted_read)
    monkeypatch.setattr(pathlib.Path, "exists", counted_exists)
    monkeypatch.setattr(FlowPlan, "__init__", counted_plan)

    argv = ["eval", "--model", str(ckpt), "--data", str(data), "--task", "inpaint",
            "--config", str(cfg), "--report", str(tmp_path / "eval" / "report.csv")]
    assert cli.main(argv) == 0
    once = Counter(counts)
    assert once["images read"] == test_size == 4
    assert once["exists calls in dataset"] == 0
    assert once["checkpoint reads"] == 1
    assert once["plan builds in restore"] == 3  # every fold's
    assert once["plan builds in other"] == once["plan builds in reconstruction"] == 0
    assert once["restores"] == once["reconstructions"] == 1
    assert (once["cli.load_dataset"], once["cli.load_checkpoint"],
            once["cli.restore_into"]) == (1, 1, 1)
    assert cli.main(argv) == 0
    # at most one parser across both commands: none when an earlier command
    # in this process built it
    assert counts["parser builds"] <= 1
