"""Deterministic work budgets: how many conv gathers, flow passes and
inference-plan builds a reconstruction or a grad step makes, and how many
values those gathers produce.  A timing moves with the machine; these
counts do not, so a change that adds a flow pass, misses the initial-guess
cache, rebuilds a plan from unchanged weights or gathers the wide side of a
conv again fails here on any host.

A gather is one call of ``numerics._im2col`` or ``numerics._col2im``, and
the values it gathered are the size of the array it returns: im2col's
(B, C*kh*kw, H*W) patch matrix, col2im's (B, Cout, H*W) sum over the moved
taps.  A flow pass is one ``FlowModel.forward_batch`` or ``inverse_batch``
call (recording) or one ``FlowPlan.forward`` or ``inverse`` call
(inference); a plan build is one ``FlowPlan`` constructed.  Everything runs
at K=3, L=2, D=4, hidden=16.  A change that lowers
the work lowers the budget with it.
"""

import threading
from collections import Counter

import pytest

from flowunfold import numerics
from flowunfold.flow import FlowModel, FlowPlan
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
    count(FlowModel, "forward_batch", "flow passes", False)
    count(FlowModel, "inverse_batch", "flow passes", False)
    count(FlowPlan, "forward", "flow passes", False)
    count(FlowPlan, "inverse", "flow passes", False)
    count(FlowPlan, "__init__", "plan builds", False)
    return counts


def _net(shape):
    net = UnrolledNet(shape, 3, 2, 4, 16)
    rng = Prng(0xB0D6)
    for fold in net.folds:
        fold.flow.randomize(rng, scale=0.05)
    return net


_KEYS = ("im2col", "col2im", "im2col values", "col2im values", "flow passes", "plan builds")


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
    work.clear()
    reconstruct(net, y, op)  # warm: no fold's weights changed
    assert _seen(work) == _budget(32, 32, 27648, 6144, 4, 0)


def test_batch_16_16x16_inpaint_grad_step(work):
    shape = (1, 16, 16)
    net, op = _net(shape), operator_for_task("inpaint", shape)
    y = op.apply(Prng(2).gauss_array((16,) + shape))
    x_hat, record = net.reconstruct_batch_grad(y, op)
    net.reconstruct_backward(record, x_hat - y)
    assert _seen(work) == _budget(120, 80, 1797120, 149760, 5, 0)


def test_batch_16_64x64_deblur_reconstruction(work):
    shape = (1, 64, 64)
    net, op = _net(shape), operator_for_task("deblur", shape)
    y = op.apply(Prng(3).gauss_array((16,) + shape))
    net.reconstruct_batch(y[:1], op)  # builds the plans and the initial guess
    work.clear()
    net.reconstruct_batch(y, op)  # 4 tiles of 4 images, every plan warm
    assert _seen(work) == _budget(176, 128, 12582912, 1572864, 16, 0)
