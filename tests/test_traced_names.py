"""The benchmark's tracer wraps program functions by name; every name it
lists must exist, or the traced benchmark run stops.  The benchmark also
makes some calls outside its tracer; those are pinned here too."""

import inspect
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import flowunfold
import flowunfold.cli  # noqa: F401  (traced_targets reads every submodule)

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    # executed from its source text, so nothing is written under perfbench/
    module = types.ModuleType("perfbench_spans")
    exec(compile(_SPANS.read_text(), str(_SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_name_exists():
    targets = _load_spans().traced_targets(flowunfold)
    missing = [name for name, owner, attr, _ in targets if attr not in vars(owner)]
    assert targets and not missing, missing


def test_conv_backward_takes_x_kernel_gout_first():
    # the benchmark's conv-backward counter reads args[0] and args[1] by position
    params = list(inspect.signature(flowunfold.numerics.conv2d_circular_backward).parameters)
    assert params[:3] == ["x", "kernel", "gout"]


def test_untraced_calls_restore_a_prior_and_a_net(tmp_path):
    # the calls of perfbench/workloads.py, argument lists included
    fu, cli = flowunfold, flowunfold.cli
    shape, arch = (1, 8, 8), (2, 2, 4)  # levels, depth, hidden
    prior = fu.FlowModel(shape, *arch, fu.diff.ParamStore())
    prior.randomize(fu.Prng(1), scale=0.05)
    net = fu.UnrolledNet(shape, 2, *arch)
    net.load_pretrained_prior(prior)
    cli.save_checkpoint(tmp_path / "prior.ckpt", prior.store)
    cli.save_checkpoint(tmp_path / "net.ckpt", net.store)

    flow = fu.FlowModel(shape, *arch, fu.diff.ParamStore())
    cli.restore_into(flow.store, cli.load_checkpoint(tmp_path / "prior.ckpt"))
    flow.mark_initialized()
    restored = fu.UnrolledNet(shape, 2, *arch)
    cli.restore_into(restored.store, cli.load_checkpoint(tmp_path / "net.ckpt"))
    for fold in restored.folds:
        fold.flow.mark_initialized()
    assert all(np.array_equal(p.value, prior.store[p.name].value) for p in flow.store)
    op = fu.operator_for_task("inpaint", shape)
    y = op.apply(fu.Prng(2).gauss_array(shape))
    assert np.array_equal(fu.reconstruct(restored, y, op), fu.reconstruct(net, y, op))


def _deep_held_bytes(obj) -> int:
    """Bytes of the distinct buffers the arrays reachable from ``obj`` keep
    alive, through tuples, lists, dicts and object attributes alike."""
    buffers, seen, stack = {}, set(), [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, (type, types.ModuleType)) or callable(item):
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            buffers[id(item)] = item.nbytes
        elif isinstance(item, (tuple, list, set, frozenset)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        else:
            stack.extend(getattr(item, "__dict__", {}).values())
            stack.extend(getattr(item, slot) for slot in getattr(type(item), "__slots__", ())
                         if hasattr(item, slot))
    return sum(buffers.values())


def test_record_counter_sees_the_whole_record():
    # unfold.reconstruct_batch_grad.record_mb walks only tuples and lists: a
    # record that hid arrays in any other container would read low
    shape = (1, 8, 8)
    net = flowunfold.UnrolledNet(shape, 3, 2, 2, 4)
    for fold in net.folds:
        fold.flow.randomize(flowunfold.Prng(3))
    op = flowunfold.operator_for_task("inpaint", shape)
    _, record = net.reconstruct_batch_grad(flowunfold.Prng(4).gauss_array((2,) + shape), op)
    held = _load_spans()._held_bytes(record)
    assert held > 0 and held == _deep_held_bytes(record)
    assert _deep_held_bytes({"hidden": types.SimpleNamespace(record=record)}) == held


def test_training_calls_every_traced_flow_procedure(monkeypatch):
    # the per-layer rows flow.<layer>.<procedure> and flow.<walk> read 0 calls
    # unless training reaches each traced flow name: one small grad step and
    # one NLL gradient must call the 12 layer procedures and the 4 walks
    names = {(owner, attr): name for name, owner, attr, _ in
             _load_spans().traced_targets(flowunfold) if name.startswith("flow.")}
    assert len(names) == 3 * 4 + 4
    calls = Counter()
    for (owner, attr), name in names.items():

        def counted(*args, _original=vars(owner)[attr], _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    shape = (1, 8, 8)
    net = flowunfold.UnrolledNet(shape, 2, 2, 2, 4)
    for fold in net.folds:
        fold.flow.randomize(flowunfold.Prng(5))
    op = flowunfold.operator_for_task("inpaint", shape)
    y = op.apply(flowunfold.Prng(6).gauss_array((2,) + shape))
    x_hat, record = net.reconstruct_batch_grad(y, op)
    net.reconstruct_backward(record, x_hat - y)
    flowunfold.train.nll_loss_grad(y, net.folds[0].flow)
    assert sorted(name for name in names.values() if not calls[name]) == []


@pytest.mark.parametrize("tiled", [False, True])
def test_inference_calls_every_traced_layer_pass(monkeypatch, tiled):
    # the plan walks call the layers' own passes, so the per-layer rows
    # flow.<layer>.forward and .inverse see serving as well as training: a
    # B=1 reconstruct and a batch cut into tiles on the pool each call all six
    names = {(owner, attr): name for name, owner, attr, _ in
             _load_spans().traced_targets(flowunfold)
             if name.startswith("flow.") and attr in ("forward", "inverse")}
    assert len(names) == 3 * 2
    called = set()  # set.add is atomic, and tiles run on the pool's threads
    for (owner, attr), name in names.items():

        def counted(*args, _original=vars(owner)[attr], _name=name, **kwargs):
            called.add(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    shape = (1, 8, 8)
    net = flowunfold.UnrolledNet(shape, 2, 2, 2, 4)
    for fold in net.folds:
        fold.flow.randomize(flowunfold.Prng(7))
    net.initial_guess()  # warm, so only the fold loop calls the passes
    called.clear()
    op = flowunfold.operator_for_task("inpaint", shape)
    if tiled:
        unfold, tiles = flowunfold.unfold, []
        unroll = unfold.UnrolledNet._unroll

        def counted_unroll(self, x0, y, *args):
            tiles.append(len(y))
            return unroll(self, x0, y, *args)

        monkeypatch.setattr(unfold, "TILE_VALUES", 64)  # one 8x8 image per tile
        monkeypatch.setattr(unfold.UnrolledNet, "_unroll", counted_unroll)
        net.reconstruct_batch(op.apply(flowunfold.Prng(8).gauss_array((3,) + shape)), op)
        assert tiles == [1, 1, 1]
    else:
        flowunfold.reconstruct(net, op.apply(flowunfold.Prng(8).gauss_array(shape)), op)
    assert sorted(names.values()) == sorted(called)
