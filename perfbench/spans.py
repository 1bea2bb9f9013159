"""Span tracing of flowunfold's layers from outside the program.

``Tracer.install`` replaces each traced function or method with a wrapper
that records one span (name, start, end, parent) per call.  A function is
replaced under every name it is reached through: ``conv2d_circular`` lives in
``numerics`` but ``flow`` and ``operators`` import it by name, and
``CenterMask.adjoint`` is the same function object as ``CenterMask.apply``.
Spans stay in memory until ``write_spans`` runs at the end of the pass.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

_MB = 1e6
# counters the hooks below add to, each a per-layer metric of its own
COUNTERS = ("numerics.patch_mb", "numerics.conv2d_circular_backward.regathers",
            "unfold.reconstruct_batch_grad.record_mb")


def _patch_bytes(x, kernel) -> int:
    """Bytes of the im2col matrix conv2d_circular gathers for (x, kernel)."""
    batch = x.shape[0] if x.ndim == 4 else 1
    cin, h, w = x.shape[-3:]
    _, _, kh, kw = kernel.shape
    return batch * cin * kh * kw * h * w * 8


def _held_bytes(obj) -> int:
    """Bytes of the distinct buffers that the arrays inside ``obj`` keep alive."""
    buffers = {}
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            base = item
            while isinstance(base.base, np.ndarray):
                base = base.base
            buffers[id(base)] = base.nbytes
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
    return sum(buffers.values())


def _count_conv(tracer, args, kwargs, result):
    tracer.counters["numerics.patch_mb"] += _patch_bytes(args[0], args[1]) / _MB


def _count_conv_backward(tracer, args, kwargs, result):
    patches = args[3] if len(args) > 3 else kwargs.get("patches")
    if patches is None:
        tracer.counters["numerics.conv2d_circular_backward.regathers"] += 1
        tracer.counters["numerics.patch_mb"] += _patch_bytes(args[0], args[1]) / _MB


def _count_record(tracer, args, kwargs, result):
    tracer.counters["unfold.reconstruct_batch_grad.record_mb"] += _held_bytes(result[1]) / _MB


def traced_targets(fu):
    """(span name, owner, attribute, counter hook) for every traced callable.

    Module-level functions are listed once, under their defining module;
    ``install`` finds their other names.  Methods are listed per class
    attribute, so an alias such as ``adjoint = apply`` gets its own name.
    """
    numerics, flow, operators = fu.numerics, fu.flow, fu.operators
    unfold, train, diff, cli = fu.unfold, fu.train, fu.diff, fu.cli
    targets = [
        ("numerics.conv2d_circular", numerics, "conv2d_circular", _count_conv),
        ("numerics.conv2d_circular_backward", numerics, "conv2d_circular_backward",
         _count_conv_backward),
        ("numerics.small_det_inv", numerics, "small_det_inv", None),
        ("operators.make_measurement", operators, "make_measurement", None),
        ("train.adam_update", train, "adam_update", None),
        ("train.nll_loss_grad", train, "nll_loss_grad", None),
        ("train.pretrain", train, "pretrain", None),
        ("train.train_unrolled", train, "train_unrolled", None),
        ("diff.zero_grads", diff, "zero_grads", None),
        ("diff.ParamStore.snapshot", diff.ParamStore, "snapshot", None),
        ("cli.main", cli, "main", None),
        ("cli.load_dataset", cli, "load_dataset", None),
        ("cli.load_image", cli, "load_image", None),
        ("cli.load_checkpoint", cli, "load_checkpoint", None),
        ("cli.save_checkpoint", cli, "save_checkpoint", None),
        ("unfold.reconstruct_batch", unfold.UnrolledNet, "reconstruct_batch", None),
        ("unfold.reconstruct_batch_grad", unfold.UnrolledNet, "reconstruct_batch_grad",
         _count_record),
        ("unfold.reconstruct_backward", unfold.UnrolledNet, "reconstruct_backward", None),
    ]
    for layer, cls in (("actnorm", flow.ActNorm), ("invconv", flow.InvConv1x1),
                       ("coupling", flow.AffineCoupling)):
        for proc in ("forward", "backward", "inverse", "inverse_backward"):
            targets.append((f"flow.{layer}.{proc}", cls, proc, None))
    for proc in ("forward_batch", "inverse_batch", "backward_forward", "backward_inverse"):
        targets.append((f"flow.{proc}", flow.FlowModel, proc, None))
    for cls in (operators.Identity, operators.CenterMask, operators.GaussianBlur):
        for proc in ("apply", "adjoint"):
            targets.append((f"operators.{proc}", cls, proc, None))
    return targets


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
        self.installed: set[str] = set()  # span names with a wrapper
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, hook):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, fu) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "flowunfold" or name.startswith("flowunfold."))]
        for name, owner, attr, hook in traced_targets(fu):
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, hook)
            self.installed.add(name)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, alias, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and self time in milliseconds."""
        child_ns = [0] * len(self.names)
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[span] - self.starts[span]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_ms": 0.0})
        for span, name in enumerate(self.names):
            entry = out[name]
            entry["calls"] += 1
            entry["self_ms"] += (self.ends[span] - self.starts[span] - child_ns[span]) / 1e6
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: [span, parent, name, start_ns, end_ns]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0
        with open(path, "w") as fh:
            for span, name in enumerate(self.names):
                fh.write(json.dumps([span, self.parents[span], name,
                                     self.starts[span] - t0, self.ends[span] - t0]))
                fh.write("\n")
