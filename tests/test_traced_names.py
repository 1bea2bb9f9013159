"""The benchmark's tracer wraps program functions by name; every name it
lists must exist, or the traced benchmark run stops."""

import inspect
import types
from pathlib import Path

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
