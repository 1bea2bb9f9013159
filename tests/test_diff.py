import numpy as np
import pytest

from flowunfold.diff import ParamStore, grad_check, zero_grads
from flowunfold.errors import ConfigError, GradCheckError
from flowunfold.flow import FlowModel
from flowunfold.numerics import Prng
from flowunfold.unfold import UnrolledNet


def quadratic(store):
    """f(p) = 0.5 * ||p||^2 with analytic gradient p."""
    total = 0.0
    for p in store:
        total += 0.5 * float(np.sum(p.value**2))
        p.grad += p.value
    return total


class TestParamStore:
    def test_insertion_order(self):
        s = ParamStore()
        s.add("b.x", np.zeros(2))
        s.add("a.y", np.zeros(3))
        assert s.names() == ["b.x", "a.y"]

    def test_duplicate_name_rejected(self):
        s = ParamStore()
        s.add("w", np.zeros(1))
        with pytest.raises(ValueError, match="duplicate"):
            s.add("w", np.zeros(1))

    def test_grad_mirrors_value_shape(self):
        s = ParamStore()
        p = s.add("w", np.ones((2, 3)))
        assert p.grad.shape == (2, 3)
        assert np.all(p.grad == 0)

    def test_snapshot_restore(self):
        s = ParamStore()
        p = s.add("w", np.arange(4.0))
        q = s.add("b", np.array(2.5))
        snap = s.snapshot()
        p.value[...] = -1.0
        q.value[...] = 0.0
        s.values[...] = snap
        assert np.array_equal(p.value, np.arange(4.0))
        assert float(q.value) == 2.5


def _assert_flat(store):
    """Every value and grad is a view into the store's buffers, laid out in
    insertion order with no gaps."""
    offset = 0
    for p in store:
        for view, buf in ((p.value, store.values), (p.grad, store.grads)):
            assert np.shares_memory(view, buf), p.name
            assert np.array_equal(view.reshape(-1), buf[offset : offset + p.value.size]), p.name
        offset += p.value.size
    assert offset == store.size == len(store.grads)


class TestFlatBuffers:
    def test_flow_model_and_net_are_flat(self):
        flow = FlowModel((1, 8, 8), 2, 2, 4, ParamStore())
        flow.randomize(Prng(3))
        _assert_flat(flow.store)
        assert flow.span == slice(0, flow.store.size)
        net = UnrolledNet((1, 8, 8), 3, 2, 2, 4)
        net.folds[0].flow.randomize(Prng(4))
        _assert_flat(net.store)
        assert len(net.store._value_buf) == net.store.size  # reserved exactly, no slack
        spans = [fold.flow.span for fold in net.folds]
        # each fold's flow is followed by its mu and rho
        assert [s.start for s in spans[1:]] == [s.stop + 2 for s in spans[:-1]]
        for fold, span in zip(net.folds, spans):
            assert net.store.locate(span.start) == (
                fold.flow._levels[0].steps[0][0].log_scale, 0)
            assert net.store.locate(span.stop) == (fold.mu, 0)

    @pytest.mark.parametrize("shape, levels, depth, hidden", [
        ((1, 8, 8), 2, 2, 4), ((3, 8, 16), 3, 1, 16), ((1, 2, 16), 3, 2, 4),
        ((1, 16, 16), 2, 4, 16)])
    def test_param_count_is_what_construction_adds(self, shape, levels, depth, hidden):
        store = ParamStore()
        store.add("before", np.zeros(3))
        flow = FlowModel(shape, levels, depth, hidden, store)
        assert FlowModel.param_count(shape, levels, depth, hidden) == store.size - 3
        assert flow.span == slice(3, store.size)

    @pytest.mark.parametrize("shape, levels, depth", [((1, 8, 8), 0, 1), ((1, 8, 8), 1, 0),
                                                      ((1, 6, 6), 2, 1)])
    def test_param_count_rejects_what_construction_rejects(self, shape, levels, depth):
        with pytest.raises(ConfigError) as counted:
            FlowModel.param_count(shape, levels, depth, 4)
        with pytest.raises(ConfigError) as built:
            FlowModel(shape, levels, depth, 4, ParamStore())
        assert str(counted.value) == str(built.value)

    @pytest.mark.parametrize("build", ["net", "flow"])
    def test_construction_never_moves_the_buffers(self, monkeypatch, build):
        grown = []  # (capacity, parameters already there) per growth
        reserve = ParamStore.reserve

        def counted(store, capacity):
            if capacity > len(store._value_buf):
                grown.append((capacity, len(store)))
            reserve(store, capacity)

        monkeypatch.setattr(ParamStore, "reserve", counted)
        if build == "net":
            store = UnrolledNet((1, 16, 16), 3, 2, 4, 16).store
        else:
            store = FlowModel((1, 16, 16), 2, 4, 16, ParamStore()).store
        # one exact growth, before any parameter exists
        assert grown == [(store.size, 0)]

    def test_growth_rebinds_earlier_parameters(self):
        s = ParamStore()
        a = s.add("a", np.arange(3.0))
        b = s.add("b", np.array(2.0))
        old = a.value
        c = s.add("c", np.ones((70, 70)))  # past the first capacity: the buffers move
        assert not np.shares_memory(old, s.values)
        _assert_flat(s)
        s.values[:] = -1.0
        s.grads[:] = 5.0
        assert np.all(a.value == -1.0) and float(b.value) == -1.0 and np.all(c.value == -1.0)
        assert np.all(a.grad == 5.0) and float(b.grad) == 5.0
        b.value[...] = 7.0
        assert s.values[3] == 7.0
        s.reserve(2 * s.size)
        _assert_flat(s)
        assert np.all(a.value == -1.0) and float(b.value) == 7.0

    def test_writes_through_a_parameter_land_in_the_buffer(self):
        s = ParamStore()
        s.add("a", np.zeros(2))
        p = s.add("b", np.zeros((2, 2)))
        p.value += 1.5
        p.grad[1, 0] = 3.0
        assert s.values.tolist() == [0.0, 0.0, 1.5, 1.5, 1.5, 1.5]
        assert s.grads.tolist() == [0.0, 0.0, 0.0, 0.0, 3.0, 0.0]

    def test_locate_maps_flat_positions_to_entries(self):
        s = ParamStore()
        s.add("a", np.zeros(2))
        s.add("b", np.zeros(()))
        s.add("c", np.zeros((2, 2)))
        found = [(p.name, inner) for p, inner in map(s.locate, range(7))]
        assert found == [("a", 0), ("a", 1), ("b", 0), ("c", 0), ("c", 1), ("c", 2), ("c", 3)]
        with pytest.raises(IndexError):
            s.locate(7)

    def test_snapshot_is_a_copy(self):
        s = ParamStore()
        p = s.add("w", np.arange(4.0))
        snap = s.snapshot()
        assert not np.shares_memory(snap, s.values)
        p.value[...] = 0.0
        assert np.array_equal(snap, np.arange(4.0))


class TestZeroGrads:
    def test_zeroes_grads(self):
        s = ParamStore()
        p = s.add("w", np.zeros(2))
        p.grad[...] = np.array([3.0, -1.0])
        zero_grads(s)
        assert np.array_equal(p.grad, np.zeros(2))

    def test_empty_store_noop(self):
        zero_grads(ParamStore())

    def test_values_untouched(self):
        s = ParamStore()
        p = s.add("w", np.array([1.5, -2.5]))
        before = p.value.copy()
        p.grad[...] = 7.0
        zero_grads(s)
        assert np.array_equal(p.value, before)


class TestGradCheck:
    def test_quadratic_exact(self):
        s = ParamStore()
        s.add("a", Prng(1).gauss_array((3, 3)))
        s.add("b", Prng(2).gauss_array(5))
        assert grad_check(quadratic, s, probes=16) < 1e-9

    def test_accumulation_doubles(self):
        s = ParamStore()
        p = s.add("a", np.array([2.0, -1.0]))
        quadratic(s)
        once = p.grad.copy()
        quadratic(s)
        assert np.array_equal(p.grad, 2.0 * once)

    def test_wrong_gradient_detected(self):
        def broken(store):
            total = 0.0
            for p in store:
                total += 0.5 * float(np.sum(p.value**2))
                p.grad += 1.1 * p.value  # deliberately off
            return total

        s = ParamStore()
        s.add("a", np.array([1.0, 2.0, 3.0]))
        assert grad_check(broken, s, probes=8) > 1e-2

    def test_nonfinite_raises_with_name(self):
        def exploding(store):
            v = float(store["w"].value[0])
            return float("inf") if abs(v - 1.0) > 1e-7 else 0.0

        s = ParamStore()
        s.add("w", np.array([1.0]))
        with pytest.raises(GradCheckError, match=r"w\[0\]"):
            grad_check(exploding, s, probes=1)

    def test_eps_bounds(self):
        s = ParamStore()
        s.add("a", np.ones(1))
        with pytest.raises(ValueError):
            grad_check(quadratic, s, probes=1, eps=1e-2)
