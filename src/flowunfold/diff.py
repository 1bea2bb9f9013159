"""Named parameter store with gradient accumulators, plus a finite-difference
gradient checker.

Every trainable layer follows the same hand-written reverse-mode contract:
``forward`` maps inputs and parameters to outputs plus a context object, and
``backward`` consumes exactly that context together with the output cotangent,
returning the input cotangent and accumulating (+=) parameter gradients into
the store.  There is no tape; each layer's rule is explicit and individually
checkable against central differences.

A store keeps every value in one contiguous float64 buffer and every
gradient in a second, in insertion order; each parameter's ``value`` and
``grad`` are views into them.  So whole-store work (the Adam step, zeroing
gradients, a finiteness check) is a few vector operations, and a model whose
parameters were added in one run owns one contiguous slice.
"""

from __future__ import annotations

import numpy as np

from .errors import GradCheckError
from .numerics import Prng

__all__ = ["Parameter", "ParamStore", "zero_grads", "grad_check"]

_MIN_CAPACITY = 4096  # values; an add that outgrows the buffers at least doubles them


class Parameter:
    """A named value/grad pair; grad always mirrors the value's shape.  In a
    store both are views into the store's buffers, starting at ``offset``."""

    __slots__ = ("name", "value", "grad", "offset")

    def __init__(self, name: str, value: np.ndarray, grad: np.ndarray, offset: int = 0):
        self.name = name
        self.value = value
        self.grad = grad
        self.offset = offset

    def item(self) -> float:
        return float(self.value)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class ParamStore:
    """Ordered map from hierarchical names to parameters, backed by two flat
    buffers: ``values`` and ``grads``, each as long as all parameters
    together.

    Iteration order is insertion order, which makes checkpoints, optimizer
    sweeps, and gradient probes deterministic.  When :meth:`add` outgrows the
    buffers it moves them and rebinds every parameter's views, so a value
    array read before a later ``add`` may be stale: read ``p.value`` through
    the parameter, not a saved array.
    """

    def __init__(self):
        self._entries: dict[str, Parameter] = {}
        self.size = 0  # scalar values over all parameters
        self._value_buf = np.zeros(0)
        self._grad_buf = np.zeros(0)

    @property
    def values(self) -> np.ndarray:
        """Every parameter value, flat, in insertion order (a view)."""
        return self._value_buf[: self.size]

    @property
    def grads(self) -> np.ndarray:
        """Every gradient, laid out like :attr:`values` (a view)."""
        return self._grad_buf[: self.size]

    def add(self, name: str, value: np.ndarray) -> Parameter:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name}")
        value = np.asarray(value, dtype=np.float64)
        start = self.size
        if start + value.size > len(self._value_buf):
            self.reserve(max(start + value.size, 2 * len(self._value_buf), _MIN_CAPACITY))
        p = Parameter(name, *self._views(start, value.size, value.shape), start)
        p.value[...] = value
        self.size += value.size
        self._entries[name] = p
        return p

    def _views(self, start: int, size: int, shape) -> tuple[np.ndarray, np.ndarray]:
        return (self._value_buf[start : start + size].reshape(shape),
                self._grad_buf[start : start + size].reshape(shape))

    def reserve(self, capacity: int) -> None:
        """Make the buffers hold ``capacity`` values in all.  Moving them
        rebinds every parameter's views; capacity that is never filled still
        costs resident memory, so a caller that knows its final size
        reserves exactly that."""
        if capacity <= len(self._value_buf):
            return
        values, grads = np.zeros(capacity), np.zeros(capacity)
        values[: self.size] = self.values
        grads[: self.size] = self.grads
        self._value_buf, self._grad_buf = values, grads
        for p in self:
            p.value, p.grad = self._views(p.offset, p.value.size, p.value.shape)

    def __getitem__(self, name: str) -> Parameter:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries.values())

    def __len__(self):
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries.keys())

    def locate(self, index: int) -> tuple[Parameter, int]:
        """The parameter whose values hold flat position ``index``, and the
        position within it."""
        if not 0 <= index < self.size:
            raise IndexError(f"flat index {index} outside a store of {self.size} values")
        for p in self:
            if index < p.value.size:
                return p, index
            index -= p.value.size

    def snapshot(self) -> np.ndarray:
        """A copy of :attr:`values`; ``store.values[...] = snap`` writes it
        back."""
        return self.values.copy()


def zero_grads(store: ParamStore) -> None:
    """Reset every gradient accumulator to zero; values untouched."""
    store.grads.fill(0.0)


_PROBE_SEED = 0x5DEECE66D


def grad_check(f, store: ParamStore, probes: int, eps: float = 1e-5) -> float:
    """Compare analytic gradients of ``f`` against central differences.

    ``f(store)`` must return a scalar and accumulate parameter gradients into
    the store.  For ``probes`` randomly chosen scalar entries the analytic
    gradient is compared with (f(p+eps) - f(p-eps)) / (2 eps); returns the
    maximum relative error |a-n| / max(1, |a|, |n|).  The entries are drawn
    from one fixed seed, so a check probes the same entries on every run.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"grad_check: eps {eps} outside [1e-7, 1e-3]")
    if probes < 1:
        raise ValueError("grad_check: probes must be >= 1")
    rng = Prng(_PROBE_SEED)

    total = store.size
    if total == 0:
        raise ValueError("grad_check: store has no parameters")

    zero_grads(store)
    base = float(f(store))
    if not np.isfinite(base):
        raise GradCheckError("objective is non-finite at the unperturbed point")
    analytic = store.grads.copy()

    values = store.values
    max_rel = 0.0
    for _ in range(probes):
        i = int(rng.uniform() * total)
        old = values[i]

        values[i] = old + eps
        up = float(f(store))
        values[i] = old - eps
        down = float(f(store))
        values[i] = old

        if not (np.isfinite(up) and np.isfinite(down)):
            p, inner = store.locate(i)
            raise GradCheckError(f"objective non-finite while probing {p.name}[{inner}]")
        numeric = (up - down) / (2.0 * eps)
        a = analytic[i]
        rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
        max_rel = max(max_rel, rel)

    zero_grads(store)
    return max_rel
