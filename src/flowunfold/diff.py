"""Named parameter store with gradient accumulators, plus a finite-difference
gradient checker.

Every trainable layer follows the same hand-written reverse-mode contract:
``forward`` maps inputs and parameters to outputs plus a context object, and
``backward`` consumes exactly that context together with the output cotangent,
returning the input cotangent and accumulating (+=) parameter gradients into
the store.  There is no tape; each layer's rule is explicit and individually
checkable against central differences.
"""

from __future__ import annotations

import numpy as np

from .errors import GradCheckError
from .numerics import Prng

__all__ = ["Parameter", "ParamStore", "zero_grads", "grad_check"]


class Parameter:
    """A named value/grad pair; grad always mirrors the value's shape."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def item(self) -> float:
        return float(self.value)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class ParamStore:
    """Ordered map from hierarchical names to parameters.

    Iteration order is insertion order, which makes checkpoints, optimizer
    sweeps, and gradient probes deterministic.
    """

    def __init__(self):
        self._entries: dict[str, Parameter] = {}

    def add(self, name: str, value: np.ndarray) -> Parameter:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name}")
        p = Parameter(name, value)
        self._entries[name] = p
        return p

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

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of all values, keyed by name (for early-stopping restore)."""
        return {p.name: p.value.copy() for p in self}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for p in self:
            p.value[...] = snap[p.name]


def zero_grads(store: ParamStore) -> None:
    """Reset every gradient accumulator to zero; values untouched."""
    for p in store:
        p.grad[...] = 0.0


_PROBE_SEED = 0x5DEECE66D


def grad_check(
    f,
    store: ParamStore,
    probes: int,
    eps: float = 1e-5,
    rng: Prng | None = None,
) -> float:
    """Compare analytic gradients of ``f`` against central differences.

    ``f(store)`` must return a scalar and accumulate parameter gradients into
    the store.  For ``probes`` randomly chosen scalar entries the analytic
    gradient is compared with (f(p+eps) - f(p-eps)) / (2 eps); returns the
    maximum relative error |a-n| / max(1, |a|, |n|).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"grad_check: eps {eps} outside [1e-7, 1e-3]")
    if probes < 1:
        raise ValueError("grad_check: probes must be >= 1")
    if rng is None:
        rng = Prng(_PROBE_SEED)

    params = list(store)
    sizes = np.array([p.value.size for p in params])
    total = int(sizes.sum())
    if total == 0:
        raise ValueError("grad_check: store has no parameters")
    offsets = np.cumsum(sizes)

    zero_grads(store)
    base = float(f(store))
    if not np.isfinite(base):
        raise GradCheckError("objective is non-finite at the unperturbed point")
    analytic = [p.grad.copy() for p in params]

    max_rel = 0.0
    for _ in range(probes):
        flat_idx = int(rng.uniform() * total)
        pi = int(np.searchsorted(offsets, flat_idx, side="right"))
        inner = flat_idx - (0 if pi == 0 else int(offsets[pi - 1]))
        p = params[pi]
        view = p.value.reshape(-1)
        old = view[inner]

        view[inner] = old + eps
        up = float(f(store))
        view[inner] = old - eps
        down = float(f(store))
        view[inner] = old

        if not (np.isfinite(up) and np.isfinite(down)):
            raise GradCheckError(
                f"objective non-finite while probing {p.name}[{inner}]"
            )
        numeric = (up - down) / (2.0 * eps)
        a = analytic[pi].reshape(-1)[inner]
        rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
        max_rel = max(max_rel, rel)

    zero_grads(store)
    return max_rel
