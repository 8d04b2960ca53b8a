"""Operation-count and allocation audit hooks.

The solver and the simulators route their matrix products through ``mm`` /
``scale`` so tests can assert complexity contracts (per-step multiply-adds,
largest intermediate ever formed) without touching the numerics.  Counts are
real multiply-adds: each complex operand doubles a product's count, so a
complex path and a real one compare directly.  When no tally is active the
wrappers are plain ``@`` calls.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

_STACK: list["OpTally"] = []


@dataclass
class OpTally:
    """Accumulated multiply-add count and largest array formed."""

    multiply_adds: int = 0
    max_elements: int = 0
    shapes: list[tuple[int, ...]] = field(default_factory=list)

    def _grew(self, *shape: int) -> None:
        elems = 1
        for s in shape:
            elems *= s
        if elems > self.max_elements:
            self.max_elements = elems
        self.shapes.append(tuple(shape))


@contextmanager
def tally():
    """Context manager collecting an ``OpTally`` for the enclosed calls."""
    t = OpTally()
    _STACK.append(t)
    try:
        yield t
    finally:
        _STACK.pop()


def _record(mul_adds: int, *result_shape: int) -> None:
    for t in _STACK:
        t.multiply_adds += mul_adds
        t._grew(*result_shape)


def _real_factor(a: np.ndarray, b: np.ndarray) -> int:
    return (2 if np.iscomplexobj(a) else 1) * (2 if np.iscomplexobj(b) else 1)


def mm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` (written into ``out`` when given) with (rows, inner, cols) recorded on active tallies."""
    if _STACK:
        rows = a.shape[0]
        inner = a.shape[-1]
        cols = b.shape[1] if b.ndim == 2 else 1
        _record(_real_factor(a, b) * rows * inner * cols, rows, cols)
    return np.matmul(a, b, out=out)


def scale(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Elementwise product with its real multiply count recorded."""
    out = a * s
    if _STACK:
        _record(_real_factor(a, s) * out.size, *out.shape)
    return out
