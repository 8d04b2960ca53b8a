"""Operation-count and allocation audit hooks.

The solver and the simulators route their matrix products through ``mm`` /
``scale`` so tests can assert complexity contracts (per-step multiply-adds,
largest intermediate ever formed) without touching the numerics.  Counts are
real multiply-adds: each complex operand doubles a product's count, so a
complex path and a real one compare directly.  The largest array is the
largest product result allocated: a product written into a caller's ``out=``
buffer allocates nothing, so it counts its multiply-adds and records no
array.  When no tally is active the wrappers are plain ``@`` calls.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_STACK: list["OpTally"] = []


@dataclass
class OpTally:
    """Multiply-adds counted, and the elements of the largest result allocated (an ``out=`` product allocates none)."""

    multiply_adds: int = 0
    max_elements: int = 0


@contextmanager
def tally():
    """Context manager collecting an ``OpTally`` for the enclosed calls."""
    t = OpTally()
    _STACK.append(t)
    try:
        yield t
    finally:
        _STACK.pop()


def _record(mul_adds: int, elements: int) -> None:
    for t in _STACK:
        t.multiply_adds += mul_adds
        t.max_elements = max(t.max_elements, elements)


def _real_factor(a: np.ndarray, b: np.ndarray) -> int:
    return (2 if np.iscomplexobj(a) else 1) * (2 if np.iscomplexobj(b) else 1)


def mm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` with its multiply-adds, and its result unless written into ``out``, recorded on active tallies."""
    if _STACK:
        rows, inner, cols = a.shape[0], a.shape[-1], b.shape[1] if b.ndim == 2 else 1
        _record(_real_factor(a, b) * rows * inner * cols, rows * cols if out is None else 0)
    return np.matmul(a, b, out=out)


def scale(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Elementwise product with its real multiply count recorded."""
    out = a * s
    if _STACK:
        _record(_real_factor(a, s) * out.size, out.size)
    return out
