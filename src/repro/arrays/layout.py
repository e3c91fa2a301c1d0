"""Strided-layout helpers for dense matrices.

Thin utilities over :class:`repro.core.types.Layout` used by both the real
kernels (to allocate NumPy arrays in the layout a language would use) and
the simulated device arrays (to reason about coalescing).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from ..core.types import Layout

if TYPE_CHECKING:  # NumPy loads where an array is built, not on import
    import numpy as np

__all__ = [
    "strides_elements",
    "linear_index",
    "alloc",
    "is_layout",
    "touched_lines",
]


def strides_elements(rows: int, cols: int, layout: Layout) -> Tuple[int, int]:
    """Element strides ``(row_stride, col_stride)`` of a matrix."""
    if layout is Layout.ROW_MAJOR:
        return cols, 1
    return 1, rows


def linear_index(r: int, c: int, rows: int, cols: int, layout: Layout) -> int:
    """Flattened element offset of ``[r, c]``."""
    rs, cs = strides_elements(rows, cols, layout)
    return r * rs + c * cs


def alloc(rows: int, cols: int, dtype: np.dtype, layout: Layout,
          fill: float = 0.0) -> np.ndarray:
    """Allocate a matrix with the given layout, filled with ``fill``."""
    import numpy as np

    a = np.full((rows, cols), fill, dtype=dtype, order=layout.np_order)
    return a


def is_layout(a: np.ndarray, layout: Layout) -> bool:
    """Whether an array is contiguous in the given layout.

    1-element and single-row/column arrays are contiguous both ways.
    """
    if layout is Layout.ROW_MAJOR:
        return a.flags["C_CONTIGUOUS"]
    return a.flags["F_CONTIGUOUS"]


def touched_lines(n_elements: int, stride_elements: int, element_bytes: int,
                  line_bytes: int = 64) -> int:
    """Distinct cache lines touched by ``n_elements`` accesses with a fixed
    element stride — the quantum of the memory-traffic model."""
    if n_elements <= 0:
        return 0
    stride_bytes = abs(stride_elements) * element_bytes
    if stride_bytes == 0:
        return 1
    span_bytes = (n_elements - 1) * stride_bytes + element_bytes
    if stride_bytes >= line_bytes:
        return n_elements
    return -(-span_bytes // line_bytes)  # ceil
