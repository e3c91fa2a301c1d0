"""Input-matrix generation, including the paper's FP16 quirks.

The paper hits two half-precision potholes that change the *data*:

* "FP16 is not supported for Python/Numba regions combined with numpy's
  Float16 random number capabilities, so input matrices were populated
  with 1s" (Sec. IV-A) — i.e. the Numba experiments use all-ones inputs.
* Julia supports FP16 random generation on both CPU and GPU, so its
  matrices are random.

:func:`fill_matrix` reproduces both paths and reports which was taken, so
validation knows the expected product (all-ones inputs make ``C = K``
exactly, a handy analytic check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.types import Layout, Precision
from .layout import alloc

if TYPE_CHECKING:  # NumPy loads where an array is built, not on import
    import numpy as np

__all__ = ["FillPolicy", "fill_matrix", "make_gemm_operands"]


@dataclass(frozen=True)
class FillPolicy:
    """How input matrices are populated for a programming model.

    ``random_fp16`` mirrors each model's capability: Julia can generate
    FP16 random numbers, Numba cannot (falls back to ones).
    """

    random_fp16: bool = True
    seed: Optional[int] = None

    def fill_kind(self, precision: Precision) -> str:
        if precision is Precision.FP16 and not self.random_fp16:
            return "ones"
        return "random"


def fill_matrix(rows: int, cols: int, precision: Precision, layout: Layout,
                policy: FillPolicy = FillPolicy(), seed_offset: int = 0) -> np.ndarray:
    """Allocate and populate one input matrix."""
    import numpy as np

    dtype = precision.np_dtype
    if policy.fill_kind(precision) == "ones":
        return alloc(rows, cols, dtype, layout, fill=1.0)
    rng = np.random.default_rng(None if policy.seed is None
                                else policy.seed + seed_offset)
    data = rng.random((rows, cols), dtype=np.float64 if precision is Precision.FP64
                      else np.float32)
    out = np.asarray(data, dtype=dtype, order=layout.np_order)
    # np.asarray may keep the original order for trivial shapes; force it.
    if layout is Layout.COL_MAJOR and not out.flags["F_CONTIGUOUS"]:
        out = np.asfortranarray(out)
    return out


def make_gemm_operands(m: int, n: int, k: int, precision: Precision,
                       layout: Layout, policy: FillPolicy = FillPolicy()):
    """A (M×K), B (K×N) inputs and a zeroed C (M×N) accumulator.

    C uses the accumulation dtype: FP32 for half-precision inputs, per the
    paper's mixed-precision scheme (Fig. 1c).
    """
    a = fill_matrix(m, k, precision, layout, policy, seed_offset=1)
    b = fill_matrix(k, n, precision, layout, policy, seed_offset=2)
    c = alloc(m, n, precision.accum_dtype, layout, fill=0.0)
    return a, b, c
