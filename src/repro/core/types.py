"""Fundamental value types shared across the library.

The paper sweeps three floating-point precisions (FP64, FP32, FP16), two
device kinds (multithreaded CPU, single GPU) and two memory layouts
(row-major for C/Python, column-major for Julia).  These enums are the
vocabulary every other subsystem speaks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy loads only where arrays are built
    import numpy as np

__all__ = [
    "Precision",
    "DeviceKind",
    "Layout",
    "MatrixShape",
]


class Precision(enum.Enum):
    """Floating-point precision of a GEMM experiment.

    ``FP16`` follows the paper's mixed-precision convention (Fig. 1c): the
    multiply-add inputs are half precision while the accumulator / output
    matrix is stored in single precision, because neither architecture
    accumulates FP16 natively in the hand-rolled kernel.
    """

    FP64 = "fp64"
    FP32 = "fp32"
    FP16 = "fp16"

    @property
    def np_dtype(self) -> np.dtype:
        """NumPy dtype used for the *input* matrices."""
        import numpy as np
        return {
            Precision.FP64: np.dtype(np.float64),
            Precision.FP32: np.dtype(np.float32),
            Precision.FP16: np.dtype(np.float16),
        }[self]

    @property
    def accum_dtype(self) -> np.dtype:
        """NumPy dtype of the accumulator / output matrix C."""
        if self is Precision.FP16:
            return Precision.FP32.np_dtype
        return self.np_dtype

    @property
    def bytes(self) -> int:
        """Bytes per input element (the itemsize of :attr:`np_dtype`)."""
        return _BYTES[self]

    @property
    def bits(self) -> int:
        return self.bytes * 8

    @property
    def label(self) -> str:
        """Human label used in figure legends, e.g. ``'double'``."""
        return {
            Precision.FP64: "double",
            Precision.FP32: "single",
            Precision.FP16: "half",
        }[self]

    @classmethod
    def parse(cls, text: str) -> "Precision":
        """Parse user-facing spellings (``fp64``, ``double``, ``f32``...)."""
        aliases = {
            "fp64": cls.FP64, "f64": cls.FP64, "double": cls.FP64, "64": cls.FP64,
            "fp32": cls.FP32, "f32": cls.FP32, "single": cls.FP32, "float": cls.FP32, "32": cls.FP32,
            "fp16": cls.FP16, "f16": cls.FP16, "half": cls.FP16, "16": cls.FP16,
        }
        key = text.strip().lower()
        if key not in aliases:
            raise ValueError(f"unknown precision {text!r}")
        return aliases[key]


#: Bytes per input element, kept apart from NumPy so that sizing a
#: cell never imports it.
_BYTES = {Precision.FP64: 8, Precision.FP32: 4, Precision.FP16: 2}


class DeviceKind(enum.Enum):
    """Coarse device class a kernel targets."""

    CPU = "cpu"
    GPU = "gpu"


class Layout(enum.Enum):
    """Memory layout of a dense matrix.

    The paper parallelizes over rows or columns "based on whether a language
    is row-major (e.g. Python default numpy arrays) or column-major (e.g.
    Julia) to ensure equivalent computational workloads" (Sec. III).
    """

    ROW_MAJOR = "row-major"
    COL_MAJOR = "col-major"

    @property
    def np_order(self) -> str:
        return "C" if self is Layout.ROW_MAJOR else "F"

    @property
    def contiguous_axis(self) -> int:
        """Axis along which consecutive elements are adjacent in memory."""
        return 1 if self is Layout.ROW_MAJOR else 0


@dataclass(frozen=True)
class MatrixShape:
    """GEMM problem shape: ``C[M,N] += A[M,K] @ B[K,N]``.

    The paper's artifact sweeps square problems (``M == N == K``) but the
    library supports the general rectangular case.
    """

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        for name in ("m", "n", "k"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise ValueError(f"matrix dimension {name}={v!r} must be a positive int")

    @classmethod
    def square(cls, n: int) -> "MatrixShape":
        return cls(n, n, n)

    @property
    def is_square(self) -> bool:
        return self.m == self.n == self.k

    @property
    def flops(self) -> int:
        """Floating point operations of one GEMM: one mul + one add per MAC."""
        return 2 * self.m * self.n * self.k

    def footprint_bytes(self, precision: Precision) -> int:
        """Total bytes of A, B and C for this shape and precision."""
        in_bytes = precision.bytes
        out_bytes = precision.accum_dtype.itemsize
        return (self.m * self.k + self.k * self.n) * in_bytes + self.m * self.n * out_bytes

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.m}x{self.n}x{self.k}"
