"""Real, runnable GEMM kernels and their validation against NumPy."""

from .._lazy import lazy_exports

__all__ = [
    "gemm_blocked",
    "pick_block_size",
    "LOOP_ORDERS",
    "gemm_ijk",
    "gemm_ijk_accum",
    "gemm_ikj",
    "gemm_jik",
    "gemm_jki",
    "gemm_kij",
    "gemm_kji",
    "naive_gemm",
    "reference_gemm",
    "assert_allclose_gemm",
    "tolerance_for",
    "validate_kernel",
    "gemm_colwise",
    "gemm_dot_rows",
    "gemm_outer",
    "gemm_rowwise",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".blocked": ("gemm_blocked", "pick_block_size"),
    ".naive": ("LOOP_ORDERS", "gemm_ijk", "gemm_ijk_accum", "gemm_ikj",
               "gemm_jik", "gemm_jki", "gemm_kij", "gemm_kji", "naive_gemm"),
    ".reference": ("reference_gemm",),
    ".validate": ("assert_allclose_gemm", "tolerance_for", "validate_kernel"),
    ".vectorized": ("gemm_colwise", "gemm_dot_rows", "gemm_outer",
                    "gemm_rowwise"),
})
