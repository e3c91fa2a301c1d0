"""Array substrate: layouts, input generation, simulated device arrays."""

from .._lazy import lazy_exports

__all__ = [
    "DeviceArray",
    "DeviceContext",
    "TransferRecord",
    "alloc",
    "is_layout",
    "linear_index",
    "strides_elements",
    "touched_lines",
    "FillPolicy",
    "fill_matrix",
    "make_gemm_operands",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".device": ("DeviceArray", "DeviceContext", "TransferRecord"),
    ".layout": ("alloc", "is_layout", "linear_index", "strides_elements",
                "touched_lines"),
    ".random": ("FillPolicy", "fill_matrix", "make_gemm_operands"),
})
