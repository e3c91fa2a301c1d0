"""Core concepts: value types and the paper's performance-portability metrics."""

from .._lazy import lazy_exports

__all__ = ["Cascade", "CascadePoint", "cascade", "render_cascades",
           "DeviceKind", "Layout", "MatrixShape", "Precision"]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cascade": ("Cascade", "CascadePoint", "cascade", "render_cascades"),
    ".types": ("DeviceKind", "Layout", "MatrixShape", "Precision"),
})
