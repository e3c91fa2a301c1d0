"""BabelStream-style memory-bandwidth benchmarks (extension, E16).

The memory-bound complement to the paper's compute-leaning GEMM study:
the five STREAM kernels across the same programming models and machines,
with real NumPy implementations for host measurement and validation.
"""

from .._lazy import lazy_exports

__all__ = [
    "DEFAULT_N",
    "StreamTable",
    "measure_host_stream",
    "stream_table",
    "SCALAR",
    "StreamArrays",
    "make_arrays",
    "run_kernel",
    "validate_stream",
    "StreamTiming",
    "simulate_stream",
    "KERNEL_TRAITS",
    "StreamKernel",
    "StreamTraits",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".harness": ("DEFAULT_N", "StreamTable", "measure_host_stream",
                 "stream_table"),
    ".kernels": ("SCALAR", "StreamArrays", "make_arrays", "run_kernel",
                 "validate_stream"),
    ".model": ("StreamTiming", "simulate_stream"),
    ".spec": ("KERNEL_TRAITS", "StreamKernel", "StreamTraits"),
})
