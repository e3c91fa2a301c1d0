"""Loop-nest kernel IR, builders, analyses and optimisation passes."""

from .._lazy import lazy_exports

__all__ = [
    "InstructionMix",
    "RefInfo",
    "StrideClass",
    "executions_of",
    "flop_count",
    "instruction_mix",
    "reference_info",
    "VAR_AXES",
    "build_gemm",
    "c_openmp_cpu",
    "gemm_arrays",
    "gpu_thread_per_element",
    "julia_threads_cpu",
    "kokkos_cpu",
    "numba_cpu",
    "ArrayDecl",
    "ArrayRef",
    "AxisRole",
    "Body",
    "FMAOp",
    "Guard",
    "IndexExpr",
    "Kernel",
    "LoadOp",
    "Loop",
    "ParallelKind",
    "StoreOp",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".analysis": ("InstructionMix", "RefInfo", "StrideClass", "executions_of",
                  "flop_count", "instruction_mix", "reference_info"),
    ".builder": ("VAR_AXES", "build_gemm", "c_openmp_cpu", "gemm_arrays",
                 "gpu_thread_per_element", "julia_threads_cpu", "kokkos_cpu",
                 "numba_cpu"),
    ".nodes": ("ArrayDecl", "ArrayRef", "AxisRole", "Body", "FMAOp", "Guard",
               "IndexExpr", "Kernel", "LoadOp", "Loop", "ParallelKind",
               "StoreOp"),
})
