"""GPU execution simulation: launch, occupancy, coalescing, wave scheduling."""

from .._lazy import lazy_exports

__all__ = [
    "AccessCoalescing",
    "CoalescingReport",
    "analyze_coalescing",
    "LaunchConfig",
    "paper_launch",
    "Occupancy",
    "occupancy",
    "TransferEstimate",
    "gemm_transfer_estimate",
    "GPUKernelTiming",
    "IssueProfile",
    "classify_kernel_bound",
    "simulate_gpu_kernel",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".coalescing": ("AccessCoalescing", "CoalescingReport",
                    "analyze_coalescing"),
    ".launch": ("LaunchConfig", "paper_launch"),
    ".occupancy": ("Occupancy", "occupancy"),
    ".transfer": ("TransferEstimate", "gemm_transfer_estimate"),
    ".warp_sim": ("GPUKernelTiming", "IssueProfile", "classify_kernel_bound",
                  "simulate_gpu_kernel"),
})
