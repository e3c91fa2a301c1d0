"""Cost engine: fluid bandwidth simulation, roofline/cache model, executor."""

from .._lazy import lazy_exports

__all__ = [
    "BlockedEstimate",
    "best_tile_for",
    "blocked_gemm_estimate",
    "blocked_traffic_bytes",
    "CPUIssueProfile",
    "CPUKernelTiming",
    "simulate_cpu_kernel",
    "cpu_cycles_total",
    "Channel",
    "Flow",
    "FlowResult",
    "FluidSimulation",
    "ArrayTraffic",
    "TrafficEstimate",
    "estimate_dram_traffic",
    "roofline_time",
    "NODE_VARIABILITY",
    "VariabilityModel",
    "rng_for",
    "FAULT_COSTS",
    "Fault",
    "FaultConfig",
    "FaultInjector",
    "FaultKind",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".executor": ("CPUIssueProfile", "CPUKernelTiming", "cpu_cycles_total",
                  "simulate_cpu_kernel"),
    ".blocking": ("BlockedEstimate", "best_tile_for", "blocked_gemm_estimate",
                  "blocked_traffic_bytes"),
    ".faults": ("FAULT_COSTS", "Fault", "FaultConfig", "FaultInjector",
                "FaultKind"),
    ".fluid": ("Channel", "Flow", "FlowResult", "FluidSimulation"),
    ".roofline": ("ArrayTraffic", "TrafficEstimate", "estimate_dram_traffic",
                  "roofline_time"),
    ".variability": ("NODE_VARIABILITY", "VariabilityModel", "rng_for"),
})
