"""CPU execution simulation: affinity, chunking, NUMA, thread scheduling."""

from .._lazy import lazy_exports

__all__ = [
    "PinPolicy",
    "ThreadPlacement",
    "place_threads",
    "Schedule",
    "chunk_sizes",
    "imbalance",
    "static_chunks",
    "MemoryHome",
    "ThreadMemoryCost",
    "memory_costs",
    "ThreadSimResult",
    "ThreadWork",
    "simulate_parallel_region",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".affinity": ("PinPolicy", "ThreadPlacement", "place_threads"),
    ".chunk": ("Schedule", "chunk_sizes", "imbalance", "static_chunks"),
    ".numa": ("MemoryHome", "ThreadMemoryCost", "memory_costs"),
    ".thread_sim": ("ThreadSimResult", "ThreadWork",
                    "simulate_parallel_region"),
})
