"""Discrete-event simulation of one multithreaded parallel region.

Each thread owns a chunk of the worksharing loop, characterised by a
compute time (from the instruction-mix model) and a DRAM traffic volume
(from the cache model).  Threads overlap compute with memory, so a thread
finishes at ``max(compute, memory)`` — but the memory side is *shared*:
all threads in a NUMA domain draw from that domain's controllers, modelled
as max-min fair fluid channels (:mod:`repro.sim.fluid`).

On top of the fluid core the simulator charges:

* NUMA traffic inflation for remote accesses (:mod:`repro.sched.numa`);
* serialisation when threads are co-resident on one core (oversubscription);
* a migration tax for unpinned threads (the OS moves them, refilling
  caches and breaking locality) — the mechanism behind Numba's gap on
  Crusher's 4-NUMA EPYC;
* fork/join overhead per parallel region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..machine.cpu import CPUSpec, NUMADomain
from ..sim.fluid import Channel, Flow, FluidSimulation
from .affinity import ThreadPlacement
from .numa import MemoryHome, memory_costs

__all__ = ["ThreadWork", "ThreadSimResult", "simulate_parallel_region",
           "MIGRATION_COMPUTE_TAX", "FORK_JOIN_BASE_S", "BARRIER_PER_LOG2_S",
           "MIN_STREAM_RATE_BS"]

#: Compute-time multiplier for unpinned threads on a multi-domain CPU.
#: Every migration across a CCD/NUMA boundary refills L2/L3 and breaks the
#: stream prefetchers; on Crusher's 4-domain EPYC this is the dominant
#: term separating the unpinnable Numba runtime (Table III: 0.55) from the
#: pinned models, over and above its codegen gap.  Single-domain CPUs are
#: unaffected (the tax only applies when numa_domains > 1), which is why
#: Numba fares relatively better on Wombat's Altra.
MIGRATION_COMPUTE_TAX = 1.30

#: Fixed cost to fork a parallel region and join it again.
FORK_JOIN_BASE_S = 8e-6

#: Tree-barrier cost per log2(threads).
BARRIER_PER_LOG2_S = 1.5e-6

#: Floor on a thread's memory demand rate (bytes/s).  Even a thread whose
#: compute side retires data very slowly keeps demand misses and hardware
#: prefetch trickling at roughly one cache line per DRAM round trip
#: (64 B / ~64 ns ~= 1 GB/s), so its fair-share claim on the channel never
#: collapses to zero — but it is a *rate*, never a byte count.
MIN_STREAM_RATE_BS = 1e9


@dataclass(frozen=True)
class ThreadWork:
    """One thread's share of the parallel loop."""

    thread: int
    compute_seconds: float
    dram_bytes: float

    def __post_init__(self) -> None:
        if self.compute_seconds < 0 or self.dram_bytes < 0:
            raise ValueError("work must be non-negative")


@dataclass(frozen=True)
class ThreadSimResult:
    """Outcome of one simulated parallel region."""

    total_seconds: float
    per_thread_seconds: Sequence[float]
    fork_join_seconds: float
    achieved_bandwidth_gbs: float
    imbalance: float  # max/mean of per-thread busy time

    @property
    def busy_seconds(self) -> float:
        return max(self.per_thread_seconds, default=0.0)


def simulate_parallel_region(
    cpu: CPUSpec,
    placement: ThreadPlacement,
    work: Sequence[ThreadWork],
    home: MemoryHome = MemoryHome.INTERLEAVED,
    migration_tax: float = MIGRATION_COMPUTE_TAX,
) -> ThreadSimResult:
    """Simulate one parallel region to completion."""
    if len(work) != placement.threads:
        raise ValueError("one ThreadWork per placed thread required")

    costs = memory_costs(cpu, placement, home)

    # Oversubscription: threads sharing a core timeslice its pipeline.
    core_load = {}
    for t in range(placement.threads):
        core_load[placement.cores[t]] = core_load.get(placement.cores[t], 0) + 1

    unpinned_multi = (not placement.pinned) and cpu.numa_domains > 1
    # The tax scales with node saturation: on a mostly idle node the OS has
    # little reason to bounce threads across domains, at full subscription
    # every preemption lands somewhere cache-cold.
    load_factor = min(1.0, placement.threads / cpu.cores)
    effective_tax = 1.0 + (migration_tax - 1.0) * load_factor

    # Unless every page sits in domain 0, each thread's traffic splits
    # evenly over the domains, so every domain receives identical flows
    # and domains of equal capacity run identical event schedules,
    # finishing each flow at the same instant.  Solve the first domain of
    # each distinct capacity only; it stands for the rest bit-exactly.
    solved: Dict[float, NUMADomain] = {}
    for d in cpu.numa:
        solved.setdefault(d.local_bandwidth_gbs * 1e9, d)
    sim = FluidSimulation([Channel(name=f"numa{d.domain_id}", capacity=cap)
                           for cap, d in solved.items()])

    flows: List[Flow] = []
    owner: List[int] = []  # flows[i] belongs to work[owner[i]]
    compute_secs: List[float] = []
    eff_bytes: List[float] = []
    domains = cpu.numa_domains
    for idx, w in enumerate(work):
        cost = costs[w.thread]
        comp = w.compute_seconds * core_load[placement.cores[w.thread]]
        if unpinned_multi:
            comp *= effective_tax
        compute_secs.append(comp)

        inflated = w.dram_bytes * cost.bandwidth_inflation
        eff_bytes.append(inflated)
        if inflated <= 0:
            continue
        # Demand cap: the thread streams data no faster than its compute
        # consumes it; fully memory-bound chunks (comp == 0) are uncapped.
        # The floor is a minimum *rate* (MIN_STREAM_RATE_BS), never the byte
        # count itself — rates and volumes don't mix.
        demand_total = inflated / comp if comp > 0 else math.inf
        demand_total = max(demand_total, MIN_STREAM_RATE_BS)
        if home is MemoryHome.SERIAL_NODE0:
            # all pages in domain 0: everything contends on one channel
            flows.append(Flow(f"t{w.thread}", inflated, demand_total, "numa0"))
            owner.append(idx)
        else:
            per = inflated / domains
            for d in solved.values():
                flows.append(Flow(f"t{w.thread}.d{d.domain_id}", per,
                                  demand_total / domains,
                                  f"numa{d.domain_id}"))
                owner.append(idx)

    results = sim.run(flows) if flows else {}

    mem_finish = [0.0] * len(work)
    for flow, idx in zip(flows, owner):
        mem_finish[idx] = max(mem_finish[idx], results[flow.name].finish)
    per_thread = [max(comp, mem) for comp, mem in zip(compute_secs, mem_finish)]

    busy = max(per_thread, default=0.0)
    # A single-thread region forks and joins but runs no tree barrier.
    fork_join = FORK_JOIN_BASE_S
    if placement.threads > 1:
        fork_join += BARRIER_PER_LOG2_S * math.log2(placement.threads)
    total = busy + fork_join

    total_bytes = sum(eff_bytes)
    bw = (total_bytes / busy / 1e9) if busy > 0 else 0.0
    mean = sum(per_thread) / len(per_thread) if per_thread else 0.0
    imb = (busy / mean) if mean > 0 else 1.0

    return ThreadSimResult(
        total_seconds=total,
        per_thread_seconds=tuple(per_thread),
        fork_join_seconds=fork_join,
        achieved_bandwidth_gbs=bw,
        imbalance=imb,
    )
