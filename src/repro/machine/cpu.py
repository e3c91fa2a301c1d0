"""CPU machine model: cores, SIMD units, NUMA topology.

A :class:`CPUSpec` captures exactly the hardware levers the paper attributes
performance differences to: core count and clock (peak compute), SIMD width
and FMA issue (vectorisation headroom), and the NUMA layout that makes
thread pinning matter on Crusher's 4-NUMA EPYC but not on Wombat's
single-NUMA Ampere Altra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..core.types import Precision
from ..errors import MachineModelError
from .cache import CacheHierarchy

__all__ = ["NUMADomain", "CPUSpec"]


@dataclass(frozen=True)
class NUMADomain:
    """One NUMA region: a set of cores with local memory.

    ``remote_bandwidth_factor`` scales the bandwidth a core in this domain
    sees when touching memory homed in another domain; ``remote_latency_ns``
    is the additional load latency for such accesses.
    """

    domain_id: int
    cores: Tuple[int, ...]
    local_bandwidth_gbs: float
    remote_bandwidth_factor: float = 0.5
    remote_latency_ns: float = 60.0

    def __post_init__(self) -> None:
        if not self.cores:
            raise MachineModelError(f"NUMA domain {self.domain_id} has no cores")
        if not (0.0 < self.remote_bandwidth_factor <= 1.0):
            raise MachineModelError("remote_bandwidth_factor must be in (0, 1]")
        if self.local_bandwidth_gbs <= 0:
            raise MachineModelError("local bandwidth must be positive")


@dataclass(frozen=True)
class CPUSpec:
    """Specification of one multicore CPU socket/node.

    Parameters
    ----------
    name:
        Marketing name, e.g. ``"AMD EPYC 7A53"``.
    cores:
        Physical core count used by the study (SMT is not used; the paper
        runs one thread per core).
    clock_ghz:
        Sustained all-core clock.
    simd_bits:
        Vector register width (AVX2: 256, NEON: 128).
    fma_units:
        FMA pipes per core that can issue per cycle.
    native_fp16:
        Whether the core executes FP16 FMAs natively (Neoverse-N1: yes via
        FMLA; Zen 3: no, FP16 is converted and Julia's fallback is very
        slow — the paper reports "very low performance" on the AMD CPU).
    numa:
        NUMA domains, with ``domain_id`` equal to their position.  Their
        core lists must partition ``range(cores)``.
    caches:
        The cache hierarchy.
    frontend_ipc:
        Scalar instructions retired per cycle for non-vector overhead work
        (index arithmetic, branches).  Used to cost un-vectorised code.
    """

    name: str
    cores: int
    clock_ghz: float
    simd_bits: int
    fma_units: int
    caches: CacheHierarchy
    numa: Tuple[NUMADomain, ...]
    native_fp16: bool = False
    frontend_ipc: float = 4.0
    #: Load and store pipes per core per cycle.
    load_ports: int = 2
    store_ports: int = 1
    #: FMA result latency in cycles: the loop-carried chain of an
    #: un-reassociated reduction.
    fma_latency_cycles: float = 4.0

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.clock_ghz <= 0:
            raise MachineModelError("cores and clock must be positive")
        if self.simd_bits not in (64, 128, 256, 512):
            raise MachineModelError(f"unsupported simd width {self.simd_bits}")
        # Domains are addressed by position (channel "numa<i>" is
        # cpu.numa[i]), so the ids must be exactly that position.
        ids = [d.domain_id for d in self.numa]
        if ids != list(range(len(self.numa))):
            raise MachineModelError(
                f"NUMA domain ids of {self.name} must be 0..{len(self.numa) - 1} "
                f"in order, got {ids}"
            )
        seen = sorted(c for d in self.numa for c in d.cores)
        if seen != list(range(self.cores)):
            raise MachineModelError(
                f"NUMA domains of {self.name} must partition cores 0..{self.cores - 1}"
            )

    # -- derived quantities ------------------------------------------------

    @property
    def numa_domains(self) -> int:
        return len(self.numa)

    def simd_lanes(self, precision: Precision) -> int:
        """Vector lanes per register for a given element width.

        FP16 on non-native hardware computes at FP32 width after conversion,
        so it gains no extra lanes.
        """
        bits = precision.bits
        if precision is Precision.FP16 and not self.native_fp16:
            bits = Precision.FP32.bits
        return max(1, self.simd_bits // bits)

    def flops_per_cycle_per_core(self, precision: Precision, vectorized: bool = True) -> float:
        """Peak MAC throughput of one core (2 flops per FMA lane)."""
        lanes = self.simd_lanes(precision) if vectorized else 1
        return 2.0 * lanes * self.fma_units

    def peak_gflops(self, precision: Precision, threads: int = 0, vectorized: bool = True) -> float:
        """Aggregate peak GFLOP/s with ``threads`` active cores (0 = all)."""
        active = self.cores if threads in (0, None) else min(threads, self.cores)
        return active * self.clock_ghz * self.flops_per_cycle_per_core(precision, vectorized)

    @property
    def total_bandwidth_gbs(self) -> float:
        """Aggregate DRAM bandwidth across all NUMA domains."""
        return sum(d.local_bandwidth_gbs for d in self.numa)

    def domain_of_core(self, core: int) -> NUMADomain:
        for domain in self.numa:
            if core in domain.cores:
                return domain
        raise MachineModelError(f"core {core} outside 0..{self.cores - 1}")

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: {self.cores} cores @ {self.clock_ghz} GHz, "
            f"{self.simd_bits}-bit SIMD x{self.fma_units} FMA, "
            f"{self.numa_domains} NUMA domain(s), "
            f"{self.total_bandwidth_gbs:.0f} GB/s DRAM"
        )


def uniform_numa(cores: int, domains: int, total_bandwidth_gbs: float,
                 remote_bandwidth_factor: float = 0.5,
                 remote_latency_ns: float = 60.0) -> Tuple[NUMADomain, ...]:
    """Evenly split ``cores`` and bandwidth across ``domains`` regions."""
    if cores % domains:
        raise MachineModelError(f"{cores} cores do not divide into {domains} domains")
    per = cores // domains
    bw = total_bandwidth_gbs / domains
    return tuple(
        NUMADomain(
            domain_id=d,
            cores=tuple(range(d * per, (d + 1) * per)),
            local_bandwidth_gbs=bw,
            remote_bandwidth_factor=remote_bandwidth_factor,
            remote_latency_ns=remote_latency_ns,
        )
        for d in range(domains)
    )


# re-export helper under the module's public names
__all__.append("uniform_numa")
