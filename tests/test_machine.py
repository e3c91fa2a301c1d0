"""Tests for the machine models: caches, CPUs, GPUs, nodes, catalog."""

import pytest
from hypothesis import given, strategies as st

from repro.core.types import Precision
from repro.errors import MachineModelError
from repro.machine import (
    A100,
    AMPERE_ALTRA,
    CRUSHER,
    CacheHierarchy,
    CacheLevel,
    CPUSpec,
    EPYC_7A53,
    GPUSpec,
    MI250X,
    NUMADomain,
    WOMBAT,
    cpu_by_name,
    gpu_by_name,
    node_by_name,
    uniform_numa,
)


class TestCacheLevel:
    def test_basic(self):
        l1 = CacheLevel("L1", 32 * 1024, 64, shared_by=1)
        assert l1.effective_size_per_core() == 32 * 1024

    def test_shared_split(self):
        l3 = CacheLevel("L3", 32 << 20, 64, shared_by=8)
        assert l3.effective_size_per_core() == (32 << 20) / 8

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(MachineModelError):
            CacheLevel("L1", 1024, line_bytes=48)

    def test_rejects_zero_size(self):
        with pytest.raises(MachineModelError):
            CacheLevel("L1", 0)


class TestCacheHierarchy:
    def test_ordering_enforced(self):
        with pytest.raises(MachineModelError):
            CacheHierarchy.of(CacheLevel("L1", 2048), CacheLevel("L2", 1024))

    def test_innermost_fitting(self):
        h = CacheHierarchy.of(CacheLevel("L1", 1024), CacheLevel("L2", 64 * 1024))
        assert h.innermost_fitting(512).name == "L1"
        assert h.innermost_fitting(32 * 1024).name == "L2"
        assert h.innermost_fitting(1 << 30) is None

    def test_innermost_fitting_with_sharers(self):
        h = CacheHierarchy.of(CacheLevel("L3", 1024, shared_by=8))
        # one active core gets the whole level
        assert h.innermost_fitting(1024, active_sharers=1) is not None
        # eight sharers each get 128 bytes
        assert h.innermost_fitting(1024, active_sharers=8) is None

    def test_level_lookup(self):
        assert EPYC_7A53.caches.level("l3").name == "L3"
        with pytest.raises(MachineModelError):
            EPYC_7A53.caches.level("L4")


class TestCPUSpec:
    def test_numa_partition_enforced(self):
        with pytest.raises(MachineModelError):
            CPUSpec(
                name="bad", cores=4, clock_ghz=1.0, simd_bits=128,
                fma_units=1, caches=CacheHierarchy(),
                numa=(NUMADomain(0, (0, 1), 10.0),),  # cores 2,3 missing
            )

    @pytest.mark.parametrize("ids", [(1, 0), (0, 2), (1, 2)])
    def test_numa_domain_ids_must_match_position(self, ids):
        # Channels and NUMA costs address domains by position, so an id
        # out of place used to surface later as a KeyError mid-simulation.
        with pytest.raises(MachineModelError, match="domain ids"):
            CPUSpec(
                name="bad", cores=4, clock_ghz=1.0, simd_bits=128,
                fma_units=1, caches=CacheHierarchy(),
                numa=(NUMADomain(ids[0], (0, 1), 10.0),
                      NUMADomain(ids[1], (2, 3), 10.0)),
            )

    def test_simd_lanes(self):
        assert EPYC_7A53.simd_lanes(Precision.FP64) == 4   # 256-bit AVX2
        assert EPYC_7A53.simd_lanes(Precision.FP32) == 8
        assert AMPERE_ALTRA.simd_lanes(Precision.FP64) == 2  # 128-bit NEON

    def test_fp16_lanes_native_vs_not(self):
        # Altra executes FP16 natively: 8 lanes in 128 bits.
        assert AMPERE_ALTRA.simd_lanes(Precision.FP16) == 8
        # EPYC converts to FP32: no lane gain over FP32.
        assert EPYC_7A53.simd_lanes(Precision.FP16) == EPYC_7A53.simd_lanes(Precision.FP32)

    def test_peak_gflops_scales_with_threads(self):
        full = EPYC_7A53.peak_gflops(Precision.FP64)
        half = EPYC_7A53.peak_gflops(Precision.FP64, threads=32)
        assert full == pytest.approx(2 * half)

    def test_domain_of_core(self):
        assert EPYC_7A53.domain_of_core(0).domain_id == 0
        assert EPYC_7A53.domain_of_core(63).domain_id == 3
        with pytest.raises(MachineModelError):
            EPYC_7A53.domain_of_core(64)

    def test_uniform_numa_rejects_indivisible(self):
        with pytest.raises(MachineModelError):
            uniform_numa(10, 3, 100.0)

    @given(st.integers(1, 8))
    def test_uniform_numa_partitions(self, domains):
        cores = domains * 4
        doms = uniform_numa(cores, domains, 100.0)
        seen = sorted(c for d in doms for c in d.cores)
        assert seen == list(range(cores))


class TestGPUSpec:
    def test_a100_fp64_fp32_ratio(self):
        """A100 vector FP32 is exactly twice FP64 — the Sec. IV-B lever."""
        assert A100.peak_gflops(Precision.FP32) == pytest.approx(
            2 * A100.peak_gflops(Precision.FP64))

    def test_mi250x_full_rate_double(self):
        assert MI250X.peak_gflops(Precision.FP64) == pytest.approx(
            MI250X.peak_gflops(Precision.FP32))

    def test_peak_magnitudes(self):
        # datasheet: 9.7 TF (A100 fp64), 23.9 TF (MI250X GCD fp64)
        assert A100.peak_gflops(Precision.FP64) == pytest.approx(9746, rel=0.01)
        assert MI250X.peak_gflops(Precision.FP64) == pytest.approx(23936, rel=0.01)

    def test_machine_balance_positive(self):
        assert A100.machine_balance(Precision.FP64) > 1.0

    def test_fp16_falls_back_to_fp32_rate(self):
        assert A100.fma_rate(Precision.FP16) == A100.fma_rate(Precision.FP32)

    def test_rejects_bad_warp(self):
        with pytest.raises(MachineModelError):
            GPUSpec(name="x", compute_units=1, clock_ghz=1.0,
                    fma_per_cycle={Precision.FP64: 1, Precision.FP32: 2},
                    warp_size=48, max_threads_per_cu=1024, max_blocks_per_cu=8,
                    hbm_bandwidth_gbs=100, launch_overhead_us=1,
                    host_link_gbs=10)


class TestNodesAndCatalog:
    def test_crusher_composition(self):
        assert CRUSHER.cpu is EPYC_7A53
        assert CRUSHER.gpu() is MI250X
        assert CRUSHER.gpu_count == 8

    def test_wombat_composition(self):
        assert WOMBAT.cpu is AMPERE_ALTRA
        assert WOMBAT.gpu() is A100
        assert WOMBAT.gpu_count == 2

    def test_table1_core_counts(self):
        """Table I: 64-core 4-NUMA EPYC, 80-core 1-NUMA Altra."""
        assert EPYC_7A53.cores == 64 and EPYC_7A53.numa_domains == 4
        assert AMPERE_ALTRA.cores == 80 and AMPERE_ALTRA.numa_domains == 1

    def test_lookup_by_key_and_name(self):
        assert cpu_by_name("epyc-7a53") is EPYC_7A53
        assert cpu_by_name("AMD EPYC 7A53") is EPYC_7A53
        assert gpu_by_name("a100") is A100
        assert node_by_name("Wombat") is WOMBAT

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            cpu_by_name("m1-max")
        with pytest.raises(KeyError):
            gpu_by_name("h100")
        with pytest.raises(KeyError):
            node_by_name("frontier")
