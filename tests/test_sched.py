"""Tests for CPU scheduling: affinity, chunking, NUMA, thread simulation."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExperimentError, MachineModelError
from repro.machine import AMPERE_ALTRA, EPYC_7A53
from repro.machine.cpu import NUMADomain
from repro.sched import (
    MemoryHome,
    PinPolicy,
    Schedule,
    ThreadWork,
    chunk_sizes,
    imbalance,
    memory_costs,
    place_threads,
    simulate_parallel_region,
    static_chunks,
)
from repro.sched.thread_sim import (
    BARRIER_PER_LOG2_S,
    FORK_JOIN_BASE_S,
    MIGRATION_COMPUTE_TAX,
    MIN_STREAM_RATE_BS,
    ThreadSimResult,
)
from repro.sim.fluid import Channel, Flow, FluidSimulation


class TestAffinity:
    def test_compact_consecutive(self):
        p = place_threads(EPYC_7A53, 8, PinPolicy.COMPACT)
        assert p.cores == tuple(range(8))
        assert p.pinned

    def test_spread_round_robins_domains(self):
        p = place_threads(EPYC_7A53, 8, PinPolicy.SPREAD)
        domains = [p.domain_of(EPYC_7A53, t) for t in range(8)]
        assert domains == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_none_is_unpinned(self):
        p = place_threads(EPYC_7A53, 4, PinPolicy.NONE)
        assert not p.pinned

    def test_compact_fills_domains_in_order(self):
        p = place_threads(EPYC_7A53, 64, PinPolicy.COMPACT)
        assert p.threads_per_domain(EPYC_7A53) == (16, 16, 16, 16)

    def test_oversubscription_wraps(self):
        p = place_threads(AMPERE_ALTRA, 160, PinPolicy.COMPACT)
        assert p.cores[80] == 0

    def test_rejects_zero_threads(self):
        with pytest.raises(MachineModelError):
            place_threads(EPYC_7A53, 0, PinPolicy.COMPACT)


class TestChunking:
    def test_even_split(self):
        assert chunk_sizes(64, 4) == [16, 16, 16, 16]

    def test_remainder_goes_first(self):
        assert chunk_sizes(10, 4) == [3, 3, 2, 2]

    def test_static_chunks_partition(self):
        chunks = static_chunks(100, 7)
        assert chunks[0][0] == 0 and chunks[-1][1] == 100
        covered = sum(b - a for a, b in chunks)
        assert covered == 100

    def test_more_threads_than_iterations(self):
        sizes = chunk_sizes(3, 8)
        assert sum(sizes) == 3
        assert sizes.count(0) == 5

    def test_imbalance_even_is_one(self):
        assert imbalance(64, 64) == pytest.approx(1.0)

    def test_imbalance_worst_case(self):
        # 65 iterations on 64 threads: one thread does double work
        assert imbalance(65, 64) == pytest.approx(2 / (65 / 64), rel=1e-9)

    def test_rejects_bad_args(self):
        with pytest.raises(ExperimentError):
            static_chunks(10, 0)

    @given(st.integers(0, 100000), st.integers(1, 128))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, trip, threads):
        sizes = chunk_sizes(trip, threads)
        assert sum(sizes) == trip
        assert len(sizes) == threads
        assert max(sizes) - min(sizes) <= 1


class TestNUMACosts:
    def test_single_domain_no_remote(self):
        p = place_threads(AMPERE_ALTRA, 80, PinPolicy.COMPACT)
        costs = memory_costs(AMPERE_ALTRA, p)
        assert all(c.remote_fraction == 0.0 for c in costs)
        assert all(c.bandwidth_inflation == 1.0 for c in costs)

    def test_interleaved_four_domains(self):
        p = place_threads(EPYC_7A53, 64, PinPolicy.COMPACT)
        costs = memory_costs(EPYC_7A53, p, MemoryHome.INTERLEAVED)
        assert all(c.remote_fraction == pytest.approx(0.75) for c in costs)
        assert all(c.bandwidth_inflation > 1.0 for c in costs)

    def test_local_home_pinned_is_free(self):
        p = place_threads(EPYC_7A53, 64, PinPolicy.COMPACT)
        costs = memory_costs(EPYC_7A53, p, MemoryHome.LOCAL)
        assert all(c.remote_fraction == 0.0 for c in costs)

    def test_serial_node0_hurts_other_domains(self):
        p = place_threads(EPYC_7A53, 64, PinPolicy.COMPACT)
        costs = memory_costs(EPYC_7A53, p, MemoryHome.SERIAL_NODE0)
        assert costs[0].remote_fraction == 0.0       # thread on domain 0
        assert costs[-1].remote_fraction == 1.0      # thread on domain 3


def _work(threads, comp=1e-3, traffic=0.0):
    return [ThreadWork(t, comp, traffic) for t in range(threads)]


class TestThreadSim:
    def test_balanced_compute_bound(self):
        p = place_threads(EPYC_7A53, 64, PinPolicy.COMPACT)
        r = simulate_parallel_region(EPYC_7A53, p, _work(64, comp=1e-3))
        # makespan = per-thread compute + fork/join
        assert r.total_seconds == pytest.approx(1e-3 + r.fork_join_seconds)
        assert r.imbalance == pytest.approx(1.0)

    def test_imbalanced_chunk_sets_pace(self):
        p = place_threads(EPYC_7A53, 2, PinPolicy.COMPACT)
        work = [ThreadWork(0, 2e-3, 0.0), ThreadWork(1, 1e-3, 0.0)]
        r = simulate_parallel_region(EPYC_7A53, p, work)
        assert r.busy_seconds == pytest.approx(2e-3)
        assert r.imbalance > 1.0

    def test_memory_bound_region_limited_by_bandwidth(self):
        p = place_threads(EPYC_7A53, 64, PinPolicy.COMPACT)
        per_thread_bytes = 1e9 / 64
        r = simulate_parallel_region(
            EPYC_7A53, p, _work(64, comp=1e-6, traffic=per_thread_bytes))
        # 1 GB inflated by NUMA (x1.61) over 205 GB/s aggregate
        inflated = 1e9 * (1.0 + 0.75 * (1 / 0.55 - 1))
        expected = inflated / (205.0 * 1e9)
        assert r.busy_seconds == pytest.approx(expected, rel=0.05)

    def test_unpinned_pays_migration_tax_on_numa(self):
        """The Numba mechanism: unpinned threads on the 4-domain EPYC."""
        pinned = place_threads(EPYC_7A53, 64, PinPolicy.COMPACT)
        unpinned = place_threads(EPYC_7A53, 64, PinPolicy.NONE)
        rp = simulate_parallel_region(EPYC_7A53, pinned, _work(64))
        ru = simulate_parallel_region(EPYC_7A53, unpinned, _work(64))
        assert ru.busy_seconds == pytest.approx(
            rp.busy_seconds * MIGRATION_COMPUTE_TAX)

    def test_unpinned_free_on_single_domain(self):
        """...but costs nothing on Wombat's single-NUMA Altra."""
        pinned = place_threads(AMPERE_ALTRA, 80, PinPolicy.COMPACT)
        unpinned = place_threads(AMPERE_ALTRA, 80, PinPolicy.NONE)
        rp = simulate_parallel_region(AMPERE_ALTRA, pinned, _work(80))
        ru = simulate_parallel_region(AMPERE_ALTRA, unpinned, _work(80))
        assert ru.busy_seconds == pytest.approx(rp.busy_seconds)

    def test_oversubscription_serialises(self):
        p = place_threads(AMPERE_ALTRA, 160, PinPolicy.COMPACT)
        r = simulate_parallel_region(AMPERE_ALTRA, p, _work(160, comp=1e-3))
        assert r.busy_seconds == pytest.approx(2e-3)

    def test_work_count_must_match(self):
        p = place_threads(EPYC_7A53, 4, PinPolicy.COMPACT)
        with pytest.raises(ValueError):
            simulate_parallel_region(EPYC_7A53, p, _work(3))

    def test_slow_compute_demand_cap_is_a_rate(self):
        """Regression: the demand-cap floor used to be ``max(rate, bytes)``,
        so a slow-compute thread (comp > 1 s) claimed a channel share equal
        to its byte *count* and starved memory-bound peers.  The floor is a
        rate (MIN_STREAM_RATE_BS); the hog gets everything else."""
        p = place_threads(AMPERE_ALTRA, 2, PinPolicy.COMPACT)
        cap = AMPERE_ALTRA.numa[0].local_bandwidth_gbs * 1e9
        slow = ThreadWork(0, 100.0, 10e9)   # natural rate 0.1 GB/s
        hog = ThreadWork(1, 1e-6, 50e9)     # memory bound, uncapped
        r = simulate_parallel_region(AMPERE_ALTRA, p, [slow, hog])
        expected = 50e9 / (cap - MIN_STREAM_RATE_BS)
        assert r.per_thread_seconds[1] == pytest.approx(expected, rel=1e-6)

    def test_demand_floor_applies_per_domain_path(self):
        """Same regression on the interleaved multi-domain path: the
        per-domain cap used to be floored at the per-domain byte count."""
        p = place_threads(EPYC_7A53, 2, PinPolicy.COMPACT)
        domains = EPYC_7A53.numa_domains
        # both threads sit in domain 0; interleaving spreads their traffic
        slow = ThreadWork(0, 100.0, 10e9)
        hog = ThreadWork(1, 1e-6, 50e9)
        r = simulate_parallel_region(EPYC_7A53, p, [slow, hog])
        costs = memory_costs(EPYC_7A53, p, MemoryHome.INTERLEAVED)
        cap = EPYC_7A53.numa[0].local_bandwidth_gbs * 1e9
        hog_bytes = 50e9 * costs[1].bandwidth_inflation / domains
        expected = hog_bytes / (cap - MIN_STREAM_RATE_BS / domains)
        assert r.per_thread_seconds[1] == pytest.approx(expected, rel=1e-6)

    def test_single_thread_region_pays_base_fork_join_only(self):
        """Regression: log2(max(2, threads)) billed a 1-thread region for a
        2-thread tree barrier."""
        p = place_threads(EPYC_7A53, 1, PinPolicy.COMPACT)
        r = simulate_parallel_region(EPYC_7A53, p, _work(1))
        assert r.fork_join_seconds == FORK_JOIN_BASE_S

    def test_fork_join_grows_with_threads(self):
        p2 = place_threads(EPYC_7A53, 2, PinPolicy.COMPACT)
        p64 = place_threads(EPYC_7A53, 64, PinPolicy.COMPACT)
        r2 = simulate_parallel_region(EPYC_7A53, p2, _work(2))
        r64 = simulate_parallel_region(EPYC_7A53, p64, _work(64))
        assert r64.fork_join_seconds > r2.fork_join_seconds


def _oracle_simulate_parallel_region(cpu, placement, work,
                                     home=MemoryHome.INTERLEAVED,
                                     migration_tax=MIGRATION_COMPUTE_TAX):
    """The straightforward simulator the production one must match.

    Simulates one channel per NUMA domain, gives every domain its own
    copy of each thread's interleaved flow, and finds each thread's
    memory finish by prefix-matching every flow name against it.
    """
    costs = memory_costs(cpu, placement, home)
    core_load = {}
    for t in range(placement.threads):
        core_load[placement.cores[t]] = core_load.get(placement.cores[t], 0) + 1
    unpinned_multi = (not placement.pinned) and cpu.numa_domains > 1
    load_factor = min(1.0, placement.threads / cpu.cores)
    effective_tax = 1.0 + (migration_tax - 1.0) * load_factor
    sim = FluidSimulation([
        Channel(name=f"numa{d.domain_id}", capacity=d.local_bandwidth_gbs * 1e9)
        for d in cpu.numa
    ])
    flows, compute_secs, eff_bytes = [], [], []
    domains = cpu.numa_domains
    for w in work:
        comp = w.compute_seconds * core_load[placement.cores[w.thread]]
        if unpinned_multi:
            comp *= effective_tax
        compute_secs.append(comp)
        inflated = w.dram_bytes * costs[w.thread].bandwidth_inflation
        eff_bytes.append(inflated)
        if inflated <= 0:
            continue
        demand_total = inflated / comp if comp > 0 else math.inf
        demand_total = max(demand_total, MIN_STREAM_RATE_BS)
        if home is MemoryHome.SERIAL_NODE0:
            flows.append(Flow(f"t{w.thread}", inflated, demand_total, "numa0"))
        else:
            for d in range(domains):
                flows.append(Flow(f"t{w.thread}.d{d}", inflated / domains,
                                  demand_total / domains, f"numa{d}"))
    results = sim.run(flows) if flows else {}
    per_thread = []
    for idx, w in enumerate(work):
        mem_finish = max(
            (r.finish for name, r in results.items()
             if name == f"t{w.thread}" or name.startswith(f"t{w.thread}.")),
            default=0.0,
        )
        per_thread.append(max(compute_secs[idx], mem_finish))
    busy = max(per_thread, default=0.0)
    fork_join = FORK_JOIN_BASE_S
    if placement.threads > 1:
        fork_join += BARRIER_PER_LOG2_S * math.log2(placement.threads)
    bw = (sum(eff_bytes) / busy / 1e9) if busy > 0 else 0.0
    mean = sum(per_thread) / len(per_thread) if per_thread else 0.0
    return ThreadSimResult(
        total_seconds=busy + fork_join,
        per_thread_seconds=tuple(per_thread),
        fork_join_seconds=fork_join,
        achieved_bandwidth_gbs=bw,
        imbalance=(busy / mean) if mean > 0 else 1.0,
    )


#: A 4-domain part whose channels differ: two share a capacity, two are
#: unique, so the simulator must keep distinct channels apart while it
#: folds the equal pair together.
UNEVEN_EPYC = dataclasses.replace(
    EPYC_7A53, name="uneven EPYC",
    numa=tuple(
        NUMADomain(d.domain_id, d.cores, bw, d.remote_bandwidth_factor,
                   d.remote_latency_ns)
        for d, bw in zip(EPYC_7A53.numa, (60.0, 35.5, 60.0, 49.5))
    ),
)


@st.composite
def _regions(draw):
    cpu = draw(st.sampled_from([EPYC_7A53, AMPERE_ALTRA, UNEVEN_EPYC]))
    # up to twice the core count: oversubscribed placements included
    threads = draw(st.integers(1, 2 * cpu.cores))
    placement = place_threads(cpu, threads, draw(st.sampled_from(PinPolicy)))
    compute = st.one_of(st.just(0.0), st.floats(1e-7, 1e-2))
    traffic = st.one_of(st.just(0.0), st.floats(1e3, 1e10))
    work = [ThreadWork(t, draw(compute), draw(traffic))
            for t in range(threads)]
    return cpu, placement, work, draw(st.sampled_from(MemoryHome))


class TestThreadSimEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(_regions())
    def test_matches_all_domain_oracle_exactly(self, region):
        cpu, placement, work, home = region
        assert simulate_parallel_region(cpu, placement, work, home) == \
            _oracle_simulate_parallel_region(cpu, placement, work, home)

    def test_uneven_channels_match_oracle_exactly(self):
        p = place_threads(UNEVEN_EPYC, 64, PinPolicy.COMPACT)
        work = [ThreadWork(t, 1e-5 * (1 + t % 3), 2e7 * (1 + t % 5))
                for t in range(64)]
        assert simulate_parallel_region(UNEVEN_EPYC, p, work) == \
            _oracle_simulate_parallel_region(UNEVEN_EPYC, p, work)

    @pytest.mark.parametrize("cpu, expected", [
        (EPYC_7A53, 64),     # four equal channels: one solved
        (UNEVEN_EPYC, 192),  # three distinct capacities
    ])
    def test_interleaved_region_solves_each_distinct_channel_once(
            self, monkeypatch, cpu, expected):
        handed = []
        run = FluidSimulation.run

        def counting_run(sim, flows):
            handed.append(len(flows))
            return run(sim, flows)

        monkeypatch.setattr(FluidSimulation, "run", counting_run)
        p = place_threads(cpu, 64, PinPolicy.COMPACT)
        simulate_parallel_region(cpu, p, _work(64, comp=1e-4, traffic=1e7),
                                 MemoryHome.INTERLEAVED)
        assert handed == [expected]
