"""Tests for the fluid-flow bandwidth simulator."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.fluid import Channel, Flow, FluidSimulation, _max_min_rates


def sim(capacity=100.0):
    return FluidSimulation([Channel("mem", capacity)])


class TestSingleFlow:
    def test_uncapped_flow_runs_at_capacity(self):
        res = sim(100.0).run([Flow("a", 1000.0, math.inf, "mem")])
        assert res["a"].finish == pytest.approx(10.0)

    def test_demand_capped_flow(self):
        res = sim(100.0).run([Flow("a", 1000.0, 10.0, "mem")])
        assert res["a"].finish == pytest.approx(100.0)

    def test_zero_byte_flow_completes_immediately(self):
        res = sim().run([Flow("a", 0.0, 1.0, "mem", start=3.0)])
        assert res["a"].finish == 3.0

    def test_delayed_start(self):
        res = sim(100.0).run([Flow("a", 100.0, math.inf, "mem", start=5.0)])
        assert res["a"].start == 5.0
        assert res["a"].finish == pytest.approx(6.0)


class TestSharing:
    def test_two_equal_flows_halve(self):
        flows = [Flow("a", 100.0, math.inf, "mem"),
                 Flow("b", 100.0, math.inf, "mem")]
        res = sim(100.0).run(flows)
        assert res["a"].finish == pytest.approx(2.0)
        assert res["b"].finish == pytest.approx(2.0)

    def test_capped_flow_frees_bandwidth(self):
        """Max-min fairness: a demand-limited flow's leftover goes to the
        other flow."""
        flows = [Flow("slow", 100.0, 10.0, "mem"),
                 Flow("fast", 900.0, math.inf, "mem")]
        res = sim(100.0).run(flows)
        # slow streams at 10 for 10s; fast gets 90 throughout
        assert res["slow"].finish == pytest.approx(10.0)
        assert res["fast"].finish == pytest.approx(10.0)

    def test_completion_releases_share(self):
        flows = [Flow("a", 50.0, math.inf, "mem"),
                 Flow("b", 150.0, math.inf, "mem")]
        res = sim(100.0).run(flows)
        # both at 50 until t=1 (a done); b has 100 left at 100/s -> t=2
        assert res["a"].finish == pytest.approx(1.0)
        assert res["b"].finish == pytest.approx(2.0)

    def test_independent_channels_dont_contend(self):
        s = FluidSimulation([Channel("x", 100.0), Channel("y", 100.0)])
        res = s.run([Flow("a", 100.0, math.inf, "x"),
                     Flow("b", 100.0, math.inf, "y")])
        assert res["a"].finish == pytest.approx(1.0)
        assert res["b"].finish == pytest.approx(1.0)

    def test_late_arrival_shares_fairly(self):
        flows = [Flow("a", 200.0, math.inf, "mem"),
                 Flow("b", 100.0, math.inf, "mem", start=1.0)]
        res = sim(100.0).run(flows)
        # a alone until t=1 (100 left), then 50/50: a and b both need 2 more s
        assert res["a"].finish == pytest.approx(3.0)
        assert res["b"].finish == pytest.approx(3.0)


class TestValidation:
    def test_unknown_channel(self):
        with pytest.raises(KeyError):
            sim().run([Flow("a", 1.0, 1.0, "nope")])

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            sim().run([Flow("a", 1.0, 1.0, "mem"), Flow("a", 1.0, 1.0, "mem")])

    def test_negative_bytes(self):
        with pytest.raises(ValueError):
            Flow("a", -1.0, 1.0, "mem")

    def test_nonpositive_demand(self):
        with pytest.raises(ValueError):
            Flow("a", 1.0, 0.0, "mem")

    def test_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Channel("mem", 0.0)


class TestProperties:
    @given(st.lists(st.tuples(st.floats(1.0, 1e6), st.floats(1.0, 1e6)),
                    min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_makespan_bounds(self, pairs):
        """Makespan is bounded below by total_bytes/capacity and by the
        slowest flow alone, and above by serial execution."""
        cap = 100.0
        flows = [Flow(f"f{i}", b, d, "mem") for i, (b, d) in enumerate(pairs)]
        total = sum(f.bytes for f in flows)
        res = FluidSimulation([Channel("mem", cap)]).run(flows)
        makespan = max(r.finish for r in res.values())
        lower = max(total / cap, max(f.bytes / min(f.demand_rate, cap) for f in flows))
        upper = sum(f.bytes / min(f.demand_rate, cap) for f in flows)
        assert makespan >= lower * (1 - 1e-9)
        assert makespan <= upper * (1 + 1e-9)

    @given(st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_n_equal_flows_scale_linearly(self, n):
        flows = [Flow(f"f{i}", 100.0, math.inf, "mem") for i in range(n)]
        makespan = FluidSimulation([Channel("mem", 100.0)]).makespan(flows)
        assert makespan == pytest.approx(n * 1.0, rel=1e-6)

    def test_work_conservation(self):
        """With uncapped flows the channel never idles: makespan equals
        total bytes over capacity."""
        flows = [Flow(f"f{i}", 10.0 * (i + 1), math.inf, "mem")
                 for i in range(5)]
        makespan = sim(10.0).makespan(flows)
        assert makespan == pytest.approx(sum(10.0 * (i + 1) for i in range(5)) / 10.0)


# -- physics of the solver ---------------------------------------------------

_CHANNELS = ("c0", "c1", "c2")

_flows = st.lists(
    st.tuples(st.sampled_from(_CHANNELS),
              st.one_of(st.just(0.0), st.floats(1.0, 1e6)),   # bytes
              st.one_of(st.just(math.inf), st.floats(1.0, 1e6)),  # demand
              st.floats(0.0, 10.0)),                           # start
    min_size=1, max_size=10)
_capacities = st.tuples(*(st.floats(1.0, 1e6) for _ in _CHANNELS))


def _run(spec, capacities):
    channels = [Channel(name, cap) for name, cap in zip(_CHANNELS, capacities)]
    flows = [Flow(f"f{i}", b, d, c, start=s)
             for i, (c, b, d, s) in enumerate(spec)]
    return flows, {c.name: c for c in channels}, \
        FluidSimulation(channels).run(flows)


def _schedule(flows, channels, results):
    """The piecewise-constant schedule behind ``results``: for each gap
    between consecutive arrivals/completions, the active flows and the
    max-min rates the solver grants them there."""
    times = sorted({r.start for r in results.values()}
                   | {r.finish for r in results.values()})
    for a, b in zip(times, times[1:]):
        active = [f for f in flows if f.bytes > 0
                  and results[f.name].start <= a
                  and results[f.name].finish >= b]
        yield a, b, active, _max_min_rates(active, channels)


class TestSolverPhysics:
    """Invariants of the progressive-filling solver on arbitrary flow
    mixes: several channels, staggered arrivals, zero-byte flows, and
    flows with and without a demand cap."""

    @given(_flows, _capacities)
    @settings(max_examples=200, deadline=None)
    def test_bytes_are_conserved(self, spec, capacities):
        """Integrating each flow's granted rate over the schedule moves
        exactly its bytes: no flow finishes early or late."""
        flows, channels, results = _run(spec, capacities)
        moved = {f.name: 0.0 for f in flows}
        for a, b, active, rates in _schedule(flows, channels, results):
            for f in active:
                moved[f.name] += rates[f.name] * (b - a)
        for f in flows:
            assert moved[f.name] == pytest.approx(f.bytes, rel=1e-6,
                                                  abs=1e-9)

    @given(_flows, _capacities)
    @settings(max_examples=200, deadline=None)
    def test_rates_respect_demand_and_capacity(self, spec, capacities):
        flows, channels, results = _run(spec, capacities)
        for _, _, active, rates in _schedule(flows, channels, results):
            load = {name: 0.0 for name in channels}
            for f in active:
                assert rates[f.name] <= f.demand_rate * (1 + 1e-12)
                load[f.channel] += rates[f.name]
            for name, used in load.items():
                assert used <= channels[name].capacity * (1 + 1e-9)

    @given(_flows, _capacities)
    @settings(max_examples=200, deadline=None)
    def test_rates_are_max_min_fair(self, spec, capacities):
        """Each flow either runs at its demand cap, or its channel is
        saturated and no flow on that channel gets more than it does."""
        flows, channels, results = _run(spec, capacities)
        for _, _, active, rates in _schedule(flows, channels, results):
            for f in active:
                r = rates[f.name]
                if r >= f.demand_rate * (1 - 1e-12):
                    continue
                peers = [g for g in active if g.channel == f.channel]
                assert sum(rates[g.name] for g in peers) == pytest.approx(
                    channels[f.channel].capacity, rel=1e-9)
                assert all(rates[g.name] <= r * (1 + 1e-9) for g in peers)

    @given(_flows, _capacities)
    @settings(max_examples=200, deadline=None)
    def test_finish_never_precedes_compute_time(self, spec, capacities):
        """No flow beats its own compute side (``bytes / demand_rate``)
        or its channel running for it alone (``bytes / capacity``)."""
        flows, channels, results = _run(spec, capacities)
        for f in flows:
            r = results[f.name]
            assert r.start == f.start
            alone = f.bytes / min(f.demand_rate, channels[f.channel].capacity)
            assert r.finish - r.start >= alone * (1 - 1e-9)
