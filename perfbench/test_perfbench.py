"""Self-tests of the benchmark itself.

Run from the checkout root::

    python3 -m pytest perfbench -q

They check the benchmark, not the program: the campaign plan is a pure
function of the seed, every metric name is well formed and matches
``BENCHMARK.json``, span attribution adds up, a short run of each
workload finishes with nothing failed, the exact work counters repeat
for a seed, and a traced run's spans stay within its wall.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import service_mix  # noqa: E402
from spans import Span, attribute  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_same_seed_same_service_mix_specs():
    from repro.service import spec_to_dict

    def specs(seed):
        return [spec_to_dict(service_mix.spec_for(rnd, t))
                for rnd in service_mix.plan(seed, 24)
                for t in range(len(service_mix.TENANTS))]

    assert specs(5) == specs(5)
    assert specs(5) != specs(6)


def test_plan_mixes_panels_and_overlaps_tenants():
    rounds = service_mix.plan(9, 40)
    for block in range(0, 40, 4):
        panels = {(r.node, r.device) for r in rounds[block:block + 4]}
        assert panels == set(service_mix.PANELS)
    shared = total = 0
    for r in rounds:
        a, b = (set(s) for s in r.sizes)
        shared += len(a & b) * len(r.models)
        total += len(a) * len(r.models)
    assert 0.55 <= shared / total <= 0.70
    # Every four blocks, each panel runs each of its models equally often.
    for start in range(0, 32, 16):
        runs = {}
        for r in rounds[start:start + 16]:
            for model in r.models:
                key = (r.node, r.device, model)
                runs[key] = runs.get(key, 0) + 1
        for (node, device), models in service_mix.MODELS.items():
            n_models = service_mix.SHAPES[(node, device)][0]
            assert [runs[(node, device, m)] for m in models] \
                == [n_models] * len(models)


def test_metric_names_are_well_formed_and_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == list(run.PER_LAYER)
    names = [n for n, _ in e2e + layers]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def _span(sid, parent, tid, name, t0, t1, cpu=None):
    span = Span.from_list([sid, parent, tid, name, t0, t1, 0.0,
                           t1 - t0 if cpu is None else cpu])
    return span


def test_attribution_adds_up_to_the_covered_wall():
    spans = [
        _span(1, None, 1, "outer", 0.0, 10.0),
        _span(2, 1, 1, "inner", 1.0, 3.0),
        # Two pool tasks linked to the outer span from other threads,
        # overlapping each other for one second.
        _span(3, 1, 2, "task", 4.0, 6.0),
        _span(4, 1, 3, "task", 5.0, 8.0),
        # Unrelated root span after a gap.
        _span(5, None, 1, "tail", 11.0, 12.0),
    ]
    own, cpu, calls = attribute(spans)
    assert own["inner"] == pytest.approx(2.0)
    assert own["task"] == pytest.approx(4.0)
    # 0-1, 3-4 and 8-10 are outer's alone.
    assert own["outer"] == pytest.approx(4.0)
    assert own["tail"] == pytest.approx(1.0)
    wall = 12.0
    assert sum(own.values()) + 1.0 == pytest.approx(wall)  # gap 10-11
    assert calls == {"outer": 1, "inner": 1, "task": 2, "tail": 1}
    # CPU self time subtracts same-thread children only.
    assert cpu["outer"] == pytest.approx(10.0 - 2.0)


def test_attribution_clips_to_the_window():
    spans = [_span(1, None, 1, "a", 0.0, 4.0), _span(2, None, 2, "b", 3.0, 9.0)]
    own, _, calls = attribute(spans, 2.0, 5.0)
    assert own["a"] == pytest.approx(1.5)
    assert own["b"] == pytest.approx(1.5)
    assert calls == {"b": 1}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_finishes_without_failures(workload):
    result = _bench(workload, seed=3, trace=0)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert [*result["metrics"]] == [n for n, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["paper-cold", "service-mix"])
def test_exact_counters_repeat_for_a_seed(workload):
    first = _bench(workload, seed=4, trace=1)
    second = _bench(workload, seed=4, trace=1)
    for result in (first, second):
        assert result["correct"] is True
        assert result["failed"] == 0
        metrics = result["metrics"]
        # Spans never cover more than the traced wall: the remainder
        # (wall minus every layer's self time) cannot go negative.
        assert metrics["trace.unattributed_ms"]["value"] >= 0
        for name in metrics:
            if name.endswith(".self_ms"):
                assert metrics[name]["value"] >= 0, name
    for name in run.EXACT_COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name
