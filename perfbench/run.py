"""The repo benchmark: one command, three workloads, every metric named.

Run from the root of a repro checkout::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
runs the same workload with every layer wrapped in spans and prints the
per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list each metric with its unit and the environment it was
measured in.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from statistics import median
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import paper  # noqa: E402
import service_mix  # noqa: E402
from sandbox import Ledger, Sandbox, environment_record, repo_root  # noqa: E402
from spans import LAYER_NAMES, attribute  # noqa: E402

WORKLOADS = ("paper-cold", "paper-warm", "service-mix")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s.p50", "s"),
    ("cells_per_s", "1/s"),
    ("latency_s.p50", "s"),
    ("latency_s.p90", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics (``--trace 1``) and their units, in order.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (f"{layer}.{field}", unit)
    for layer in LAYER_NAMES
    for field, unit in (("calls", "count"), ("self_ms", "ms"),
                        ("cpu_ms", "ms"))
) + (
    ("sim.fluid.flows", "count"),
    ("harness.engine.cache.get.hit_ratio", "ratio"),
    ("harness.journal.append.appends_per_cell", "1/cell"),
    ("cli.import_ms", "ms"),
    ("cli.modules_imported", "count"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.client.polls_per_campaign", "1/campaign"),
    ("service.dedup_hit_ratio", "ratio"),
    ("work.cells_delivered", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.untraced_wall_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
)

#: Counters that must repeat exactly for a given seed.
EXACT_COUNTERS = (
    "harness.runner.calls",
    "sched.thread_sim.calls",
    "sim.fluid.flows",
    "harness.engine.cache.get.hit_ratio",
    "service.dedup_hit_ratio",
    "harness.journal.append.appends_per_cell",
    "cli.modules_imported",
    "work.cells_delivered",
)


def _round_metrics(rec: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced round."""
    lo, hi = rec.get("window", (float("-inf"), float("inf")))
    own, cpu, calls = attribute(rec["spans"], lo, hi)
    counters = rec["counters"]
    cells = rec["cells"]
    campaigns = rec["campaigns"]
    out: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_ms"] = 1e3 * own.get(layer, 0.0)
        out[f"{layer}.cpu_ms"] = 1e3 * cpu.get(layer, 0.0)
    gets = calls.get("harness.engine.cache.get", 0)
    out["sim.fluid.flows"] = counters.get("sim.fluid.flows", 0)
    out["harness.engine.cache.get.hit_ratio"] = (
        counters.get("harness.engine.cache.get.hits", 0) / gets
        if gets else 0.0)
    out["harness.journal.append.appends_per_cell"] = (
        calls.get("harness.journal.append", 0) / cells)
    waits = rec.get("queue_wait_ms") or [0.0]
    out["service.queue_wait_ms.p50"] = median(waits)
    out["service.client.polls_per_campaign"] = (
        counters.get("service.client.campaign.calls", 0) / campaigns
        if campaigns else 0.0)
    out["service.dedup_hit_ratio"] = rec.get("dedup_hits", 0) / cells
    out["work.cells_delivered"] = cells
    wall_ms = 1e3 * rec["wall_s"]
    out["trace.wall_ms"] = wall_ms
    out["trace.untraced_wall_ms"] = 1e3 * rec["untraced_wall_s"]
    out["trace.overhead_ms"] = wall_ms - 1e3 * rec["untraced_wall_s"]
    out["trace.unattributed_ms"] = wall_ms - 1e3 * sum(own.values())
    return out


def traced_metrics(records: List[dict], probes: List[Tuple[float, int]]
                   ) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of the traced round with the median wall.

    Reporting one whole round keeps its self times and unattributed
    remainder summing to its wall; ``trace.overhead_ms`` is the median
    over all rounds.  Notes name any exact counter that differed between
    rounds.
    """
    rounds = [_round_metrics(rec) for rec in records]
    imported = [n for _, n in probes]
    notes: List[str] = []
    for name in EXACT_COUNTERS:
        values = (imported if name == "cli.modules_imported"
                  else [r[name] for r in rounds])
        if len(set(values)) > 1:
            notes.append(f"{name} did not repeat: {values}")
    chosen = sorted(rounds, key=lambda r: r["trace.wall_ms"])[
        (len(rounds) - 1) // 2]
    chosen.update({
        "cli.import_ms": 1e3 * median([dt for dt, _ in probes]),
        "cli.modules_imported": imported[0],
        # One traced/untraced pair is noisy; report the median pair.
        "trace.overhead_ms": median(r["trace.overhead_ms"] for r in rounds),
    })
    return {name: chosen[name] for name, _ in PER_LAYER}, notes


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = repo_root()
    sys.path.insert(0, os.path.join(root, "src"))
    # SIGTERM unwinds like Ctrl-C, so children are stopped and the work
    # directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sb = Sandbox(root, args.seed)
    try:
        sb.adopt(sb.fresh("cache"), sb.fresh("runs"))
        env = environment_record(root, args.workload, args.seed,
                                 bool(args.trace))
        correct, ledger, metrics, units = _run(args, sb)
    finally:
        sb.close()

    for note in ledger.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:16.6f} {units[name]}")
    print(f"{'failed_frac':48s} "
          f"{ledger.failed / ledger.attempted:16.6f} ratio")
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _run(args: argparse.Namespace, sb: Sandbox):
    ledger = Ledger()
    warm = args.workload == "paper-warm"
    if args.trace:
        units = dict(PER_LAYER)
        probes = [paper.import_probe(sb)
                  for _ in range(paper.PROBE_REPEATS)]
        if args.workload == "service-mix":
            records = service_mix.run_traced(sb, args.seed, args.seconds,
                                             ledger)
        else:
            records = paper.run_traced(sb, warm, args.seconds, ledger)
        metrics, counter_notes = traced_metrics(records, probes)
        ledger.notes += counter_notes
        correct = ledger.wrong == 0 and not counter_notes
    else:
        units = dict(END_TO_END)
        if args.workload == "service-mix":
            metrics = service_mix.run_untraced(sb, args.seed, args.seconds,
                                               ledger)
        else:
            metrics = paper.run_untraced(sb, warm, args.seconds, ledger)
        correct = ledger.wrong == 0
    return correct, ledger, metrics, units


if __name__ == "__main__":
    sys.exit(main())
