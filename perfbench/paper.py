"""The ``paper-cold`` and ``paper-warm`` workloads: ``repro report --full``.

Each invocation is a fresh CLI process, timed from spawn to reaped exit,
whose stdout must match the full report's digest.  ``paper-cold`` gives
every invocation an empty result cache; ``paper-warm`` reuses one that
set-up filled.  The sweep is the paper's own (396 cells over Figs 4-7
and Table III), so it has no free inputs: the seed only names the
run's directories.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from statistics import median
from typing import Dict, List, Tuple

from sandbox import ChildResult, Ledger, Sandbox, quantile, run_child, sha256
from spans import Span

#: ``repro report --full`` stdout on an unmodified tree: the oracle.
REPORT_SHA256 = \
    "f07858814adf6d75e8c7324261ca11b5236e3805e8c9d0c2cfd4e7848520cc7d"
REPORT_BYTES = 11061

#: Distinct cells the full report covers (Figs 4-7 and Table III).
REPORT_CELLS = 396

REPORT_ARGV = ("report", "--full")

#: Cache fills whose median is ``paper-warm``'s ``setup_s``.
SETUP_REPEATS = 3

#: Fresh-interpreter import probes whose median is ``paper-cold``'s
#: ``setup_s`` (and ``cli.import_ms`` in traced runs).
PROBE_REPEATS = 7


def check_report(ledger: Ledger, res: ChildResult, what: str) -> bool:
    """Record one invocation: a clean exit printing the oracle report."""
    if res.rc != 0:
        ledger.fail(f"{what}: exit {res.rc}: {res.stderr[-400:]}")
        return False
    if len(res.stdout) != REPORT_BYTES or sha256(res.stdout) != REPORT_SHA256:
        ledger.fail(f"{what}: stdout digest {sha256(res.stdout)} "
                    f"({len(res.stdout)} bytes) is not the report oracle",
                    wrong=True)
        return False
    ledger.ok()
    return True


def _report(sb: Sandbox, cache: str = "",
            traced_spans: str = "") -> ChildResult:
    """One ``report --full`` process in fresh run directories.

    ``cache`` is used as given; empty means a fresh cache that is
    deleted afterwards.  ``traced_spans`` runs the traced entry point,
    which writes its spans there.
    """
    argv: List[str] = [sys.executable]
    if traced_spans:
        argv += [os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "traced_cli.py"), traced_spans]
    else:
        argv += ["-m", "repro"]
    argv += list(REPORT_ARGV)
    run_cache = cache or sb.fresh("cache")
    runs = sb.fresh("runs")
    try:
        res = run_child(argv, sb.env(run_cache, runs), sb.root,
                        os.path.join(sb.tmp, "report.stderr"))
    finally:
        if not cache:
            shutil.rmtree(run_cache)
        shutil.rmtree(runs)
    return res


def import_probe(sb: Sandbox) -> Tuple[float, int]:
    """Seconds to ``import repro.cli`` in a fresh interpreter, and how
    many modules that import added to ``sys.modules``."""
    code = ("import sys, time, json\n"
            "n = len(sys.modules)\n"
            "t = time.perf_counter()\n"
            "import repro.cli\n"
            "dt = time.perf_counter() - t\n"
            "print(json.dumps([dt, len(sys.modules) - n]))\n")
    res = run_child([sys.executable, "-c", code],
                    sb.env(sb.fresh("cache"), sb.fresh("runs")), sb.root,
                    os.path.join(sb.tmp, "probe.stderr"))
    if res.rc != 0:
        raise RuntimeError(f"import probe failed: {res.stderr[-400:]}")
    dt, modules = json.loads(res.stdout)
    return float(dt), int(modules)


def _fill(sb: Sandbox, ledger: Ledger) -> Tuple[str, float]:
    """A cache filled by one cold report, and that report's wall."""
    cache = sb.fresh("cache")
    res = _report(sb, cache)
    check_report(ledger, res, "cache fill")
    return cache, res.wall_s


def run_untraced(sb: Sandbox, warm: bool, seconds: float,
                 ledger: Ledger) -> Dict[str, float]:
    """Repeat the report for ``seconds``; the end-to-end metrics."""
    cache = ""
    if warm:
        fills = [_fill(sb, ledger) for _ in range(SETUP_REPEATS)]
        cache = fills[-1][0]
        setup_s = median([wall for _, wall in fills])
    else:
        # Nothing to fill: set-up is the interpreter and bytecode
        # warm-up every cold invocation relies on.
        setup_s = median([import_probe(sb)[0]
                          for _ in range(PROBE_REPEATS)])
    done: List[ChildResult] = []
    deadline = time.perf_counter() + seconds
    while True:
        res = _report(sb, cache)
        if check_report(ledger, res, "report"):
            done.append(res)
        if time.perf_counter() >= deadline:
            break
    if not done:
        raise RuntimeError("; ".join(ledger.notes))
    walls = [res.wall_s for res in done]
    return {
        "setup_s": setup_s,
        "wall_s.p50": median(walls),
        "cells_per_s": REPORT_CELLS * len(walls) / sum(walls),
        "latency_s.p50": median(walls),
        "latency_s.p90": quantile(walls, 0.9),
        "peak_rss_mb": median([res.maxrss_mb for res in done]),
    }


def run_traced(sb: Sandbox, warm: bool, seconds: float,
               ledger: Ledger) -> List[dict]:
    """Pairs of (untraced, traced) invocations until ``seconds`` pass.

    Returns one record per pair: the traced child's spans and counters
    plus both walls, measured the same way (spawn to reaped exit).
    """
    cache = _fill(sb, ledger)[0] if warm else ""
    spans_path = os.path.join(sb.tmp, "spans.json")
    rounds: List[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        plain = _report(sb, cache)
        traced = _report(sb, cache, traced_spans=spans_path)
        if not (check_report(ledger, plain, "report")
                and check_report(ledger, traced, "traced report")):
            raise RuntimeError("; ".join(ledger.notes))
        with open(spans_path) as fh:
            dumped = json.load(fh)
        os.unlink(spans_path)
        rounds.append({
            "spans": [Span.from_list(row) for row in dumped["spans"]],
            "counters": dumped["counters"],
            "untraced_wall_s": plain.wall_s,
            "wall_s": traced.wall_s,
            "cells": REPORT_CELLS,
            "campaigns": 0,
        })
        if time.perf_counter() >= deadline:
            break
    return rounds
