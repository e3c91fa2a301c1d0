"""The ``service-mix`` workload: two closed-loop tenants on a live daemon.

Each of two :class:`~repro.service.ServiceClient` threads repeats:
submit a campaign, wait for it, fetch its report, read ``/v1/status``.
The wait polls the campaign's status row every :data:`POLL_S` instead
of calling ``ServiceClient.wait``, whose doubling back-off (50 ms,
100 ms, 200 ms, ...) would make latency a step function of the poll
schedule rather than of the daemon's work.

The campaigns come from :func:`plan`, a pure function of the seed:
round ``k`` gives both tenants a campaign on the same (node, device)
panel and experiment id, with sizes that overlap by about 60%, so
whichever tenant reaches a shared cell second is served by the daemon's
cross-campaign dedup.  Both tenants start each round together
(:class:`Pacer`).  Each block of four rounds visits every panel
(Crusher and Wombat, CPU and GPU) once, in a seeded order.

The daemon runs as a ``repro serve`` subprocess for the end-to-end run
and in-process (``CampaignDaemon.serve(install_signals=False)``) for
the traced run, where each tenant submits a fixed number of campaigns
so the work counters repeat exactly.  Every report must equal, byte for
byte, the report of a solo ``run_campaign`` of the same spec, computed
after the timed window without a cache.
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Tuple

from sandbox import Ledger, Sandbox, quantile, reap

TENANTS = ("tenant-a", "tenant-b")

#: (node, device) panels a round can land on.
PANELS = (("crusher", "cpu"), ("crusher", "gpu"),
          ("wombat", "cpu"), ("wombat", "gpu"))

MODELS = {
    ("crusher", "cpu"): ("c-openmp", "kokkos", "julia", "numba"),
    ("wombat", "cpu"): ("c-openmp", "kokkos", "julia", "numba"),
    ("crusher", "gpu"): ("hip", "kokkos", "julia", "numba"),
    ("wombat", "gpu"): ("cuda", "kokkos", "julia", "numba"),
}

#: panel -> (models per campaign, sizes per campaign, sizes shared by
#: the two tenants).  Inside the daemon a Crusher CPU cell (64 threads)
#: costs about 12 ms, a Wombat CPU cell about 8 ms and a GPU cell about
#: 3 ms (mostly its cache and journal flushes), so the shapes give every
#: panel a round of similar cost and the latency percentiles fall inside
#: one broad mode rather than on the edge between two.  3 of 5 (or 5 of
#: 8) sizes are shared, so over a block 38 of each tenant's 61 cells are
#: also the other tenant's, and whichever reaches one second is served
#: by dedup.
SHAPES = {
    ("crusher", "cpu"): (1, 5, 3),
    ("wombat", "cpu"): (1, 8, 5),
    ("crusher", "gpu"): (3, 8, 5),
    ("wombat", "gpu"): (3, 8, 5),
}

SIZE_GRID = tuple(range(1024, 20481, 512))

#: Set-up repetitions (daemon spawn to first ping) whose median is
#: ``setup_s``.
SETUP_REPEATS = 9

#: Campaigns per tenant in one traced round.
TRACED_CAMPAIGNS = 12

WAIT_TIMEOUT_S = 60.0

#: Interval between a tenant's status polls while its campaign runs.
#: Short against a campaign (about 100 ms), long enough that the polls'
#: HTTP handling stays a small share of the daemon's time.
POLL_S = 0.005

#: States a campaign does not leave (as ``ServiceClient.wait`` treats
#: them).
TERMINAL_STATES = ("done", "failed", "expired", "quarantined")


@dataclass(frozen=True)
class Round:
    """One round of the plan: the same panel and experiment for both
    tenants, each with its own size list."""

    index: int
    node: str
    device: str
    exp_id: str
    models: Tuple[str, ...]
    sizes: Tuple[Tuple[int, ...], Tuple[int, ...]]

    def cells(self, tenant: int) -> int:
        return len(self.models) * len(self.sizes[tenant])


def plan(seed: int, rounds: int) -> List[Round]:
    """The first ``rounds`` rounds of the campaign stream for ``seed``.

    Models differ in cost per cell, so a panel's models are dealt from
    a seeded cycle rather than drawn at random: over every four visits
    to a panel each of its models runs equally often, and seeds differ
    in order, not in how much work a block holds.
    """
    out: List[Round] = []
    order: List[Tuple[str, str]] = []
    cycles = {panel: random.Random(f"perfbench:{seed}:models:{panel}")
              .sample(models, len(models))
              for panel, models in MODELS.items()}
    visits = dict.fromkeys(PANELS, 0)
    for k in range(rounds):
        if k % len(PANELS) == 0:
            order = list(PANELS)
            random.Random(f"perfbench:{seed}:block:{k}").shuffle(order)
        panel = order[k % len(PANELS)]
        n_models, n_sizes, n_shared = SHAPES[panel]
        cycle = cycles[panel]
        first = n_models * visits[panel]
        visits[panel] += 1
        models = tuple(sorted(cycle[(first + i) % len(cycle)]
                              for i in range(n_models)))
        rng = random.Random(f"perfbench:{seed}:round:{k}")
        pool = rng.sample(SIZE_GRID, 2 * n_sizes - n_shared)
        own = n_sizes - n_shared
        sizes_a = tuple(sorted(pool[:n_sizes]))
        sizes_b = tuple(sorted(pool[own:own + n_sizes]))
        out.append(Round(k, *panel, f"mix-{seed}-{k}", models,
                         (sizes_a, sizes_b)))
    return out


def spec_for(rnd: Round, tenant: int):
    """The :class:`CampaignSpec` tenant ``tenant`` submits in ``rnd``."""
    from repro.core.types import DeviceKind, Precision
    from repro.harness import Experiment
    from repro.service import CampaignSpec

    exp = Experiment(
        exp_id=rnd.exp_id,
        title=f"service-mix round {rnd.index}",
        node_name=rnd.node,
        device=DeviceKind.CPU if rnd.device == "cpu" else DeviceKind.GPU,
        precision=Precision.parse("fp64"),
        models=rnd.models,
        sizes=rnd.sizes[tenant],
    )
    return CampaignSpec(experiment=exp, tenant=TENANTS[tenant])


@dataclass
class Op:
    """One closed-loop iteration of one tenant."""

    tenant: int
    round: int
    latency_s: float = 0.0
    loop_s: float = 0.0
    report: str = ""
    error: str = ""


@dataclass
class Window:
    """What the clients did inside one timed window."""

    ops: List[Op] = field(default_factory=list)
    t0: float = 0.0
    t1: float = 0.0


def _await(client, campaign_id: str) -> dict:
    """Poll one campaign every :data:`POLL_S` until it is terminal."""
    from repro.errors import ServiceError

    deadline = time.perf_counter() + WAIT_TIMEOUT_S
    while True:
        row = client.campaign(campaign_id)
        if row.get("state") in TERMINAL_STATES:
            return row
        if time.perf_counter() >= deadline:
            raise ServiceError(f"campaign {campaign_id} did not finish "
                               f"within {WAIT_TIMEOUT_S:g}s")
        time.sleep(POLL_S)


class Pacer:
    """Starts both tenants on each round together.

    Without it the tenants drift in and out of phase, and which of them
    pays for the cells they share (and which is served them by dedup)
    changes from run to run.  The window's end is decided once for
    both, and only between blocks, so every run covers each panel
    equally often whatever the deadline cuts.
    """

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.started = 0
        self.stop = False
        self._barrier = threading.Barrier(len(TENANTS), action=self._decide)

    def _decide(self) -> None:
        self.stop = (self.started % len(PANELS) == 0
                     and time.perf_counter() >= self.deadline)
        self.started += 1

    def next_round(self) -> bool:
        """Wait for the other tenant; False when the window is over."""
        try:
            self._barrier.wait(timeout=WAIT_TIMEOUT_S)
        except threading.BrokenBarrierError:
            return False
        return not self.stop


def _client_loop(socket_path: str, tenant: int, rounds: List[Round],
                 pacer: Pacer, ops: List[Op]) -> None:
    from repro.errors import ServiceError
    from repro.service import ServiceClient

    client = ServiceClient(socket_path)
    for rnd in rounds:
        if not pacer.next_round():
            return
        op = Op(tenant, rnd.index)
        t0 = time.perf_counter()
        try:
            campaign_id = client.submit(spec_for(rnd, tenant))
            row = _await(client, campaign_id)
            if row.get("state") != "done":
                raise ServiceError(f"campaign {campaign_id} ended "
                                   f"{row.get('state')!r}")
            op.report = client.report(campaign_id)
            op.latency_s = time.perf_counter() - t0
            client.status()
            op.loop_s = time.perf_counter() - t0
        except ServiceError as exc:
            op.error = f"{type(exc).__name__}: {exc}"
        ops.append(op)


def drive(socket_path: str, rounds: List[Round], seconds: float) -> Window:
    """Both tenants' loops over ``rounds`` until ``seconds`` pass;
    returns every finished iteration."""
    window = Window()
    per_tenant: List[List[Op]] = [[] for _ in TENANTS]
    window.t0 = time.perf_counter()
    pacer = Pacer(window.t0 + seconds)
    threads = [threading.Thread(target=_client_loop,
                                args=(socket_path, t, rounds, pacer,
                                      per_tenant[t]),
                                name=f"perfbench-{TENANTS[t]}")
               for t in range(len(TENANTS))]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    window.t1 = time.perf_counter()
    window.ops = [op for ops in per_tenant for op in ops]
    return window


class Oracle:
    """Solo ``run_campaign`` reports, computed outside the timed window
    without a cache."""

    def __init__(self, rounds: List[Round]) -> None:
        self.rounds = rounds
        self._reports: Dict[Tuple[int, int], str] = {}

    def report(self, tenant: int, index: int) -> str:
        key = (tenant, index)
        if key not in self._reports:
            from repro.harness import render_result_set, run_campaign
            from repro.harness.engine import SweepEngine

            engine = SweepEngine(cache=None)
            results = run_campaign(spec_for(self.rounds[index], tenant),
                                   engine=engine)
            self._reports[key] = render_result_set(results) + "\n"
        return self._reports[key]

    def check(self, window: Window, ledger: Ledger) -> None:
        """Record every operation in ``window``: an error or refusal
        fails it, a report unlike the solo run's is also wrong."""
        for op in window.ops:
            where = f"{TENANTS[op.tenant]} round {op.round}"
            if op.error:
                ledger.fail(f"{where}: {op.error}")
            elif op.report != self.report(op.tenant, op.round):
                ledger.fail(f"{where}: report differs from the solo run",
                            wrong=True)
            else:
                ledger.ok()


def _spawn_daemon(sb: Sandbox):
    """Start ``repro serve``; returns (process, socket, seconds to the
    first successful ping)."""
    import subprocess

    from repro.errors import ServiceError
    from repro.service import ServiceClient

    socket_path = os.path.join(sb.fresh_rel("daemon"), "s.sock")
    env = sb.env(sb.fresh("cache"), sb.fresh("runs"))
    err = open(os.path.join(sb.tmp, "daemon.stderr"), "ab")
    t0 = time.perf_counter()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket",
             socket_path], env=env, cwd=sb.root, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err)
    finally:
        err.close()
    client = ServiceClient(socket_path)
    try:
        while True:
            try:
                client.ping()
                return proc, socket_path, time.perf_counter() - t0
            except ServiceError:
                if proc.poll() is not None:
                    raise RuntimeError(f"repro serve exited "
                                       f"{proc.returncode} before answering "
                                       f"a ping")
                if time.perf_counter() - t0 > 60:
                    raise RuntimeError("repro serve did not answer within "
                                       "60 s")
                time.sleep(0.002)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def _stop_daemon(proc, socket_path: str) -> Tuple[int, float]:
    """Graceful stop through the wire API; the daemon's exit code and
    peak RSS in MB."""
    from repro.errors import ServiceError
    from repro.service import ServiceClient

    try:
        ServiceClient(socket_path).shutdown()
    except ServiceError:
        pass
    _, rc, maxrss_mb = reap(proc, 30.0)
    return rc, maxrss_mb


def run_untraced(sb: Sandbox, seed: int, seconds: float,
                 ledger: Ledger) -> Dict[str, float]:
    """Closed loops for ``seconds``; the end-to-end metrics."""
    # More rounds than a closed loop can finish (a round takes tens of
    # ms).
    rounds = plan(seed, max(64, int(seconds * 60)))
    spawns = []
    for _ in range(SETUP_REPEATS - 1):
        proc, socket_path, ready_s = _spawn_daemon(sb)
        _stop_daemon(proc, socket_path)
        spawns.append(ready_s)
    proc, socket_path, ready_s = _spawn_daemon(sb)
    spawns.append(ready_s)
    try:
        window = drive(socket_path, rounds, seconds)
    finally:
        daemon_rc, daemon_rss_mb = _stop_daemon(proc, socket_path)
    Oracle(rounds).check(window, ledger)
    if daemon_rc != 0:
        ledger.fail(f"repro serve exited {daemon_rc}")
    good = [op for op in window.ops if not op.error]
    if not good:
        raise RuntimeError("; ".join(ledger.notes) or "no campaign finished")
    cells = sum(rounds[op.round].cells(op.tenant) for op in good)
    latencies = [op.latency_s for op in good]
    metrics = {
        "setup_s": median(spawns),
        "wall_s.p50": median([op.loop_s for op in good]),
        "cells_per_s": cells / (window.t1 - window.t0),
        "latency_s.p50": median(latencies),
        "latency_s.p90": quantile(latencies, 0.9),
        "peak_rss_mb": daemon_rss_mb,
    }
    return metrics


def run_inprocess(sb: Sandbox, rounds: List[Round], tracer=None
                  ) -> Tuple[Window, Dict[str, int]]:
    """One fixed-work round against an in-process daemon.

    With ``tracer`` set, the layer wrappers are installed for the
    round.  Returns the window and the service's own counters.
    """
    from repro.harness.engine import ResultCache
    from repro.harness.journal import RunRegistry
    from repro.service import CampaignDaemon, CampaignService, ServiceClient

    from spans import install, uninstall

    service = CampaignService(registry=RunRegistry(sb.fresh("runs")),
                              cache=ResultCache(sb.fresh("cache")))
    socket_path = os.path.join(sb.fresh_rel("daemon"), "s.sock")
    daemon = CampaignDaemon(service=service, socket_path=socket_path)
    handle = install(tracer) if tracer is not None else None
    server = threading.Thread(target=daemon.serve,
                              kwargs={"install_signals": False},
                              name="perfbench-daemon")
    server.start()
    try:
        ServiceClient(socket_path).ping()
        window = drive(socket_path, rounds, float("inf"))
    finally:
        daemon.request_shutdown()
        server.join(timeout=60)
        if handle is not None:
            uninstall(handle)
    if server.is_alive():
        raise RuntimeError("in-process daemon did not stop")
    status = service.status_payload()
    counters = {"dedup_hits": status["dedup"]["hits"],
                "campaigns": len(window.ops)}
    return window, counters


def run_traced(sb: Sandbox, seed: int, seconds: float,
               ledger: Ledger) -> List[dict]:
    """Pairs of (untraced, traced) fixed-work rounds until ``seconds``
    pass; one record per pair."""
    from spans import Tracer

    rounds = plan(seed, TRACED_CAMPAIGNS)
    oracle = Oracle(rounds)
    records: List[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        plain, _ = run_inprocess(sb, rounds)
        tracer = Tracer()
        traced, counters = run_inprocess(sb, rounds, tracer)
        oracle.check(plain, ledger)
        oracle.check(traced, ledger)
        good = [op for op in traced.ops if not op.error]
        records.append({
            "spans": tracer.spans(),
            "counters": dict(tracer.counters),
            "window": (traced.t0, traced.t1),
            "untraced_wall_s": plain.t1 - plain.t0,
            "wall_s": traced.t1 - traced.t0,
            "cells": sum(rounds[op.round].cells(op.tenant) for op in good),
            "campaigns": counters["campaigns"],
            "dedup_hits": counters["dedup_hits"],
            "queue_wait_ms": [
                1e3 * (tracer.first_selected[cid] - t)
                for cid, t in tracer.submitted.items()
                if cid in tracer.first_selected],
        })
        if time.perf_counter() >= deadline:
            break
    return records
