#!/usr/bin/env python3
"""Overload-hardened submissions: idempotent retries, deadlines, shedding.

Walks the service-hardening loop the daemon provides:

1. start a private campaign daemon on a Unix socket;
2. submit a campaign carrying a client-generated ``submission_key``,
   then submit the *same* keyed spec again — the duplicate answers the
   original campaign id, so a client that retries a torn POST can never
   run the campaign twice;
3. submit a campaign whose ``deadline_s`` cannot be met — the service
   expires it at a cell boundary, remaining cells fail through the
   ordinary degraded path (e = 0), and ``wait()`` raises
   ``DeadlineExpired`` rather than pretending success.  This section
   serves an in-process service whose clock moves 20 ms per measured
   cell, so the 50 ms budget lapses after the third cell on any host;
4. drive the load shedder in-process: past ``shed_fraction`` of the
   admission cap, ``check_overload()`` refuses with an ``OverloadError``
   carrying a backlog-derived ``Retry-After`` hint — *before* the
   admission wall and before any disk I/O;
5. show the deterministic ``ClientPolicy`` backoff schedule a
   well-behaved client sleeps between retries.

Run:  python examples/overload_retry.py
"""

import dataclasses
import os
import subprocess
import sys
import tempfile
import threading
import time

from repro.core.types import DeviceKind, Precision
from repro.errors import DeadlineExpired, OverloadError
from repro.harness.experiment import Experiment
from repro.harness.engine import ResultCache
from repro.harness.journal import RunRegistry
from repro.service import (AdmissionPolicy, CampaignDaemon, CampaignService,
                           ClientPolicy, OverloadPolicy, ServiceClient)
from repro.service.spec import CampaignSpec

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def spec_for(exp_id, models=("julia", "numba"), sizes=(256, 512), **extra):
    base = CampaignSpec(experiment=Experiment(
        exp_id=exp_id, title="overload demonstration", node_name="Crusher",
        device=DeviceKind.CPU, precision=Precision.FP64,
        models=models, sizes=sizes, threads=64, reps=2))
    return dataclasses.replace(base, **extra) if extra else base


def start_daemon(workdir, sock):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["REPRO_RUNS_DIR"] = os.path.join(workdir, "runs")
    env["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            ServiceClient(sock).ping()
            return proc
        except Exception:
            time.sleep(0.05)
    proc.kill()
    raise SystemExit("daemon did not come up")


class CellClock:
    """A service clock that advances ``per_cell`` seconds per measured cell."""

    def __init__(self, per_cell):
        self.per_cell = per_cell
        self.service = None

    def __call__(self):
        campaigns = (list(self.service.campaigns.values())
                     if self.service is not None else [])
        return 1000.0 + self.per_cell * sum(c.cells_done for c in campaigns)


def deadline_demo(workdir):
    clock = CellClock(per_cell=0.02)
    clock.service = CampaignService(
        registry=RunRegistry(os.path.join(workdir, "deadline-runs")),
        cache=ResultCache(os.path.join(workdir, "deadline-cache")),
        clock=clock)
    daemon = CampaignDaemon(service=clock.service,
                            socket_path=os.path.join(workdir, "deadline.sock"))
    thread = threading.Thread(target=daemon.serve,
                              kwargs={"install_signals": False}, daemon=True)
    thread.start()
    try:
        client = ServiceClient(daemon.socket_path)
        doomed = spec_for("overload-deadline",
                          models=("julia", "numba", "kokkos"),
                          sizes=(256, 512, 1024, 2048),
                          deadline_s=0.05, submission_key="demo-key-2")
        doomed_id = client.submit(doomed)
        try:
            client.wait(doomed_id)
            raise SystemExit("expected the deadline to lapse")
        except DeadlineExpired as exc:
            print(f"   wait() raised: {exc}")
        row = client.campaign(doomed_id)
        print(f"   {row['stats']['executed']} of {row['cells']['total']} "
              f"cells ran before the budget lapsed")
        report = client.report(doomed_id)
        assert "DEGRADED" in report
        print("   expired report uses the ordinary degraded accounting "
              "(e = 0 cells)")
    finally:
        daemon.request_shutdown()
        thread.join(timeout=30)


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-overload-demo-")
    sock = os.path.join(workdir, "daemon.sock")

    print("== 1. start a private daemon ==")
    proc = start_daemon(workdir, sock)
    print(f"   listening on {sock}")

    try:
        client = ServiceClient(sock, policy=ClientPolicy(retries=3))

        print("== 2. idempotent submission: retried POSTs are exactly-once ==")
        keyed = spec_for("overload-demo", submission_key="demo-key-1")
        first = client.submit(keyed)
        again = client.submit(keyed)
        print(f"   first submit  -> {first}")
        print(f"   retried submit-> {again} (duplicate answered original id)")
        assert again == first
        client.wait(first)
        print("   campaign finished once; the key never ran it twice")
    finally:
        try:
            ServiceClient(sock).shutdown()
        except Exception:
            proc.kill()
        proc.wait(timeout=30)

    print("== 3. deadlines: an unmeetable budget expires honestly ==")
    deadline_demo(workdir)

    print("== 4. load shedding: refuse before the admission wall ==")
    svc = CampaignService(
        registry=RunRegistry(os.path.join(workdir, "shed-runs")),
        cache=ResultCache(os.path.join(workdir, "shed-cache")),
        policy=AdmissionPolicy(max_total=4), overload=OverloadPolicy())
    threshold = svc.overload.shed_threshold(4)
    for i in range(threshold):
        svc.submit(spec_for(f"overload-fill-{i}"))
    try:
        svc.check_overload()
        raise SystemExit("expected the shedder to refuse")
    except OverloadError as exc:
        print(f"   backlog {threshold}/{4} sheds: retry after "
              f"{exc.retry_after_s:.0f}s ({exc})")

    print("== 5. the client's deterministic backoff schedule ==")
    policy = ClientPolicy(retries=5)
    waits = ", ".join(f"{policy.backoff_s(n):.2f}s"
                      for n in range(policy.retries))
    print(f"   retries sleep {waits} (Retry-After wins when larger)")


if __name__ == "__main__":
    main()
