"""The sweep engine: concurrent, cached, fault-tolerant execution of cells.

``SweepEngine.run`` is contractually bit-identical to the serial
reference loop: cells fan out over a ``concurrent.futures`` executor
(every cell is an independent, deterministic simulation) and merge back
into the :class:`ResultSet` in serial cell order.  Every cell takes the
one path of :class:`~repro.harness.engine.cell.CellPipeline`; the
engine only chooses the driver that steps it.  Two fan-out modes exist:

* ``mode="thread"`` (the default) is a thread pool.  The simulator's
  Python loops still take turns on the GIL, but the pool overlaps each
  cell's cache put (disk I/O) with other cells' simulation, so on an
  empty cache it beats serial: a cold ``repro report --full`` took a
  median 1.51 s against 1.75 s serial (thread faster in 12 of 12
  alternating pairs).  With ``REPRO_CACHE=0`` there is no put to
  overlap and serial wins, 1.02 s against 1.24 s (7 of 8 pairs).
* ``mode="process"`` (``--engine process`` / ``REPRO_ENGINE=process``)
  dispatches each cache-missed cell to a ``ProcessPoolExecutor`` worker
  carrying a frozen payload (see :mod:`repro.harness.engine.worker`),
  scaling ``--jobs`` past one core.  The parent stays the single writer
  of the journal and the sole merge point; workers write the
  (multi-process-safe) result cache themselves.

A persistent :class:`ResultCache` keyed by cell fingerprints makes warm
re-runs — a second ``repro report``, regenerating a figure after editing
prose — skip the simulator entirely.

Fault tolerance: a :class:`~repro.harness.engine.options.RunOptions` may
carry a deterministic :class:`~repro.sim.faults.FaultConfig` and a
:class:`~repro.harness.engine.options.RetryPolicy`.  Faulted attempts
retry with exponential backoff in *simulated* time; a cell that keeps
failing is isolated into a degraded ``failed`` measurement (the paper's
e = 0 accounting) instead of killing the sweep — unless ``fail_fast``
asks for the campaign to abort.  Failed cells are never written to the
cache, and fault-enabled runs fingerprint their cells separately, so
retries cannot poison clean results.

Trace fidelity: when a caller passes a :class:`Profiler`, each executed
cell records into a private profiler — fault (``FAULT``) and backoff
(``RETRY``) spans included — and the engine replays the events into the
caller's profiler in cell order, so the simulated timeline is
byte-identical to the serial one; cache *reads* are bypassed for such
runs (a cached cell would leave no trace events to corroborate).

Self-healing: an enabled :class:`~repro.harness.health.BreakerPolicy`
activates the per-lane health subsystem (:mod:`repro.harness.health`).
Lanes that keep failing permanently trip OPEN and their cells reroute
down a :class:`~repro.harness.health.FallbackLadder`; substituted
measurements carry full provenance, breaker transitions are journaled
and traced, and after a simulated cooldown a probe cell decides whether
the lane re-closes.  Because breaker state crosses cell boundaries,
breaker-enabled runs execute serially in cell order and bypass cache
reads (native successes are still written); with breakers disabled —
the default — every code path is byte-identical to the pre-health
engine.

Observability: every run produces a :class:`SweepReport` with per-cell
wall-clock offsets/timings, attempt counts and cache outcomes,
renderable as an ASCII table (with a degraded-cell section) or as a
:mod:`repro.trace` timeline whose cell spans sit at their real
wall-clock offsets.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional

from ...errors import CellFailure, ConfigError, RunInterrupted
from ..experiment import Experiment
from ..health import BreakerTransition
from ..results import ResultSet
from .cache import ResultCache
from .cell import CellPipeline, CellRecord, breaker_event
from .options import RunOptions

if TYPE_CHECKING:
    from ...trace.profiler import Profiler

__all__ = ["CellRecord", "SweepReport", "SweepEngine", "ENGINE_MODES"]

#: Executor modes ``SweepEngine`` accepts: a thread pool (the default)
#: or a true multi-core process pool.
ENGINE_MODES = ("thread", "process")

@dataclass
class SweepReport:
    """What one engine run did: per-cell timings plus cache counters."""

    experiment_id: str
    cells: List[CellRecord] = field(default_factory=list)
    cache_stats: Dict[str, int] = field(default_factory=dict)
    parallel: bool = False
    workers: int = 1
    #: Which executor fanned the cells out: "thread" or "process".
    engine: str = "thread"
    wall_s: float = 0.0
    #: Run identity when the sweep is journaled ("" otherwise).
    run_id: str = ""
    #: Breaker transition history, in cell order (breaker runs only).
    transitions: List[BreakerTransition] = field(default_factory=list)
    #: Worker-pool kill/rebuild cycles the watchdog performed (process
    #: engine only; 0 on a healthy run).
    respawns: int = 0
    #: Cells the watchdog resubmitted after a pool crash or hang.
    redrives: int = 0

    @property
    def cached_cells(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def replayed_cells(self) -> int:
        return sum(1 for c in self.cells if c.replayed)

    @property
    def executed_cells(self) -> int:
        return sum(1 for c in self.cells if not c.cached and not c.replayed)

    @property
    def failed_cells(self) -> int:
        return sum(1 for c in self.cells if c.failed)

    @property
    def substituted_cells(self) -> int:
        return sum(1 for c in self.cells if c.substituted)

    @property
    def total_attempts(self) -> int:
        return sum(c.attempts for c in self.cells)

    @property
    def degraded(self) -> bool:
        return self.failed_cells > 0

    def timeline(self) -> Profiler:
        """The run as a :mod:`repro.trace` timeline.

        Cells are laid out at their *real* wall-clock offsets (concurrent
        cells overlap, exactly as they ran) rather than stacked end to
        end from t=0, so a Chrome-trace export shows the actual fan-out.
        """
        from ...trace.events import EventKind
        from ...trace.profiler import Profiler

        prof = Profiler()
        for cell in sorted(self.cells, key=lambda c: (c.start_s, c.model,
                                                      c.shape)):
            if cell.cached:
                kind = EventKind.CACHE_HIT
            elif cell.replayed:
                kind = EventKind.REPLAY
            else:
                kind = EventKind.CACHE_MISS
            prof.record_at(kind, f"{cell.model}@{cell.shape}", cell.start_s,
                           0.0, fingerprint=cell.fingerprint)
            prof.record_at(EventKind.CELL, f"{cell.model}@{cell.shape}",
                           cell.start_s, cell.wall_s, cached=cell.cached,
                           status=cell.status, attempts=cell.attempts)
            if cell.substituted:
                prof.record_at(EventKind.SUBSTITUTION,
                               f"{cell.model}@{cell.shape}<-{cell.served_by}",
                               cell.start_s, 0.0, served_by=cell.served_by)
        for tr in self.transitions:
            # Anchor each transition at its cell's wall-clock offset (the
            # breaker clock itself is simulated lane time).
            offset = (self.cells[tr.cell_index].start_s
                      if 0 <= tr.cell_index < len(self.cells) else 0.0)
            prof.record_at(breaker_event(tr.to_state), tr.lane, offset, 0.0,
                           cell=tr.cell_index, at_s=tr.at_s,
                           reason=tr.reason)
        return prof

    def _fanout_label(self) -> str:
        if not self.parallel:
            return "serial"
        if self.engine == "process":
            return f"process x{self.workers}"
        return f"parallel x{self.workers}"

    def render(self) -> str:
        """ASCII summary for ``repro run --engine-stats``."""
        lines = [
            f"sweep {self.experiment_id}: {len(self.cells)} cells "
            f"({self.cached_cells} cached, "
            + (f"{self.replayed_cells} replayed, " if self.replayed_cells
               else "")
            + f"{self.executed_cells} executed"
            + (f", {self.substituted_cells} SUBSTITUTED"
               if self.substituted_cells else "")
            + (f", {self.failed_cells} FAILED" if self.degraded else "")
            + f") in {self.wall_s * 1e3:.1f} ms wall "
            f"[{self._fanout_label()}]",
        ]
        if self.run_id:
            lines.append(f"run: {self.run_id} (journaled)")
        if self.cache_stats:
            lines.append(
                "cache: " + ", ".join(f"{v} {k}"
                                      for k, v in self.cache_stats.items()))
        if self.respawns or self.redrives:
            lines.append(f"watchdog: {self.respawns} pool respawn(s), "
                         f"{self.redrives} cell redrive(s)")
        for cell in self.cells:
            origin = {"cached": "cache", "failed": "FAILED",
                      "replayed": "replay",
                      "substituted": f"<- {cell.served_by}",
                      }.get(cell.status, "sim")
            retries = (f"  ({cell.attempts} attempts, {cell.faults} faults)"
                       if cell.attempts > 1 or cell.faults else "")
            lines.append(f"  {cell.model:>12s} @{cell.shape:<18s} "
                         f"{cell.wall_s * 1e3:9.3f} ms  [{origin}]{retries}")
        if self.degraded:
            lines.append("degraded cells (reported as e=0):")
            for cell in self.cells:
                if cell.failed:
                    lines.append(f"  {cell.model} @{cell.shape} failed after "
                                 f"{cell.attempts} attempts "
                                 f"({cell.faults} faults)")
        if self.transitions:
            lines.append("breaker transitions:")
            for tr in self.transitions:
                lines.append(f"  {tr.describe()}")
        return "\n".join(lines)


class SweepEngine:
    """Concurrent, cached, fault-tolerant executor of experiment sweeps."""

    def __init__(self, *, cache: Optional[ResultCache] = None,
                 parallel: bool = True,
                 max_workers: Optional[int] = None,
                 mode: str = "thread") -> None:
        if mode not in ENGINE_MODES:
            raise ConfigError(
                f"engine mode must be one of {'/'.join(ENGINE_MODES)}, "
                f"got {mode!r}")
        self.cache = cache
        self.parallel = parallel
        self.max_workers = max_workers
        self.mode = mode
        self.last_report: Optional[SweepReport] = None

    @classmethod
    def from_env(cls, cache_enabled: Optional[bool] = None,
                 parallel: Optional[bool] = None,
                 max_workers: Optional[int] = None,
                 mode: Optional[str] = None) -> "SweepEngine":
        """Engine configured from ``REPRO_CACHE``/``REPRO_CACHE_DIR``/
        ``REPRO_JOBS``/``REPRO_ENGINE``; keyword arguments override the
        environment."""
        from ...config import RunConfig
        cfg = RunConfig.from_os_environ()
        if cache_enabled is None:
            cache_enabled = cfg.get_bool("REPRO_CACHE", True)
        if max_workers is None:
            jobs = cfg.get_int("REPRO_JOBS", 0)
            max_workers = jobs or None
        if parallel is None:
            parallel = max_workers != 1
        if mode is None:
            mode = cfg.get("REPRO_ENGINE") or "thread"
        return cls(cache=ResultCache() if cache_enabled else None,
                   parallel=parallel, max_workers=max_workers, mode=mode)

    @staticmethod
    def _mp_context():
        """Start method for worker processes: ``fork`` where available.

        A spawned worker re-imports the whole package (~half the cost of
        a cold seed sweep, per worker); forking inherits the warm parent
        for ~milliseconds.  Workers never touch the parent's journal or
        thread state, so forking is safe here.
        """
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()  # pragma: no cover - non-POSIX

    # -- execution --------------------------------------------------------

    def run(self, experiment: Experiment,
            profiler: Optional[Profiler] = None,
            *, options: Optional[RunOptions] = None) -> ResultSet:
        """Run every cell; bit-identical to the serial reference loop.

        ``options`` threads the resilience layer through the run: fault
        injection, per-cell retries with simulated backoff, and the
        ``fail_fast`` abort switch.  Without options (or with the
        defaults) behaviour is the classic engine: any error propagates.

        Crash safety: with ``options.journal`` set, every event of the
        run lands in the write-ahead journal (fsync'd before the engine
        proceeds), SIGINT/SIGTERM finalize the journal and surface as
        :class:`~repro.errors.RunInterrupted`, and fingerprints found in
        ``options.replay`` are served from a prior run's journal without
        touching cache or simulator — the resume path.

        Every cell goes through one :class:`CellPipeline`; this method
        only picks the driver that steps it.  Outside breaker runs,
        replays and cache hits are served up front, in cell order (hits
        journaled), before any miss executes.
        """
        opts = (options if options is not None
                else RunOptions()).with_profiler(profiler)
        journal = opts.journal
        run_id = (journal.run_id if journal is not None
                  else (opts.run_id or ""))
        pipeline = CellPipeline(experiment, opts, cache=self.cache)
        pipeline.open_run()
        # Breaker runs replay inside the drive, in strict cell order: lane
        # state crosses cells, so a replayed outcome must land between
        # its neighbours'.
        misses = [i for i in range(len(pipeline.cells))
                  if pipeline.health is not None
                  or not (pipeline.replay(i) or pipeline.cached(i))]

        workers = 1
        if pipeline.health is None and self.parallel and len(misses) > 1:
            workers = min(len(misses),
                          self.max_workers or (os.cpu_count() or 4))
        watchdog = {"respawns": 0, "redrives": 0}
        if self.mode == "process" and pipeline.health is None and workers > 1:
            drive = partial(self._drive_process, pipeline, misses, workers,
                            watchdog)
        elif workers > 1:
            drive = partial(self._drive_threads, pipeline, misses, workers)
        else:
            drive = partial(self._drive_serial, pipeline, misses)
        self._execute_all(drive, pipeline, run_id)

        if opts.profiler is not None:
            # Deterministic replay: cell order, original durations — the
            # resulting timeline equals the serial run's byte for byte.
            for cell_prof in pipeline.traces:
                if cell_prof is None:
                    continue
                for ev in cell_prof.events:
                    opts.profiler.record(ev.kind, ev.name, ev.duration_s,
                                         **ev.metadata)

        pipeline.close("complete")
        results = pipeline.results()
        self.last_report = SweepReport(
            experiment_id=experiment.exp_id,
            cells=[r for r in pipeline.records if r is not None],
            cache_stats=(self.cache.stats.snapshot()
                         if self.cache is not None else {}),
            parallel=workers > 1,
            workers=workers,
            engine=self.mode,
            wall_s=time.perf_counter() - pipeline.t0,
            run_id=run_id,
            transitions=(list(pipeline.health.transitions)
                         if pipeline.health is not None else []),
            respawns=watchdog["respawns"],
            redrives=watchdog["redrives"],
        )
        return results

    # -- drivers ------------------------------------------------------------

    @staticmethod
    def _drive_serial(pipeline: CellPipeline, misses: List[int]) -> None:
        for i in misses:
            pipeline.replay(i) or pipeline.execute(i)

    @staticmethod
    def _drive_threads(pipeline: CellPipeline, misses: List[int],
                       workers: int) -> None:
        # The pool overlaps each cell's cache put (disk I/O, GIL released)
        # with the next cell's simulation.
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(pipeline.execute, i) for i in misses]
            for future in futures:
                future.result()
        finally:
            # In-flight cells finish (and journal themselves);
            # never-started ones are cancelled.
            pool.shutdown(wait=True, cancel_futures=True)

    def _drive_process(self, pipeline: CellPipeline, misses: List[int],
                       workers: int, counts: Dict[str, int]) -> None:
        # Supervised fan-out: the parent is the watchdog.  It waits on
        # the *oldest* outstanding cell (submit order = cell order, so
        # that wait doubles as the deterministic merge); a worker that
        # vanishes (SIGKILL, segfault — surfaced as BrokenProcessPool on
        # every pending future at once) or hangs past the policy deadline
        # gets the whole pool killed and rebuilt, finished results
        # harvested, and unfinished cells resubmitted.  A cell that
        # exhausts its redrive budget fails through the normal
        # degraded-cell path, so the journal record stream stays
        # deterministic either way.  ``counts`` collects the respawns
        # and redrives for the report.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FuturesTimeoutError
        from concurrent.futures.process import BrokenProcessPool

        from ..export import measurement_to_dict
        from ..runner import load_simulator
        from .worker import (
            CellTask,
            RunPayload,
            execute_cell_payload,
            failed_measurement,
        )

        # Forked workers inherit the parent's imports: load the simulator
        # once here rather than once per worker.
        load_simulator()
        opts = pipeline.opts
        experiment = pipeline.experiment
        wd = opts.watchdog
        payload = RunPayload(
            experiment=experiment.to_dict(), faults=opts.faults,
            retry=opts.retry, fail_fast=opts.fail_fast,
            traced=pipeline.traced,
            cache_root=(self.cache.root if self.cache is not None
                        else None))
        pool = ProcessPoolExecutor(max_workers=workers,
                                   mp_context=self._mp_context())
        outstanding: Dict[int, object] = {}  # index -> future
        ready: Dict[int, dict] = {}          # index -> result dict
        drives: Dict[int, int] = {}          # index -> submissions
        starts: Dict[int, float] = {}        # index -> first submit offset

        def absorb(result: dict) -> None:
            i = result["index"]
            pipeline.absorb(result, start_s=starts.get(i, 0.0))

        def submit(i: int) -> None:
            model, shape = pipeline.cells[i]
            starts.setdefault(i, time.perf_counter() - pipeline.t0)
            drives[i] = drives.get(i, 0) + 1
            task = CellTask(index=i, model=model.name,
                            shape=(shape.m, shape.n, shape.k),
                            fingerprint=pipeline.fingerprints[i])
            outstanding[i] = pool.submit(execute_cell_payload, payload, task)

        def harvest() -> None:
            # Results that landed before the pool broke are still good;
            # keeping them means recovery never re-runs a finished cell.
            for j, future in list(outstanding.items()):
                if not future.done() or future.cancelled():
                    continue
                try:
                    ready[j] = future.result(timeout=0)
                except Exception:
                    continue
                del outstanding[j]

        def lost_result(i: int, why: str) -> dict:
            # Synthetic worker result for a cell the watchdog gave up on;
            # flows through absorb() like any real failure.
            model, shape = pipeline.cells[i]
            cell = f"{model.name}@{shape}"
            attempts = drives.get(i, 1)
            if opts.fail_fast:
                return {"index": i,
                        "error": {"type": "WorkerLost",
                                  "message": f"cell {cell}: {why}",
                                  "cell": cell, "attempts": attempts,
                                  "reason": why}}
            m = failed_measurement(model, shape, experiment, why)
            return {"index": i, "error": None,
                    "measurement": measurement_to_dict(m),
                    "attempts": attempts, "faults": 0, "wall_s": 0.0,
                    "stored": False, "events": None}

        def recover(why: str) -> None:
            nonlocal pool
            counts["respawns"] += 1
            harvest()
            # kill(), not terminate(): a hung worker may be blocked in
            # native code where SIGTERM never gets a look-in.
            for proc in list(dict(getattr(pool, "_processes", None)
                                  or {}).values()):
                with contextlib.suppress(Exception):
                    proc.kill()
            pool.shutdown(wait=False, cancel_futures=True)
            if counts["respawns"] > wd.max_respawns:
                print(f"repro: watchdog: {why}; respawn budget "
                      f"({wd.max_respawns}) exhausted, failing "
                      f"{len(outstanding)} unfinished cell(s)",
                      file=sys.stderr)
                for j in sorted(outstanding):
                    ready[j] = lost_result(
                        j, f"{why}; worker-pool respawn budget "
                           f"({wd.max_respawns}) exhausted")
                outstanding.clear()
                return
            print(f"repro: watchdog: {why}; respawning worker pool "
                  f"({counts['respawns']}/{wd.max_respawns})",
                  file=sys.stderr)
            pool = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=self._mp_context())
            resubmit = sorted(outstanding)
            outstanding.clear()
            for j in resubmit:
                if drives.get(j, 0) > wd.max_redrives:
                    ready[j] = lost_result(
                        j, f"{why}; cell re-driven {drives[j] - 1} "
                           f"time(s) without completing (redrive budget "
                           f"{wd.max_redrives})")
                else:
                    counts["redrives"] += 1
                    submit(j)

        timeout = wd.cell_timeout_s if wd.enabled else None
        try:
            for i in misses:
                submit(i)
            pos = 0
            while pos < len(misses):  # submit order = cell order
                i = misses[pos]
                if i in ready:
                    absorb(ready.pop(i))
                    pos += 1
                    continue
                try:
                    result = outstanding[i].result(timeout=timeout)
                except FuturesTimeoutError:
                    recover(f"hung worker: no result for cell "
                            f"{pos + 1}/{len(misses)} within "
                            f"{wd.cell_timeout_s:g}s")
                    continue
                except BrokenProcessPool:
                    if not wd.enabled:
                        raise
                    recover("worker lost (killed or crashed)")
                    continue
                del outstanding[i]
                absorb(result)
                pos += 1
        except KeyboardInterrupt:
            # Drain before the journal closes: cancel whatever never
            # started, wait out the in-flight workers, and absorb (and
            # journal) their results so close_run('interrupted') counts
            # them as completed.
            for j, future in list(outstanding.items()):
                if future.cancel():
                    del outstanding[j]
            for j in sorted(set(outstanding) | set(ready)):
                with contextlib.suppress(Exception):
                    absorb(ready.pop(j) if j in ready
                           else outstanding[j].result())
            raise
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def _execute_all(self, drive, pipeline: CellPipeline,
                     run_id: str) -> None:
        """Drive the cell fan-out, finalizing the journal on interrupt.

        ``drive`` is one of the serial/thread-pool/process-pool drivers
        bound in :meth:`run`.  With a journal active, SIGINT/SIGTERM are
        routed into ``KeyboardInterrupt`` (see
        :func:`~repro.harness.journal.graceful_shutdown`); in-flight
        cells are allowed to finish and journal their results (the
        process drive drains its workers first), pending cells are
        cancelled, a ``run-close(interrupted)`` record is written, and
        :class:`~repro.errors.RunInterrupted` tells the caller how to
        resume.  ``fail_fast`` aborts close the journal as ``failed``
        before the :class:`CellFailure` propagates.
        """
        total = len(pipeline.cells)
        guard = contextlib.nullcontext()
        if pipeline.journal is not None:
            from ..journal.signals import graceful_shutdown
            guard = graceful_shutdown()
        try:
            with guard:
                drive()
        except KeyboardInterrupt:
            done = pipeline.done
            pipeline.close("interrupted")
            raise RunInterrupted(
                f"sweep interrupted after {done}/{total} cells"
                + (f"; resume with: repro run --resume {run_id}"
                   if run_id else ""),
                run_id=run_id, completed=done, total=total) from None
        except CellFailure:
            pipeline.close("failed")
            raise
