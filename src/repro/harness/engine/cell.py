"""The cell pipeline: the one path every cell of a sweep takes.

A cell is one (model, shape) point of an experiment: one GFLOP/s point
of a figure, one entry of Table III.  :class:`CellPipeline` owns one
run's cell plan and steps each cell through the policy every driver
shares:

* :meth:`~CellPipeline.replay` serves a cell a prior run journaled (the
  resume path), walking breaker lanes through its recorded outcome;
* :meth:`~CellPipeline.cached` serves a result-cache hit;
* :meth:`~CellPipeline.execute` runs the cell under the retry policy
  and, with breakers enabled, its lane's routing and fallback ladder,
  then stores, journals and records it;
* :meth:`~CellPipeline.absorb` commits a process-pool worker's result
  through the same journal and record code.

Each returns the cell's :class:`CellRecord` (``None`` when replay or the
cache has nothing to serve), so a driver steps cell ``i`` with
``p.replay(i) or p.cached(i) or p.execute(i)``.  The sweep engine's
serial, thread-pool and process-pool drivers and the campaign service's
cell-at-a-time stepping all drive this one object; that is what keeps
their journals and reports byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple)

from ...core.types import MatrixShape, Precision
from ...errors import CellFailure, RetryExhaustedError, WorkerLost
from ...models.registry import model_by_name
from ...sim.faults import FaultInjector
from ..experiment import Experiment
from ..export import measurement_from_dict
from ..health import (
    BreakerPolicy,
    BreakerState,
    FallbackLadder,
    HealthRegistry,
    LaneHealth,
    resolve_hop,
)
from ..results import Measurement, ResultSet
from .cache import ResultCache
from .fingerprint import campaign_fingerprint, cell_fingerprint
from .options import RunOptions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...models.base import ProgrammingModel
    from ...trace.events import EventKind
    from ...trace.profiler import Profiler
    from ..journal import RunJournal

__all__ = ["CellPipeline", "CellRecord", "breaker_event"]


def breaker_event(state: BreakerState) -> EventKind:
    """Trace event kind for the breaker state a lane transitions *into*."""
    from ...trace.events import EventKind

    return {
        BreakerState.OPEN: EventKind.BREAKER_OPEN,
        BreakerState.HALF_OPEN: EventKind.BREAKER_HALF_OPEN,
        BreakerState.CLOSED: EventKind.BREAKER_CLOSE,
    }[state]


@dataclass(frozen=True)
class CellRecord:
    """Observability record of one executed, served or failed cell."""

    model: str
    shape: str
    fingerprint: str
    cached: bool
    wall_s: float
    #: Wall-clock offset of this cell from the start of the engine run —
    #: real (possibly overlapping) positions under the thread-pool fan-out.
    start_s: float = 0.0
    #: "ok" | "cached" | "replayed" | "failed" | "substituted"
    status: str = "ok"
    attempts: int = 1
    faults: int = 0
    #: Lane that actually served the cell when it was substituted ("").
    served_by: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    @property
    def replayed(self) -> bool:
        return self.status == "replayed"

    @property
    def substituted(self) -> bool:
        return self.status == "substituted"


class CellPipeline:
    """One run's cell plan and the one path each of its cells takes.

    * ``opts`` carries the run's resilience knobs plus its journal,
      profiler and replay maps (``opts.journal``, ``opts.profiler``,
      ``opts.replay``/``opts.replay_meta``);
    * ``cache`` is the result cache cells are read from and written to
      (``None`` = caching off);
    * ``lanes``, when given, supplies the breaker lane for a
      ``model@device`` spec instead of a private one — the campaign
      service shares lanes across campaigns, because breakers guard
      the node, not one run's view of it.

    Per-cell methods write only cell ``i``'s slots and append to a
    thread-safe journal, so distinct cells may execute concurrently.
    """

    def __init__(self, experiment: Experiment, opts: RunOptions, *,
                 cache: Optional[ResultCache] = None,
                 lanes: Optional[Callable[[str, BreakerPolicy],
                                          LaneHealth]] = None) -> None:
        self.experiment = experiment
        self.opts = opts
        self.cache = cache
        self.journal: Optional["RunJournal"] = opts.journal
        self.traced = opts.profiler is not None
        self._replay = opts.replay or {}
        self._replay_meta = opts.replay_meta or {}
        self._injector = (FaultInjector(opts.faults) if opts.faults.enabled
                          else None)
        self.health: Optional[HealthRegistry] = None
        if opts.breaker.enabled:
            ladder = (opts.fallback if opts.fallback is not None
                      else FallbackLadder.default_for(experiment))
            self.health = HealthRegistry(opts.breaker, ladder, experiment)
            if lanes is not None:
                for spec in list(self.health.lanes):
                    self.health.lanes[spec] = lanes(spec, opts.breaker)
        # Breaker runs bypass cache reads: routing depends on lane state
        # accumulated across cells, so a cache hit would starve the state
        # machine of the native outcome that drives it (same precedent as
        # traced runs, which need the trace events a hit would skip).
        self._read_cache = (cache is not None and not self.traced
                            and self.health is None)
        self.cells: List[Tuple[ProgrammingModel, MatrixShape]] = [
            (model_by_name(name), shape)
            for name in experiment.models
            for shape in experiment.shapes()
        ]
        self.fingerprints = [cell_fingerprint(experiment, model.name, shape,
                                              faults=opts.faults)
                             for model, shape in self.cells]
        self.measurements: List[Optional[Measurement]] = [None] * len(
            self.cells)
        self.records: List[Optional[CellRecord]] = [None] * len(self.cells)
        #: Each executed cell's private trace (traced runs only).
        self.traces: List[Optional[Profiler]] = [None] * len(self.cells)
        self.t0 = time.perf_counter()

    # -- the run as a whole ------------------------------------------------

    @property
    def done(self) -> int:
        """Cells that carry a measurement so far."""
        return sum(1 for m in self.measurements if m is not None)

    def open_run(self) -> None:
        """Write the journal's ``run-open`` record, unless already open.

        The record (manifest, campaign fingerprint, options payload and
        cell plan) is what resume, ``repro fsck`` and a recovering
        daemon read back, whichever driver wrote it.
        """
        journal = self.journal
        if journal is None or journal.opened:
            return
        journal.open_run(
            manifest=self.experiment.to_dict(),
            campaign=campaign_fingerprint(
                self.experiment, self.opts.faults, breaker=self.opts.breaker,
                fallback=(self.health.ladder if self.health is not None
                          else None)),
            options=self.opts.payload(),
            cells=[{"index": i, "model": model.name, "shape": str(shape),
                    "fingerprint": self.fingerprints[i]}
                   for i, (model, shape) in enumerate(self.cells)],
        )

    def close(self, status: str) -> None:
        """Write the journal's ``run-close`` record, unless already
        finalized; ``status`` is ``complete``/``interrupted``/``failed``."""
        if self.journal is not None and not self.journal.finalized:
            self.journal.close_run(status, completed=self.done,
                                   total=len(self.cells))

    def results(self) -> ResultSet:
        """Every cell's measurement, in cell order."""
        results = ResultSet(self.experiment)
        for m in self.measurements:
            assert m is not None
            results.add(m)
        return results

    # -- one cell ------------------------------------------------------------

    def replay(self, i: int) -> Optional[CellRecord]:
        """Serve cell ``i`` from the prior run's journal, if it holds it.

        Replays write no journal record.  Under breakers the cell's
        journaled health metadata walks its lane through the original
        route and outcome, so call this in cell order.
        """
        fp = self.fingerprints[i]
        m = self._replay.get(fp)
        if m is None:
            return None
        if self.health is not None:
            meta = self.health.require_meta(self._replay_meta.get(fp), fp)
            self.health.feed_replay(
                self.health.lane_for(self.cells[i][0].name), meta, i)
            # Transitions replayed here were journaled by the original
            # process; keep them in the report history only.
            self.health.drain()
        return self._record(i, m, "replayed", self._now())

    def cached(self, i: int) -> Optional[CellRecord]:
        """Serve cell ``i`` from the result cache on a hit."""
        if not self._read_cache:
            return None
        fp = self.fingerprints[i]
        m = self.cache.get(fp)
        if m is None:
            return None
        if self.journal is not None:
            self.journal.cell_done(i, fp, m, cached=True, wall_s=0.0)
        return self._record(i, m, "cached", self._now())

    def execute(self, i: int) -> CellRecord:
        """Run cell ``i``, then store, journal and record its outcome.

        Raises :class:`~repro.errors.CellFailure` only under
        ``fail_fast``; otherwise a failing cell is isolated into a
        degraded (e = 0) measurement.
        """
        # The worker (and through it the simulator) loads with the first
        # cell that runs; a sweep served from the cache never imports it.
        from ...trace.profiler import Profiler
        from .worker import attempt_cell

        model, shape = self.cells[i]
        fp = self.fingerprints[i]
        cell_prof = Profiler() if self.traced else None
        if self.journal is not None:
            self.journal.cell_start(i, model.name, str(shape), fp)
        t0 = time.perf_counter()
        meta: Optional[Dict[str, Any]] = None
        if self.health is None:
            m, attempts, faults_hit, _spent = attempt_cell(
                model, shape, self.experiment, self.opts, self._injector,
                cell_prof)
        else:
            m, attempts, faults_hit, meta = self._execute_guarded(
                i, cell_prof)
        wall = time.perf_counter() - t0
        if self.cache is not None and not m.failed and not m.substituted:
            # Only native successes are cached: a failure is a transient
            # node condition, and a substitution a routing outcome of
            # *this* run's lane state — neither is a reusable property
            # of the (experiment, model, shape) key.
            self.cache.put(fp, m,
                           metadata={"experiment": self.experiment.exp_id})
        return self._commit(i, m, t0 - self.t0, wall, attempts, faults_hit,
                            meta, cell_prof)

    def absorb(self, result: Dict[str, Any],
               start_s: float = 0.0) -> CellRecord:
        """Commit one process-pool worker result (see
        :func:`~repro.harness.engine.worker.execute_cell_payload`).

        Re-raises a fail-fast error as its original class, mirrors the
        worker's cache store into this process's counters, and journals
        the cell's start/done pair here, in drain (= cell) order, so the
        record stream equals a serial run's.  Recovery semantics are
        unchanged: a cell without its done record re-executes on resume
        either way.
        """
        from ...trace.events import EventKind
        from ...trace.profiler import Profiler

        err = result.get("error")
        if err is not None:
            err_cls = {"RetryExhaustedError": RetryExhaustedError,
                       "WorkerLost": WorkerLost}.get(err["type"], CellFailure)
            raise err_cls(err["message"], cell=err["cell"],
                          attempts=err["attempts"], reason=err["reason"])
        i = result["index"]
        payload = result["measurement"]
        m = measurement_from_dict(payload, default_precision=Precision.parse(
            payload.get("precision", "fp64")))
        if self.cache is not None and result["stored"]:
            self.cache.stats.record(stores=1)
        trace = None
        if result.get("events") is not None:
            trace = Profiler()
            for kind, name, duration_s, ev_meta in result["events"]:
                trace.record(EventKind(kind), name, duration_s, **ev_meta)
        if self.journal is not None:
            model, shape = self.cells[i]
            self.journal.cell_start(i, model.name, str(shape),
                                    self.fingerprints[i])
        return self._commit(i, m, start_s, result["wall_s"],
                            result["attempts"], result["faults"], None, trace)

    def degrade(self, i: int, reason: str) -> CellRecord:
        """Fail cell ``i`` without running it: journaled as a degraded
        (e = 0) cell with ``reason`` as its note."""
        from .worker import failed_measurement

        model, shape = self.cells[i]
        m = failed_measurement(model, shape, self.experiment, reason)
        return self._commit(i, m, self._now(), 0.0, 0, 0, None, None)

    # -- internals -----------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self.t0

    def _record(self, i: int, m: Measurement, status: str, start_s: float,
                wall_s: float = 0.0, attempts: int = 1, faults: int = 0,
                trace: Optional[Profiler] = None) -> CellRecord:
        model, shape = self.cells[i]
        record = CellRecord(
            model=model.name, shape=str(shape),
            fingerprint=self.fingerprints[i], cached=status == "cached",
            wall_s=wall_s, start_s=start_s, status=status,
            attempts=attempts, faults=faults, served_by=m.served_by)
        self.measurements[i] = m
        self.records[i] = record
        self.traces[i] = trace
        return record

    def _commit(self, i: int, m: Measurement, start_s: float, wall_s: float,
                attempts: int, faults: int, meta: Optional[Dict[str, Any]],
                trace: Optional[Profiler]) -> CellRecord:
        # The journal record and CellRecord every non-replayed, uncached
        # cell ends with.
        if self.journal is not None:
            fp = self.fingerprints[i]
            if m.failed:
                self.journal.cell_failed(i, fp, m, attempts=attempts,
                                         faults=faults, reason=m.note,
                                         health=meta)
            else:
                self.journal.cell_done(i, fp, m, cached=False, wall_s=wall_s,
                                       attempts=attempts, faults=faults,
                                       health=meta)
        status = ("failed" if m.failed
                  else "substituted" if m.substituted else "ok")
        return self._record(i, m, status, start_s, wall_s, attempts, faults,
                            trace)

    def _execute_guarded(self, i: int, cell_prof: Optional[Profiler],
                         ) -> Tuple[Measurement, int, int, Dict[str, Any]]:
        # One cell under the health subsystem, in strict cell order:
        # route -> native attempt (unless the lane is OPEN) -> serve via
        # the fallback ladder if the lane is/just went OPEN -> charge
        # simulated costs to the lane clock -> journal the transitions.
        # Returns the per-cell health metadata that makes resume
        # byte-identical alongside the measurement.
        from .worker import attempt_cell

        model, shape = self.cells[i]
        health = self.health
        lane = health.lane_for(model.name)
        meta: Dict[str, Any] = {"native": "none", "native_cost_s": 0.0,
                                "serve_cost_s": 0.0}
        attempts = 0
        faults_hit = 0
        m: Optional[Measurement] = None
        if lane.route(i) != "substitute":
            m, attempts, faults_hit, spent_s = attempt_cell(
                model, shape, self.experiment, self.opts, self._injector,
                cell_prof)
            native_cost = spent_s + (0.0 if m.failed else sum(m.times_s))
            meta["native"] = "failed" if m.failed else "ok"
            meta["native_cost_s"] = native_cost
            lane.record_native(not m.failed, native_cost, i)
        serve_cost = 0.0
        if (m is None or m.failed) and lane.state is BreakerState.OPEN:
            served, serve_cost, hops_tried = self._serve_via_ladder(
                model, shape, cell_prof, lane.lane)
            if served is not None:
                m = served
            else:
                reason = m.note if m is not None else f"lane {lane.lane} open"
                m = Measurement(
                    model=model.name, display=model.display, shape=shape,
                    precision=self.experiment.precision, supported=False,
                    failed=True,
                    note=(f"{reason}; fallback ladder exhausted "
                          f"({hops_tried} hop(s) tried)"),
                    substituted_from=lane.lane, ladder_hops=hops_tried)
            meta["serve_cost_s"] = serve_cost
        lane.record_substituted(serve_cost)
        assert m is not None
        for tr in health.drain():
            if self.journal is not None:
                self.journal.breaker(**tr.payload())
            if cell_prof is not None:
                cell_prof.record(breaker_event(tr.to_state), tr.lane, 0.0,
                                 cell=tr.cell_index, at_s=tr.at_s,
                                 reason=tr.reason)
        return m, attempts, faults_hit, meta

    def _serve_via_ladder(self, model: ProgrammingModel, shape: MatrixShape,
                          cell_prof: Optional[Profiler], origin: str,
                          ) -> Tuple[Optional[Measurement], float, int]:
        """Serve one cell of an OPEN lane via its fallback ladder.

        Walks the declared hops in order, skipping hops that resolve back
        to the origin or to a lane the registry currently tracks as OPEN.
        Hop attempts run under the same retry policy but on a *disjoint*
        fault stream (keyed by the serving lane) and never feed the
        serving lane's own health — serving is borrowing, not probing.

        Returns ``(measurement, serve_cost_s, hops_tried)``; the
        measurement is ``None`` when the ladder is exhausted, and
        otherwise keeps the origin cell's model/display with full
        substitution provenance so Table III can price it honestly.
        """
        from ...trace.events import EventKind
        from .worker import attempt_cell

        experiment = self.experiment
        serve_cost = 0.0
        tried = 0
        cell = f"{model.name}@{shape}"
        for hop in self.health.ladder.hops_for(origin):
            serve_model, serve_device = resolve_hop(hop, experiment)
            hop_spec = f"{serve_model.name}@{serve_device.value}"
            if hop_spec == origin or self.health.is_open(hop_spec):
                continue
            serve_exp = (experiment if serve_device is experiment.device
                         else replace(experiment, device=serve_device))
            tried += 1
            sm, _, _, s_spent = attempt_cell(
                serve_model, shape, serve_exp, self.opts, self._injector,
                cell_prof, lane=hop_spec)
            serve_cost += s_spent
            if sm.failed or not sm.supported:
                continue
            serve_cost += sum(sm.times_s)
            if cell_prof is not None:
                cell_prof.record(EventKind.SUBSTITUTION,
                                 f"{origin}->{hop_spec}:{cell}", serve_cost,
                                 hops=tried)
            return (Measurement(
                model=model.name, display=model.display, shape=shape,
                precision=experiment.precision, times_s=sm.times_s,
                warmup_count=sm.warmup_count, supported=True,
                note=f"served by {hop_spec}; lane {origin} open",
                bound=sm.bound, substituted_from=origin, served_by=hop_spec,
                ladder_hops=tried), serve_cost, tried)
        return None, serve_cost, tried
