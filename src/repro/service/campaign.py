"""One admitted campaign, executed a cell at a time for the scheduler.

A :class:`CampaignExecution` is the preemptible form of
:meth:`~repro.harness.engine.SweepEngine.run`: the same cell loop —
replay, cache read, retrying attempt, journal records, breaker routing —
but driven *externally*, one cell per :meth:`~CampaignExecution.step`
call, so the fair-share scheduler can interleave many tenants' campaigns
at cell granularity.  The record stream each campaign's journal receives
is identical to what a dedicated engine run would have written, which is
what keeps per-campaign reports byte-identical however the daemon
interleaved them.

Cross-campaign sharing (both deliberately scoped to the service):

* the **result cache** is shared — a cell another tenant's campaign
  already executed is served as a cache hit (journaled ``cached``, wall
  0), so overlapping submissions execute each distinct cell once;
* **lane health** is shared — breakers guard the simulated *node*, not
  one campaign, so consecutive failures across tenants open a lane for
  everyone (see :meth:`CampaignService.lane_for
  <repro.service.service.CampaignService>`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..errors import CellFailure
from ..harness.engine.executor import CellRecord, SweepEngine
from ..harness.engine.fingerprint import cell_fingerprint
from ..harness.health import BreakerState, FallbackLadder, HealthRegistry
from ..harness.results import Measurement, ResultSet
from ..models.registry import model_by_name
from ..sim.faults import FaultInjector
from .spec import CampaignSpec

__all__ = ["CAMPAIGN_STATES", "Campaign", "CampaignExecution"]

#: Service-lifecycle states a campaign walks through, in order (FAILED
#: replaces DONE when a fail-fast cell aborts it; EXPIRED replaces DONE
#: when the spec's ``deadline_s`` lapsed before the cells did —
#: remaining cells are journaled as degraded e=0 failures so the
#: journal still closes complete; QUARANTINED is the supervisor's
#: terminal state for a campaign that kept crashing the stepping thread
#: past its restart budget).
CAMPAIGN_STATES = ("queued", "admitted", "running", "done", "failed",
                   "expired", "quarantined")


@dataclass
class Campaign:
    """Bookkeeping of one submitted campaign inside the service."""

    campaign_id: str          # == the journaled run id
    spec: CampaignSpec
    state: str = "queued"
    error: str = ""
    #: Whether this object was rebuilt from a journal after a restart.
    recovered: bool = False
    #: Wall-clock submission time the spec's ``deadline_s`` counts from
    #: (a recovered campaign keeps its original journal birth time, so
    #: daemon restarts never extend a deadline).
    submitted_at: float = 0.0
    #: Crash-supervision restarts this service-life (bounded; exceeding
    #: the budget quarantines the campaign instead of requeueing it).
    restarts: int = 0
    stats: Dict[str, int] = field(default_factory=lambda: {
        "executed": 0, "cached": 0, "deduped": 0, "replayed": 0,
        "failed": 0, "substituted": 0})
    results: Optional[ResultSet] = None
    cells_total: int = 0
    cells_done: int = 0

    def status_payload(self) -> Dict[str, Any]:
        """One campaign's row in the ``repro status`` document."""
        out: Dict[str, Any] = {
            "id": self.campaign_id,
            "tenant": self.spec.tenant,
            "priority": self.spec.priority,
            "state": self.state,
            "experiment": self.spec.experiment.exp_id,
            "cells": {"done": self.cells_done, "total": self.cells_total},
            "stats": dict(self.stats),
        }
        if self.error:
            out["error"] = self.error
        if self.recovered:
            out["recovered"] = True
        if self.restarts:
            out["restarts"] = self.restarts
        if self.spec.deadline_s is not None:
            out["deadline_s"] = self.spec.deadline_s
        if self.spec.submission_key is not None:
            out["submission_key"] = self.spec.submission_key
        return out

    def deadline_lapsed(self, now: float) -> bool:
        """Whether the spec's wall-clock budget has run out at ``now``."""
        deadline = self.spec.deadline_s
        if deadline is None or not self.submitted_at:
            return False
        return now >= self.submitted_at + deadline


class CampaignExecution:
    """The cell-at-a-time executor of one campaign.

    Construction does no work; the first :meth:`step` lazily builds the
    cell plan (exactly as the engine would), loads any replay state a
    recovered journal carries, and transitions the campaign to
    ``admitted``.  Each subsequent ``step`` advances one cell and
    returns ``True`` while work remains; the step that completes the
    last cell finalizes the journal and returns ``False``.

    ``service`` must provide the shared surface the execution leans on:
    ``cache`` (shared :class:`ResultCache` or ``None``), ``lane_for``
    (shared breaker lanes), ``note_executed``/``dedup_origin``
    (cross-campaign dedup provenance) and ``journal_for``/``registry``.
    """

    def __init__(self, service, campaign: Campaign, journal,
                 replay: Optional[Dict[str, Measurement]] = None,
                 replay_meta: Optional[Dict[str, Dict[str, Any]]] = None,
                 ) -> None:
        self.service = service
        self.campaign = campaign
        self.journal = journal
        self._replay = dict(replay or {})
        self._replay_meta = dict(replay_meta or {})
        self._started = False
        self._next = 0
        # Populated by _start():
        self._cells: List[Tuple[Any, Any]] = []
        self._fps: List[str] = []
        self._measurements: List[Optional[Measurement]] = []
        self._records: List[Optional[CellRecord]] = []
        self._opts = None
        self._injector: Optional[FaultInjector] = None
        self._health: Optional[HealthRegistry] = None
        # Borrowed for its _attempt_cell/_serve_via_ladder loops only;
        # never runs a sweep itself.
        self._engine = SweepEngine(cache=None, parallel=False)
        self._t0 = 0.0

    # -- setup -------------------------------------------------------------

    def _start(self) -> None:
        spec = self.campaign.spec
        experiment = spec.experiment
        opts = spec.run_options(base=self.service.base_options())
        opts = replace(opts, journal=None, profiler=None)
        self._opts = opts
        self._cells = [(model_by_name(name), shape)
                       for name in experiment.models
                       for shape in experiment.shapes()]
        self._fps = [cell_fingerprint(experiment, model.name, shape,
                                      faults=opts.faults)
                     for model, shape in self._cells]
        self.campaign.cells_total = len(self._cells)
        self._measurements = [None] * len(self._cells)
        self._records = [None] * len(self._cells)
        self._injector = (FaultInjector(opts.faults) if opts.faults.enabled
                          else None)
        if opts.breaker.enabled:
            ladder = (opts.fallback if opts.fallback is not None
                      else FallbackLadder.default_for(experiment))
            self._health = HealthRegistry(opts.breaker, ladder, experiment)
            # Swap in the service's shared lanes: breaker state guards
            # the node across tenants, not one campaign's view of it.
            for lane_spec in list(self._health.lanes):
                self._health.lanes[lane_spec] = self.service.lane_for(
                    lane_spec, opts.breaker)
        self._t0 = time.perf_counter()
        self._started = True
        self._set_state("admitted")

    def _set_state(self, state: str, **extra: Any) -> None:
        self.campaign.state = state
        self.journal.campaign_state(
            state, tenant=self.campaign.spec.tenant,
            priority=self.campaign.spec.priority, **extra)

    # -- stepping ----------------------------------------------------------

    def step(self) -> bool:
        """Advance one cell; ``True`` while the campaign has more work.

        A fail-fast cell failure finalizes the journal as ``failed``,
        marks the campaign failed, and returns ``False`` — the scheduler
        retires the campaign; other tenants are unaffected.
        """
        if not self._started:
            self._start()
        if self.campaign.state == "admitted":
            self._set_state("running")
        while (self._next < len(self._cells)
               and self._measurements[self._next] is not None):
            self._next += 1
        if self._next >= len(self._cells):
            self._finish()
            return False
        # Deadline enforcement happens here and only here — at a cell
        # boundary, never mid-cell, and never inside a fingerprint.
        if self.campaign.deadline_lapsed(self.service.clock()):
            self._expire()
            return False
        i = self._next
        try:
            if self._health is None:
                self._step_plain(i)
            else:
                self._step_health(i)
        except CellFailure as exc:
            self._fail(str(exc))
            return False
        self._next += 1
        self.campaign.cells_done = sum(
            1 for m in self._measurements if m is not None)
        if self.campaign.cells_done >= len(self._cells):
            self._finish()
            return False
        return True

    def _step_plain(self, i: int) -> None:
        model, shape = self._cells[i]
        fp = self._fps[i]
        opts = self._opts
        stats = self.campaign.stats
        replayed = self._replay.get(fp)
        if replayed is not None:
            self._measurements[i] = replayed
            self._records[i] = CellRecord(
                model=model.name, shape=str(shape), fingerprint=fp,
                cached=False, wall_s=0.0,
                start_s=time.perf_counter() - self._t0, status="replayed")
            stats["replayed"] += 1
            return
        cache = self.service.cache if opts.cache is not False else None
        if cache is not None:
            cached = cache.get(fp)
            if cached is not None:
                self._measurements[i] = cached
                self._records[i] = CellRecord(
                    model=model.name, shape=str(shape), fingerprint=fp,
                    cached=True, wall_s=0.0,
                    start_s=time.perf_counter() - self._t0, status="cached")
                self.journal.cell_done(i, fp, cached, cached=True,
                                       wall_s=0.0)
                stats["cached"] += 1
                origin = self.service.dedup_origin(fp)
                if origin and origin != self.campaign.campaign_id:
                    stats["deduped"] += 1
                    self.service.note_dedup(fp, self.campaign.campaign_id)
                return
        self.journal.cell_start(i, model.name, str(shape), fp)
        t0 = time.perf_counter()
        m, attempts, faults_hit, _spent = self._engine._attempt_cell(
            model, shape, self.campaign.spec.experiment, opts,
            self._injector, None)
        wall = time.perf_counter() - t0
        if cache is not None and not m.failed:
            cache.put(fp, m, metadata={
                "experiment": self.campaign.spec.experiment.exp_id})
            self.service.note_executed(fp, self.campaign.campaign_id)
        if m.failed:
            self.journal.cell_failed(i, fp, m, attempts=attempts,
                                     faults=faults_hit, reason=m.note)
            stats["failed"] += 1
        else:
            self.journal.cell_done(i, fp, m, cached=False, wall_s=wall,
                                   attempts=attempts, faults=faults_hit)
        stats["executed"] += 1
        self._measurements[i] = m
        self._records[i] = CellRecord(
            model=model.name, shape=str(shape), fingerprint=fp,
            cached=False, wall_s=wall, start_s=t0 - self._t0,
            status="failed" if m.failed else "ok",
            attempts=attempts, faults=faults_hit)

    def _step_health(self, i: int) -> None:
        # The breaker-enabled cell path, ported from the engine's
        # execute_health loop but running against the service's shared
        # lanes and journaling through this campaign's journal.
        model, shape = self._cells[i]
        fp = self._fps[i]
        opts = self._opts
        health = self._health
        stats = self.campaign.stats
        experiment = self.campaign.spec.experiment
        lane = health.lane_for(model.name)
        replayed = self._replay.get(fp)
        if replayed is not None:
            meta = health.require_meta(self._replay_meta.get(fp), fp)
            health.feed_replay(lane, meta, i)
            health.drain()
            self._measurements[i] = replayed
            self._records[i] = CellRecord(
                model=model.name, shape=str(shape), fingerprint=fp,
                cached=False, wall_s=0.0,
                start_s=time.perf_counter() - self._t0,
                status="replayed", served_by=replayed.served_by)
            stats["replayed"] += 1
            return
        self.journal.cell_start(i, model.name, str(shape), fp)
        t0 = time.perf_counter()
        decision = lane.route(i)
        meta = {"native": "none", "native_cost_s": 0.0, "serve_cost_s": 0.0}
        attempts = 0
        faults_hit = 0
        m: Optional[Measurement] = None
        if decision != "substitute":
            m, attempts, faults_hit, spent_s = self._engine._attempt_cell(
                model, shape, experiment, opts, self._injector, None)
            native_cost = spent_s + (0.0 if m.failed else sum(m.times_s))
            meta["native"] = "failed" if m.failed else "ok"
            meta["native_cost_s"] = native_cost
            lane.record_native(not m.failed, native_cost, i)
        final = m
        serve_cost = 0.0
        if (m is None or m.failed) and lane.state is BreakerState.OPEN:
            served, serve_cost, hops_tried = self._engine._serve_via_ladder(
                model, shape, experiment, opts, self._injector, None,
                health, lane.lane)
            if served is not None:
                final = served
            else:
                reason = (m.note if m is not None
                          else f"lane {lane.lane} open")
                final = Measurement(
                    model=model.name, display=model.display,
                    shape=shape, precision=experiment.precision,
                    supported=False, failed=True,
                    note=(f"{reason}; fallback ladder exhausted "
                          f"({hops_tried} hop(s) tried)"),
                    substituted_from=lane.lane, ladder_hops=hops_tried)
            meta["serve_cost_s"] = serve_cost
        lane.record_substituted(serve_cost)
        assert final is not None
        wall = time.perf_counter() - t0
        for tr in health.drain():
            self.journal.breaker(**tr.payload())
        cache = self.service.cache if opts.cache is not False else None
        if cache is not None and not final.failed and not final.substituted:
            cache.put(fp, final, metadata={"experiment": experiment.exp_id})
            self.service.note_executed(fp, self.campaign.campaign_id)
        if final.failed:
            self.journal.cell_failed(i, fp, final, attempts=attempts,
                                     faults=faults_hit, reason=final.note,
                                     health=meta)
            stats["failed"] += 1
        else:
            self.journal.cell_done(i, fp, final, cached=False, wall_s=wall,
                                   attempts=attempts, faults=faults_hit,
                                   health=meta)
        if final.substituted:
            stats["substituted"] += 1
        stats["executed"] += 1
        self._measurements[i] = final
        if final.failed:
            status = "failed"
        elif final.substituted:
            status = "substituted"
        else:
            status = "ok"
        self._records[i] = CellRecord(
            model=model.name, shape=str(shape), fingerprint=fp,
            cached=False, wall_s=wall, start_s=t0 - self._t0, status=status,
            attempts=attempts, faults=faults_hit, served_by=final.served_by)

    # -- completion --------------------------------------------------------

    def _finish(self) -> None:
        if self.campaign.state in ("done", "failed", "expired"):
            return
        total = len(self._cells)
        results = ResultSet(self.campaign.spec.experiment)
        for m in self._measurements:
            assert m is not None
            results.add(m)
        self.campaign.results = results
        self.campaign.cells_done = total
        # The campaign record must precede run-close: close_run
        # finalizes the journal and turns later appends into no-ops.
        self._set_state("done", stats=dict(self.campaign.stats))
        if not self.journal.finalized:
            self.journal.close_run("complete", completed=total, total=total)
        self.journal.close()

    def _expire(self) -> None:
        """The deadline lapsed: degrade every remaining cell to e = 0.

        Runs the paper's degraded accounting, not an abort: each cell
        not yet measured is journaled as a ``failed`` measurement with a
        deterministic note (no wall-clock values — the report must stay
        byte-reproducible), so the journal closes ``complete`` and the
        result set renders through the ordinary DEGRADED path.  The
        campaign record lands in the terminal ``expired`` state.
        """
        spec = self.campaign.spec
        stats = self.campaign.stats
        note = (f"campaign deadline ({spec.deadline_s:g}s) expired "
                f"before this cell ran")
        for i in range(len(self._cells)):
            if self._measurements[i] is not None:
                continue
            model, shape = self._cells[i]
            m = Measurement(
                model=model.name, display=model.display, shape=shape,
                precision=spec.experiment.precision,
                supported=False, failed=True, note=note)
            self.journal.cell_failed(i, self._fps[i], m, attempts=0,
                                     faults=0, reason=note)
            self._measurements[i] = m
            self._records[i] = CellRecord(
                model=model.name, shape=str(shape), fingerprint=self._fps[i],
                cached=False, wall_s=0.0,
                start_s=time.perf_counter() - self._t0, status="failed")
            stats["failed"] += 1
        total = len(self._cells)
        results = ResultSet(spec.experiment)
        for m in self._measurements:
            assert m is not None
            results.add(m)
        self.campaign.results = results
        self.campaign.cells_done = total
        self.campaign.error = (f"deadline {spec.deadline_s:g}s expired")
        self._set_state("expired", error=self.campaign.error,
                        stats=dict(stats))
        if not self.journal.finalized:
            # Every cell carries a (possibly degraded) measurement, so
            # the journal is complete: reports reconstruct normally.
            self.journal.close_run("complete", completed=total, total=total)
        self.journal.close()

    def _fail(self, reason: str) -> None:
        done = sum(1 for m in self._measurements if m is not None)
        self.campaign.error = reason
        self.campaign.cells_done = done
        self._set_state("failed", error=reason,
                        stats=dict(self.campaign.stats))
        if not self.journal.finalized:
            self.journal.close_run("failed", completed=done,
                                   total=len(self._cells))
        self.journal.close()
