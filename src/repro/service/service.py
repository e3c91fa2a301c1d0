"""The campaign service: multi-tenant campaigns over one shared store.

:class:`CampaignService` is the daemon's engine-room, usable in-process
(tests drive it directly) or behind the wire API
(:mod:`repro.service.daemon`).  It owns:

* the **scheduler** (:class:`~repro.service.scheduler.FairShareScheduler`)
  — admission control at submit, weighted fair-share interleaving at
  cell granularity between tenants;
* the **durable queue** — every submission is journaled (``run-open`` +
  a ``campaign`` record embedding the full spec) *before* ``submit``
  returns, so a daemon restart rebuilds its queue from the run registry
  alone (:meth:`recover`) and finishes every admitted campaign
  byte-identically via the ordinary replay machinery;
* the **shared result cache** — identical cells across tenants execute
  once; later campaigns take journaled cache hits with dedup provenance
  tracked per fingerprint;
* the **shared lane health** — circuit breakers guard the simulated
  node, so failures accumulate across tenants and an OPEN lane reroutes
  every campaign's cells;
* the **ACTIVE registry state** — in-flight runs carry a pid+heartbeat
  sidecar so ``repro runs list`` and ``repro fsck`` treat them as work
  in progress rather than torn artifacts.

Thread-safety: one lock around all mutating entrypoints.  The wire
daemon calls :meth:`submit`/:meth:`status_payload` from handler threads
while a single scheduler thread drives :meth:`step`; the lock serializes
them, and within a campaign all journal writes happen on the stepping
thread.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..chaos.plan import chaos_strike
from ..errors import JournalError, OverloadError, ServiceError
from ..harness.engine.cache import ResultCache
from ..harness.engine.fingerprint import campaign_fingerprint, cell_fingerprint
from ..harness.engine.options import RunOptions
from ..harness.experiment import Experiment
from ..harness.health import BreakerPolicy, FallbackLadder, LaneHealth
from ..harness.journal import RunRegistry
from ..harness.results import ResultSet
from ..models.registry import model_by_name
from .campaign import Campaign, CampaignExecution
from .scheduler import AdmissionPolicy, FairShareScheduler, OverloadPolicy
from .spec import CampaignSpec, spec_from_dict, spec_to_dict

__all__ = ["CampaignService", "MAX_CAMPAIGN_RESTARTS",
           "STALE_HEARTBEAT_SECONDS"]

#: Heartbeat the ACTIVE sidecar of the stepping campaign every N cells.
_HEARTBEAT_EVERY = 16

#: Crash-supervision restarts one campaign may consume before the
#: supervisor quarantines it instead of requeueing it yet again.
MAX_CAMPAIGN_RESTARTS = 2

#: Heartbeat age past which ``repro status`` flags a campaign as STALE
#: (its owner stopped making progress without dying).
STALE_HEARTBEAT_SECONDS = 300.0


class CampaignService:
    """Multi-tenant campaign execution over one registry/cache/scheduler."""

    def __init__(self, registry: Optional[RunRegistry] = None,
                 cache: Optional[ResultCache] = None,
                 policy: Optional[AdmissionPolicy] = None,
                 options: Optional[RunOptions] = None,
                 overload: Optional[OverloadPolicy] = None,
                 clock: Callable[[], float] = time.time) -> None:
        self.registry = registry if registry is not None else RunRegistry()
        self.cache = cache if cache is not None else ResultCache()
        self.scheduler = FairShareScheduler(policy)
        self.overload = overload if overload is not None else OverloadPolicy()
        self.campaigns: Dict[str, Campaign] = {}
        self._executions: Dict[str, CampaignExecution] = {}
        self._options = options
        self._lanes: Dict[str, LaneHealth] = {}
        #: Cell fingerprint -> campaign id that executed (and cached) it.
        self._origins: Dict[str, str] = {}
        #: submission_key -> campaign id, the idempotency map.  Durable:
        #: the key rides inside the journaled spec, so recover() rebuilds
        #: this from disk across daemon restarts.
        self._submission_keys: Dict[str, str] = {}
        self.dedup_hits = 0
        self._lock = threading.RLock()
        self._steps = 0
        #: Wall clock (epoch seconds) behind submission times, deadlines,
        #: stall detection and uptime; tests inject a stepped one.
        self.clock = clock
        self.started_at = clock()
        self._last_grant = clock()
        #: Crash-supervision counters across every campaign this life.
        self.restarts_total = 0
        self.quarantined_total = 0
        #: Overload accounting across this service-life.
        self.accepted_total = 0
        self.duplicates_total = 0
        self.shed_total = 0

    # -- shared surface for CampaignExecution ------------------------------

    def base_options(self) -> Optional[RunOptions]:
        """The options every campaign's spec overlays (None = process
        default, i.e. the ``REPRO_FAULTS``-family environment)."""
        return self._options

    def lane_for(self, lane_spec: str, policy: BreakerPolicy) -> LaneHealth:
        """The shared breaker lane for ``model@device`` across campaigns.

        First breaker-enabled campaign to touch a lane creates it with
        its policy; later campaigns share the same state machine, so
        failures accrue node-wide rather than per tenant.
        """
        lane = self._lanes.get(lane_spec)
        if lane is None:
            lane = LaneHealth(lane_spec, policy)
            self._lanes[lane_spec] = lane
        return lane

    def note_executed(self, fingerprint: str, campaign_id: str) -> None:
        """Record which campaign actually executed (and cached) a cell."""
        self._origins.setdefault(fingerprint, campaign_id)

    def dedup_origin(self, fingerprint: str) -> Optional[str]:
        """The campaign that executed a fingerprint this service-life."""
        return self._origins.get(fingerprint)

    def note_dedup(self, fingerprint: str, campaign_id: str) -> None:
        """Count one cross-campaign cache hit (provenance in origins)."""
        self.dedup_hits += 1

    # -- submission ---------------------------------------------------------

    def submit(self, spec: CampaignSpec) -> str:
        """Admit, journal and queue one campaign; returns its id.

        Admission control runs first — a refused submission raises
        :class:`~repro.errors.AdmissionError` before anything touches
        disk.  An admitted one is durable before ``submit`` returns:
        the journal opens with the engine-identical ``run-open`` record
        (manifest, campaign fingerprint, options, cell plan) followed by
        a ``campaign`` record embedding the serialized spec — the
        durable queue entry :meth:`recover` rebuilds from.

        A spec carrying a ``submission_key`` already seen returns the
        *original* campaign id (see :meth:`submit_idempotent` for the
        created/duplicate distinction the wire layer needs).
        """
        return self.submit_idempotent(spec)[0]

    def submit_idempotent(self, spec: CampaignSpec) -> "tuple[str, bool]":
        """:meth:`submit`, with the duplicate bit the daemon answers with.

        Returns ``(campaign_id, duplicate)``: ``duplicate`` is ``True``
        when the spec's ``submission_key`` matched an earlier submission
        — nothing was admitted, journaled or queued, and the original
        id is returned so a client retrying a submit whose ACK was lost
        converges on exactly one campaign.  The key lives inside the
        journaled spec, so the map survives daemon restarts via
        :meth:`recover`.
        """
        with self._lock:
            key = spec.submission_key
            if key is not None:
                existing = self._submission_keys.get(key)
                if existing is not None:
                    self.duplicates_total += 1
                    return existing, True
            run_id = self.registry.new_run_id()
            self.scheduler.submit(run_id, spec.tenant, spec.priority)
            try:
                journal = self.registry.create(run_id)
                self._open_journal(journal, spec)
                journal.campaign_state("queued", tenant=spec.tenant,
                                       priority=spec.priority,
                                       spec=spec_to_dict(spec))
            except Exception:
                self.scheduler.finish(run_id)
                raise
            campaign = Campaign(campaign_id=run_id, spec=spec,
                                submitted_at=self.clock())
            self.campaigns[run_id] = campaign
            self._executions[run_id] = CampaignExecution(
                self, campaign, journal)
            if key is not None:
                self._submission_keys[key] = run_id
            self.accepted_total += 1
            return run_id, False

    def check_overload(self) -> None:
        """Shed (raise :class:`OverloadError`) before admission is hit.

        Called by the wire layer ahead of :meth:`submit` so saturated or
        wedged daemons answer 429 + ``Retry-After`` instead of letting
        clients slam into the admission wall.  Two triggers:

        * **backlog** — the queue is past
          :meth:`OverloadPolicy.shed_threshold` of the admission cap;
        * **stall** — work is queued but the scheduler loop has not
          granted a cell for :attr:`OverloadPolicy.stall_s` seconds (a
          wedged stepping thread must not keep accepting work).

        In-process callers that drive :meth:`step` themselves (tests,
        benchmarks) are free to skip this and use admission control
        alone.
        """
        with self._lock:
            backlog = self.scheduler.backlog
            max_total = self.scheduler.policy.max_total
            hint = self.overload.retry_after_s(backlog)
            if self.overload.should_shed(backlog, max_total):
                self.shed_total += 1
                raise OverloadError(
                    f"service is saturated ({backlog} campaigns queued, "
                    f"shedding at "
                    f"{self.overload.shed_threshold(max_total)} of "
                    f"{max_total}); retry after {hint:g}s",
                    retry_after_s=hint)
            stalled_for = self.clock() - self._last_grant
            if backlog > 0 and stalled_for > self.overload.stall_s:
                self.shed_total += 1
                raise OverloadError(
                    f"service looks wedged ({backlog} campaigns queued, "
                    f"no grant for {stalled_for:.0f}s); "
                    f"retry after {hint:g}s",
                    retry_after_s=hint)

    def retry_after_s(self) -> float:
        """The current backlog-derived ``Retry-After`` hint (seconds)."""
        with self._lock:
            return self.overload.retry_after_s(self.scheduler.backlog)

    def _open_journal(self, journal, spec: CampaignSpec) -> None:
        # The run-open record must be byte-compatible with what a
        # dedicated engine run would write: resume and fsck read it with
        # the same loaders either way.
        experiment = spec.experiment
        opts = spec.run_options(base=self._options)
        cells = [(model_by_name(name), shape)
                 for name in experiment.models
                 for shape in experiment.shapes()]
        fingerprints = [cell_fingerprint(experiment, model.name, shape,
                                         faults=opts.faults)
                        for model, shape in cells]
        effective = opts.fallback
        if opts.breaker.enabled and effective is None:
            effective = FallbackLadder.default_for(experiment)
        journal.open_run(
            manifest=experiment.to_dict(),
            campaign=campaign_fingerprint(
                experiment, opts.faults, breaker=opts.breaker,
                fallback=effective if opts.breaker.enabled else None),
            options=opts.payload(),
            cells=[{"index": i, "model": model.name, "shape": str(shape),
                    "fingerprint": fingerprints[i]}
                   for i, (model, shape) in enumerate(cells)],
        )

    # -- recovery -----------------------------------------------------------

    def recover(self) -> List[str]:
        """Rebuild the queue from journals a dead daemon left behind.

        Scans the registry for service-submitted journals (they carry
        ``campaign`` records) that never reached
        ``done``/``failed``/``expired``, re-queues each through the
        scheduler (pre-admitted: they passed admission once), and arms
        the ordinary replay machinery so completed cells are served from
        the journal — the finished campaign's report is byte-identical
        to an uninterrupted one.  Journals owned by another live process
        are left alone.

        The idempotency map is rebuilt from *every* service journal —
        finished ones included — so a submit retried across a daemon
        restart still answers with the original campaign id instead of
        admitting a duplicate.
        """
        recovered: List[str] = []
        with self._lock:
            for run_id in self.registry.run_ids():
                if run_id in self.campaigns:
                    continue
                try:
                    state = self.registry.load(run_id)
                except (JournalError, OSError):
                    continue
                meta = state.service_meta
                if not meta:
                    continue  # a plain `repro run` journal
                payload = meta.get("spec")
                if not isinstance(payload, dict):
                    continue
                key = payload.get("submission_key")
                if key:
                    self._submission_keys.setdefault(str(key), run_id)
                if meta.get("state") in ("done", "failed", "expired",
                                         "quarantined"):
                    continue
                if state.status == "complete":
                    continue
                if self.registry.active_info(run_id) is not None:
                    continue  # another live daemon owns it
                spec = spec_from_dict(payload)
                self.scheduler.submit(run_id, spec.tenant, spec.priority,
                                      preadmitted=True)
                journal = self.registry.reopen(run_id)
                journal.resume_run(completed=state.done_cells,
                                   total=state.total_cells)
                journal.campaign_state("queued", tenant=spec.tenant,
                                       priority=spec.priority,
                                       recovered=True)
                # The deadline counts from the journal's birth, not the
                # restart: daemon crashes must never extend a budget.
                campaign = Campaign(campaign_id=run_id, spec=spec,
                                    recovered=True,
                                    submitted_at=state.created
                                    or self.clock())
                campaign.cells_total = state.total_cells
                self.campaigns[run_id] = campaign
                self._executions[run_id] = CampaignExecution(
                    self, campaign, journal,
                    replay=dict(state.completed),
                    replay_meta=dict(state.outcomes))
                recovered.append(run_id)
        return recovered

    # -- scheduling ---------------------------------------------------------

    def step(self) -> bool:
        """One scheduler grant: advance the selected campaign one cell.

        Returns ``False`` when no campaign has work queued.  The grant
        is charged to the campaign's tenant whatever happened in it —
        replayed, cached and failed cells all consumed the slot.

        Supervision boundary: an exception escaping the campaign's cell
        step is a *crash* (fail-fast cell failures are already handled
        inside ``CampaignExecution.step``), and a crashing campaign
        must not take the daemon's scheduler loop down with it.  The
        campaign is rebuilt from its journal and requeued — up to
        :data:`MAX_CAMPAIGN_RESTARTS` times, after which it is
        quarantined — while every other tenant keeps running.
        """
        with self._lock:
            campaign_id = self.scheduler.select()
            if campaign_id is None:
                return False
            campaign = self.campaigns[campaign_id]
            self._last_grant = self.clock()
            if campaign.state == "queued":
                self.registry.mark_active(campaign_id, pid=os.getpid())
            # Chaos strike point "daemon-grant": an armed plan can
            # SIGKILL the whole daemon right here, mid-grant — the
            # crash :meth:`recover` exists to survive.
            chaos_strike("daemon-grant", campaign_id)
            try:
                more = self._executions[campaign_id].step()
            except Exception as exc:  # noqa: BLE001 - supervision boundary
                more = self._supervise_crash(campaign_id, exc)
            self.scheduler.begin(campaign_id)
            self.scheduler.charge(campaign_id)
            self._steps += 1
            if self._steps % _HEARTBEAT_EVERY == 0:
                self.registry.heartbeat(campaign_id)
            if not more:
                self.scheduler.finish(campaign_id)
                self.registry.release_active(campaign_id)
                # A finished campaign answers from campaign.results; its
                # per-cell executor state would only pin daemon memory.
                del self._executions[campaign_id]
            return True

    def _supervise_crash(self, campaign_id: str, exc: Exception) -> bool:
        # Requeue-or-quarantine: the journal is the truth (the crashed
        # execution's in-memory state may be arbitrarily corrupted), so
        # a restart rebuilds the campaign from disk exactly like a
        # daemon-level recover() — completed cells replay, the record
        # stream and final report stay byte-identical.
        campaign = self.campaigns[campaign_id]
        reason = f"{type(exc).__name__}: {exc}"
        if campaign.restarts >= MAX_CAMPAIGN_RESTARTS:
            return self._quarantine(
                campaign_id,
                f"{reason} (restart budget {MAX_CAMPAIGN_RESTARTS} spent)")
        self._executions[campaign_id].journal.close()
        try:
            state = self.registry.load(campaign_id)
            journal = self.registry.reopen(campaign_id)
        except (JournalError, OSError) as load_exc:
            return self._quarantine(
                campaign_id,
                f"{reason}; journal unreadable on restart: {load_exc}")
        campaign.restarts += 1
        self.restarts_total += 1
        print(f"repro: service: campaign {campaign_id} crashed ({reason}); "
              f"restarting from its journal "
              f"({campaign.restarts}/{MAX_CAMPAIGN_RESTARTS})",
              file=sys.stderr)
        journal.resume_run(completed=state.done_cells,
                           total=state.total_cells)
        journal.campaign_state("queued", tenant=campaign.spec.tenant,
                               priority=campaign.spec.priority,
                               restarted=campaign.restarts, error=reason)
        campaign.state = "queued"
        campaign.error = reason
        campaign.cells_total = state.total_cells
        campaign.cells_done = state.done_cells
        campaign.results = None
        self._executions[campaign_id] = CampaignExecution(
            self, campaign, journal,
            replay=dict(state.completed),
            replay_meta=dict(state.outcomes))
        return True

    def _quarantine(self, campaign_id: str, reason: str) -> bool:
        # Terminal supervision state: the campaign keeps crashing the
        # stepping thread, so it is retired as failed and parked where
        # recover() will not resurrect it — other tenants' campaigns
        # (and the daemon itself) keep running.
        campaign = self.campaigns[campaign_id]
        campaign.state = "quarantined"
        campaign.error = reason
        self.quarantined_total += 1
        journal = self._executions[campaign_id].journal
        try:
            journal.campaign_state("quarantined",
                                   tenant=campaign.spec.tenant,
                                   priority=campaign.spec.priority,
                                   error=reason)
            if not journal.finalized:
                journal.close_run("failed",
                                  completed=campaign.cells_done,
                                  total=campaign.cells_total)
        except (JournalError, OSError):
            pass
        journal.close()
        print(f"repro: service: campaign {campaign_id} quarantined: "
              f"{reason}", file=sys.stderr)
        return False

    def run_until_idle(self) -> int:
        """Drive the scheduler until every queued campaign finished."""
        steps = 0
        while self.step():
            steps += 1
        return steps

    @property
    def idle(self) -> bool:
        """Whether no campaign is queued or running."""
        with self._lock:
            return self.scheduler.select() is None

    def suspend(self) -> None:
        """Release file handles and ACTIVE claims without finishing.

        The graceful-shutdown half of the durability contract: journals
        stay open (and thus recoverable), sidecars are dropped so the
        runs re-enter the ordinary resumable lifecycle immediately
        rather than after pid-liveness detection.
        """
        with self._lock:
            # Only unfinished campaigns keep an execution (step drops
            # the rest), so every journal here is still open.
            for campaign_id, execution in self._executions.items():
                execution.journal.close()
                self.registry.release_active(campaign_id)

    # -- reporting ----------------------------------------------------------

    def campaign(self, campaign_id: str) -> Campaign:
        """The in-memory campaign, or :class:`ServiceError`."""
        campaign = self.campaigns.get(campaign_id)
        if campaign is None:
            raise ServiceError(f"no campaign {campaign_id!r} "
                               f"(known: {', '.join(sorted(self.campaigns)) or 'none'})")
        return campaign

    def result_set(self, campaign_id: str) -> ResultSet:
        """The finished campaign's results, from memory or its journal.

        Journal reconstruction serves campaigns finished by an earlier
        daemon life: cells come back in plan order with their embedded
        measurements, so the rendering is byte-identical to the one the
        finishing process produced.
        """
        campaign = self.campaigns.get(campaign_id)
        if campaign is not None and campaign.results is not None:
            return campaign.results
        state = self.registry.load(campaign_id)
        if state.status != "complete":
            raise ServiceError(
                f"campaign {campaign_id} is not finished "
                f"({state.done_cells}/{state.total_cells} cells; "
                f"status {state.status})")
        experiment = Experiment.from_dict(state.manifest)
        results = ResultSet(experiment)
        for cell in sorted(state.cells, key=lambda c: c.get("index", 0)):
            measurement = state.completed.get(cell.get("fingerprint", ""))
            if measurement is None:
                raise ServiceError(
                    f"campaign {campaign_id} journal is complete but cell "
                    f"{cell.get('index')} has no measurement")
            results.add(measurement)
        return results

    def health_state(self) -> str:
        """Service readiness: ``"ready"``, or ``"degraded"`` when a
        campaign sits in quarantine or the shared cache went read-only
        under disk pressure — alive and serving, but worth a look."""
        with self._lock:
            if self.cache is not None and self.cache.read_only:
                return "degraded"
            if any(c.state == "quarantined"
                   for c in self.campaigns.values()):
                return "degraded"
            return "ready"

    def status_payload(self) -> Dict[str, Any]:
        """The ``repro status`` document (stable key order when dumped).

        Each in-flight campaign row carries its ACTIVE heartbeat age and
        a ``stale`` flag (:data:`STALE_HEARTBEAT_SECONDS`), so a wedged
        owner shows up as STALE instead of silently "running".
        """
        with self._lock:
            campaigns = []
            for cid in sorted(self.campaigns):
                row = self.campaigns[cid].status_payload()
                age = self.registry.heartbeat_age(cid)
                if age is not None:
                    row["heartbeat_age_s"] = round(age, 3)
                    row["stale"] = age > STALE_HEARTBEAT_SECONDS
                campaigns.append(row)
            payload: Dict[str, Any] = {
                "pid": os.getpid(),
                "state": self.health_state(),
                "uptime_s": round(self.clock() - self.started_at, 3),
                "backlog": self.scheduler.backlog,
                "tenants": self.scheduler.snapshot(),
                "campaigns": campaigns,
                "dedup": {
                    "executed_cells": len(self._origins),
                    "hits": self.dedup_hits,
                },
                "supervision": {
                    "restarts": self.restarts_total,
                    "quarantined": self.quarantined_total,
                },
                "overload": {
                    "accepted": self.accepted_total,
                    "duplicates": self.duplicates_total,
                    "shed": self.shed_total,
                    "shed_threshold": self.overload.shed_threshold(
                        self.scheduler.policy.max_total),
                    "retry_after_s": self.overload.retry_after_s(
                        self.scheduler.backlog),
                },
                "cache": (self.cache.stats.snapshot()
                          if self.cache is not None else {}),
                "steps": self._steps,
            }
            if self.cache is not None and self.cache.read_only:
                payload["cache_pressure"] = self.cache.pressure_snapshot()
            return payload
