"""One admitted campaign, executed a cell at a time for the scheduler.

A :class:`CampaignExecution` is the preemptible form of a
``run_campaign`` call: it drives the same
:class:`~repro.harness.engine.cell.CellPipeline` the sweep engine
drives — replay, cache read, retrying attempt, breaker routing, cache
put, journal records — but one cell per :meth:`~CampaignExecution.step`
call, so the fair-share scheduler can interleave many tenants' campaigns
at cell granularity.  The records each campaign's journal receives are
the ones a dedicated run would have written (the service interleaves
cache hits with misses in cell order, where the engine journals its
hits first), which keeps per-campaign reports byte-identical however
the daemon interleaved them.

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

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from ..errors import CellFailure
from ..harness.engine.cell import CellPipeline, CellRecord
from ..harness.results import Measurement, ResultSet
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
    campaign's :class:`~repro.harness.engine.cell.CellPipeline` (the
    same cell plan and cell path a dedicated engine run uses), arms any
    replay state a recovered journal carries, and transitions the
    campaign to ``admitted``.  Each subsequent ``step`` advances one
    cell and returns ``True`` while work remains; the step that
    completes the last cell finalizes the journal and returns ``False``.

    ``service`` must provide the shared surface the execution leans on:
    ``cache`` (shared :class:`ResultCache` or ``None``), ``lane_for``
    (shared breaker lanes), ``note_executed``/``dedup_origin``
    (cross-campaign dedup provenance), ``base_options`` and ``clock``.
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
        self._next = 0
        self._pipeline: Optional[CellPipeline] = None

    # -- setup -------------------------------------------------------------

    def _start(self) -> CellPipeline:
        spec = self.campaign.spec
        opts = replace(spec.run_options(base=self.service.base_options()),
                       journal=self.journal, profiler=None,
                       replay=self._replay, replay_meta=self._replay_meta)
        self._pipeline = CellPipeline(
            spec.experiment, opts,
            cache=self.service.cache if opts.cache is not False else None,
            lanes=self.service.lane_for)
        self.campaign.cells_total = len(self._pipeline.cells)
        self._set_state("admitted")
        return self._pipeline

    def _set_state(self, state: str, **extra: Any) -> None:
        self.campaign.state = state
        self.journal.campaign_state(
            state, tenant=self.campaign.spec.tenant,
            priority=self.campaign.spec.priority, **extra)

    # -- stepping ----------------------------------------------------------

    def step(self) -> bool:
        """Advance one cell; ``True`` while the campaign has more work.

        The cell goes through the shared pipeline as ``replay(i) or
        cached(i) or execute(i)`` — interleaving cache hits with misses
        in cell order — and the campaign's stats and the service's dedup
        provenance are derived from the record it returns.

        A fail-fast cell failure finalizes the journal as ``failed``,
        marks the campaign failed, and returns ``False`` — the scheduler
        retires the campaign; other tenants are unaffected.
        """
        pipeline = self._pipeline or self._start()
        if self.campaign.state == "admitted":
            self._set_state("running")
        total = len(pipeline.cells)
        while (self._next < total
               and pipeline.measurements[self._next] is not None):
            self._next += 1
        if self._next >= total:
            self._finish()
            return False
        # Deadline enforcement happens here and only here — at a cell
        # boundary, never mid-cell, and never inside a fingerprint.
        if self.campaign.deadline_lapsed(self.service.clock()):
            self._expire()
            return False
        i = self._next
        try:
            record = (pipeline.replay(i) or pipeline.cached(i)
                      or pipeline.execute(i))
        except CellFailure as exc:
            self._fail(str(exc))
            return False
        self._tally(record)
        self._next += 1
        self.campaign.cells_done = pipeline.done
        if self.campaign.cells_done >= total:
            self._finish()
            return False
        return True

    def _tally(self, record: CellRecord) -> None:
        stats = self.campaign.stats
        cid = self.campaign.campaign_id
        if record.replayed:
            stats["replayed"] += 1
        elif record.cached:
            stats["cached"] += 1
            origin = self.service.dedup_origin(record.fingerprint)
            if origin and origin != cid:
                stats["deduped"] += 1
                self.service.note_dedup(record.fingerprint, cid)
        else:
            stats["executed"] += 1
            stats["failed"] += record.failed
            stats["substituted"] += record.substituted
            if record.status == "ok" and self._pipeline.cache is not None:
                # The pipeline cached this native success.
                self.service.note_executed(record.fingerprint, cid)

    # -- completion --------------------------------------------------------

    def _finish(self) -> None:
        if self.campaign.state not in ("done", "failed", "expired"):
            self._close("done", "complete")

    def _expire(self) -> None:
        """The deadline lapsed: degrade every remaining cell to e = 0.

        Runs the paper's degraded accounting, not an abort: each cell
        not yet measured is journaled as a ``failed`` measurement with a
        deterministic note (no wall-clock values — the report must stay
        byte-reproducible), so the journal closes ``complete`` and the
        result set renders through the ordinary DEGRADED path.  The
        campaign record lands in the terminal ``expired`` state.
        """
        deadline = self.campaign.spec.deadline_s
        note = f"campaign deadline ({deadline:g}s) expired before this cell ran"
        for i, m in enumerate(self._pipeline.measurements):
            if m is None:
                self._pipeline.degrade(i, note)
                self.campaign.stats["failed"] += 1
        self._close("expired", "complete",
                    error=f"deadline {deadline:g}s expired")

    def _fail(self, reason: str) -> None:
        self._close("failed", "failed", error=reason)

    def _close(self, state: str, status: str, error: str = "") -> None:
        # Enter the terminal campaign ``state`` and close the journal
        # with run ``status``.  The campaign record must precede
        # run-close: close_run finalizes the journal and turns later
        # appends into no-ops.
        pipeline = self._pipeline
        if status == "complete":
            self.campaign.results = pipeline.results()
        self.campaign.cells_done = pipeline.done
        extra = {}
        if error:
            self.campaign.error = extra["error"] = error
        self._set_state(state, **extra, stats=dict(self.campaign.stats))
        pipeline.close(status)
        self.journal.close()
