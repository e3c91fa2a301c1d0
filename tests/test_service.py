"""Campaign service: spec precedence, scheduler, daemon, recovery."""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.chaos.plan import CHAOS_PLAN_ENV, ChaosEvent, ChaosPlan
from repro.config import resolve_campaign_spec
from repro.core.types import DeviceKind, MatrixShape, Precision
from repro.errors import (
    AdmissionError,
    ConfigError,
    DeadlineExpired,
    OverloadError,
    ServiceError,
)
from repro.harness.engine import ResultCache, SweepEngine, cell_fingerprint
from repro.harness.experiment import Experiment
from repro.harness.export import result_set_from_json, result_set_to_json
from repro.harness.health import BreakerPolicy, FallbackLadder
from repro.harness.engine.options import RetryPolicy
from repro.harness.journal import RunRegistry, fsck_store
from repro.harness.report import render_result_set
from repro.harness.runner import run_campaign, run_experiment
from repro.service import (
    AdmissionPolicy,
    CampaignDaemon,
    CampaignService,
    CampaignSpec,
    ClientPolicy,
    FairShareScheduler,
    OverloadPolicy,
    ServiceClient,
    TenantQuota,
    spec_from_dict,
    spec_from_json,
    spec_to_json,
)
from repro.sim.faults import FaultConfig


def small_exp(**kw):
    defaults = dict(
        exp_id="svc-gemm", title="service test", node_name="Crusher",
        device=DeviceKind.CPU, precision=Precision.FP64,
        models=("julia", "numba"), sizes=(256, 512), threads=64, reps=3,
    )
    defaults.update(kw)
    return Experiment(**defaults)


def small_spec(tenant="default", priority=0, **kw):
    return CampaignSpec(experiment=small_exp(**kw), tenant=tenant,
                        priority=priority)


def solo_render(spec):
    """What `repro run` prints for the same request, cache-free."""
    results = run_campaign(spec, engine=SweepEngine(cache=None,
                                                    parallel=False))
    return render_result_set(results)


@pytest.fixture
def store(tmp_path):
    return (RunRegistry(str(tmp_path / "runs")),
            ResultCache(str(tmp_path / "cache")))


# --------------------------------------------------------------------------
# CampaignSpec: validation, codec, precedence
# --------------------------------------------------------------------------

class TestCampaignSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CampaignSpec(experiment=small_exp(), engine="warp")
        with pytest.raises(ConfigError):
            CampaignSpec(experiment=small_exp(), jobs=0)
        with pytest.raises(ConfigError):
            CampaignSpec(experiment=small_exp(), tenant="a b")
        with pytest.raises(ConfigError):
            CampaignSpec(experiment=small_exp(), tenant="")
        with pytest.raises(ConfigError):
            CampaignSpec(experiment=small_exp(), priority="high")

    def test_json_roundtrip_full(self):
        spec = CampaignSpec(
            experiment=small_exp(),
            engine="process", jobs=4, cache=False,
            faults=FaultConfig(rate=0.25, seed=7),
            retry=RetryPolicy(max_attempts=3, backoff_base_s=2.0,
                              max_cell_seconds=60.0),
            fail_fast=True,
            breaker=BreakerPolicy.parse("threshold=2,cooldown=30"),
            fallback=FallbackLadder.parse("numba@cpu=julia@cpu"),
            tenant="ci", priority=5,
        )
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_json_roundtrip_sparse(self):
        spec = small_spec()
        text = spec_to_json(spec)
        assert '"faults"' not in text  # unset fields stay sparse
        assert spec_from_json(text) == spec

    def test_newer_version_refused(self):
        payload = {"spec_version": 99,
                   "experiment": small_exp().to_dict()}
        with pytest.raises(ConfigError, match="version 99"):
            spec_from_dict(payload)

    def test_missing_experiment_refused(self):
        with pytest.raises(ConfigError, match="experiment"):
            spec_from_dict({"spec_version": 1})

    def test_run_options_overlays_only_set_fields(self):
        from repro.harness.engine import RunOptions
        base = RunOptions(fail_fast=True, jobs=8)
        opts = CampaignSpec(experiment=small_exp(),
                            cache=False).run_options(base=base)
        assert opts.cache is False     # spec field applied
        assert opts.fail_fast is True  # unset fields inherit the base
        assert opts.jobs == 8

    def test_v2_fields_roundtrip_and_stay_sparse(self):
        spec = CampaignSpec(experiment=small_exp(), deadline_s=30.0,
                            submission_key="ci-nightly-42")
        text = spec_to_json(spec)
        assert '"deadline_s": 30.0' in text
        assert spec_from_json(text) == spec
        # unset v2 fields must not appear, so v2 specs without them are
        # byte-identical to the v1 encoding modulo the version stamp
        sparse = spec_to_json(small_spec())
        assert "deadline_s" not in sparse
        assert "submission_key" not in sparse

    def test_v1_payloads_still_load(self):
        payload = {"spec_version": 1, "experiment": small_exp().to_dict()}
        spec = spec_from_dict(payload)
        assert spec.deadline_s is None
        assert spec.submission_key is None

    def test_v2_field_validation(self):
        with pytest.raises(ConfigError):
            CampaignSpec(experiment=small_exp(), deadline_s=0.0)
        with pytest.raises(ConfigError):
            CampaignSpec(experiment=small_exp(), deadline_s=-5.0)
        with pytest.raises(ConfigError):
            CampaignSpec(experiment=small_exp(), deadline_s=True)
        with pytest.raises(ConfigError):
            CampaignSpec(experiment=small_exp(), submission_key="")
        with pytest.raises(ConfigError):
            CampaignSpec(experiment=small_exp(), submission_key="a b")


class TestResolvePrecedence:
    def test_cli_beats_env_per_component(self):
        spec = resolve_campaign_spec(
            small_exp(),
            cli={"retries": 3, "engine": "serial"},
            environ={"REPRO_RETRIES": "7", "REPRO_ENGINE": "process",
                     "REPRO_BACKOFF": "2.0"})
        assert spec.retry.max_attempts == 4        # CLI wins
        assert spec.retry.backoff_base_s == 2.0    # env fills the rest
        assert spec.engine == "serial"

    def test_env_fills_what_cli_left_unset(self):
        spec = resolve_campaign_spec(
            small_exp(), cli={},
            environ={"REPRO_FAULTS": "0.25", "REPRO_TENANT": "ci",
                     "REPRO_PRIORITY": "5", "REPRO_JOBS": "4",
                     "REPRO_CACHE": "0"})
        assert spec.faults.rate == 0.25
        assert spec.tenant == "ci"
        assert spec.priority == 5
        assert spec.jobs == 4
        assert spec.cache is False

    def test_defaults_stay_none(self):
        spec = resolve_campaign_spec(small_exp(), cli={}, environ={})
        assert spec.engine is None
        assert spec.retry is None
        assert spec.faults is None
        assert spec.tenant == "default"
        assert spec.priority == 0

    def test_fail_fast_false_means_flag_not_given(self):
        spec = resolve_campaign_spec(
            small_exp(), cli={"fail_fast": False},
            environ={"REPRO_FAIL_FAST": "1"})
        assert spec.fail_fast is True  # env decides
        spec = resolve_campaign_spec(
            small_exp(), cli={"fail_fast": True},
            environ={"REPRO_FAIL_FAST": "0"})
        assert spec.fail_fast is True  # CLI wins outright

    def test_bad_env_priority_is_a_config_error(self):
        with pytest.raises(ConfigError):
            resolve_campaign_spec(small_exp(), cli={},
                                  environ={"REPRO_PRIORITY": "urgent"})

    def test_deadline_and_key_cli_beats_env(self):
        spec = resolve_campaign_spec(
            small_exp(),
            cli={"deadline": 15.0, "submission_key": "from-cli"},
            environ={"REPRO_DEADLINE": "600",
                     "REPRO_SUBMISSION_KEY": "from-env"})
        assert spec.deadline_s == 15.0
        assert spec.submission_key == "from-cli"

    def test_deadline_and_key_env_fills_unset(self):
        spec = resolve_campaign_spec(
            small_exp(), cli={},
            environ={"REPRO_DEADLINE": "600",
                     "REPRO_SUBMISSION_KEY": "from-env"})
        assert spec.deadline_s == 600.0
        assert spec.submission_key == "from-env"
        spec = resolve_campaign_spec(small_exp(), cli={}, environ={})
        assert spec.deadline_s is None
        assert spec.submission_key is None

    def test_bad_env_deadline_is_a_config_error(self):
        with pytest.raises(ConfigError):
            resolve_campaign_spec(small_exp(), cli={},
                                  environ={"REPRO_DEADLINE": "tomorrow"})


# --------------------------------------------------------------------------
# scheduler
# --------------------------------------------------------------------------

class TestScheduler:
    def test_weighted_fair_share_converges_to_weight_ratio(self):
        policy = AdmissionPolicy(quotas=(("big", TenantQuota(weight=2.0)),))
        sched = FairShareScheduler(policy)
        sched.submit("c-big", "big")
        sched.submit("c-small", "small")
        grants = {"c-big": 0, "c-small": 0}
        for _ in range(30):
            picked = sched.select()
            sched.charge(picked)
            grants[picked] += 1
        assert grants["c-big"] == 20
        assert grants["c-small"] == 10

    def test_grant_sequence_is_deterministic(self):
        def run():
            sched = FairShareScheduler()
            sched.submit("a1", "alice")
            sched.submit("b1", "bob")
            sched.submit("a2", "alice", priority=2)
            seq = []
            for _ in range(12):
                picked = sched.select()
                seq.append(picked)
                sched.charge(picked)
            return seq
        assert run() == run()

    def test_priority_preempts_within_tenant_only(self):
        sched = FairShareScheduler()
        sched.submit("low", "alice", priority=0)
        assert sched.select() == "low"
        sched.charge("low")
        sched.begin("low")
        sched.submit("high", "alice", priority=5)
        # Next alice grant goes to the high-priority arrival; the
        # in-flight campaign keeps its slot for later.
        assert sched.select() == "high"
        sched.charge("high")
        sched.finish("high")
        assert sched.select() == "low"
        sched.finish("low")
        assert sched.select() is None

    def test_new_tenant_gets_no_retroactive_credit(self):
        sched = FairShareScheduler()
        sched.submit("a1", "alice")
        for _ in range(10):
            sched.charge("a1")
        sched.submit("b1", "bob")  # starts at alice's pass, not zero
        counts = {"a1": 0, "b1": 0}
        for _ in range(10):
            picked = sched.select()
            sched.charge(picked)
            counts[picked] += 1
        assert counts["b1"] == 5  # fair from now on, no catch-up burst

    def test_admission_quota_per_tenant(self):
        policy = AdmissionPolicy(default_quota=TenantQuota(max_queued=1))
        sched = FairShareScheduler(policy)
        sched.submit("a1", "alice")
        with pytest.raises(AdmissionError) as exc_info:
            sched.submit("a2", "alice")
        assert exc_info.value.tenant == "alice"
        assert exc_info.value.limit == 1
        sched.submit("b1", "bob")  # other tenants are unaffected
        sched.finish("a1")
        sched.submit("a2", "alice")  # quota freed by the finish

    def test_admission_global_cap_and_preadmitted_bypass(self):
        policy = AdmissionPolicy(max_total=2)
        sched = FairShareScheduler(policy)
        sched.submit("a1", "alice")
        sched.submit("b1", "bob")
        with pytest.raises(AdmissionError) as exc_info:
            sched.submit("c1", "carol")
        assert exc_info.value.limit == 2
        sched.submit("c1", "carol", preadmitted=True)  # recovery path

    def test_duplicate_and_unknown_campaigns_are_errors(self):
        sched = FairShareScheduler()
        sched.submit("a1", "alice")
        with pytest.raises(ServiceError):
            sched.submit("a1", "alice")
        with pytest.raises(ServiceError):
            sched.charge("ghost")


class TestOverloadPolicy:
    def test_shed_threshold_and_retry_after_are_deterministic(self):
        policy = OverloadPolicy()
        assert policy.shed_threshold(64) == 52       # ceil(0.8 * 64)
        assert policy.shed_threshold(1) == 1
        assert not policy.should_shed(51, 64)
        assert policy.should_shed(52, 64)
        # Retry-After scales with backlog, clamped to [1, 30] whole
        # seconds so the header is always a valid integer.
        assert policy.retry_after_s(0) == 1.0
        assert policy.retry_after_s(10) == 5.0
        assert policy.retry_after_s(1000) == 30.0

    def test_invalid_policies_are_refused(self):
        with pytest.raises(ServiceError):
            OverloadPolicy(shed_fraction=0.0)
        with pytest.raises(ServiceError):
            OverloadPolicy(shed_fraction=1.5)
        with pytest.raises(ServiceError):
            OverloadPolicy(stall_s=-1.0)
        with pytest.raises(ServiceError):
            OverloadPolicy(min_retry_after_s=10.0, max_retry_after_s=1.0)


class TestClientPolicy:
    def test_backoff_is_capped_exponential_without_jitter(self):
        policy = ClientPolicy(retries=5)
        assert [policy.backoff_s(n) for n in range(6)] == \
            [0.05, 0.1, 0.2, 0.4, 0.8, 1.0]
        # deterministic: same attempt, same delay, every time
        assert policy.backoff_s(3) == policy.backoff_s(3)

    def test_invalid_policies_are_refused(self):
        with pytest.raises(ConfigError):
            ClientPolicy(retries=-1)
        with pytest.raises(ConfigError):
            ClientPolicy(backoff_base_s=0.0)
        with pytest.raises(ConfigError):
            ClientPolicy(backoff_base_s=2.0, backoff_max_s=1.0)


# --------------------------------------------------------------------------
# service: dedup, byte-identity, recovery
# --------------------------------------------------------------------------

class TestServiceDedup:
    def test_overlapping_cells_execute_once_reports_match_solo(self, store):
        registry, cache = store
        svc = CampaignService(registry=registry, cache=cache)
        spec_a = small_spec(tenant="alice", models=("julia", "numba"))
        spec_b = small_spec(tenant="bob", models=("julia", "kokkos"))
        id_a = svc.submit(spec_a)
        id_b = svc.submit(spec_b)
        svc.run_until_idle()

        camp_a, camp_b = svc.campaigns[id_a], svc.campaigns[id_b]
        assert camp_a.state == "done" and camp_b.state == "done"
        # alice (first in tenant-name order) executed all 4 of her cells;
        # bob's overlapping julia cells were served from alice's results.
        assert camp_a.stats["executed"] == 4
        assert camp_b.stats["executed"] == 2
        assert camp_b.stats["deduped"] == 2
        assert svc.dedup_hits == 2
        for size in (256, 512):
            fp = cell_fingerprint(spec_b.experiment, "julia",
                                  MatrixShape.square(size))
            assert svc.dedup_origin(fp) == id_a

        # Interleaved multi-tenant execution changes nothing observable:
        # each report is byte-identical to the campaign run alone.
        assert render_result_set(svc.result_set(id_a)) == solo_render(spec_a)
        assert render_result_set(svc.result_set(id_b)) == solo_render(spec_b)

    def test_distinct_experiments_do_not_dedup(self, store):
        registry, cache = store
        svc = CampaignService(registry=registry, cache=cache)
        # Same models/sizes, different exp_id: the id seeds the
        # variability stream, so these are genuinely different cells.
        svc.submit(small_spec(tenant="alice", exp_id="exp-a"))
        svc.submit(small_spec(tenant="bob", exp_id="exp-b"))
        svc.run_until_idle()
        assert svc.dedup_hits == 0

    def test_failed_campaign_leaves_other_tenants_unharmed(self, store):
        registry, cache = store
        svc = CampaignService(registry=registry, cache=cache)
        bad = CampaignSpec(
            experiment=small_exp(exp_id="boom", models=("julia",),
                                 sizes=(256,)),
            faults=FaultConfig(rate=0.0, always=("julia@256",)),
            fail_fast=True, tenant="alice")
        good = small_spec(tenant="bob", exp_id="fine")
        id_bad = svc.submit(bad)
        id_good = svc.submit(good)
        svc.run_until_idle()
        assert svc.campaigns[id_bad].state == "failed"
        assert svc.campaigns[id_bad].error
        assert svc.campaigns[id_good].state == "done"
        assert render_result_set(svc.result_set(id_good)) == solo_render(good)


class TestServiceRecovery:
    def test_restart_resumes_all_campaigns_byte_identically(self, store):
        registry, cache = store
        svc1 = CampaignService(registry=registry, cache=cache)
        spec_a = small_spec(tenant="alice", exp_id="re-a")
        spec_b = small_spec(tenant="bob", exp_id="re-b",
                            models=("julia", "kokkos"))
        id_a = svc1.submit(spec_a)
        id_b = svc1.submit(spec_b)
        for _ in range(5):  # alice 3 cells, bob 2 — both mid-flight
            assert svc1.step()
        svc1.suspend()  # the graceful-shutdown half of a daemon restart

        svc2 = CampaignService(registry=registry, cache=cache)
        assert sorted(svc2.recover()) == sorted([id_a, id_b])
        svc2.run_until_idle()
        for cid in (id_a, id_b):
            assert svc2.campaigns[cid].state == "done"
            assert svc2.campaigns[cid].recovered
        assert svc2.campaigns[id_a].stats["replayed"] == 3
        assert svc2.campaigns[id_b].stats["replayed"] == 2
        assert render_result_set(svc2.result_set(id_a)) == solo_render(spec_a)
        assert render_result_set(svc2.result_set(id_b)) == solo_render(spec_b)

    def test_recover_skips_journals_owned_by_a_live_process(self, store):
        registry, cache = store
        svc1 = CampaignService(registry=registry, cache=cache)
        cid = svc1.submit(small_spec(tenant="alice"))
        for _ in range(2):
            svc1.step()
        # No suspend: the ACTIVE sidecar still names this (live) process,
        # so a second daemon must leave the journal alone.
        svc2 = CampaignService(registry=registry, cache=cache)
        assert svc2.recover() == []
        registry.release_active(cid)  # the owner died
        assert svc2.recover() == [cid]

    def test_recover_ignores_plain_and_finished_runs(self, store):
        registry, cache = store
        svc1 = CampaignService(registry=registry, cache=cache)
        done = svc1.submit(small_spec(tenant="alice", exp_id="done"))
        svc1.run_until_idle()
        assert svc1.campaigns[done].state == "done"
        # A plain `repro run` journal: no campaign record.
        plain = registry.create()
        plain.close()
        svc2 = CampaignService(registry=registry, cache=cache)
        assert svc2.recover() == []

    def test_submit_is_durable_before_any_execution(self, store):
        registry, cache = store
        svc1 = CampaignService(registry=registry, cache=cache)
        spec = small_spec(tenant="alice", exp_id="durable")
        cid = svc1.submit(spec)  # not a single step
        svc1.suspend()
        svc2 = CampaignService(registry=registry, cache=cache)
        assert svc2.recover() == [cid]
        svc2.run_until_idle()
        assert render_result_set(svc2.result_set(cid)) == solo_render(spec)


# --------------------------------------------------------------------------
# overload hardening: deadlines, idempotent submission, shedding
# --------------------------------------------------------------------------

def keyed_spec(key, deadline=None, **kw):
    import dataclasses
    return dataclasses.replace(small_spec(**kw), submission_key=key,
                               deadline_s=deadline)


class CellClock:
    """A service clock that moves only when the service measures a cell.

    It reads ``1000 + per_cell * cells`` seconds, ``cells`` being the
    cells measured across the service's campaigns, so a deadline lapses
    at a chosen cell boundary however fast the simulator runs.
    """

    def __init__(self, per_cell):
        self.per_cell = per_cell
        self.service = None

    def __call__(self):
        campaigns = (list(self.service.campaigns.values())
                     if self.service is not None else [])
        return 1000.0 + self.per_cell * sum(c.cells_done for c in campaigns)


def cell_clocked_service(registry, cache, per_cell):
    clock = CellClock(per_cell)
    clock.service = CampaignService(registry=registry, cache=cache,
                                    clock=clock)
    return clock.service


#: A 50 ms budget on a clock that moves 20 ms per measured cell lapses
#: at the boundary after the third cell: 40 ms < 50 ms <= 60 ms.
DEADLINE_S, SECONDS_PER_CELL, CELLS_BEFORE_EXPIRY = 0.05, 0.02, 3


class TestDeadlineExpiry:
    def test_lapsed_deadline_expires_through_degraded_path(self, store):
        registry, cache = store
        svc = CampaignService(registry=registry, cache=cache)
        spec = keyed_spec("dl-1", deadline=0.001, exp_id="dl")
        cid = svc.submit(spec)
        time.sleep(0.005)
        svc.run_until_idle()
        campaign = svc.campaigns[cid]
        assert campaign.state == "expired"
        assert "expired" in campaign.error
        # every cell failed through the ordinary degraded path: the
        # journal closed complete, the report renders with e=0 rows.
        assert campaign.stats["failed"] == campaign.cells_total == 4
        assert registry.load(cid).status == "complete"
        report = render_result_set(svc.result_set(cid))
        assert "DEGRADED" in report
        assert "deadline" in report

    def test_expiry_only_at_cell_boundaries(self, store):
        registry, cache = store
        svc = CampaignService(registry=registry, cache=cache)
        cid = svc.submit(keyed_spec("dl-2", deadline=300.0, exp_id="dlb"))
        svc.step()  # cell 1 executes well inside the budget
        # the deadline lapses mid-campaign...
        svc.campaigns[cid].submitted_at = time.time() - 400.0
        svc.run_until_idle()
        campaign = svc.campaigns[cid]
        # ...so the executed cell keeps its real measurement and only
        # the cells that never ran are expired.
        assert campaign.state == "expired"
        assert campaign.stats["failed"] == 3
        assert campaign.stats["executed"] == 1

    def test_generous_deadline_changes_no_bytes(self, store):
        registry, cache = store
        svc = CampaignService(registry=registry, cache=cache)
        spec = keyed_spec("dl-3", deadline=3600.0, exp_id="dlok")
        cid = svc.submit(spec)
        svc.run_until_idle()
        assert svc.campaigns[cid].state == "done"
        # the deadline is not part of any fingerprint or report
        import dataclasses
        bare = dataclasses.replace(spec, deadline_s=None,
                                   submission_key=None)
        assert render_result_set(svc.result_set(cid)) == solo_render(bare)

    def test_restart_never_extends_a_deadline(self, store):
        registry, cache = store
        svc1 = CampaignService(registry=registry, cache=cache)
        cid = svc1.submit(keyed_spec("dl-4", deadline=0.001, exp_id="dlr"))
        svc1.suspend()  # daemon dies before the first grant
        time.sleep(0.005)
        svc2 = CampaignService(registry=registry, cache=cache)
        assert svc2.recover() == [cid]
        # the recovered campaign's budget counts from the journal's
        # birth, not the restart
        assert svc2.campaigns[cid].deadline_lapsed(svc2.clock())
        svc2.run_until_idle()
        assert svc2.campaigns[cid].state == "expired"

    def test_expired_campaigns_are_not_requeued_on_recover(self, store):
        registry, cache = store
        svc1 = CampaignService(registry=registry, cache=cache)
        cid = svc1.submit(keyed_spec("dl-5", deadline=0.001, exp_id="dlq"))
        time.sleep(0.005)
        svc1.run_until_idle()
        assert svc1.campaigns[cid].state == "expired"
        svc1.suspend()
        svc2 = CampaignService(registry=registry, cache=cache)
        assert svc2.recover() == []


class TestIdempotentSubmit:
    def test_same_key_returns_original_id_without_disk(self, store):
        registry, cache = store
        svc = CampaignService(registry=registry, cache=cache)
        spec = keyed_spec("retry-1", exp_id="idem")
        cid = svc.submit(spec)
        assert svc.submit_idempotent(spec) == (cid, True)
        assert svc.submit(spec) == cid
        assert svc.duplicates_total == 2
        assert svc.accepted_total == 1
        assert len(registry.run_ids()) == 1  # one journal, not three

    def test_distinct_keys_are_distinct_campaigns(self, store):
        registry, cache = store
        svc = CampaignService(registry=registry, cache=cache)
        a = svc.submit(keyed_spec("k-a", exp_id="idem"))
        b = svc.submit(keyed_spec("k-b", exp_id="idem"))
        assert a != b

    def test_key_map_survives_restart_even_for_finished_campaigns(
            self, store):
        registry, cache = store
        svc1 = CampaignService(registry=registry, cache=cache)
        spec = keyed_spec("retry-2", exp_id="idemr")
        cid = svc1.submit(spec)
        svc1.run_until_idle()
        assert svc1.campaigns[cid].state == "done"
        svc1.suspend()
        # The daemon restarts; the retried submit must converge on the
        # original id even though the campaign is finished and recover()
        # requeues nothing.
        svc2 = CampaignService(registry=registry, cache=cache)
        assert svc2.recover() == []
        assert svc2.submit_idempotent(spec) == (cid, True)
        assert len(registry.run_ids()) == 1

    def test_unkeyed_submits_never_dedup(self, store):
        registry, cache = store
        svc = CampaignService(registry=registry, cache=cache)
        spec = small_spec(exp_id="nokey")
        assert svc.submit(spec) != svc.submit(spec)


class TestLoadShedding:
    def shed_service(self, store, max_total=4):
        registry, cache = store
        return CampaignService(
            registry=registry, cache=cache,
            policy=AdmissionPolicy(
                max_total=max_total,
                default_quota=TenantQuota(max_queued=max_total)))

    def test_sheds_past_threshold_before_admission_wall(self, store):
        svc = self.shed_service(store, max_total=4)  # shed at ceil(3.2)=4
        for i in range(3):
            svc.submit(small_spec(exp_id=f"shed-{i}"))
        svc.check_overload()  # backlog 3 < 4: accepting
        svc.submit(small_spec(exp_id="shed-3"))
        with pytest.raises(OverloadError) as excinfo:
            svc.check_overload()
        assert excinfo.value.retry_after_s >= 1.0
        assert svc.shed_total == 1
        # the shed hint also rides in the status document
        overload = svc.status_payload()["overload"]
        assert overload["shed"] == 1
        assert overload["shed_threshold"] == 4

    def test_stalled_scheduler_sheds_even_below_threshold(self, store):
        svc = self.shed_service(store, max_total=8)
        svc.submit(small_spec(exp_id="stall"))
        svc.check_overload()  # backlog 1, fresh grant clock: fine
        svc._last_grant = time.time() - 120.0  # wedged for 2 minutes
        with pytest.raises(OverloadError, match="wedged"):
            svc.check_overload()
        svc.run_until_idle()  # granting clears the stall verdict
        svc.check_overload()


# --------------------------------------------------------------------------
# ACTIVE sidecars: runs list, fsck, liveness pruning
# --------------------------------------------------------------------------

class TestActiveState:
    def test_in_flight_campaign_shows_active_and_fsck_skips_it(self, store):
        registry, cache = store
        svc = CampaignService(registry=registry, cache=cache)
        cid = svc.submit(small_spec(tenant="alice"))
        svc.step()
        listing = registry.render_list()
        assert "ACTIVE" in listing
        assert f"pid {os.getpid()}" in listing
        report = fsck_store(registry=registry)
        assert report.active_skipped == 1
        assert not report.corrupt
        svc.run_until_idle()
        assert "ACTIVE" not in registry.render_list()
        assert registry.active_info(cid) is None

    def test_dead_owner_sidecar_is_pruned(self, store):
        registry, _ = store
        journal = registry.create()
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        registry.mark_active(journal.run_id, pid=proc.pid)
        assert registry.active_info(journal.run_id) is None
        assert not os.path.exists(registry.active_path(journal.run_id))
        journal.close()


# --------------------------------------------------------------------------
# deprecated shims
# --------------------------------------------------------------------------

class TestShims:
    def test_run_experiment_warns_and_matches_run_campaign(self):
        exp = small_exp(exp_id="shim")
        engine = SweepEngine(cache=None, parallel=False)
        with pytest.deprecated_call():
            old = run_experiment(exp, engine=engine)
        new = run_campaign(CampaignSpec(experiment=exp), engine=engine)
        assert render_result_set(old) == render_result_set(new)

    def test_top_level_export(self):
        assert repro.run_campaign is run_campaign


# --------------------------------------------------------------------------
# daemon: wire API over a Unix socket
# --------------------------------------------------------------------------

class TestDaemonWire:
    @pytest.fixture
    def daemon(self, store, tmp_path):
        registry, cache = store
        svc = CampaignService(registry=registry, cache=cache)
        sock = str(tmp_path / "s.sock")
        daemon = CampaignDaemon(service=svc, socket_path=sock)
        thread = threading.Thread(
            target=daemon.serve, kwargs={"install_signals": False},
            daemon=True)
        thread.start()
        yield daemon
        daemon.request_shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_wire_round_trip(self, daemon):
        client = ServiceClient(daemon.socket_path)
        assert client.ping()["ok"] is True

        spec = small_spec(tenant="alice", exp_id="wire")
        cid = client.submit(spec)
        row = client.wait(cid, timeout=120)
        assert row["state"] == "done"
        assert client.report(cid).rstrip("\n") == solo_render(spec)

        status = client.status()
        assert status["backlog"] == 0
        assert [c["id"] for c in status["campaigns"]] == [cid]
        assert client.campaigns()[0]["tenant"] == "alice"

    def test_wire_errors_keep_their_kind(self, daemon):
        client = ServiceClient(daemon.socket_path)
        with pytest.raises(ServiceError):
            client.campaign("no-such-campaign")
        with pytest.raises(ConfigError):
            client.submit_payload({"spec_version": 1})  # no experiment
        with pytest.raises(ConfigError, match="version 99"):
            client.submit_payload({"spec_version": 99,
                                   "experiment": small_exp().to_dict()})

    def test_duplicate_submit_answers_original_id(self, daemon):
        client = ServiceClient(daemon.socket_path)
        spec = keyed_spec("wire-dup", exp_id="wiredup")
        cid = client.submit(spec)
        assert client.submit(spec) == cid  # 200 + duplicate, not 409
        client.wait(cid, timeout=120)
        assert client.submit(spec) == cid  # still answered when done
        overload = client.status()["overload"]
        assert overload["duplicates"] == 2
        assert overload["accepted"] == 1

    def test_expired_campaign_raises_deadline_expired_on_wait(
            self, store, tmp_path):
        # The service clock passes the 50 ms budget after the third of
        # 12 cells, so the campaign expires at that cell boundary.
        registry, cache = store
        svc = cell_clocked_service(registry, cache, SECONDS_PER_CELL)
        daemon = CampaignDaemon(service=svc,
                                socket_path=str(tmp_path / "dl.sock"))
        thread = threading.Thread(
            target=daemon.serve, kwargs={"install_signals": False},
            daemon=True)
        thread.start()
        try:
            client = ServiceClient(daemon.socket_path)
            spec = keyed_spec("wire-dl", deadline=DEADLINE_S,
                              exp_id="wiredl",
                              models=("julia", "numba", "kokkos"),
                              sizes=(256, 512, 1024, 2048))
            cid = client.submit(spec)
            with pytest.raises(DeadlineExpired) as excinfo:
                client.wait(cid, timeout=120)
            assert excinfo.value.campaign_id == cid
            assert excinfo.value.deadline_s == 0.05
            row = client.campaign(cid)
            assert row["state"] == "expired"
            assert row["deadline_s"] == 0.05
            assert row["stats"]["executed"] == CELLS_BEFORE_EXPIRY
            # the degraded report still renders
            assert "DEGRADED" in client.report(cid)
        finally:
            daemon.request_shutdown()
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_report_json_roundtrips_byte_identically(self, daemon):
        client = ServiceClient(daemon.socket_path)
        spec = small_spec(tenant="alice", exp_id="wirejson")
        cid = client.submit(spec)
        client.wait(cid, timeout=120)
        exported = client.report(cid, fmt="json")
        # the wire export is byte-identical to `repro run --format json`
        solo = run_campaign(spec, engine=SweepEngine(cache=None,
                                                     parallel=False))
        assert exported == result_set_to_json(solo) + "\n"
        # and round-trips through the artifact loader losslessly
        loaded = result_set_from_json(exported)
        assert render_result_set(loaded) == solo_render(spec)
        assert result_set_to_json(loaded) + "\n" == exported

    def test_second_daemon_on_live_socket_fails_fast(self, daemon):
        client = ServiceClient(daemon.socket_path)
        client.ping()
        with pytest.raises(ServiceError, match="already serving"):
            CampaignDaemon(service=daemon.service,
                           socket_path=daemon.socket_path)

    def test_client_without_daemon_raises_service_error(self, tmp_path):
        client = ServiceClient(str(tmp_path / "nobody.sock"))
        with pytest.raises(ServiceError, match="repro serve"):
            client.ping()


class TestDaemonShutdown:
    def test_draining_daemon_refuses_new_campaigns(self, store, tmp_path):
        # A daemon whose shutdown was requested must not take new work:
        # its scheduler loop is about to exit, so an accepted campaign
        # would sit journaled-but-unscheduled until some later daemon
        # life recovers it.  The wire answer is 503, not 202.
        registry, cache = store
        svc = CampaignService(registry=registry, cache=cache)
        sock = str(tmp_path / "drain.sock")
        daemon = CampaignDaemon(service=svc, socket_path=sock)
        listener = threading.Thread(target=daemon.server.serve_forever,
                                    daemon=True)
        listener.start()
        try:
            client = ServiceClient(sock)
            assert client.ping()["ok"] is True
            daemon.request_shutdown()  # serve() is not running: the
            # listener stays up, exactly the drain window we must cover
            assert client.ping()["state"] == "draining"
            with pytest.raises(ServiceError, match="draining"):
                client.submit(small_spec(exp_id="drain"))
            assert client.status()["backlog"] == 0  # nothing journaled
        finally:
            daemon.server.shutdown()
            daemon.server.server_close()
            try:
                os.unlink(sock)
            except OSError:
                pass

    def test_shutdown_endpoint_stops_serve_and_removes_socket(self, store,
                                                              tmp_path):
        registry, cache = store
        svc = CampaignService(registry=registry, cache=cache)
        sock = str(tmp_path / "down.sock")
        daemon = CampaignDaemon(service=svc, socket_path=sock)
        thread = threading.Thread(
            target=daemon.serve, kwargs={"install_signals": False},
            daemon=True)
        thread.start()
        client = ServiceClient(sock)
        client.ping()
        client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert not os.path.exists(sock)


class TestOverloadWire:
    @pytest.fixture
    def idle_daemon(self, store, tmp_path):
        # Listener only, no scheduler loop: the backlog cannot drain, so
        # shedding behaviour is deterministic.
        registry, cache = store
        svc = CampaignService(
            registry=registry, cache=cache,
            policy=AdmissionPolicy(max_total=4,
                                   default_quota=TenantQuota(max_queued=4)))
        sock = str(tmp_path / "shed.sock")
        daemon = CampaignDaemon(service=svc, socket_path=sock)
        listener = threading.Thread(target=daemon.server.serve_forever,
                                    daemon=True)
        listener.start()
        yield daemon
        daemon.server.shutdown()
        daemon.server.server_close()
        try:
            os.unlink(sock)
        except OSError:
            pass

    def test_saturated_daemon_sheds_429_with_retry_after(self, idle_daemon):
        client = ServiceClient(idle_daemon.socket_path)
        for i in range(4):  # shed threshold = ceil(0.8 * 4) = 4
            client.submit(small_spec(exp_id=f"shed-{i}"))
        with pytest.raises(OverloadError) as excinfo:
            client.submit(small_spec(exp_id="shed-4"))
        assert excinfo.value.retry_after_s >= 1.0
        assert "saturated" in str(excinfo.value)
        # shed before admission and before disk: nothing was journaled
        assert idle_daemon.service.scheduler.backlog == 4
        assert client.status()["overload"]["shed"] == 1

    def test_client_retries_shed_submit_only_with_key(self, idle_daemon):
        sock = idle_daemon.socket_path
        for i in range(4):
            ServiceClient(sock).submit(small_spec(exp_id=f"pre-{i}"))
        fast = ClientPolicy(retries=1, backoff_base_s=0.001,
                            backoff_factor=1.0, backoff_max_s=0.001)
        # a keyed submit retries (and still fails: nothing drains)...
        client = ServiceClient(sock, policy=fast)
        t0 = time.monotonic()
        with pytest.raises(OverloadError):
            client.submit(keyed_spec("retry-shed", exp_id="k"))
        assert client.retries_used == 1
        # ...honouring the daemon's Retry-After between attempts
        assert time.monotonic() - t0 >= 2.0
        # an unkeyed submit must not be retried: a lost ACK would
        # duplicate the campaign
        client = ServiceClient(sock, policy=fast)
        with pytest.raises(OverloadError):
            client.submit(small_spec(exp_id="nokey"))
        assert client.retries_used == 0

    def test_unreachable_daemon_is_retryable_for_gets(self, tmp_path):
        fast = ClientPolicy(retries=3, backoff_base_s=0.001,
                            backoff_factor=1.0, backoff_max_s=0.001)
        client = ServiceClient(str(tmp_path / "nobody.sock"), policy=fast)
        with pytest.raises(ServiceError, match="repro serve"):
            client.ping()
        assert client.retries_used == 3  # GETs retry on connect-refused
        client = ServiceClient(str(tmp_path / "nobody.sock"), policy=fast)
        with pytest.raises(ServiceError):
            client.submit(small_spec(exp_id="gone"))
        assert client.retries_used == 0  # unkeyed POSTs never retry


# --------------------------------------------------------------------------
# the real process lifecycle: serve, SIGTERM mid-campaign, restart
# --------------------------------------------------------------------------

def _wait_until(predicate, timeout=60.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _ping_ok(sock):
    try:
        return ServiceClient(sock).ping().get("ok") is True
    except ServiceError:
        return False


class TestDaemonProcessRestart:
    def test_sigterm_then_restart_finishes_campaigns_byte_identically(
            self, tmp_path):
        sock = str(tmp_path / "d.sock")
        runs_dir = str(tmp_path / "runs")
        cache_dir = str(tmp_path / "cache")
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ,
                   REPRO_RUNS_DIR=runs_dir, REPRO_CACHE_DIR=cache_dir,
                   PYTHONPATH=src_dir + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))

        def start_daemon():
            return subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket", sock],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)

        spec_a = CampaignSpec(
            experiment=small_exp(exp_id="restart-a",
                                 models=("julia", "numba", "kokkos"),
                                 sizes=(256, 512, 1024, 2048), reps=4),
            tenant="alice")
        spec_b = CampaignSpec(
            experiment=small_exp(exp_id="restart-b",
                                 models=("julia", "numba", "kokkos"),
                                 sizes=(256, 512, 1024, 2048), reps=4),
            tenant="bob")

        first = start_daemon()
        try:
            assert _wait_until(lambda: _ping_ok(sock)), "daemon never served"
            client = ServiceClient(sock)
            id_a = client.submit(spec_a)
            id_b = client.submit(spec_b)
            # SIGTERM lands mid-campaign (24 cells are queued); the daemon
            # must stop at a cell boundary and leave resumable journals.
            first.send_signal(signal.SIGTERM)
            assert first.wait(timeout=60) == 0
        finally:
            if first.poll() is None:
                first.kill()
                first.wait(timeout=30)

        registry = RunRegistry(runs_dir)

        def both_complete():
            try:
                return (registry.load(id_a).status == "complete"
                        and registry.load(id_b).status == "complete")
            except Exception:
                return False

        second = start_daemon()
        try:
            assert _wait_until(lambda: _ping_ok(sock)), "restart never served"
            assert _wait_until(both_complete, timeout=180), \
                "recovered campaigns never finished"
        finally:
            try:
                ServiceClient(sock).shutdown()
            except ServiceError:
                second.terminate()
            assert second.wait(timeout=60) == 0

        # Journal reconstruction serves campaigns whichever daemon life
        # finished them; both must match the campaign run alone.
        svc = CampaignService(registry=registry,
                              cache=ResultCache(cache_dir))
        assert render_result_set(svc.result_set(id_a)) == solo_render(spec_a)
        assert render_result_set(svc.result_set(id_b)) == solo_render(spec_b)

    def test_sigkill_then_restart_finishes_campaigns_byte_identically(
            self, tmp_path):
        # Same lifecycle as the SIGTERM test but with `kill -9`: no
        # graceful stop, no atexit, no journal finalization — the dead
        # daemon leaves ACTIVE sidecars with its (now dead) pid behind,
        # and the next life must prune them and finish the campaigns
        # byte-identically from the journals alone.
        sock = str(tmp_path / "d.sock")
        runs_dir = str(tmp_path / "runs")
        cache_dir = str(tmp_path / "cache")
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ,
                   REPRO_RUNS_DIR=runs_dir, REPRO_CACHE_DIR=cache_dir,
                   PYTHONPATH=src_dir + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))

        # The first daemon hangs inside its 17th grant, after
        # mark_active and before the cell.  Each 12-cell campaign takes
        # 12 grants, so grant 17 can only come after both submits
        # landed, and it belongs to a campaign still in flight: the kill
        # lands mid-campaign however fast the cells run.
        plan = ChaosPlan((ChaosEvent("daemon-grant", "hang", after=16,
                                     count=1),)).write(
            str(tmp_path / "plan.json"))

        def start_daemon(extra_env=()):
            return subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket", sock],
                env=dict(env, **dict(extra_env)),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)

        spec_a = CampaignSpec(
            experiment=small_exp(exp_id="kill9-a",
                                 models=("julia", "numba", "kokkos"),
                                 sizes=(256, 512, 1024, 2048), reps=4),
            tenant="alice")
        spec_b = CampaignSpec(
            experiment=small_exp(exp_id="kill9-b",
                                 models=("julia", "numba", "kokkos"),
                                 sizes=(256, 512, 1024, 2048), reps=4),
            tenant="bob")

        registry = RunRegistry(runs_dir)
        first = start_daemon({CHAOS_PLAN_ENV: plan})
        try:
            assert _wait_until(lambda: _ping_ok(sock)), "daemon never served"
            client = ServiceClient(sock)
            id_a = client.submit(spec_a)
            id_b = client.submit(spec_b)
            # wait until at least one campaign is marked ACTIVE so the
            # kill provably lands mid-execution, not pre-grant
            assert _wait_until(
                lambda: os.path.exists(registry.active_path(id_a))
                or os.path.exists(registry.active_path(id_b))), \
                "no campaign ever went active"
            first.kill()
            assert first.wait(timeout=60) == -signal.SIGKILL
        finally:
            if first.poll() is None:
                first.kill()
                first.wait(timeout=30)

        # the corpse: at least one ACTIVE sidecar naming the dead pid
        dead = [rid for rid in (id_a, id_b)
                if os.path.exists(registry.active_path(rid))]
        assert dead, "SIGKILL'd daemon left no ACTIVE sidecar behind"

        def both_complete():
            try:
                return (registry.load(id_a).status == "complete"
                        and registry.load(id_b).status == "complete")
            except Exception:
                return False

        second = start_daemon()
        try:
            assert _wait_until(lambda: _ping_ok(sock)), "restart never served"
            assert _wait_until(both_complete, timeout=180), \
                "recovered campaigns never finished"
        finally:
            try:
                ServiceClient(sock).shutdown()
            except ServiceError:
                second.terminate()
            assert second.wait(timeout=60) == 0

        # dead-owner sidecars are pruned, the reports are byte-identical
        for rid in (id_a, id_b):
            assert registry.active_info(rid) is None
            assert not os.path.exists(registry.active_path(rid))
        svc = CampaignService(registry=registry,
                              cache=ResultCache(cache_dir))
        assert render_result_set(svc.result_set(id_a)) == solo_render(spec_a)
        assert render_result_set(svc.result_set(id_b)) == solo_render(spec_b)


# --------------------------------------------------------------------------
# CLI integration: submit/status/serve --stop against a live daemon
# --------------------------------------------------------------------------

class TestCliService:
    def test_submit_wait_and_status_and_stop(self, store, tmp_path, capsys):
        from repro.cli import main

        registry, cache = store
        svc = CampaignService(registry=registry, cache=cache)
        sock = str(tmp_path / "cli.sock")
        daemon = CampaignDaemon(service=svc, socket_path=sock)
        thread = threading.Thread(
            target=daemon.serve, kwargs={"install_signals": False},
            daemon=True)
        thread.start()
        try:
            assert _wait_until(lambda: _ping_ok(sock))
            rc = main(["submit", "--socket", sock, "--exp-id", "cli-run",
                       "--models", "julia,numba", "--sizes", "256,512",
                       "--reps", "3", "--tenant", "alice", "--wait"])
            out = capsys.readouterr().out
            assert rc == 0
            # `repro submit --wait` prints exactly what `repro run` would.
            solo = solo_render(CampaignSpec(experiment=Experiment(
                exp_id="cli-run", title="custom CLI experiment",
                node_name="crusher", device=DeviceKind.CPU,
                precision=Precision.FP64, models=("julia", "numba"),
                sizes=(256, 512), reps=3)))
            assert out == solo + "\n"

            assert main(["status", "--socket", sock]) == 0
            out = capsys.readouterr().out
            assert "campaign daemon: pid" in out
            assert "alice" in out

            assert main(["status", "--socket", sock,
                         "--format", "json"]) == 0
            out = capsys.readouterr().out
            assert '"tenants"' in out
        finally:
            rc = main(["serve", "--stop", "--socket", sock])
            thread.join(timeout=30)
        assert rc == 0
        assert not thread.is_alive()

    def test_status_without_daemon_exits_1(self, tmp_path, capsys):
        from repro.cli import main
        rc = main(["status", "--socket", str(tmp_path / "none.sock")])
        assert rc == 1
        assert "repro serve" in capsys.readouterr().err

    def test_submit_wait_on_expired_campaign_exits_1(self, store, tmp_path,
                                                     capsys):
        from repro.cli import main

        registry, cache = store
        svc = cell_clocked_service(registry, cache, SECONDS_PER_CELL)
        sock = str(tmp_path / "dl.sock")
        daemon = CampaignDaemon(service=svc, socket_path=sock)
        thread = threading.Thread(
            target=daemon.serve, kwargs={"install_signals": False},
            daemon=True)
        thread.start()
        try:
            assert _wait_until(lambda: _ping_ok(sock))
            rc = main(["submit", "--socket", sock, "--exp-id", "cli-dl",
                       "--models", "julia,numba,kokkos",
                       "--sizes", "256,512,1024,2048", "--reps", "2",
                       "--deadline", "0.05", "--submission-key", "cli-dl-1",
                       "--wait"])
            captured = capsys.readouterr()
            assert rc == 1
            assert "expired" in captured.err
            [campaign] = svc.campaigns.values()
            assert campaign.stats["executed"] == CELLS_BEFORE_EXPIRY
        finally:
            main(["serve", "--stop", "--socket", sock])
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_client_retries_resolution(self, monkeypatch):
        import argparse

        from repro.cli import _client_retries

        ns = argparse.Namespace(client_retries=None)
        monkeypatch.delenv("REPRO_CLIENT_RETRIES", raising=False)
        assert _client_retries(ns) == 0
        monkeypatch.setenv("REPRO_CLIENT_RETRIES", "5")
        assert _client_retries(ns) == 5
        # the flag beats the environment
        assert _client_retries(argparse.Namespace(client_retries=2)) == 2
        monkeypatch.setenv("REPRO_CLIENT_RETRIES", "many")
        with pytest.raises(ConfigError):
            _client_retries(ns)
        monkeypatch.setenv("REPRO_CLIENT_RETRIES", "-1")
        with pytest.raises(ConfigError):
            _client_retries(ns)
