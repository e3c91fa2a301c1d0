"""Deterministic chaos engineering for the repro stack.

Two halves:

* :mod:`repro.chaos.plan` — the injection side: a JSON-serialised
  :class:`ChaosPlan` of seeded crash events, armed through the
  ``REPRO_CHAOS_PLAN`` environment variable and fired at instrumented
  strike points (:func:`chaos_strike`) with multi-process-safe
  once-only semantics.
* :mod:`repro.chaos.harness` — the assertion side: scenario runners
  (worker SIGKILL, daemon SIGKILL mid-grant, torn journal tail,
  disk-full store) that inject a plan, drive a real campaign through
  recovery, assert byte-identical completion against a failure-free
  baseline, and write MTTR/restart/degraded-mode counters to
  ``BENCH_robustness.json`` (``repro chaos`` / ``make chaos-smoke``).

Every export loads lazily (PEP 562), so arming/striking — which runs
inside hot production paths and forked workers — never pays for the
scenario machinery.
"""

from .._lazy import lazy_exports

__all__ = [
    "CHAOS_ACTIONS",
    "CHAOS_PLAN_ENV",
    "CHAOS_POINTS",
    "ChaosEvent",
    "ChaosPlan",
    "chaos_armed",
    "chaos_strike",
    "ChaosScenarioResult",
    "run_chaos_suite",
    "CHAOS_SCENARIOS",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".plan": ("CHAOS_ACTIONS", "CHAOS_PLAN_ENV", "CHAOS_POINTS", "ChaosEvent",
              "ChaosPlan", "chaos_armed", "chaos_strike"),
    ".harness": ("ChaosScenarioResult", "run_chaos_suite", "CHAOS_SCENARIOS"),
})
