"""Sweep execution engine: concurrent cell fan-out + persistent caching.

The substrate under ``run_campaign``, the figures, Table III and
``repro report``: every (model, shape) cell of a sweep is fingerprinted,
served from the on-disk :class:`ResultCache` when possible, and executed
concurrently otherwise, with a deterministic merge that keeps engine
output bit-identical to the serial reference loop.  Every cell takes the
one path of :class:`~repro.harness.engine.cell.CellPipeline`, whichever
driver steps it: the engine's serial, thread-pool and process-pool
loops, or the campaign service.

Process-wide configuration (read once, on first use):

* ``REPRO_CACHE=off`` disables the result cache;
* ``REPRO_CACHE_DIR`` relocates it (default
  ``$XDG_CACHE_HOME/repro/results``);
* ``REPRO_JOBS=N`` caps the worker-pool width (``1`` forces serial);
* ``REPRO_ENGINE=process`` swaps the thread pool for a
  ``ProcessPoolExecutor`` so ``--jobs`` scales past one core;
* ``REPRO_FAULTS`` / ``REPRO_RETRIES`` / ``REPRO_BACKOFF`` /
  ``REPRO_MAX_CELL_SECONDS`` / ``REPRO_FAIL_FAST`` configure the
  resilience layer (see :class:`RunOptions`);
* ``REPRO_WATCHDOG`` tunes process-engine supervision — hang deadlines
  and pool respawn/redrive bounds (see :class:`WatchdogPolicy`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..._lazy import lazy_exports

if TYPE_CHECKING:
    from .executor import SweepEngine
    from .options import RunOptions

__all__ = [
    "CacheStats",
    "ResultCache",
    "default_cache_dir",
    "TMP_GRACE_SECONDS",
    "LOCK_GRACE_SECONDS",
    "WatchdogPolicy",
    "CellRecord",
    "CellTask",
    "ENGINE_MODES",
    "RunPayload",
    "execute_cell_payload",
    "SweepEngine",
    "SweepReport",
    "CONSTANTS_VERSION",
    "campaign_fingerprint",
    "cell_fingerprint",
    "fingerprint_payload",
    "RetryPolicy",
    "RunOptions",
    "default_engine",
    "set_default_engine",
    "reset_default_engine",
    "default_run_options",
    "set_default_run_options",
    "reset_default_run_options",
]

# Exports load on first use: reading the cache needs neither the
# process-pool worker nor the simulator behind it.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": ("CacheStats", "LOCK_GRACE_SECONDS", "ResultCache",
               "TMP_GRACE_SECONDS", "default_cache_dir"),
    ".cell": ("CellRecord",),
    ".executor": ("ENGINE_MODES", "SweepEngine", "SweepReport"),
    ".fingerprint": ("CONSTANTS_VERSION", "campaign_fingerprint",
                     "cell_fingerprint", "fingerprint_payload"),
    ".options": ("RetryPolicy", "RunOptions"),
    ".watchdog": ("WatchdogPolicy",),
    ".worker": ("CellTask", "RunPayload", "execute_cell_payload"),
})

_default_engine: Optional[SweepEngine] = None


def default_engine() -> SweepEngine:
    """The process-wide engine, built from the environment on first use."""
    global _default_engine
    if _default_engine is None:
        from .executor import SweepEngine
        _default_engine = SweepEngine.from_env()
    return _default_engine


def set_default_engine(engine: Optional[SweepEngine]) -> None:
    """Replace the process-wide engine (``None`` resets to lazy re-init)."""
    global _default_engine
    _default_engine = engine


def reset_default_engine() -> None:
    """Drop the process-wide engine so the next use re-reads the env."""
    set_default_engine(None)


_default_run_options: Optional[RunOptions] = None


def default_run_options() -> RunOptions:
    """The process-wide :class:`RunOptions`, from the environment on
    first use.  ``repro report`` and the figure builders call
    ``run_campaign`` with no explicit options; this is what they get,
    so a campaign inherits ``REPRO_FAULTS``-family knobs (or a CLI
    override installed via :func:`set_default_run_options`) everywhere."""
    global _default_run_options
    if _default_run_options is None:
        from .options import RunOptions
        _default_run_options = RunOptions.from_env()
    return _default_run_options


def set_default_run_options(options: Optional[RunOptions]) -> None:
    """Replace the process-wide options (``None`` resets to lazy re-init)."""
    global _default_run_options
    _default_run_options = options


def reset_default_run_options() -> None:
    """Drop the process-wide options so the next use re-reads the env."""
    set_default_run_options(None)
