"""Crash-safe campaigns: write-ahead journal, resume, fsck.

The robustness layer above the sweep engine.  Long multi-model ×
multi-size × multi-precision campaigns — the runs behind the paper's
Figs. 4–7 and Table III — are routinely killed on shared nodes by
preemption, OOM or Ctrl-C.  This package makes a killed campaign a
checkpoint instead of a loss:

* :class:`RunJournal` — an append-only, fsync'd, per-record-checksummed
  JSONL write-ahead log of one run, with torn-tail recovery on load;
* :class:`RunRegistry` — the journals on disk, listed by run id
  (``$REPRO_RUNS_DIR``, default ``$XDG_CACHE_HOME/repro/runs``);
* :func:`resume_run` — replay completed cells from the journal and
  execute only the remainder, byte-identical to an uninterrupted run;
* :func:`graceful_shutdown` — SIGINT/SIGTERM finalize the journal and
  exit with :data:`EXIT_INTERRUPTED` instead of losing state;
* :func:`fsck_store` — verify content digests across the result cache,
  the journals and exported artifacts; quarantine/evict corruption.
"""

from __future__ import annotations

from ..._lazy import lazy_exports

__all__ = [
    "JOURNAL_FORMAT",
    "RunJournal",
    "JournalState",
    "load_journal",
    "RunRegistry",
    "default_runs_dir",
    "ACTIVE_STALE_SECONDS",
    "restore_campaign",
    "resume_run",
    "graceful_shutdown",
    "EXIT_INTERRUPTED",
    "EXIT_FSCK_CORRUPT",
    "FsckIssue",
    "FsckReport",
    "fsck_store",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".fsck": ("FsckIssue", "FsckReport", "fsck_store"),
    ".journal": ("JOURNAL_FORMAT", "JournalState", "RunJournal",
                 "load_journal"),
    ".registry": ("ACTIVE_STALE_SECONDS", "RunRegistry", "default_runs_dir"),
    ".resume": ("restore_campaign", "resume_run"),
    ".signals": ("EXIT_FSCK_CORRUPT", "EXIT_INTERRUPTED", "graceful_shutdown"),
})
