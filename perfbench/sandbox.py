"""Process, directory and statistics plumbing shared by every workload.

Everything the benchmark writes lives under ``.perfbench_work/`` in the
checkout it runs from, and every process it starts sees the caller's
environment with the ``REPRO_*`` variables stripped, ``PYTHONPATH``
pointed at the checkout's ``src/`` and ``REPRO_CACHE_DIR`` /
``REPRO_RUNS_DIR`` / ``TMPDIR`` pointed at fresh directories of its own.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Wall-clock cap on any one child process; a hung child is killed and
#: counted as failed instead of hanging the benchmark.
CHILD_TIMEOUT_S = 120.0


def repo_root() -> str:
    """The checkout the benchmark measures: the current directory.

    Raises ``SystemExit(2)`` when it holds no ``src/repro`` package, so a
    directory with only the benchmark in it fails loudly without
    printing a result.
    """
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro package under {root}; run from the "
              f"root of a repro checkout", file=sys.stderr)
        raise SystemExit(2)
    return root


class Sandbox:
    """Fresh per-run directories and child environments.

    ``fresh(label)`` hands out a new empty directory on every call, so a
    cold invocation never sees another invocation's cache or journals.
    ``close()`` removes the whole tree.
    """

    def __init__(self, root: str, seed: int) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        self.path = os.path.join(root, ".perfbench_work",
                                 f"run-{os.getpid()}-{seed}")
        os.makedirs(self.path, exist_ok=False)
        self._ids = itertools.count()
        self.tmp = self.fresh("tmp")

    def fresh(self, label: str) -> str:
        path = os.path.join(self.path, f"{label}{next(self._ids)}")
        os.makedirs(path)
        return path

    def fresh_rel(self, label: str) -> str:
        """Like :meth:`fresh`, returned relative to the checkout root (so
        Unix socket paths stay short however deep the checkout sits)."""
        return os.path.relpath(self.fresh(label), self.root)

    def env(self, cache_dir: str, runs_dir: str) -> Dict[str, str]:
        """The environment of one process under test."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = self.src
        env["REPRO_CACHE_DIR"] = cache_dir
        env["REPRO_RUNS_DIR"] = runs_dir
        env["TMPDIR"] = self.tmp
        env["XDG_CACHE_HOME"] = self.tmp
        return env

    def adopt(self, cache_dir: str, runs_dir: str) -> None:
        """Point *this* process at fresh directories (in-process work)."""
        env = self.env(cache_dir, runs_dir)
        os.environ.clear()
        os.environ.update(env)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = os.path.dirname(self.path)
        try:
            os.rmdir(parent)  # only when no concurrent run still uses it
        except OSError:
            pass


class Ledger:
    """Operations attempted, failed and, of those, wrong, with notes.

    A failure is an error, a refusal or a wrong output; only a wrong
    output makes a result incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: List[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, note: str, wrong: bool = False) -> None:
        self.attempted += 1
        self.failed += 1
        self.wrong += wrong
        self.notes.append(note)


@dataclass
class ChildResult:
    """One finished child process: what it printed and what it cost."""

    wall_s: float
    rc: int
    stdout: bytes
    stderr: str
    maxrss_mb: float


def run_child(argv: Sequence[str], env: Dict[str, str], cwd: str,
              stderr_path: str,
              timeout_s: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one process to completion, timed from spawn to reaped exit."""
    with open(stderr_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(argv), env=env, cwd=cwd,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        out, rc, maxrss_mb = reap(proc, timeout_s)
        wall = time.perf_counter() - t0
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return ChildResult(wall, rc, out, stderr, maxrss_mb)


def reap(proc: subprocess.Popen,
         timeout_s: float = CHILD_TIMEOUT_S) -> Tuple[bytes, int, float]:
    """Wait for ``proc`` to exit, reading its stdout if that is a pipe.

    The child is killed once it outlives ``timeout_s``, and also when
    the wait is interrupted (SIGTERM, Ctrl-C), so it is never left
    behind.  It is reaped with ``os.wait4`` so its own peak resident set
    size comes back with it.  Returns (stdout, exit code, peak RSS in
    MB).
    """
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        out = b""
        if proc.stdout is not None:
            out = proc.stdout.read()
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss / 1024.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _git_commit(root: str) -> Optional[str]:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(root: str) -> str:
    """SHA-256 over every ``src/**/*.py`` path and its bytes.

    Identifies the code under test where no git metadata exists (the
    benchmark may run from an exported tree).
    """
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    paths: List[str] = []
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths += [os.path.join(dirpath, f) for f in filenames
                  if f.endswith(".py")]
    for path in sorted(paths):
        h.update(os.path.relpath(path, src).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment_record(root: str, workload: str, seed: int,
                       trace: bool) -> Dict[str, object]:
    """Where and on what a result was measured (printed beside it).

    Imports :mod:`repro` into this process, so call it after
    :meth:`Sandbox.adopt`.
    """
    import numpy

    from repro.harness.engine import default_engine
    from repro.harness.engine.fingerprint import CONSTANTS_VERSION

    engine = default_engine()
    workers = (engine.max_workers or os.cpu_count() or 1) \
        if engine.parallel else 1
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root),
        "constants_version": CONSTANTS_VERSION,
        "engine": f"{engine.mode} x{workers}",
    }
