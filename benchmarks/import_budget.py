"""Modules each CLI entry point loads: an exact, machine-independent count.

Runs three probes, each in a fresh interpreter, and prints how many
``repro`` modules it loaded, whether NumPy was among them, and their
names:

* ``import repro.cli`` (what every command pays before it parses);
* ``repro --help``;
* a warm ``repro report --full`` (the cache is filled by one cold
  report first).

Usage (``make imports``)::

    python benchmarks/import_budget.py

Standalone on purpose: works with or without the package installed.
``tests/test_imports.py`` runs its budgets through :func:`loaded_modules`
too, so this prints exactly what the tests check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: Run in the child after the probe: the loaded modules as one JSON line.
_DUMP = "import json, sys; print(json.dumps(sorted(sys.modules)))"

_CLI = ("import contextlib, io, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        repro.cli.main({argv!r})\n"
        "    except SystemExit:\n"
        "        pass\n")


def cli_code(argv) -> str:
    """Source that runs ``repro <argv>`` with its stdout swallowed."""
    return _CLI.format(argv=list(argv))


PROBES = (
    ("import repro.cli", "import repro.cli\n"),
    ("repro --help", cli_code(["--help"])),
    ("warm repro report --full", cli_code(["report", "--full"])),
)


def loaded_modules(code: str, workdir: str) -> list:
    """Every module in ``sys.modules`` after running ``code`` in a fresh
    interpreter whose cache, runs and service socket live in
    ``workdir`` (any ``REPRO_*`` setting of the caller is dropped)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=_SRC + os.pathsep + env.get("PYTHONPATH", ""),
               REPRO_CACHE_DIR=os.path.join(workdir, "cache"),
               REPRO_RUNS_DIR=os.path.join(workdir, "runs"),
               REPRO_SERVICE_SOCKET=os.path.join(workdir, "no-daemon.sock"))
    proc = subprocess.run([sys.executable, "-c", code + "\n" + _DUMP],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"probe exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="repro-imports-")
    try:
        # Fill the cache so the report probe is warm.
        loaded_modules(PROBES[2][1], workdir)
        for name, code in PROBES:
            modules = loaded_modules(code, workdir)
            ours = [m for m in modules if m == "repro"
                    or m.startswith("repro.")]
            numpy = "yes" if "numpy" in modules else "no"
            print(f"{name}: {len(ours)} repro modules, numpy: {numpy}")
            print(textwrap.indent(textwrap.fill(" ".join(ours), 76), "  "))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
