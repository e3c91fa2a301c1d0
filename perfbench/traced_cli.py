"""Run the ``repro`` CLI with every layer wrapped in spans.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced_cli.py SPANS.json report --full

Behaves like ``python -m repro report --full`` — same stdout, same exit
code — and additionally writes the recorded spans and counters to
``SPANS.json``.  ``import repro.cli`` is recorded as the ``cli.import``
span before the layer wrappers are installed.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer, install  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    span = tracer.enter("cli.import")
    import repro.cli
    tracer.exit(span)
    install(tracer)
    rc = repro.cli.main(argv)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
