"""Static analysis over the kernel IR: the linter behind ``repro lint``.

Layers, innermost first:

* :mod:`~repro.ir.lint.diagnostics` — stable-coded findings (``R001``,
  ``L003``, ...) with severities;
* :mod:`~repro.ir.lint.dependence` — distance/direction vectors for every
  same-array access pair, and exact interchange legality;
* :mod:`~repro.ir.lint.races` — stores that do not vary along every
  parallel loop;
* :mod:`~repro.ir.lint.bounds` — in-bounds proofs for affine references;
* :mod:`~repro.ir.lint.legality` — the per-pass preconditions the
  :class:`~repro.ir.passes.PassPipeline` gates on;
* :mod:`~repro.ir.lint.linter` — kernel/lowering/registry drivers;
* :mod:`~repro.ir.lint.serialize` — the JSON schema ``repro lint`` and
  ``repro audit`` share for ``--format json``.
"""

from ..._lazy import lazy_exports

__all__ = [
    "CODES",
    "Diagnostic",
    "DiagnosticSet",
    "Severity",
    "Dependence",
    "DependenceKind",
    "analyze_dependences",
    "interchange_legal",
    "race_diagnostics",
    "provably_in_bounds",
    "interchange_preconditions",
    "licm_preconditions",
    "elide_bounds_preconditions",
    "unroll_preconditions",
    "LintResult",
    "lint_kernel",
    "lint_lowering",
    "lint_registry",
    "diagnostic_payload",
    "lane_payload",
    "sweep_payload",
    "sweep_to_json",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".bounds": ("provably_in_bounds",),
    ".dependence": ("Dependence", "DependenceKind", "analyze_dependences",
                    "interchange_legal"),
    ".diagnostics": ("CODES", "Diagnostic", "DiagnosticSet", "Severity"),
    ".legality": ("elide_bounds_preconditions", "interchange_preconditions",
                  "licm_preconditions", "unroll_preconditions"),
    ".linter": ("LintResult", "lint_kernel", "lint_lowering", "lint_registry"),
    ".races": ("race_diagnostics",),
    ".serialize": ("diagnostic_payload", "lane_payload", "sweep_payload",
                   "sweep_to_json"),
})
