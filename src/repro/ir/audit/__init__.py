"""Static performance-portability auditor over the kernel IR.

``repro audit`` runs these passes over every (model, target, precision)
lane the registry can lower — without executing the simulator — and emits
stable-coded diagnostics through the same framework as ``repro lint``:

* :mod:`.memory` — P-series: coalescing (cross-checked against
  :mod:`repro.gpu.coalescing`), CPU stride locality, NUMA pinning,
  L2-footprint thrash.
* :mod:`.residency` — O-series: register-pressure and occupancy hazards
  through the simulator's own :func:`repro.gpu.occupancy.occupancy`.
* :mod:`.precision_flow` — F-series: accumulator width, fastmath
  reassociation, degraded-precision fallbacks.
* :mod:`.verdict` — the per-lane static issue model and efficiency band.
* :mod:`.auditor` — lane and registry drivers, matrix rendering.
* :mod:`.consistency` — reconciles static verdicts with the simulator's
  measured Table III efficiencies.

Import this package explicitly (``from repro.ir.audit import ...``);
like :mod:`repro.ir.lint` it is deliberately not re-exported from
:mod:`repro.ir` to keep the IR core cycle-free.
"""

from ..._lazy import lazy_exports

__all__ = [
    "AUDIT_SHAPE",
    "LARGEST_SWEEP_SHAPE",
    "AuditResult",
    "AuditVerdict",
    "audit_lowering",
    "audit_registry",
    "render_audit_findings",
    "render_audit_matrix",
    "BAND_SLACK",
    "ORDERING_MARGIN",
    "ConsistencyReport",
    "LaneConsistency",
    "OrderingConflict",
    "check_consistency",
    "AccessClassification",
    "classify_gpu_accesses",
    "cpu_memory_diagnostics",
    "crosscheck_coalescing",
    "footprint_diagnostics",
    "gpu_memory_diagnostics",
    "locality_diagnostics",
    "LONG_REDUCTION_K",
    "precision_diagnostics",
    "NOMINAL_REGISTERS",
    "OCCUPANCY_HAZARD_FRACTION",
    "RegisterEstimate",
    "estimate_registers",
    "residency_diagnostics",
    "BAND_HIGH",
    "BAND_MEDIUM",
    "Band",
    "StaticEstimate",
    "band_of",
    "classify_band",
    "cpu_issue_estimate",
    "gpu_issue_estimate",
    "predicted_efficiency",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".auditor": ("AUDIT_SHAPE", "LARGEST_SWEEP_SHAPE", "AuditResult",
                 "AuditVerdict", "audit_lowering", "audit_registry",
                 "render_audit_findings", "render_audit_matrix"),
    ".consistency": ("BAND_SLACK", "ORDERING_MARGIN", "ConsistencyReport",
                     "LaneConsistency", "OrderingConflict",
                     "check_consistency"),
    ".memory": ("AccessClassification", "classify_gpu_accesses",
                "cpu_memory_diagnostics", "crosscheck_coalescing",
                "footprint_diagnostics", "gpu_memory_diagnostics",
                "locality_diagnostics"),
    ".precision_flow": ("LONG_REDUCTION_K", "precision_diagnostics"),
    ".residency": ("NOMINAL_REGISTERS", "OCCUPANCY_HAZARD_FRACTION",
                   "RegisterEstimate", "estimate_registers",
                   "residency_diagnostics"),
    ".verdict": ("BAND_HIGH", "BAND_MEDIUM", "Band", "StaticEstimate",
                 "band_of", "classify_band", "cpu_issue_estimate",
                 "gpu_issue_estimate", "predicted_efficiency"),
})
