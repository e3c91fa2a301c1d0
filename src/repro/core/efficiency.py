"""Performance efficiency: Eq. (2) of the paper.

``e_i(a)`` is the performance of a portable programming model divided by
the architecture-specific reference on platform *i* — C/OpenMP on CPUs,
CUDA on NVIDIA GPUs, HIP on AMD GPUs.  The value is averaged over the
matrix-size sweep, matching how the paper derives one number per cell of
Table III from each figure's curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..models.registry import reference_model_for

if TYPE_CHECKING:  # core never imports harness at module level
    from ..harness.results import ResultSet

__all__ = ["PlatformEfficiency", "efficiency_table_for"]


@dataclass(frozen=True)
class PlatformEfficiency:
    """One cell of Table III: a model's efficiency on one platform."""

    model: str
    platform: str          # architecture label, e.g. "Epyc 7A53"
    value: Optional[float]  # None == unsupported (rendered '-')
    reference: str

    @property
    def supported(self) -> bool:
        return self.value is not None

    def render(self) -> str:
        return f"{self.value:.3f}" if self.supported else "-"


def efficiency_table_for(result_set: ResultSet,
                         models: List[str],
                         platform_label: str) -> List[PlatformEfficiency]:
    """Compute e_i(a) for each portable model from one experiment panel.

    The reference model is resolved from the experiment's target (Sec. V);
    it must be part of the result set.
    """
    ref = reference_model_for(result_set.experiment.target_spec)
    out: List[PlatformEfficiency] = []
    for model in models:
        if model == ref.name:
            continue
        if result_set.supported(model):
            value = result_set.mean_efficiency(model, ref.name)
        elif result_set.failed(model):
            # Degraded mode: the model was attempted but every cell
            # failed — that is lost coverage, charged as e = 0 in the
            # paper's accounting, not an unsupported '-'.
            value = 0.0
        else:
            value = None
        out.append(PlatformEfficiency(
            model=model,
            platform=platform_label,
            value=value,
            reference=ref.name,
        ))
    return out
