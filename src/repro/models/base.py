"""Programming-model frontends: the study's central abstraction.

A :class:`ProgrammingModel` is what the paper benchmarks: a toolchain that
takes the same hand-rolled GEMM and turns it into machine behaviour.  Each
frontend declares:

* its **support matrix** (the paper's gaps: Numba has no AMD GPU backend
  and no FP16 RNG; half precision is "seamless" only in Julia);
* its **lowering**: the kernel IR it builds, the optimisation passes its
  real compiler runs (unroll factors, bounds-check elision, fastmath), the
  launch/threading configuration it can express (Numba cannot pin threads);
* its residual **code-quality factors** — the calibrated part of the
  model, documented next to the paper passage each encodes.

Lowerings feed :mod:`repro.sim.executor` unchanged; two models differ only
by what their toolchains actually differ by.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from ..config import RunConfig
from ..core.types import DeviceKind, Layout, Precision
from ..errors import UnsupportedConfigurationError
from ..machine.cpu import CPUSpec
from ..machine.gpu import GPUSpec

if TYPE_CHECKING:
    # The IR, arrays and simulator load when a model lowers, not when the
    # registry is built: a support-matrix query or a cached cell needs none.
    from ..arrays.random import FillPolicy
    from ..gpu.launch import LaunchConfig
    from ..gpu.warp_sim import IssueProfile
    from ..ir.nodes import Kernel
    from ..ir.passes.base import PassRecord
    from ..sched.affinity import PinPolicy
    from ..sim.executor import CPUIssueProfile

__all__ = [
    "Support",
    "CPULowering",
    "GPULowering",
    "ProductivityInfo",
    "ProgrammingModel",
]


@dataclass(frozen=True)
class Support:
    """Whether and how a (target, precision) combination is supported."""

    supported: bool
    reason: str = ""
    #: Supported, but documented by the paper as performing far below par
    #: and excluded from its figures (e.g. Julia FP16 on the AMD CPU).
    degraded: bool = False

    @classmethod
    def yes(cls, note: str = "") -> "Support":
        return cls(True, note)

    @classmethod
    def no(cls, reason: str) -> "Support":
        return cls(False, reason)


@dataclass(frozen=True)
class CPULowering:
    """Everything the executor needs to run a CPU kernel of this model."""

    kernel: Kernel
    pin: PinPolicy
    profile: CPUIssueProfile
    threads: int
    fill: FillPolicy
    pass_records: Tuple[PassRecord, ...] = ()

    @property
    def layout(self) -> Layout:
        return self.kernel.arrays[0].layout


@dataclass(frozen=True)
class GPULowering:
    """Everything the executor needs to launch a GPU kernel of this model."""

    kernel: Kernel
    launch: LaunchConfig
    profile: IssueProfile
    fill: FillPolicy
    pass_records: Tuple[PassRecord, ...] = ()

    @property
    def layout(self) -> Layout:
        return self.kernel.arrays[0].layout


@dataclass(frozen=True)
class ProductivityInfo:
    """The productivity facts Sec. V discusses qualitatively.

    ``kernel_lines`` counts the lines of the hand-rolled kernel in the
    paper's artifact; ``ceremony_lines`` counts build/launch boilerplate
    (Kokkos' CMake + template instantiations vs a ``@decorator``).
    """

    kernel_lines: int
    ceremony_lines: int
    needs_compile_step: bool
    jit_warmup_seconds: float  # excluded by the harness warm-up, but real

    @property
    def total_lines(self) -> int:
        return self.kernel_lines + self.ceremony_lines


class ProgrammingModel(abc.ABC):
    """One of the study's programming models."""

    #: Stable identifier used in registries and result tables.
    name: str = "abstract"
    #: Legend label, e.g. ``"Julia (AMDGPU.jl)"`` resolved per target.
    display: str = "abstract"
    #: Implementation language shown in Tables I/II.
    language: str = ""
    #: Version string pinned by the paper (Tables I/II).
    paper_version: str = ""
    #: RunConfig family for thread/pinning lookups.
    family: str = "openmp"
    #: True for the architecture-specific reference implementations
    #: (C/OpenMP, CUDA, HIP) that Table III normalises against.
    is_reference: bool = False

    # -- support matrix ------------------------------------------------------

    @abc.abstractmethod
    def supports_cpu(self, cpu: CPUSpec, precision: Precision) -> Support:
        ...

    @abc.abstractmethod
    def supports_gpu(self, gpu: GPUSpec, precision: Precision) -> Support:
        ...

    def supports(self, spec, precision: Precision) -> Support:
        if isinstance(spec, CPUSpec):
            return self.supports_cpu(spec, precision)
        if isinstance(spec, GPUSpec):
            return self.supports_gpu(spec, precision)
        raise TypeError(f"unknown target spec {type(spec).__name__}")

    def require_support(self, spec, precision: Precision) -> None:
        s = self.supports(spec, precision)
        if not s.supported:
            raise UnsupportedConfigurationError(
                self.display, getattr(spec, "name", str(spec)), s.reason)

    # -- lowering -----------------------------------------------------------

    def lower_cpu(self, cpu: CPUSpec, precision: Precision,
                  config: Optional[RunConfig] = None) -> CPULowering:
        raise UnsupportedConfigurationError(self.display, cpu.name,
                                            "no CPU backend")

    def lower_gpu(self, gpu: GPUSpec, precision: Precision) -> GPULowering:
        raise UnsupportedConfigurationError(self.display, gpu.name,
                                            "no GPU backend")

    # -- productivity ---------------------------------------------------------

    def productivity(self, device: DeviceKind) -> ProductivityInfo:
        """Override per model; defaults are neutral."""
        return ProductivityInfo(kernel_lines=20, ceremony_lines=0,
                                needs_compile_step=False,
                                jit_warmup_seconds=0.0)

    # -- helpers -------------------------------------------------------------

    def _run_pipeline(self, passes, kernel: Kernel,
                      target: str = "") -> Tuple[Kernel, Tuple[PassRecord, ...]]:
        """Run this model's passes through a gating pipeline.

        The context string ties a :class:`repro.errors.LintError` back to
        the frontend and target that produced the illegal kernel.
        """
        from ..ir.passes.base import PassPipeline

        context = self.display + (f" on {target}" if target else "")
        out, records = PassPipeline(list(passes)).run(kernel, context=context)
        return out, tuple(records)

    def _listing_lines(self, device: DeviceKind, fallback: int) -> int:
        """Kernel LoC measured from the paper's actual source listing
        (:mod:`repro.models.listings`), falling back when no listing
        exists for this (model, device)."""
        from .listings import kernel_line_count

        lines = kernel_line_count(self.name, device)
        return lines if lines is not None else fallback

    def _threads(self, cpu: CPUSpec, config: Optional[RunConfig]) -> int:
        cfg = config if config is not None else RunConfig()
        return cfg.threads_for(self.family, cpu.cores)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
