"""C/OpenMP: the paper's architecture-specific CPU reference (Fig. 2a).

Compiled with the vendor LLVM compiler (ArmClang 22 on Wombat, AMDClang 14
on Crusher) at ``-O3 -fopenmp [-march=native]``; threads pinned via
``OMP_PROC_BIND=true OMP_PLACES=threads`` (Fig. 8).  Table III divides
every portable model's CPU performance by this one.
"""

from __future__ import annotations

from typing import Optional

from ..config import RunConfig
from ..core.types import DeviceKind, Precision
from ..machine.cpu import CPUSpec
from ..machine.gpu import GPUSpec
from .base import CPULowering, ProductivityInfo, ProgrammingModel, Support

__all__ = ["COpenMPModel"]

#: clang -O3 unrolls these inner loops by 4 after vectorisation.
CLANG_UNROLL = 4


class COpenMPModel(ProgrammingModel):
    """The vendor C/OpenMP CPU reference implementation (Fig. 2a)."""
    name = "c-openmp"
    display = "C/OpenMP"
    language = "C"
    paper_version = "ArmClang22 / AMDClang14"
    family = "openmp"
    is_reference = True

    def supports_cpu(self, cpu: CPUSpec, precision: Precision) -> Support:
        if precision is Precision.FP16:
            # "other programming models do not provide seamless
            # half-precision support" (Sec. IV-B) — no _Float16 kernels in
            # the artifact.
            return Support.no("no seamless FP16 support in the C kernels")
        return Support.yes()

    def supports_gpu(self, gpu: GPUSpec, precision: Precision) -> Support:
        return Support.no("C/OpenMP is the CPU reference; GPU references are CUDA/HIP")

    def lower_cpu(self, cpu: CPUSpec, precision: Precision,
                  config: Optional[RunConfig] = None) -> CPULowering:
        from ..ir import builder
        from ..ir.passes import (
            LoopInvariantMotion,
            UnrollInnerLoop,
            VectorizeInnerLoop,
        )
        from ..sched.affinity import PinPolicy
        from ..sim.executor import CPUIssueProfile

        self.require_support(cpu, precision)
        kernel = builder.c_openmp_cpu(precision)
        kernel, records = self._run_pipeline([
            LoopInvariantMotion(),
            VectorizeInnerLoop(cpu.simd_lanes(precision)),
            UnrollInnerLoop(CLANG_UNROLL),
        ], kernel, target=cpu.name)

        cfg = config if config is not None else RunConfig.openmp(cpu.cores)
        pin = PinPolicy.COMPACT if cfg.pinning_for("openmp") or config is None \
            else PinPolicy.NONE

        # Reference model: the vendor compiler on its own ISA defines the
        # 1.0x code-quality baseline.
        profile = CPUIssueProfile(issue_multiplier=1.0)
        return CPULowering(
            kernel=kernel,
            pin=pin,
            profile=profile,
            threads=self._threads(cpu, config),
            fill=self._fill(),
            pass_records=tuple(records),
        )

    @staticmethod
    def _fill():
        from ..arrays.random import FillPolicy
        return FillPolicy(random_fp16=False)

    def productivity(self, device: DeviceKind) -> ProductivityInfo:
        # Fig. 2a kernel plus the makefile/launch scripting of Appendix A.
        return ProductivityInfo(kernel_lines=self._listing_lines(device, 22),
                                ceremony_lines=14,
                                needs_compile_step=True,
                                jit_warmup_seconds=0.0)
