"""PyOMP: OpenMP-in-Numba (extension model, not part of the paper's grid).

Sec. II cites Mattson et al.'s PyOMP [32], "an OpenMP implementation for
Numba with preliminary results on par with C implementations that
bypasses Python's GIL".  The paper's own Numba results beg the question
PyOMP answers: how much of the gap is the *threading runtime* rather than
the code generator?  PyOMP swaps Numba's thread pool for the OpenMP
runtime — which, crucially, honours ``OMP_PROC_BIND`` — while keeping
Numba's LLVM code generation.

This model therefore lowers exactly like :class:`~repro.models.numba.NumbaModel`
on the CPU but with OpenMP thread semantics (pinning available, OpenMP
environment family).  The E12 benchmark shows it recovers the entire
NUMA-migration share of Numba's gap on Crusher's EPYC, leaving only the
codegen residual — consistent with the cited "on par with C" finding for
simpler kernels.
"""

from __future__ import annotations

from typing import Optional

from ..config import RunConfig
from ..core.types import DeviceKind, Precision
from ..machine.cpu import CPUSpec
from ..machine.gpu import GPUSpec
from .base import CPULowering, ProductivityInfo, ProgrammingModel, Support
from .numba import _CPU_QUALITY as _NUMBA_CPU_QUALITY

__all__ = ["PyOMPModel"]


class PyOMPModel(ProgrammingModel):
    """PyOMP: Numba code generation under the OpenMP runtime (extension, [32])."""
    name = "pyomp"
    display = "Python/PyOMP"
    language = "Python"
    paper_version = "PyOMP (Mattson et al. [32])"
    family = "openmp"  # the whole point: OpenMP runtime semantics

    def supports_cpu(self, cpu: CPUSpec, precision: Precision) -> Support:
        if precision is Precision.FP16:
            return Support.no("inherits Numba's missing FP16 support")
        return Support.yes("extension model (paper Sec. II citation [32])")

    def supports_gpu(self, gpu: GPUSpec, precision: Precision) -> Support:
        return Support.no("PyOMP targets CPUs (OpenMP host runtime)")

    def lower_cpu(self, cpu: CPUSpec, precision: Precision,
                  config: Optional[RunConfig] = None) -> CPULowering:
        from ..arrays.random import FillPolicy
        from ..ir import builder
        from ..ir.passes import (
            LoopInvariantMotion,
            SetFastMath,
            UnrollInnerLoop,
            VectorizeInnerLoop,
        )
        from ..sched.affinity import PinPolicy
        from ..sim.executor import CPUIssueProfile

        self.require_support(cpu, precision)
        kernel = builder.numba_cpu(precision)  # same source as Fig. 2d
        kernel, records = self._run_pipeline([
            SetFastMath(True),
            LoopInvariantMotion(),
            VectorizeInnerLoop(cpu.simd_lanes(precision)),
            UnrollInnerLoop(4),
        ], kernel, target=cpu.name)

        # Same LLVM code generator as Numba: reuse its codegen residual.
        quality = _NUMBA_CPU_QUALITY.get((cpu.name, precision), 1.4)

        cfg = config if config is not None else RunConfig.openmp(cpu.cores)
        pin = PinPolicy.COMPACT if (config is None or cfg.pinning_for("openmp")) \
            else PinPolicy.NONE
        return CPULowering(
            kernel=kernel,
            pin=pin,  # unlike Numba, OMP_PROC_BIND works here
            profile=CPUIssueProfile(issue_multiplier=quality),
            threads=self._threads(cpu, config),
            fill=FillPolicy(random_fp16=False),
            pass_records=tuple(records),
        )

    def productivity(self, device: DeviceKind) -> ProductivityInfo:
        # the Numba decorator plus `with openmp(...)` context lines
        return ProductivityInfo(kernel_lines=self._listing_lines(device, 16),
                                ceremony_lines=3,
                                needs_compile_step=False,
                                jit_warmup_seconds=1.5)
