"""Python/Numba: ``@njit(parallel=True)`` on CPU, ``@cuda.jit`` on NVIDIA.

Lowering facts encoded from the paper:

* **CPU (Fig. 2d)**: row-major NumPy arrays, ``prange`` over rows,
  ``fastmath=True``, ``nogil=True``.  Crucially, "there is currently no
  mechanism for setting a thread binding/pinning policy" — the threads run
  unpinned, which on Crusher's 4-NUMA EPYC costs constant migrations and
  cache refills (the dominant term of its 0.55 efficiency there), while on
  the single-NUMA Altra the remaining gap is Numba's own codegen.
* **NVIDIA GPU (Fig. 3d)**: ``cuda.grid(2)`` thread-per-element kernel.
  Numba's PTX keeps the reduction loop rolled and carries Python-object
  index bookkeeping per access (cf. Oden, PDP'20, cited as [33]), which
  the paper corroborated with nvprof while observing it "consistently
  underperform".
* **AMD GPU**: "Python/Numba support for AMD GPUs is currently deprecated"
  (numba PR #6991) — unsupported, which Table III counts as efficiency 0.
* **FP16**: no half-precision RNG through NumPy (Sec. IV-A): CPU FP16 is
  unsupported; GPU FP16 runs with all-ones inputs (Fig. 7c).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..config import RunConfig
from ..core.types import DeviceKind, Layout, Precision
from ..machine.cpu import CPUSpec
from ..machine.gpu import GPUSpec
from .base import CPULowering, GPULowering, ProductivityInfo, ProgrammingModel, Support

__all__ = ["NumbaModel"]

#: CPU code-quality residual vs the vendor compiler, keyed by
#: (cpu catalog name, precision).  On x86 Numba's LLVM output is close to
#: clang's for this loop; on AArch64 its FP32 vectorisation is notably
#: poorer (the 0.400 efficiency of Table III), consistent with Gmys et
#: al.'s multithreading-gap findings the paper cites.
_CPU_QUALITY: Dict[Tuple[str, Precision], float] = {
    ("AMD EPYC 7A53", Precision.FP64): 1.40,
    ("AMD EPYC 7A53", Precision.FP32): 1.18,
    ("Ampere Altra", Precision.FP64): 1.40,
    ("Ampere Altra", Precision.FP32): 2.50,
}

#: GPU code-quality residual: Numba's PTX for the inner loop issues several
#: times the instructions of nvcc's (rolled loop, 64-bit index bookkeeping,
#: no load batching).
_GPU_QUALITY: Dict[Precision, float] = {
    Precision.FP64: 1.61,
    Precision.FP32: 1.22,
    Precision.FP16: 1.22,
}

#: Integer bookkeeping instructions Numba emits per k iteration on GPU.
_GPU_EXTRA_INT = 100.0


class NumbaModel(ProgrammingModel):
    """Python/Numba: @njit(parallel=True) on CPU, @cuda.jit on NVIDIA (Figs. 2d, 3d)."""
    name = "numba"
    display = "Python/Numba"
    language = "Python"
    paper_version = "Python v3.9.9 / Numba v0.55.1"
    family = "numba"

    def supports_cpu(self, cpu: CPUSpec, precision: Precision) -> Support:
        if precision is Precision.FP16:
            return Support.no(
                "FP16 is not supported for Numba regions combined with "
                "numpy float16 random generation (Sec. IV-A)")
        return Support.yes()

    def supports_gpu(self, gpu: GPUSpec, precision: Precision) -> Support:
        if "NVIDIA" not in gpu.name.upper():
            return Support.no(
                "Numba's AMD GPU (ROCm) target is deprecated (numba #6991)")
        if precision is Precision.FP16:
            return Support(True, "inputs populated with ones: no FP16 RNG "
                                 "through numpy (Sec. IV-B)")
        return Support.yes()

    # -- CPU -----------------------------------------------------------------

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
        kernel = builder.numba_cpu(precision)
        kernel, records = self._run_pipeline([
            SetFastMath(True),  # @njit(fastmath=True) in Fig. 2d
            LoopInvariantMotion(),
            VectorizeInnerLoop(cpu.simd_lanes(precision)),
            UnrollInnerLoop(4),
        ], kernel, target=cpu.name)

        quality = _CPU_QUALITY.get((cpu.name, precision), 1.4)
        return CPULowering(
            kernel=kernel,
            # No pinning API exists: always unpinned, whatever the config.
            pin=PinPolicy.NONE,
            profile=CPUIssueProfile(issue_multiplier=quality),
            threads=self._threads(cpu, config),
            fill=FillPolicy(random_fp16=False),
            pass_records=tuple(records),
        )

    # -- GPU -----------------------------------------------------------------

    def lower_gpu(self, gpu: GPUSpec, precision: Precision) -> GPULowering:
        from ..arrays.random import FillPolicy
        from ..gpu.launch import paper_launch
        from ..gpu.warp_sim import IssueProfile
        from ..ir import builder
        from ..ir.passes import LoopInvariantMotion, UnrollInnerLoop

        self.require_support(gpu, precision)
        kernel = builder.gpu_thread_per_element("gemm-numba-cuda", precision,
                                                Layout.ROW_MAJOR)
        kernel, records = self._run_pipeline([
            LoopInvariantMotion(),
            UnrollInnerLoop(1),  # Numba leaves the reduction loop rolled
        ], kernel, target=gpu.name)
        profile = IssueProfile(
            issue_multiplier=_GPU_QUALITY[precision],
            extra_int_per_iter=_GPU_EXTRA_INT,
        )
        return GPULowering(
            kernel=kernel,
            launch=paper_launch(x_axis="j"),
            profile=profile,
            fill=FillPolicy(random_fp16=False),  # ones for FP16
            pass_records=tuple(records),
        )

    def productivity(self, device: DeviceKind) -> ProductivityInfo:
        # Fig. 2d / 3d: decorator + prange; no build step, JIT on first call.
        return ProductivityInfo(kernel_lines=self._listing_lines(device, 13),
                                ceremony_lines=3,
                                needs_compile_step=False,
                                jit_warmup_seconds=1.5)
