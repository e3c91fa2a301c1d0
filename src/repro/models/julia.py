"""Julia: ``Threads.@threads`` on CPU, CUDA.jl / AMDGPU.jl on GPUs.

Lowering facts encoded from the paper:

* **CPU (Fig. 2c)**: column-major arrays, ``@threads`` over columns,
  ``temp = B[l, j]`` hoisted, ``@inbounds`` elides bounds checks, pinning
  via ``JULIA_EXCLUSIVE=1``.  Performance "almost on par with the vendor
  OpenMP implementations" — the residual is Julia's LLVM pipeline missing
  the last few percent of the vendor compilers' schedule/prefetch tuning.
* **NVIDIA GPU (Fig. 3b)**: CUDA.jl generates PTX with the reduction loop
  unrolled **2x** where nvcc unrolls 4x (Sec. IV-B) — fewer accumulator
  streams and double the loop-control overhead — plus 64-bit
  multi-dimensional index arithmetic in the inner loop ("a difference in
  unrolled loop instructions"), yielding the constant overhead visible in
  Fig. 7a.
* **AMD GPU (Fig. 3c)**: AMDGPU.jl is "comparable to HIP", and at single
  precision "slightly better ... although the differences ... could simply
  be the variability on this particular system" — encoded as a 0.95x
  factor with exactly that caveat.
* **FP16**: the only model with seamless half support.  Native on the Arm
  CPU (Neoverse-N1 FMLA) and on both GPUs; on the AMD CPU Julia's FP16
  falls back to scalar convert-compute-convert, the "very low performance
  (not reported)" path (Sec. IV-A footnote 4).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..config import RunConfig
from ..core.types import DeviceKind, Layout, Precision
from ..machine.cpu import CPUSpec
from ..machine.gpu import GPUSpec
from .base import CPULowering, GPULowering, ProductivityInfo, ProgrammingModel, Support

__all__ = ["JuliaModel", "CUDAJL_UNROLL"]

#: Sec. IV-B PTX inspection: CUDA.jl unrolls the reduction loop by 2.
CUDAJL_UNROLL = 2

#: Julia's LLVM pipeline vs the vendor compilers on the same CPU loop:
#: the few-percent residual behind "almost on par" (Fig. 4/5), keyed by
#: (cpu catalog name, precision).  Calibrated against Table III.
_CPU_QUALITY: Dict[Tuple[str, Precision], float] = {
    ("AMD EPYC 7A53", Precision.FP64): 1.10,
    ("AMD EPYC 7A53", Precision.FP32): 1.03,
    ("Ampere Altra", Precision.FP64): 1.10,
    ("Ampere Altra", Precision.FP32): 1.11,
    ("Ampere Altra", Precision.FP16): 1.10,
    # Immature FP16 on x86: scalar convert/compute/convert per element
    # (JuliaLang issue #45542, cited by the paper) — "very low performance".
    ("AMD EPYC 7A53", Precision.FP16): 30.0,
}

#: GPU residual code-quality factors keyed by (gpu catalog name, precision).
#: The A100 values encode the inner-loop instruction surplus that the
#: paper's PTX diff identified; the MI250X FP32 value below 1.0 encodes the
#: measured slightly-better-than-HIP result with the paper's variability
#: caveat.
_GPU_QUALITY: Dict[Tuple[str, Precision], float] = {
    ("NVIDIA A100", Precision.FP64): 1.16,
    ("NVIDIA A100", Precision.FP32): 1.16,
    ("NVIDIA A100", Precision.FP16): 1.16,
    ("AMD MI250X (1 GCD)", Precision.FP64): 1.107,
    ("AMD MI250X (1 GCD)", Precision.FP32): 0.95,
    ("AMD MI250X (1 GCD)", Precision.FP16): 1.05,
}

#: Extra integer instructions per inner iteration on GPUs: 64-bit
#: 2-D index arithmetic that CUDA.jl/AMDGPU.jl emit without the strength
#: reduction nvcc/hipcc apply.
_GPU_EXTRA_INT = {
    "NVIDIA A100": 14.0,
    "AMD MI250X (1 GCD)": 10.0,
}


class JuliaModel(ProgrammingModel):
    """Julia: @threads on CPU, CUDA.jl/AMDGPU.jl on GPUs (Figs. 2c, 3b-c)."""
    name = "julia"
    display = "Julia"
    language = "Julia"
    paper_version = "v1.7.2 / v1.8.0-rc1"
    family = "julia"

    def supports_cpu(self, cpu: CPUSpec, precision: Precision) -> Support:
        if precision is Precision.FP16 and not cpu.native_fp16:
            # Runs, but the paper obtained "very low performance on Crusher
            # AMD CPUs (not reported in this work)".
            return Support(True, "FP16 not native; very low performance "
                                 "(excluded from the paper's figures)",
                           degraded=True)
        return Support.yes()

    def supports_gpu(self, gpu: GPUSpec, precision: Precision) -> Support:
        # CUDA.jl and AMDGPU.jl cover both vendors at all three precisions,
        # including FP16 RNG on device (Sec. IV-B).
        return Support.yes()

    # -- CPU -----------------------------------------------------------------

    def lower_cpu(self, cpu: CPUSpec, precision: Precision,
                  config: Optional[RunConfig] = None) -> CPULowering:
        from ..arrays.random import FillPolicy
        from ..ir import builder
        from ..ir.passes import (
            ElideBoundsChecks,
            LoopInvariantMotion,
            UnrollInnerLoop,
            VectorizeInnerLoop,
        )
        from ..sched.affinity import PinPolicy
        from ..sim.executor import CPUIssueProfile

        self.require_support(cpu, precision)
        kernel = builder.julia_threads_cpu(precision)
        lanes = cpu.simd_lanes(precision)
        fp16_soft = precision is Precision.FP16 and not cpu.native_fp16
        kernel, records = self._run_pipeline([
            LoopInvariantMotion(),
            ElideBoundsChecks(),  # the @inbounds in Fig. 2c
            VectorizeInnerLoop(1 if fp16_soft else lanes),
            UnrollInnerLoop(1 if fp16_soft else 4),
        ], kernel, target=cpu.name)

        cfg = config if config is not None else RunConfig.julia(cpu.cores)
        pin = PinPolicy.COMPACT if (config is None or cfg.pinning_for("julia")) \
            else PinPolicy.NONE
        quality = _CPU_QUALITY.get((cpu.name, precision), 1.10)
        return CPULowering(
            kernel=kernel,
            pin=pin,
            profile=CPUIssueProfile(issue_multiplier=quality),
            threads=self._threads(cpu, config),
            fill=FillPolicy(random_fp16=True),  # Julia has FP16 RNG
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
        # Julia arrays are column-major; CUDA.jl kernels put threadIdx.x on
        # the row index, keeping accesses coalesced for that layout.
        kernel = builder.gpu_thread_per_element("gemm-julia-gpu", precision,
                                                Layout.COL_MAJOR)
        kernel, records = self._run_pipeline([
            LoopInvariantMotion(),
            UnrollInnerLoop(CUDAJL_UNROLL),
        ], kernel, target=gpu.name)
        quality = _GPU_QUALITY.get((gpu.name, precision), 1.15)
        profile = IssueProfile(
            issue_multiplier=quality,
            extra_int_per_iter=_GPU_EXTRA_INT.get(gpu.name, 12.0),
        )
        return GPULowering(
            kernel=kernel,
            launch=paper_launch(x_axis="i"),  # column-major: x walks rows
            profile=profile,
            fill=FillPolicy(random_fp16=True),
            pass_records=tuple(records),
        )

    def productivity(self, device: DeviceKind) -> ProductivityInfo:
        # Fig. 2c / 3b-c: the shortest kernels in the study; no build step,
        # but a first-call JIT compilation the harness warm-up absorbs.
        return ProductivityInfo(kernel_lines=self._listing_lines(device, 12),
                                ceremony_lines=4,
                                needs_compile_step=False,
                                jit_warmup_seconds=2.5)
