"""KernelAbstractions.jl: Julia's portable GPU layer (extension model).

Sec. III-B: "Julia also provides the KernelAbstractions.jl package for
writing portable kernels while still maintaining dependence on either
CuArray or ROCArray."  The paper benchmarks the vendor-specific CUDA.jl /
AMDGPU.jl kernels; this extension answers its implicit follow-up — what
does the single-source portable layer cost over the native packages?

Lowering: identical kernel shape and launch to the native Julia GPU path
(KernelAbstractions compiles through the same GPUCompiler.jl pipeline),
plus the small, measured-in-the-wild abstraction cost: the ``@kernel``
macro introduces an ``@index(Global, NTuple)`` indexing helper and a
workgroup-size indirection that survive into the IR as a few extra
integer instructions per iteration.  The E13 benchmark pins the resulting
single-digit-percent penalty on both GPUs — the quantitative version of
"future work should continue to explore" (Sec. VI).
"""

from __future__ import annotations


from ..core.types import DeviceKind, Layout, Precision
from ..machine.cpu import CPUSpec
from ..machine.gpu import GPUSpec
from .base import GPULowering, ProductivityInfo, ProgrammingModel, Support
from .julia import _GPU_EXTRA_INT, _GPU_QUALITY, CUDAJL_UNROLL

__all__ = ["KernelAbstractionsModel"]

#: Extra integer work of the @index/workgroup indirection, per iteration.
_KA_EXTRA_INT = 3.0
#: Residual abstraction overhead on top of the native package's codegen.
_KA_MULTIPLIER = 1.03


class KernelAbstractionsModel(ProgrammingModel):
    """KernelAbstractions.jl: Julia's single-source portable GPU layer (extension)."""
    name = "kernelabstractions"
    display = "Julia (KernelAbstractions.jl)"
    language = "Julia"
    paper_version = "KernelAbstractions.jl v0.8.3 [55]"
    family = "julia"

    def supports_cpu(self, cpu: CPUSpec, precision: Precision) -> Support:
        return Support.no("modelled for its GPU backends; the CPU path is "
                          "plain Julia threads (use the 'julia' model)")

    def supports_gpu(self, gpu: GPUSpec, precision: Precision) -> Support:
        # single source over CUDA.jl and AMDGPU.jl back ends
        return Support.yes("extension model (paper Sec. III-B, [55])")

    def lower_gpu(self, gpu: GPUSpec, precision: Precision) -> GPULowering:
        from ..arrays.random import FillPolicy
        from ..gpu.launch import paper_launch
        from ..gpu.warp_sim import IssueProfile
        from ..ir import builder
        from ..ir.passes import LoopInvariantMotion, UnrollInnerLoop

        self.require_support(gpu, precision)
        kernel = builder.gpu_thread_per_element("gemm-ka-jl", precision,
                                                Layout.COL_MAJOR)
        kernel, records = self._run_pipeline([
            LoopInvariantMotion(),
            UnrollInnerLoop(CUDAJL_UNROLL),  # same GPUCompiler.jl pipeline
        ], kernel, target=gpu.name)
        native_quality = _GPU_QUALITY.get((gpu.name, precision), 1.15)
        profile = IssueProfile(
            issue_multiplier=native_quality * _KA_MULTIPLIER,
            extra_int_per_iter=_GPU_EXTRA_INT.get(gpu.name, 12.0) + _KA_EXTRA_INT,
        )
        return GPULowering(
            kernel=kernel,
            launch=paper_launch(x_axis="i"),
            profile=profile,
            fill=FillPolicy(random_fp16=True),
            pass_records=tuple(records),
        )

    def productivity(self, device: DeviceKind) -> ProductivityInfo:
        # One source for both vendors — the divergence win over CUDA/HIP.
        return ProductivityInfo(kernel_lines=self._listing_lines(device, 14),
                                ceremony_lines=6,
                                needs_compile_step=False,
                                jit_warmup_seconds=3.0)
