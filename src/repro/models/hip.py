"""Vendor HIP: the AMD GPU reference (Fig. 3a, Table II).

``hipcc --amdgpu-target=gfx90a`` on the same thread-per-element kernel;
"HIP closely follows the CUDA kernel model" (Sec. III-B).
"""

from __future__ import annotations

from ..core.types import DeviceKind, Layout, Precision
from ..machine.cpu import CPUSpec
from ..machine.gpu import GPUSpec
from .base import GPULowering, ProductivityInfo, ProgrammingModel, Support

__all__ = ["HIPModel", "HIPCC_UNROLL"]

#: hipcc (clang) applies the same x4 unroll as nvcc on this loop.
HIPCC_UNROLL = 4


class HIPModel(ProgrammingModel):
    """The vendor HIP reference for AMD GPUs (Fig. 3a)."""
    name = "hip"
    display = "HIP"
    language = "C"
    paper_version = "hipcc v14.0.0"
    family = "openmp"
    is_reference = True

    def supports_cpu(self, cpu: CPUSpec, precision: Precision) -> Support:
        return Support.no("HIP targets AMD GPUs only")

    def supports_gpu(self, gpu: GPUSpec, precision: Precision) -> Support:
        if "MI250X" not in gpu.name.upper() and "AMD" not in gpu.name.upper():
            return Support.no("HIP runs on AMD GPUs only")
        if precision is Precision.FP16:
            return Support.no("no half-precision vendor kernel in the artifact")
        return Support.yes()

    def lower_gpu(self, gpu: GPUSpec, precision: Precision) -> GPULowering:
        from ..arrays.random import FillPolicy
        from ..gpu.launch import paper_launch
        from ..gpu.warp_sim import IssueProfile
        from ..ir import builder
        from ..ir.passes import LoopInvariantMotion, UnrollInnerLoop

        self.require_support(gpu, precision)
        kernel = builder.gpu_thread_per_element("gemm-hip", precision,
                                                Layout.ROW_MAJOR)
        kernel, records = self._run_pipeline([
            LoopInvariantMotion(),
            UnrollInnerLoop(HIPCC_UNROLL),
        ], kernel, target=gpu.name)
        return GPULowering(
            kernel=kernel,
            launch=paper_launch(x_axis="j"),
            profile=IssueProfile(issue_multiplier=1.0),
            fill=FillPolicy(random_fp16=False),
            pass_records=tuple(records),
        )

    def productivity(self, device: DeviceKind) -> ProductivityInfo:
        return ProductivityInfo(kernel_lines=self._listing_lines(device, 18),
                                ceremony_lines=30,
                                needs_compile_step=True,
                                jit_warmup_seconds=0.0)
