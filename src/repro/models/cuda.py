"""Vendor CUDA: the NVIDIA GPU reference (Fig. 3a, Table II).

``nvcc -arch=sm_80`` on the thread-per-element kernel.  The PTX inspection
in Sec. IV-B found nvcc unrolls the reduction loop by 4 — the baseline the
CUDA.jl comparison hinges on.
"""

from __future__ import annotations

from ..core.types import DeviceKind, Layout, Precision
from ..machine.cpu import CPUSpec
from ..machine.gpu import GPUSpec
from .base import GPULowering, ProductivityInfo, ProgrammingModel, Support

__all__ = ["CUDAModel", "NVCC_UNROLL"]

#: Sec. IV-B: "unrolled loop instructions ... 4 in the native CUDA".
NVCC_UNROLL = 4


class CUDAModel(ProgrammingModel):
    """The vendor CUDA reference for NVIDIA GPUs (Fig. 3a)."""
    name = "cuda"
    display = "CUDA"
    language = "C"
    paper_version = "nvcc v11.5.1"
    family = "openmp"  # irrelevant on GPU; present for interface uniformity
    is_reference = True

    def supports_cpu(self, cpu: CPUSpec, precision: Precision) -> Support:
        return Support.no("CUDA targets NVIDIA GPUs only")

    def supports_gpu(self, gpu: GPUSpec, precision: Precision) -> Support:
        if "NVIDIA" not in gpu.name.upper():
            return Support.no("CUDA runs on NVIDIA GPUs only")
        if precision is Precision.FP16:
            # The artifact has no __half vendor kernel; Fig. 7c compares
            # only Julia and Numba at half precision.
            return Support.no("no half-precision vendor kernel in the artifact")
        return Support.yes()

    def lower_gpu(self, gpu: GPUSpec, precision: Precision) -> GPULowering:
        from ..arrays.random import FillPolicy
        from ..gpu.launch import paper_launch
        from ..gpu.warp_sim import IssueProfile
        from ..ir import builder
        from ..ir.passes import LoopInvariantMotion, UnrollInnerLoop

        self.require_support(gpu, precision)
        kernel = builder.gpu_thread_per_element("gemm-cuda", precision,
                                                Layout.ROW_MAJOR)
        kernel, records = self._run_pipeline([
            LoopInvariantMotion(),
            UnrollInnerLoop(NVCC_UNROLL),
        ], kernel, target=gpu.name)
        return GPULowering(
            kernel=kernel,
            launch=paper_launch(x_axis="j"),  # row-major: x walks columns
            profile=IssueProfile(issue_multiplier=1.0),
            fill=FillPolicy(random_fp16=False),
            pass_records=tuple(records),
        )

    def productivity(self, device: DeviceKind) -> ProductivityInfo:
        return ProductivityInfo(kernel_lines=self._listing_lines(device, 18),
                                ceremony_lines=30,
                                needs_compile_step=True,
                                jit_warmup_seconds=0.0)
