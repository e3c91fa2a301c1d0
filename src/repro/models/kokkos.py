"""C++/Kokkos v3.6.01 with OpenMP, CUDA and HIP back ends (Fig. 2b, Tables I/II).

Lowering facts encoded from the paper:

* **CPU (OpenMP back end)**: the artifact's Kokkos GEMM parallelises rows
  with the same inner loops as the C version; on Crusher's EPYC it matches
  C/OpenMP (e = 0.994), so the lowering is C-equivalent there.  On
  Wombat's Arm CPU "Kokkos ... experiences a slowdown in both cases" —
  ArmClang's schedule for the template-expanded lambda loses ~15% against
  the plain C loop, encoded as an arch-keyed quality factor.
* **NVIDIA GPU (CUDA back end)**: "Kokkos ... consistently underperform[s],
  which raises questions about the configuration and/or actual GPU runs"
  (verified active via nvprof).  Kokkos's template-chosen iteration
  mapping disagrees with its device array layout here: ``threadIdx.x``
  walks the column index over ``LayoutLeft`` (column-major) views, so the
  B operand is accessed with a large stride — one memory transaction per
  thread per iteration, a 4x memory-system amplification that matches the
  measured 0.26 double-precision efficiency.  This is the library's
  known failure mode the paper alludes to: "Templates set this kind of
  optimization ... earlier than the actual code generation phases"
  (Sec. II-b).
* **AMD GPU (HIP back end)**: coalesced (the HIP specialisation maps
  row-of-wavefront correctly) but with template overhead, a growing
  single-precision gap, and "a repeatable slowdown at the largest size",
  encoded as an L2-thrash penalty once the operand footprint passes the
  GCD's L2 reach.
* **FP16**: no seamless half support (Sec. IV-B) — unsupported.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..config import RunConfig
from ..core.types import DeviceKind, Layout, Precision
from ..machine.cpu import CPUSpec
from ..machine.gpu import GPUSpec
from .base import CPULowering, GPULowering, ProductivityInfo, ProgrammingModel, Support

__all__ = ["KokkosModel"]

#: CPU residual vs the vendor C/OpenMP build, keyed by (cpu name, precision).
_CPU_QUALITY: Dict[Tuple[str, Precision], float] = {
    ("AMD EPYC 7A53", Precision.FP64): 1.00,
    ("AMD EPYC 7A53", Precision.FP32): 1.00,
    ("Ampere Altra", Precision.FP64): 1.17,
    ("Ampere Altra", Precision.FP32): 1.20,
}

#: GPU residual factors keyed by (gpu name, precision).  The CUDA FP32
#: value below 1.0 is a calibration residual: the strided-access mechanism
#: is sector-granular and therefore precision-independent, while the
#: measured FP32 efficiency (0.208) sits somewhat above what that predicts;
#: see EXPERIMENTS.md.
_GPU_QUALITY: Dict[Tuple[str, Precision], float] = {
    ("NVIDIA A100", Precision.FP64): 1.03,
    ("NVIDIA A100", Precision.FP32): 0.72,
    ("AMD MI250X (1 GCD)", Precision.FP64): 1.19,
    ("AMD MI250X (1 GCD)", Precision.FP32): 1.48,
}

#: Footprint beyond which the Kokkos/HIP kernel's scheduling pattern starts
#: thrashing the GCD's 8 MiB L2 (the "repeatable slowdown at the largest
#: size" of Fig. 6a); threshold ~= 3 x 16384^2 x 8 bytes.
_HIP_THRASH_THRESHOLD = 5.0e9
_HIP_THRASH_FACTOR = 1.18


class KokkosModel(ProgrammingModel):
    """C++/Kokkos with OpenMP, CUDA and HIP back ends (Fig. 2b)."""
    name = "kokkos"
    display = "Kokkos"
    language = "C++"
    paper_version = "v3.6.01"
    family = "kokkos"

    def supports_cpu(self, cpu: CPUSpec, precision: Precision) -> Support:
        if precision is Precision.FP16:
            return Support.no("no seamless FP16 support (Sec. IV-B)")
        return Support.yes()

    def supports_gpu(self, gpu: GPUSpec, precision: Precision) -> Support:
        if precision is Precision.FP16:
            return Support.no("no seamless FP16 support (Sec. IV-B)")
        return Support.yes("backend: " + ("Cuda" if "NVIDIA" in gpu.name.upper() else "Hip"))

    # -- CPU -----------------------------------------------------------------

    def lower_cpu(self, cpu: CPUSpec, precision: Precision,
                  config: Optional[RunConfig] = None) -> CPULowering:
        from ..arrays.random import FillPolicy
        from ..ir import builder
        from ..ir.passes import (
            LoopInvariantMotion,
            UnrollInnerLoop,
            VectorizeInnerLoop,
        )
        from ..sched.affinity import PinPolicy
        from ..sim.executor import CPUIssueProfile

        self.require_support(cpu, precision)
        # C-equivalent row-parallel loop nest (see module docstring).
        kernel = builder.build_gemm(
            "gemm-kokkos-openmp", precision, "ikj", Layout.ROW_MAJOR,
            parallel_vars=("i",), hoist_invariant=True,
        )
        kernel, records = self._run_pipeline([
            LoopInvariantMotion(),
            VectorizeInnerLoop(cpu.simd_lanes(precision)),
            UnrollInnerLoop(4),
        ], kernel, target=cpu.name)

        cfg = config if config is not None else RunConfig.openmp(cpu.cores)
        pin = PinPolicy.COMPACT if (config is None or cfg.pinning_for("kokkos")) \
            else PinPolicy.NONE
        quality = _CPU_QUALITY.get((cpu.name, precision), 1.1)
        return CPULowering(
            kernel=kernel,
            pin=pin,
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
        is_cuda = "NVIDIA" in gpu.name.upper()
        # Kokkos device Views default to LayoutLeft (column-major).
        kernel = builder.gpu_thread_per_element(
            "gemm-kokkos-" + ("cuda" if is_cuda else "hip"),
            precision, Layout.COL_MAJOR)
        kernel, records = self._run_pipeline([
            LoopInvariantMotion(),
            UnrollInnerLoop(4),  # the underlying nvcc/hipcc still unroll
        ], kernel, target=gpu.name)

        quality = _GPU_QUALITY.get((gpu.name, precision), 1.2)
        if is_cuda:
            # Mapping/layout mismatch: x on the column index of LayoutLeft
            # data -> strided B accesses (module docstring).
            launch = paper_launch(x_axis="j")
            profile = IssueProfile(issue_multiplier=quality,
                                   extra_int_per_iter=6.0)
        else:
            launch = paper_launch(x_axis="i")  # coalesced for LayoutLeft
            profile = IssueProfile(
                issue_multiplier=quality,
                extra_int_per_iter=6.0,
                thrash_threshold_bytes=_HIP_THRASH_THRESHOLD,
                thrash_factor=_HIP_THRASH_FACTOR,
            )
        return GPULowering(
            kernel=kernel,
            launch=launch,
            profile=profile,
            fill=FillPolicy(random_fp16=False),
            pass_records=tuple(records),
        )

    def productivity(self, device: DeviceKind) -> ProductivityInfo:
        # The lambda kernel is compact but carries CMake + template
        # instantiation ceremony ("its own compilation framework", App. A).
        return ProductivityInfo(kernel_lines=self._listing_lines(device, 16),
                                ceremony_lines=60,
                                needs_compile_step=True,
                                jit_warmup_seconds=0.0)
