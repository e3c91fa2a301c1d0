"""Simulated device arrays and host<->device transfers.

Models the ``CuArray`` / ``ROCArray`` / ``DeviceNDArray`` objects of
Figs. 3b–3d: a device-resident buffer with an owning :class:`DeviceContext`
that tracks allocations and accumulates *simulated* transfer time from the
GPU's host-link bandwidth.  The data itself lives in a NumPy array so the
real kernels can still validate numerics; what is simulated is the cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

from ..errors import MachineModelError
from ..machine.gpu import GPUSpec

if TYPE_CHECKING:  # NumPy loads where an array is built, not on import
    import numpy as np

__all__ = ["TransferRecord", "DeviceContext", "DeviceArray"]


@dataclass(frozen=True)
class TransferRecord:
    """One simulated host<->device copy."""

    direction: str  # "h2d" | "d2h"
    bytes: int
    seconds: float


@dataclass
class DeviceContext:
    """One simulated GPU device: allocation accounting + transfer costs.

    ``transfer_latency_us`` is the fixed per-copy setup cost; the variable
    part uses the spec's ``host_link_gbs``.
    """

    spec: GPUSpec
    transfer_latency_us: float = 10.0
    allocated_bytes: int = 0
    peak_allocated_bytes: int = 0
    transfers: List[TransferRecord] = field(default_factory=list)

    def _transfer_seconds(self, nbytes: int) -> float:
        return self.transfer_latency_us * 1e-6 + nbytes / (self.spec.host_link_gbs * 1e9)

    def to_device(self, host: np.ndarray) -> "DeviceArray":
        """Simulate ``cudaMemcpy`` H2D; returns the device-resident array."""
        rec = TransferRecord("h2d", host.nbytes, self._transfer_seconds(host.nbytes))
        self.transfers.append(rec)
        arr = DeviceArray(context=self, data=host.copy(order="K"))
        self.allocated_bytes += host.nbytes
        self.peak_allocated_bytes = max(self.peak_allocated_bytes, self.allocated_bytes)
        return arr

    def alloc(self, shape, dtype, order: str = "C") -> "DeviceArray":
        import numpy as np

        data = np.zeros(shape, dtype=dtype, order=order)
        arr = DeviceArray(context=self, data=data)
        self.allocated_bytes += data.nbytes
        self.peak_allocated_bytes = max(self.peak_allocated_bytes, self.allocated_bytes)
        return arr

    def free(self, arr: "DeviceArray") -> None:
        if arr.freed:
            raise MachineModelError("double free of device array")
        arr.freed = True
        self.allocated_bytes -= arr.data.nbytes

    @property
    def total_transfer_seconds(self) -> float:
        return sum(t.seconds for t in self.transfers)

    @property
    def h2d_bytes(self) -> int:
        return sum(t.bytes for t in self.transfers if t.direction == "h2d")

    @property
    def d2h_bytes(self) -> int:
        return sum(t.bytes for t in self.transfers if t.direction == "d2h")


@dataclass
class DeviceArray:
    """A matrix resident on a simulated device."""

    context: DeviceContext
    data: np.ndarray
    freed: bool = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def to_host(self) -> np.ndarray:
        """Simulate D2H copy; returns a host NumPy array."""
        if self.freed:
            raise MachineModelError("read of freed device array")
        ctx = self.context
        rec = TransferRecord("d2h", self.data.nbytes,
                             ctx._transfer_seconds(self.data.nbytes))
        ctx.transfers.append(rec)
        return self.data.copy(order="K")
