"""GPU backend: kernel execution over managed device pointers.

Executes the same operator set as the CPU backend (the simulator computes
exact numpy results host-side) while charging the *device* timeline with
roofline kernel costs and routing every allocation through the unified
:class:`~repro.backends.gpu.memmanager.GpuMemoryManager`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.cpu import kernels
from repro.backends.gpu.device import GpuDevice
from repro.backends.gpu.memmanager import GpuMemoryManager, MODE_MEMPHIS
from repro.backends.gpu.pointers import GpuPointer
from repro.backends.gpu.stream import GpuStream
from repro.common.config import GpuConfig
from repro.common.costs import op_flops
from repro.common.simclock import SimClock
from repro.common.stats import Stats
from repro.runtime.values import MatrixValue, ScalarValue, Value

#: opcodes with efficient GPU kernels (dense, regular access).
GPU_OPCODES = {
    "+", "-", "*", "/", "^", "min", "max", ">", "<", ">=", "<=", "==",
    "exp", "log", "sqrt", "abs", "sign", "relu", "sigmoid", "tanh",
    "softmax", "dropout", "ba+*", "r'", "uak+", "uark+", "uack+",
    "uamean", "uarmax", "uarimax", "conv2d", "maxpool", "uamax", "uamin",
    "solve",
}


@dataclass
class GpuData:
    """A matrix resident on the device: pointer + shadow value.

    The GPU payload format of the hierarchical lineage cache (paper
    Table 1, §4.2): a managed device pointer whose lifetime the
    memory manager controls, plus the host-side shadow result.
    """

    ptr: GpuPointer
    value: MatrixValue

    @property
    def nbytes(self) -> int:
        return self.ptr.size

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape


class GpuBackend:
    """Asynchronous GPU execution (Table 2 row 2)."""

    name = "GPU"

    def __init__(self, config: GpuConfig, clock: SimClock, stats: Stats,
                 mode: str = MODE_MEMPHIS, tracer=None, faults=None,
                 arbiter=None, ids=None) -> None:
        self.config = config
        self.clock = clock
        self.stats = stats
        self.device = GpuDevice(config)
        self.stream = GpuStream(config, clock, stats, tracer=tracer)
        self.memory = GpuMemoryManager(
            self.device, self.stream, clock, stats, mode, tracer=tracer,
            faults=faults, arbiter=arbiter, ids=ids,
        )

    # -- data transfer ------------------------------------------------------

    def to_device(self, value: MatrixValue) -> GpuData:
        """Host matrix -> device allocation + H2D copy."""
        ptr = self.memory.allocate(value.nbytes, value.shape)
        self.stream.copy_h2d(value.nbytes)
        ptr.data = value.data
        return GpuData(ptr, value)

    def to_host(self, data: GpuData) -> MatrixValue:
        """Device matrix -> host (synchronization barrier + D2H copy)."""
        self.stream.copy_d2h(data.nbytes)
        return data.value

    def to_host_async(self, data: GpuData) -> float:
        """Asynchronous D2H used by ``prefetch``; returns the ready time."""
        return self.stream.copy_d2h_async(data.nbytes)

    # -- execution -----------------------------------------------------------

    def execute(self, opcode: str, inputs: list[object], attrs: dict,
                lineage_height: int = 1,
                flops: float | None = None) -> object:
        """Run one instruction on the device.

        ``inputs`` may mix :class:`GpuData` and host scalars; the result is
        a :class:`GpuData` (or a :class:`ScalarValue` for full aggregates,
        which implies a device-to-host transfer of the scalar).  ``flops``
        is the lowered instruction's; ``None`` derives it from the values.
        """
        host_inputs: list[Value] = []
        touched = 0
        for item in inputs:
            if isinstance(item, GpuData):
                host_inputs.append(item.value)
                touched += item.nbytes
                self.memory.touch(item.ptr)
            else:
                host_inputs.append(item)
        out = kernels.execute(opcode, host_inputs, attrs)
        if flops is None:
            in_shapes = [v.shape for v in host_inputs] or [(1, 1)]
            flops = op_flops(opcode, in_shapes, out.shape)

        if isinstance(out, ScalarValue):
            # scalar aggregate: kernel + implicit tiny D2H (sync barrier)
            self.stream.launch(flops, touched)
            self.stream.copy_d2h(8)
            return out

        ptr = self.memory.allocate(out.nbytes, out.shape)
        ptr.data = out.data
        ptr.lineage_height = lineage_height
        ptr.compute_cost = flops
        self.stream.launch(flops, touched + out.nbytes)
        return GpuData(ptr, out)
