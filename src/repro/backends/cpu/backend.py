"""Local CPU backend: eager numpy execution with simulated cost charging."""

from __future__ import annotations

from repro.backends.cpu import kernels
from repro.common.config import CpuConfig
from repro.common.costs import op_flops
from repro.common.simclock import HOST, SimClock
from repro.common.stats import (
    CPU_BYTES_ALLOCATED,
    INSTRUCTIONS_EXECUTED,
    Stats,
)
from repro.runtime.values import Value


class CpuBackend:
    """Eager, synchronous execution of instructions on the host (Table 2)."""

    name = "CP"

    def __init__(self, config: CpuConfig, clock: SimClock, stats: Stats) -> None:
        self.config = config
        self.clock = clock
        self.stats = stats

    def execute(self, opcode: str, inputs: list[Value], attrs: dict) -> Value:
        """Run one instruction; returns its value and charges host time.

        The charge is the ``overhead + max(compute, memory)`` roofline
        term of one instruction, and the output allocation is accounted
        as ``cpu/bytes_allocated``.
        """
        out = kernels.execute(opcode, inputs, attrs)
        in_shapes = []
        in_nbytes = 0
        for v in inputs:
            in_shapes.append(v.shape)
            in_nbytes += v.nbytes
        if not in_shapes:
            in_shapes = [(1, 1)]
        cfg = self.config
        flops = op_flops(opcode, in_shapes, out.shape)
        nbytes = out.nbytes + in_nbytes
        t_compute = flops / cfg.flops_per_s
        t_memory = nbytes / cfg.mem_bandwidth_bytes_per_s
        self.clock.advance(
            cfg.instruction_overhead_s
            + (t_compute if t_compute > t_memory else t_memory),
            HOST,
        )
        self.stats.inc(INSTRUCTIONS_EXECUTED)
        self.stats.inc(CPU_BYTES_ALLOCATED, out.nbytes)
        return out
