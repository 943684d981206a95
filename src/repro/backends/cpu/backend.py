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

    def execute(self, opcode: str, inputs: list[Value], attrs: dict,
                flops: float | None = None,
                nbytes: int | None = None) -> Value:
        """Run one instruction; returns its value and charges host time.

        The charge is the ``overhead + max(compute, memory)`` roofline
        term of one instruction, and the output allocation is accounted
        as ``cpu/bytes_allocated``.  ``flops`` and ``nbytes`` (inputs +
        output) are the charge's static inputs a lowered instruction
        carries (``compiler/plan.py``); without them they are derived
        from the values.
        """
        out = kernels.execute(opcode, inputs, attrs)
        if flops is None:
            in_shapes = []
            nbytes = out.nbytes
            for v in inputs:
                in_shapes.append(v.shape)
                nbytes += v.nbytes
            flops = op_flops(opcode, in_shapes or [(1, 1)], out.shape)
        cfg = self.config
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
