"""Local CPU backend: eager numpy execution with simulated cost charging."""

from __future__ import annotations

import numpy as np

from repro.backends.cpu import kernels
from repro.common.config import CpuConfig
from repro.common.costs import op_flops
from repro.common.simclock import HOST, SimClock
from repro.common.stats import (
    CPU_BYTES_ALLOCATED,
    FUSION_INSTRUCTIONS,
    INSTRUCTIONS_EXECUTED,
    Stats,
)
from repro.runtime.values import MatrixValue, Value


class CpuBackend:
    """Eager, synchronous execution of instructions on the host (Table 2)."""

    name = "CP"

    def __init__(self, config: CpuConfig, clock: SimClock, stats: Stats) -> None:
        self.config = config
        self.clock = clock
        self.stats = stats

    def charge(self, opcode: str, in_shapes: list[tuple[int, int]],
               in_nbytes: int, out: Value) -> None:
        """Charge simulated host time + count one executed instruction.

        The ``overhead + max(compute, memory)`` roofline term of one
        unfused instruction.  Every charge also accounts the output
        allocation (``cpu/bytes_allocated``), which is what fused
        chains reduce.
        """
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

    def execute(self, opcode: str, inputs: list[Value], attrs: dict) -> Value:
        """Run one instruction; returns its value and charges host time."""
        out = kernels.execute(opcode, inputs, attrs)
        in_shapes = []
        in_nbytes = 0
        for v in inputs:
            in_shapes.append(v.shape)
            in_nbytes += v.nbytes
        if not in_shapes:
            in_shapes = [(1, 1)]
        self.charge(opcode, in_shapes, in_nbytes, out)
        return out

    def execute_fused(self, hop, inputs: list[Value]) -> MatrixValue:
        """Run one fused chain (``repro.compiler.rewrites.fusion``).

        ``inputs`` are the materialized values of ``hop.inputs`` — the
        matrix source (or the matmul prologue's two operands) followed by
        the chain's scalar literals (already baked into the step
        closures, present only for lineage/cost bookkeeping).

        Interior step outputs are *not* wrapped in
        :class:`MatrixValue`; each step output feeds the next directly
        after the same float64 normalization ``MatrixValue`` would
        apply (comparison ufuncs emit bool arrays), so the final value
        is byte-identical to the unfused chain's tail.  The whole
        chain is charged as ONE instruction: one interpretation
        overhead, the summed FLOPs against the roofline, and only the
        external input plus final output bytes of memory traffic — the
        fused instruction never materializes interiors.
        """
        if hop.prologue is not None:
            value = kernels.execute(hop.prologue.opcode, inputs[:2],
                                    hop.prologue.attrs)
            in_nbytes = inputs[0].nbytes + inputs[1].nbytes
        else:
            value = inputs[0]
            in_nbytes = inputs[0].nbytes
        arr = value.data
        for step in hop.steps:
            arr = step.apply(arr)
            if arr.dtype != np.float64:
                arr = arr.astype(np.float64)
            in_nbytes += step.extra_in_nbytes
        out = MatrixValue(arr)
        cfg = self.config
        t_compute = hop.flops / cfg.flops_per_s
        t_memory = (out.nbytes + in_nbytes) / cfg.mem_bandwidth_bytes_per_s
        self.clock.advance(
            cfg.instruction_overhead_s
            + (t_compute if t_compute > t_memory else t_memory),
            HOST,
        )
        self.stats.inc(INSTRUCTIONS_EXECUTED)
        self.stats.inc(CPU_BYTES_ALLOCATED, out.nbytes)
        self.stats.inc(FUSION_INSTRUCTIONS)
        return out
