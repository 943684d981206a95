"""Analytic cost model: FLOPs, bytes, and transfer times.

The lineage-cache eviction policies (paper Eq. 1 and Eq. 2) rank cached
objects by an *analytical compute cost* ``c(o)`` and a *worst-case size
estimate* ``s(o)``; the simulated backends charge execution time derived
from the same model.  Matrices are dense double-precision (8 bytes/cell),
matching SystemDS's default value type.
"""

from __future__ import annotations

DOUBLE_BYTES = 8

#: opcodes whose cost is ~2*m*k*n FLOPs (dense matrix multiply family).
MATMUL_OPS = {"ba+*"}

#: cheap element-wise ops: 1 FLOP per output cell.
ELEMENTWISE_1 = {
    "+", "-", "*", "/", "^", "min", "max", ">", "<", ">=", "<=", "==",
    "abs", "sign", "round", "relu", "dropout", "replace",
}

#: transcendental element-wise ops: ~20 FLOPs per output cell.
ELEMENTWISE_20 = {"exp", "log", "sqrt", "sigmoid", "tanh", "softmax"}

#: aggregates: 1 FLOP per *input* cell.
AGGREGATES = {
    "uak+", "uark+", "uack+", "uamin", "uamax", "uamean", "uarmean",
    "uacmean", "uarmax", "uacmax", "uacmin",
}

#: data movement / reorganization: charged per byte, negligible FLOPs.
REORG_OPS = {"r'", "rightIndex", "cbind", "rbind", "rand", "seq", "diag"}


def matrix_bytes(rows: int, cols: int, sparsity: float = 1.0) -> int:
    """Worst-case serialized size of a dense block (``s(o)`` in Eq. 1)."""
    # branches instead of max(): this runs once per hop per compile
    if rows < 1:
        rows = 1
    if cols < 1:
        cols = 1
    if sparsity < 0.05:
        sparsity = 0.05
    return int(rows * cols * DOUBLE_BYTES * sparsity)


def op_flops(opcode: str, in_shapes: list[tuple[int, int]],
             out_shape: tuple[int, int]) -> float:
    """Analytical FLOP estimate for one operator (``c(o)`` numerator).

    ``in_shapes`` are (rows, cols) of the inputs; ``out_shape`` of the
    output.  Unknown opcodes default to one FLOP per output cell, which
    keeps the model total and monotone.
    """
    rows, cols = out_shape
    out_cells = (rows if rows > 1 else 1) * (cols if cols > 1 else 1)
    # membership tests ordered by hot-path frequency (the opcode sets
    # are disjoint, so reordering cannot change the result)
    if opcode in ELEMENTWISE_1:
        return float(out_cells)
    if opcode in MATMUL_OPS:
        m, k = in_shapes[0]
        _, n = in_shapes[1]
        return 2.0 * m * k * n
    if opcode in AGGREGATES:
        r, c = in_shapes[0]
        return float((r if r > 1 else 1) * (c if c > 1 else 1))
    if opcode in ELEMENTWISE_20:
        return 20.0 * out_cells
    if opcode in REORG_OPS:
        return 0.1 * out_cells
    if opcode == "fed_tsmm":
        m, k = in_shapes[0]
        return 2.0 * m * k * k
    if opcode == "solve":
        n = in_shapes[0][0]
        return (2.0 / 3.0) * n**3 + 2.0 * n**2
    if opcode == "conv2d":
        # caller encodes effective FLOPs in out_shape via im2col expansion;
        # approximate with 2 * output cells * filter volume stored in
        # in_shapes[1] (filter rows = K, cols = C*R*S).
        filt = in_shapes[1] if len(in_shapes) > 1 else (1, 9)
        return 2.0 * out_cells * max(filt[1], 1)
    if opcode == "maxpool":
        return 4.0 * out_cells
    return float(out_cells)


def transfer_time(nbytes: int, bandwidth_bytes_per_s: float,
                  latency_s: float = 0.0) -> float:
    """Simulated time to move ``nbytes`` over a link."""
    return latency_s + nbytes / max(bandwidth_bytes_per_s, 1.0)


def compute_time(flops: float, flops_per_s: float,
                 nbytes_touched: int = 0,
                 mem_bandwidth_bytes_per_s: float = float("inf"),
                 launch_s: float = 0.0) -> float:
    """Roofline-style kernel time: max of compute-bound and memory-bound."""
    t_compute = flops / max(flops_per_s, 1.0)
    t_memory = nbytes_touched / max(mem_bandwidth_bytes_per_s, 1.0)
    return launch_s + max(t_compute, t_memory)
