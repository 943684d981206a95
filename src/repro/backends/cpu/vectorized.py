"""Vectorized CPU kernel layer: precompiled cell-wise ufunc steps.

The generic dispatch path pays per instruction for a kernel-registry
lookup, operand unpacking, and value re-wrapping.  For *runs* of
cell-wise operations (``relu(X * 2.0 + 1.0)``-style pipelines) all of
that is loop-invariant: the ufunc, the scalar operand, and the operand
layout are known at compile time.  This module compiles one hop into a
:class:`CompiledStep` — a closure from input ndarray to output ndarray —
so the fusion rewrite (``repro.compiler.rewrites.fusion``) can lower a
whole run to one instruction that applies the steps back to back on raw
arrays (``CpuBackend.execute_fused``).

Byte-equality contract: every step closure applies the *same* callable
the generic kernel registry uses (the ufunc tables
:data:`~repro.backends.cpu.kernels.UNARY_UFUNCS` /
:data:`~repro.backends.cpu.kernels.BINARY_UFUNCS` and the
:func:`~repro.backends.cpu.kernels.sigmoid` /
:func:`~repro.backends.cpu.kernels.relu` functions are imported, never
restated — this module computes no cell value itself), and the fused
instruction applies the identical float64 normalization
:class:`~repro.runtime.values.MatrixValue` performs.  A fused chain
therefore produces bit-for-bit the result of the
one-instruction-at-a-time path; ``tests/test_fusion.py`` asserts this.

Eligibility is deliberately narrow — a hop compiles only when:

* its opcode is a cell-wise ufunc (or ``sigmoid``/``relu``), with no
  attributes;
* its matrix operand is a real matrix (statically ``> 1`` cells, so the
  runtime value is guaranteed to be a ``MatrixValue``);
* any second operand is a scalar *literal* hop, matching the generic
  path's python-float broadcasting.

Everything else stays on the generic per-instruction kernels.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.backends.cpu.kernels import BINARY_UFUNCS, UNARY_UFUNCS, relu, sigmoid
from repro.compiler.ir import KIND_LITERAL, KIND_OP, Hop
from repro.core.entry import BACKEND_CP

__all__ = ["CompiledStep", "compile_step"]


#: chainable unary opcodes -> ndarray -> ndarray callables.
UNARY_CHAIN_OPS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    **UNARY_UFUNCS,
    "sigmoid": sigmoid,
    "relu": relu,
}

#: every opcode that can appear in a chain — used as the first, cheapest
#: rejection test so fusion planning costs one set probe per
#: non-cell-wise hop.
CHAINABLE_OPCODES: frozenset = frozenset(UNARY_CHAIN_OPS) | frozenset(BINARY_UFUNCS)


class CompiledStep:
    """One hop of a cell-wise chain, precompiled to an ndarray closure.

    Attributes
    ----------
    hop:
        The source hop (``_exec_fused`` needs its opcode and inputs to
        re-intern the lineage item the unfused instruction would trace).
    apply:
        ``ndarray -> ndarray`` closure with operands baked in.
    matrix_index:
        Index of the matrix operand in ``hop.inputs`` — the chained
        predecessor feeds this position.
    scalar_index:
        Index of the scalar-literal operand in ``hop.inputs`` (``None``
        for unary steps).  Used for cost accounting (the literal adds 8
        input bytes, exactly like a ``ScalarValue`` operand does on the
        generic path) and for lineage input ordering.
    """

    __slots__ = ("hop", "apply", "matrix_index", "scalar_index")

    def __init__(self, hop: Hop, apply: Callable[[np.ndarray], np.ndarray],
                 matrix_index: int, scalar_index: Optional[int]) -> None:
        self.hop = hop
        self.apply = apply
        self.matrix_index = matrix_index
        self.scalar_index = scalar_index

    @property
    def extra_in_nbytes(self) -> int:
        """Input bytes beyond the matrix operand (the scalar literal)."""
        return 0 if self.scalar_index is None else 8

    def __repr__(self) -> str:
        return f"CompiledStep({self.hop.opcode}, hop#{self.hop.id})"


def _cellwise_eligible(hop: Hop) -> bool:
    """Structural preconditions every chain step shares."""
    return (
        hop.kind == KIND_OP
        and (hop.placement is None or hop.placement == BACKEND_CP)
        and not hop.attrs
        and not hop.fused
        and not hop.checkpoint
        and not hop.prefetch
        and not hop.async_broadcast
        and hop.shape[0] * hop.shape[1] > 1
    )


def compile_step(hop: Hop) -> Optional[CompiledStep]:
    """Compile ``hop`` into a chain step, or ``None`` if ineligible."""
    if hop.opcode not in CHAINABLE_OPCODES:
        return None
    if not _cellwise_eligible(hop):
        return None

    if len(hop.inputs) == 1:
        fn = UNARY_CHAIN_OPS.get(hop.opcode)
        if fn is None:
            return None
        return CompiledStep(hop, fn, 0, None)

    if len(hop.inputs) == 2:
        ufunc = BINARY_UFUNCS.get(hop.opcode)
        if ufunc is None:
            return None
        left, right = hop.inputs
        if right.kind == KIND_LITERAL and left.kind != KIND_LITERAL:
            c = float(right.value)

            def fn(a: np.ndarray, _uf=ufunc, _c=c) -> np.ndarray:
                return _uf(a, _c)

            return CompiledStep(hop, fn, 0, 1)
        if left.kind == KIND_LITERAL and right.kind != KIND_LITERAL:
            c = float(left.value)

            def fn(a: np.ndarray, _uf=ufunc, _c=c) -> np.ndarray:
                return _uf(_c, a)

            return CompiledStep(hop, fn, 1, 0)

    return None
