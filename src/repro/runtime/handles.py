"""User-facing matrix/scalar handles building lazy HOP DAGs.

A :class:`MatrixHandle` either wraps an unevaluated :class:`Hop` or an
evaluated multi-backend payload set.  Arithmetic operators build new
hops; evaluation points (``compute()``, ``item()``, or consumption by a
function-reuse boundary) trigger DAG compilation and execution through
the session.  After evaluation a handle keeps its *lineage item*, so
using it in later DAGs preserves lineage identity across program blocks
— the property enabling cross-iteration reuse.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING, Union
from weakref import ref

import numpy as np

from repro.compiler.ir import Hop, data_hop, literal_hop
from repro.lineage.item import LineageItem

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import Session

Operand = Union["MatrixHandle", float, int]


def _as_hop(session: "Session", operand: Operand) -> Hop:
    if isinstance(operand, MatrixHandle):
        return operand.hop
    if isinstance(operand, (int, float, bool, np.floating, np.integer)):
        return literal_hop(float(operand), session.ids)
    raise TypeError(f"unsupported operand type {type(operand)!r}")


class MatrixHandle:
    """A lazily-evaluated matrix (or scalar) in the session."""

    def __init__(self, session: "Session", hop: Hop,
                 name: Optional[str] = None) -> None:
        self.session = session
        self.hop = hop
        self.name = name
        #: lineage of the value this handle denotes (set on evaluation,
        #: or immediately for input data).
        self.lineage: Optional[LineageItem] = None
        #: backend tag -> runtime payload (set on evaluation).
        self.payloads: dict[str, object] = {}
        handle_ref = hop._handle_ref  # ``hop.handle``, without the property
        if handle_ref is None or handle_ref() is None:
            hop._handle_ref = ref(self)

    # -- metadata -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.hop.shape

    @property
    def nrow(self) -> int:
        return self.hop.shape[0]

    @property
    def ncol(self) -> int:
        return self.hop.shape[1]

    @property
    def is_evaluated(self) -> bool:
        return bool(self.payloads)

    # -- evaluation ------------------------------------------------------------

    def compute(self) -> np.ndarray:
        """Force evaluation and fetch the result to the driver."""
        return self.session.compute(self)

    def item(self) -> float:
        """Evaluate a 1x1 result to a python float."""
        out = self.compute()
        return float(np.asarray(out).reshape(-1)[0])

    def evaluate(self) -> "MatrixHandle":
        """Force evaluation without transferring to the driver.

        Distributed results stay as (possibly lazy) RDDs; GPU results
        stay on the device.
        """
        self.session.evaluate([self])
        return self

    # -- operator sugar -----------------------------------------------------------

    def _binary(self, opcode: str, other: Operand,
                reverse: bool = False) -> "MatrixHandle":
        other_hop = _as_hop(self.session, other)
        inputs = [other_hop, self.hop] if reverse else [self.hop, other_hop]
        return self.session.op(opcode, inputs)

    def __add__(self, other: Operand) -> "MatrixHandle":
        return self._binary("+", other)

    def __radd__(self, other: Operand) -> "MatrixHandle":
        return self._binary("+", other, reverse=True)

    def __sub__(self, other: Operand) -> "MatrixHandle":
        return self._binary("-", other)

    def __rsub__(self, other: Operand) -> "MatrixHandle":
        return self._binary("-", other, reverse=True)

    def __mul__(self, other: Operand) -> "MatrixHandle":
        return self._binary("*", other)

    def __rmul__(self, other: Operand) -> "MatrixHandle":
        return self._binary("*", other, reverse=True)

    def __truediv__(self, other: Operand) -> "MatrixHandle":
        return self._binary("/", other)

    def __rtruediv__(self, other: Operand) -> "MatrixHandle":
        return self._binary("/", other, reverse=True)

    def __pow__(self, other: Operand) -> "MatrixHandle":
        return self._binary("^", other)

    def __xor__(self, other: Operand) -> "MatrixHandle":
        """``^`` is exponentiation, matching DML syntax."""
        return self._binary("^", other)

    def __matmul__(self, other: "MatrixHandle") -> "MatrixHandle":
        return self._binary("ba+*", other)

    def __gt__(self, other: Operand) -> "MatrixHandle":
        return self._binary(">", other)

    def __lt__(self, other: Operand) -> "MatrixHandle":
        return self._binary("<", other)

    def __ge__(self, other: Operand) -> "MatrixHandle":
        return self._binary(">=", other)

    def __le__(self, other: Operand) -> "MatrixHandle":
        return self._binary("<=", other)

    def __neg__(self) -> "MatrixHandle":
        return self._binary("*", -1.0)

    def eq(self, other: Operand) -> "MatrixHandle":
        """Element-wise equality (named method; ``__eq__`` stays identity)."""
        return self._binary("==", other)

    def minimum(self, other: Operand) -> "MatrixHandle":
        return self._binary("min", other)

    def maximum(self, other: Operand) -> "MatrixHandle":
        return self._binary("max", other)

    # -- unary / reorg -------------------------------------------------------------

    def _unary(self, opcode: str, attrs: Optional[dict] = None) -> "MatrixHandle":
        return self.session.op(opcode, [self.hop], attrs)

    def t(self) -> "MatrixHandle":
        """Transpose."""
        return self._unary("r'")

    def exp(self) -> "MatrixHandle":
        return self._unary("exp")

    def log(self) -> "MatrixHandle":
        return self._unary("log")

    def sqrt(self) -> "MatrixHandle":
        return self._unary("sqrt")

    def abs(self) -> "MatrixHandle":
        return self._unary("abs")

    def sign(self) -> "MatrixHandle":
        return self._unary("sign")

    def round(self) -> "MatrixHandle":
        return self._unary("round")

    def relu(self) -> "MatrixHandle":
        return self._unary("relu")

    def sigmoid(self) -> "MatrixHandle":
        return self._unary("sigmoid")

    def tanh(self) -> "MatrixHandle":
        return self._unary("tanh")

    def softmax(self) -> "MatrixHandle":
        return self._unary("softmax")

    def dropout(self, rate: float, seed: int) -> "MatrixHandle":
        return self._unary("dropout", {"rate": rate, "seed": seed})

    def replace(self, pattern: float, replacement: float) -> "MatrixHandle":
        return self._unary(
            "replace", {"pattern": pattern, "replacement": replacement}
        )

    # -- aggregates -------------------------------------------------------------------

    def sum(self) -> "MatrixHandle":
        return self._unary("uak+")

    def mean(self) -> "MatrixHandle":
        return self._unary("uamean")

    def max(self) -> "MatrixHandle":
        return self._unary("uamax")

    def min(self) -> "MatrixHandle":
        return self._unary("uamin")

    def row_sums(self) -> "MatrixHandle":
        return self._unary("uark+")

    def col_sums(self) -> "MatrixHandle":
        return self._unary("uack+")

    def col_means(self) -> "MatrixHandle":
        return self._unary("uacmean")

    def col_maxs(self) -> "MatrixHandle":
        return self._unary("uacmax")

    def col_mins(self) -> "MatrixHandle":
        return self._unary("uacmin")

    def row_means(self) -> "MatrixHandle":
        return self._unary("uarmean")

    def row_maxs(self) -> "MatrixHandle":
        return self._unary("uarmax")

    def row_argmax(self) -> "MatrixHandle":
        return self._unary("uarimax")

    # -- indexing ---------------------------------------------------------------------

    def __getitem__(self, key) -> "MatrixHandle":
        rows, cols = key if isinstance(key, tuple) else (key, slice(None))

        def bounds(sl, extent: int) -> tuple[int, int]:
            if isinstance(sl, slice):
                start = 0 if sl.start is None else int(sl.start)
                stop = extent if sl.stop is None else int(sl.stop)
                return start + 1, stop
            idx = int(sl)
            return idx + 1, idx + 1

        rl, ru = bounds(rows, self.nrow)
        cl, cu = bounds(cols, self.ncol)
        return self._unary(
            "rightIndex", {"rl": rl, "ru": ru, "cl": cl, "cu": cu}
        )

    def __repr__(self) -> str:
        tag = self.name or f"hop#{self.hop.id}"
        state = "evaluated" if self.is_evaluated else "lazy"
        return f"MatrixHandle({tag}, {self.nrow}x{self.ncol}, {state})"

    # -- internal -----------------------------------------------------------------------

    def bind(self, lineage: LineageItem, payloads: dict[str, object]) -> None:
        """Rebind this handle to an evaluated value (fresh data leaf).

        The payload dict is shared between the handle and the new data
        hop's bundle: consumers that captured the hop in a DAG keep the
        payloads alive even if the handle itself is dropped, without any
        handle <-> hop reference cycle.
        """
        self.lineage = lineage
        self.payloads = dict(payloads)
        fresh = data_hop(self, self.hop.shape)
        fresh.bundle = (lineage, self.payloads)
        self.hop = fresh
