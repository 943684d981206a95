"""HOP-style expression IR: lazy operator DAGs with shape inference.

Handles build :class:`Hop` DAGs lazily (SystemDS-style DAG compilation,
§2.1); each evaluation point compiles one DAG through rewrites,
placement, and linearization into an instruction stream.  Shapes and
worst-case memory estimates are inferred bottom-up and drive operator
placement (ops above the operation-memory budget go to Spark).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING
from weakref import ref

from repro.common.costs import DOUBLE_BYTES, op_flops
from repro.common.errors import CompilationError
from repro.common.runtime import IdSpace, current as current_runtime

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.handles import MatrixHandle

KIND_OP = "op"
KIND_DATA = "data"
KIND_LITERAL = "literal"

#: bits of a lowered instruction's ``flags`` (compiler/plan.py::lower):
#: the §5.1 prefetch and broadcast and the §5.2 checkpoint rewrites.
PREFETCH, BROADCAST, CHECKPOINT = 1, 2, 4
#: lowering-only bit of compiler/plan.py::block_flags, never in an
#: instruction: a transpose only a Spark ``tsmm``/``cpmm`` reads through.
TRACE_ONLY = 8

#: opcodes producing scalars.
SCALAR_OPS = {"uak+", "uamean", "uamax", "uamin"}


def index_bounds(attrs: dict, shape: tuple) -> tuple[int, int, int, int]:
    """``rightIndex``'s 1-based inclusive bounds over an input ``shape``."""
    return (int(attrs.get("rl", 1)), int(attrs.get("ru", shape[0])),
            int(attrs.get("cl", 1)), int(attrs.get("cu", shape[1])))


def infer_shape(opcode: str, in_shapes: list[tuple[int, int]],
                attrs: dict) -> tuple[int, int]:
    """Bottom-up output shape inference for every supported opcode."""
    if opcode == "rand":
        return (int(attrs["rows"]), int(attrs["cols"]))
    if opcode == "seq":
        start, stop = float(attrs["from"]), float(attrs["to"])
        step = float(attrs.get("incr", 1.0))
        return (max(int((stop - start) / step) + 1, 0), 1)
    if opcode == "ba+*":
        return (in_shapes[0][0], in_shapes[1][1])
    if opcode == "r'":
        return (in_shapes[0][1], in_shapes[0][0])
    if opcode == "solve":
        return (in_shapes[0][1], in_shapes[1][1])
    if opcode in SCALAR_OPS:
        return (1, 1)
    if opcode in ("uark+", "uarmean", "uarmax", "uarimax"):
        return (in_shapes[0][0], 1)
    if opcode in ("uack+", "uacmean", "uacmax", "uacmin"):
        return (1, in_shapes[0][1])
    if opcode == "rightIndex":
        rl, ru, cl, cu = index_bounds(attrs, in_shapes[0])
        return (ru - rl + 1, cu - cl + 1)
    if opcode == "cbind":
        return (in_shapes[0][0], sum(s[1] for s in in_shapes))
    if opcode == "rbind":
        return (sum(s[0] for s in in_shapes), in_shapes[0][1])
    if opcode == "diag":
        rows, cols = in_shapes[0]
        return (rows, rows) if cols == 1 else (min(rows, cols), 1)
    if opcode == "table":
        return (int(attrs["rows"]), int(attrs["cols"]))
    if opcode == "conv2d":
        n = int(attrs["N"]); k = int(attrs["K"])
        h = int(attrs["H"]); w = int(attrs["W"])
        r = int(attrs["R"]); s = int(attrs["S"])
        stride = int(attrs.get("stride", 1)); pad = int(attrs.get("pad", 0))
        hout = (h + 2 * pad - r) // stride + 1
        wout = (w + 2 * pad - s) // stride + 1
        return (n, k * hout * wout)
    if opcode == "maxpool":
        n = int(attrs["N"]); c = int(attrs["C"])
        h = int(attrs["H"]); w = int(attrs["W"])
        r = int(attrs["R"]); s = int(attrs["S"])
        stride = int(attrs.get("stride", 1)); pad = int(attrs.get("pad", 0))
        hout = (h + 2 * pad - r) // stride + 1
        wout = (w + 2 * pad - s) // stride + 1
        return (n, c * hout * wout)
    if opcode in ("replace", "relu", "sigmoid", "tanh", "softmax", "dropout",
                  "exp", "log", "sqrt", "abs", "sign", "round", "recode",
                  "bin"):
        return in_shapes[0]
    if opcode == "quantile":
        return (1, in_shapes[0][1])
    # element-wise binary with broadcasting
    if len(in_shapes) == 2:
        a, b = in_shapes
        return (max(a[0], b[0]), max(a[1], b[1]))
    if in_shapes:
        return in_shapes[0]
    raise CompilationError(f"cannot infer shape of {opcode!r}")


class Hop:
    """One node of the expression DAG."""

    __slots__ = (
        "id", "kind", "opcode", "inputs", "attrs", "shape",
        "_handle_ref", "value", "placement", "bundle", "finalizer",
        "output_bytes", "__weakref__",
    )

    def __init__(self, kind: str, opcode: str, inputs: list["Hop"],
                 attrs: Optional[dict] = None,
                 shape: Optional[tuple[int, int]] = None,
                 handle: Optional["MatrixHandle"] = None,
                 value: object = None,
                 ids: Optional[IdSpace] = None) -> None:
        # sessions and handles pass their runtime's id space; hops built
        # by hand (tests, tools) number from the current context
        self.id = next((ids if ids is not None else current_runtime().ids).hop)
        self.kind = kind
        self.opcode = opcode
        self.inputs = inputs
        self.attrs = attrs or {}
        self._handle_ref = None if handle is None else ref(handle)
        self.value = value
        #: for data leaves: (lineage_item, payloads_dict) owned by the
        #: hop itself, so payload lifetime follows DAG reachability and
        #: never forms a handle <-> hop reference cycle.
        self.bundle: Optional[tuple] = None
        #: weakref finalizer releasing a GPU payload when this hop dies.
        self.finalizer = None
        if shape is not None:
            self.shape = shape
        elif kind == KIND_LITERAL:
            self.shape = (1, 1)
        else:
            self.shape = infer_shape(opcode, [h.shape for h in inputs], self.attrs)
        #: backend tag assigned by the placement pass ("CP"/"SP"/"GPU").
        self.placement: Optional[str] = None
        #: worst-case (dense) output size, ``matrix_bytes(*shape)``
        #: spelt inline: placement and the memory planner read it per
        #: hop, so it is a slot set once (shape is immutable after init)
        rows, cols = self.shape
        self.output_bytes = int((rows if rows >= 1 else 1)
                                * (cols if cols >= 1 else 1) * DOUBLE_BYTES)

    # -- handle binding (weak, so expression temporaries can die) -------------

    @property
    def handle(self) -> Optional["MatrixHandle"]:
        """The live handle denoting this hop's value, if any.

        Stored weakly: handles for expression temporaries (e.g. the
        ``X.t()`` inside ``X.t() @ X``) are garbage-collected as soon as
        user code drops them, so only results the program actually keeps
        get rebound after evaluation.
        """
        if self._handle_ref is None:
            return None
        return self._handle_ref()

    # -- estimates ---------------------------------------------------------------

    @property
    def memory_estimate(self) -> int:
        """Worst-case operation memory: inputs + output (dense)."""
        return self.output_bytes + sum(h.output_bytes for h in self.inputs)

    @property
    def flops(self) -> float:
        return op_flops(self.opcode, [h.shape for h in self.inputs], self.shape)

    def validate(self, raise_on_error: bool = True):
        """Structurally verify the DAG rooted here (``dag_verify`` pass).

        Convenience wrapper over :mod:`repro.analysis`: runs the
        ``dag_verify`` pass (cycles, dangling data leaves, shape
        consistency with :func:`infer_shape`, kind legality) and returns
        the resulting
        :class:`~repro.analysis.diagnostics.DiagnosticReport`.  With
        ``raise_on_error`` (default), error-severity findings raise
        :class:`~repro.common.errors.VerificationError` instead.
        """
        from repro.analysis import analyze, dag_verify
        from repro.common.errors import VerificationError

        report = analyze([self], passes=(dag_verify,))
        errors = report.errors()
        if raise_on_error and errors:
            raise VerificationError(
                f"invalid HOP DAG ({len(errors)} error(s)):\n"
                + "\n".join(d.format() for d in errors),
                report=report,
            )
        return report

    def __repr__(self) -> str:
        return (
            f"Hop#{self.id}({self.opcode}, {self.shape}, "
            f"{self.placement or 'unplaced'})"
        )


def data_hop(handle: "MatrixHandle", shape: tuple[int, int]) -> Hop:
    """Leaf hop bound to an already-evaluated handle."""
    return Hop(KIND_DATA, "data", [], shape=shape, handle=handle,
               ids=handle.session.ids)


def literal_hop(value: object, ids: Optional[IdSpace] = None) -> Hop:
    """Leaf hop for a scalar literal."""
    return Hop(KIND_LITERAL, "lit", [], value=value, ids=ids)


def op_hop(opcode: str, inputs: list[Hop], attrs: Optional[dict] = None,
           ids: Optional[IdSpace] = None) -> Hop:
    """Operator hop with inferred shape."""
    return Hop(KIND_OP, opcode, inputs, attrs=attrs, ids=ids)
