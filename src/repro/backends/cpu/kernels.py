"""Numpy kernel library: the operator set of the host ML system.

Every opcode is a pure function of its inputs and attributes; randomized
kernels take an explicit seed attribute, so results are deterministic
given the lineage (the property that makes lineage-keyed reuse safe).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.common.errors import BackendError
from repro.runtime.values import MatrixValue, ScalarValue, Value, as_matrix, make_value

_KERNELS: dict[str, Callable[..., Value]] = {}


def kernel(opcode: str):
    """Register ``fn`` as the implementation of ``opcode``."""

    def deco(fn):
        _KERNELS[opcode] = fn
        return fn

    return deco


def supported_opcodes() -> set[str]:
    """All opcodes with a registered CPU kernel."""
    return set(_KERNELS)


def execute(opcode: str, inputs: list[Value], attrs: dict) -> Value:
    """Execute ``opcode`` on ``inputs`` with ``attrs`` and return the value."""
    fn = _KERNELS.get(opcode)
    if fn is None:
        raise BackendError(f"no CPU kernel for opcode {opcode!r}")
    return fn(inputs, attrs)


def _binary_args(inputs: list[Value]) -> tuple[np.ndarray | float, np.ndarray | float, bool]:
    """Unpack binary operands; scalars stay python floats for broadcasting."""
    v0, v1 = inputs
    s0 = isinstance(v0, ScalarValue)
    s1 = isinstance(v1, ScalarValue)
    a = v0.as_float() if s0 else v0.data
    b = v1.as_float() if s1 else v1.data
    return a, b, s0 and s1


def _make_binary(op):
    def fn(inputs: list[Value], attrs: dict) -> Value:
        a, b, both_scalar = _binary_args(inputs)
        out = op(a, b)
        if both_scalar:
            return ScalarValue(float(out))
        return MatrixValue(np.asarray(out, dtype=np.float64))

    return fn


#: cell-wise binary opcodes -> numpy ufuncs.  Shared with the Spark
#: backend, which folds per-block aggregate partials with these entries.
BINARY_UFUNCS: dict[str, Callable] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
    "min": np.minimum,
    "max": np.maximum,
    ">": np.greater,
    "<": np.less,
    ">=": np.greater_equal,
    "<=": np.less_equal,
    "==": np.equal,
}

for _code, _op in BINARY_UFUNCS.items():
    _KERNELS[_code] = _make_binary(_op)


def _make_unary(op, scalar_ok=True):
    def fn(inputs: list[Value], attrs: dict) -> Value:
        v = inputs[0]
        if isinstance(v, ScalarValue):
            return ScalarValue(float(op(v.as_float())))
        return MatrixValue(op(v.data))

    return fn


#: cell-wise unary opcodes -> numpy ufuncs (see :data:`BINARY_UFUNCS`).
UNARY_UFUNCS: dict[str, Callable] = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sign": np.sign,
    "round": np.round,
    "tanh": np.tanh,
}

for _code, _op in UNARY_UFUNCS.items():
    _KERNELS[_code] = _make_unary(_op)


@kernel("sigmoid")
def _sigmoid(inputs, attrs):
    return MatrixValue(1.0 / (1.0 + np.exp(-as_matrix(inputs[0]))))


@kernel("relu")
def _relu(inputs, attrs):
    return MatrixValue(np.maximum(as_matrix(inputs[0]), 0.0))


@kernel("softmax")
def _softmax(inputs, attrs):
    x = as_matrix(inputs[0])
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return MatrixValue(e / e.sum(axis=1, keepdims=True))


@kernel("dropout")
def _dropout(inputs, attrs):
    x = as_matrix(inputs[0])
    rate = float(attrs.get("rate", 0.5))
    rng = np.random.default_rng(int(attrs.get("seed", 0)))
    mask = (rng.random(x.shape) >= rate) / max(1.0 - rate, 1e-12)
    return MatrixValue(x * mask)


@kernel("ba+*")
def _matmul(inputs, attrs):
    a, b = as_matrix(inputs[0]), as_matrix(inputs[1])
    return MatrixValue(a @ b)


@kernel("r'")
def _transpose(inputs, attrs):
    return MatrixValue(as_matrix(inputs[0]).T.copy())


@kernel("solve")
def _solve(inputs, attrs):
    a, b = as_matrix(inputs[0]), as_matrix(inputs[1])
    # least-squares fall-back keeps singular systems well-defined,
    # matching SystemDS's regularized direct solvers.
    try:
        out = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.linalg.lstsq(a, b, rcond=None)[0]
    return MatrixValue(out)


# ---------------------------------------------------------------- aggregates

@kernel("uak+")
def _sum(inputs, attrs):
    return ScalarValue(float(as_matrix(inputs[0]).sum()))


@kernel("uark+")
def _rowsums(inputs, attrs):
    return MatrixValue(as_matrix(inputs[0]).sum(axis=1, keepdims=True))


@kernel("uack+")
def _colsums(inputs, attrs):
    return MatrixValue(as_matrix(inputs[0]).sum(axis=0, keepdims=True))


@kernel("uamean")
def _mean(inputs, attrs):
    return ScalarValue(float(as_matrix(inputs[0]).mean()))


@kernel("uarmean")
def _rowmeans(inputs, attrs):
    return MatrixValue(as_matrix(inputs[0]).mean(axis=1, keepdims=True))


@kernel("uacmean")
def _colmeans(inputs, attrs):
    return MatrixValue(as_matrix(inputs[0]).mean(axis=0, keepdims=True))


@kernel("uamax")
def _amax(inputs, attrs):
    return ScalarValue(float(as_matrix(inputs[0]).max()))


@kernel("uamin")
def _amin(inputs, attrs):
    return ScalarValue(float(as_matrix(inputs[0]).min()))


@kernel("uacmax")
def _colmax(inputs, attrs):
    return MatrixValue(as_matrix(inputs[0]).max(axis=0, keepdims=True))


@kernel("uacmin")
def _colmin(inputs, attrs):
    return MatrixValue(as_matrix(inputs[0]).min(axis=0, keepdims=True))


@kernel("uarmax")
def _rowmax(inputs, attrs):
    return MatrixValue(as_matrix(inputs[0]).max(axis=1, keepdims=True))


@kernel("uarimax")
def _rowargmax(inputs, attrs):
    x = as_matrix(inputs[0])
    return MatrixValue((np.argmax(x, axis=1) + 1.0).reshape(-1, 1))


# --------------------------------------------------------- data generation

@kernel("rand")
def _rand(inputs, attrs):
    rows = int(attrs["rows"])
    cols = int(attrs["cols"])
    lo = float(attrs.get("min", 0.0))
    hi = float(attrs.get("max", 1.0))
    sparsity = float(attrs.get("sparsity", 1.0))
    seed = int(attrs.get("seed", 0))
    pdf = attrs.get("pdf", "uniform")
    if lo == hi and math.isfinite(lo) and sparsity >= 1.0 and pdf != "normal":
        # a constant fill (``eye``'s ones): ``random()·0 + lo`` without
        # the RNG; ``+ 0.0`` maps -0.0 to +0.0 as that sum does
        return MatrixValue(np.full((rows, cols), lo + 0.0))
    rng = np.random.default_rng(seed)
    if pdf == "normal":
        out = rng.standard_normal((rows, cols))
    else:
        out = rng.random((rows, cols)) * (hi - lo) + lo
    if sparsity < 1.0:
        mask = rng.random((rows, cols)) < sparsity
        out = out * mask
    return MatrixValue(out)


@kernel("seq")
def _seq(inputs, attrs):
    start = float(attrs["from"])
    stop = float(attrs["to"])
    step = float(attrs.get("incr", 1.0))
    n = int(np.floor((stop - start) / step)) + 1
    return MatrixValue((start + step * np.arange(max(n, 0))).reshape(-1, 1))


# ------------------------------------------------------------ reorg / index

@kernel("rightIndex")
def _right_index(inputs, attrs):
    x = as_matrix(inputs[0])
    rl = int(attrs.get("rl", 1)) - 1
    ru = int(attrs.get("ru", x.shape[0]))
    cl = int(attrs.get("cl", 1)) - 1
    cu = int(attrs.get("cu", x.shape[1]))
    return MatrixValue(x[rl:ru, cl:cu].copy())


@kernel("cbind")
def _cbind(inputs, attrs):
    return MatrixValue(np.hstack([as_matrix(v) for v in inputs]))


@kernel("rbind")
def _rbind(inputs, attrs):
    return MatrixValue(np.vstack([as_matrix(v) for v in inputs]))


@kernel("diag")
def _diag(inputs, attrs):
    x = as_matrix(inputs[0])
    if x.shape[1] == 1:
        return MatrixValue(np.diagflat(x))
    return MatrixValue(np.diag(x).reshape(-1, 1))


@kernel("replace")
def _replace(inputs, attrs):
    x = as_matrix(inputs[0]).copy()
    pattern = float(attrs.get("pattern", np.nan))
    replacement = float(attrs.get("replacement", 0.0))
    if np.isnan(pattern):
        x[np.isnan(x)] = replacement
    else:
        x[x == pattern] = replacement
    return MatrixValue(x)


@kernel("table")
def _table(inputs, attrs):
    """Contingency table / one-hot: table(seq, codes) -> indicator matrix."""
    rows = as_matrix(inputs[0]).ravel().astype(np.int64)
    cols = as_matrix(inputs[1]).ravel().astype(np.int64)
    nrow = int(attrs.get("rows", rows.max() if rows.size else 1))
    ncol = int(attrs.get("cols", cols.max() if cols.size else 1))
    out = np.zeros((nrow, ncol))
    np.add.at(out, (rows - 1, cols - 1), 1.0)
    return MatrixValue(out)


# -------------------------------------------------------------------- DNN

def _conv_shapes(attrs):
    n = int(attrs["N"]); c = int(attrs["C"]); h = int(attrs["H"]); w = int(attrs["W"])
    k = int(attrs["K"]); r = int(attrs["R"]); s = int(attrs["S"])
    stride = int(attrs.get("stride", 1))
    pad = int(attrs.get("pad", 0))
    hout = (h + 2 * pad - r) // stride + 1
    wout = (w + 2 * pad - s) // stride + 1
    return n, c, h, w, k, r, s, stride, pad, hout, wout


def _windows(x, pad, fill, hout, wout, r, s, stride):
    """The ``(N, C, Hout, Wout, R, S)`` window view of NCHW ``x`` padded
    by ``pad`` cells of ``fill`` (into one C-contiguous buffer, which the
    ``np.ndarray`` constructor needs, so a strided ``x`` is copied too)."""
    n, c, h, w = x.shape
    if pad or not x.flags.c_contiguous:
        shape = (n, c, h + 2 * pad, w + 2 * pad)
        buf = np.zeros(shape, x.dtype) if fill == 0 \
            else np.full(shape, fill, x.dtype)
        buf[:, :, pad:pad + h, pad:pad + w] = x
        x = buf
    s0, s1, s2, s3 = x.strides
    return np.ndarray((n, c, hout, wout, r, s), x.dtype, x, 0,
                      (s0, s1, s2 * stride, s3 * stride, s2, s3))


@kernel("conv2d")
def _conv2d(inputs, attrs):
    """2-D convolution on linearized NCHW matrices (SystemDS layout).

    ``inputs[0]``: N x (C*H*W) image matrix; ``inputs[1]``: K x (C*R*S)
    filter matrix.  Output: N x (K*Hout*Wout), one im2col GEMM.
    """
    n, c, h, w, k, r, s, stride, pad, hout, wout = _conv_shapes(attrs)
    x = as_matrix(inputs[0]).reshape(n, c, h, w)
    f = as_matrix(inputs[1]).reshape(k, c * r * s)
    cols = _windows(x, pad, 0.0, hout, wout, r, s, stride)
    cols = cols.transpose(0, 2, 3, 1, 4, 5).reshape(n * hout * wout, c * r * s)
    out = cols @ f.T  # (N*Hout*Wout) x K
    out = out.reshape(n, hout, wout, k).transpose(0, 3, 1, 2)
    return MatrixValue(out.reshape(n, k * hout * wout))


@kernel("maxpool")
def _maxpool(inputs, attrs):
    """2x2 (or RxS) max pooling on linearized NCHW matrices."""
    n, c, h, w, _, r, s, stride, pad, hout, wout = _conv_shapes(
        {**attrs, "K": attrs.get("K", attrs["C"])}
    )
    x = as_matrix(inputs[0]).reshape(n, c, h, w)
    out = _windows(x, pad, -np.inf, hout, wout, r, s, stride).max(axis=(4, 5))
    return MatrixValue(out.reshape(n, c * hout * wout))


@kernel("fed_tsmm")
def _fed_tsmm(inputs, attrs):
    """Per-site partial of a federated transpose-self multiply."""
    x = as_matrix(inputs[0])
    return MatrixValue(x.T @ x)


@kernel("recode")
def _recode(inputs, attrs):
    """Dictionary-encode each column: values map to dense 1-based codes.

    Codes are assigned in sorted value order, so the encoding is a pure
    function of the input (deterministic, lineage-reusable).
    """
    x = as_matrix(inputs[0])
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        uniq, codes = np.unique(x[:, j], return_inverse=True)
        out[:, j] = codes + 1.0
    return MatrixValue(out)


@kernel("bin")
def _bin(inputs, attrs):
    """Equi-width binning into ``num_bins`` 1-based bin ids per column."""
    x = as_matrix(inputs[0])
    num_bins = int(attrs.get("num_bins", 10))
    lo = x.min(axis=0, keepdims=True)
    hi = x.max(axis=0, keepdims=True)
    width = np.where(hi > lo, (hi - lo) / num_bins, 1.0)
    ids = np.floor((x - lo) / width) + 1.0
    return MatrixValue(np.clip(ids, 1, num_bins))


@kernel("quantile")
def _quantile(inputs, attrs):
    """Column-wise quantile at probability ``p`` (linear interpolation)."""
    x = as_matrix(inputs[0])
    p = float(attrs.get("p", 0.5))
    return MatrixValue(np.quantile(x, p, axis=0, keepdims=True))
