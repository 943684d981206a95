"""Runtime value types: matrices and scalars.

The host system is a linear-algebra ML system (SystemDS-style): every
intermediate is a dense double-precision matrix or a scalar.  Frames
(categorical data) are encoded as matrices after recoding, matching how
the paper's pipelines integer-encode categorical features.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.common.costs import DOUBLE_BYTES

_FLOAT64 = np.dtype(np.float64)


class MatrixValue:
    """A dense 2-D double matrix with cached metadata."""

    __slots__ = ("data", "nbytes")

    def __init__(self, data: np.ndarray) -> None:
        if not (data.__class__ is np.ndarray and data.dtype is _FLOAT64
                and data.ndim == 2):  # what ``np.asarray`` would return
            data = np.asarray(data, dtype=np.float64)
            if data.ndim == 1:
                data = data.reshape(-1, 1)
            if data.ndim != 2:
                raise ValueError(
                    f"matrices must be 2-D, got shape {data.shape}")
        self.data = data
        shape = data.shape
        #: worst-case dense size (``s(o)`` of the eviction policies), set
        #: once: a matrix value's array is never rebound
        self.nbytes: int = shape[0] * shape[1] * DOUBLE_BYTES

    @property
    def nrow(self) -> int:
        return self.data.shape[0]

    @property
    def ncol(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    def copy(self) -> "MatrixValue":
        return MatrixValue(self.data.copy())

    def __repr__(self) -> str:
        return f"MatrixValue({self.nrow}x{self.ncol})"


class ScalarValue:
    """A scalar (float, int, bool, or string) runtime value."""

    __slots__ = ("value",)

    def __init__(self, value: Union[float, int, bool, str]) -> None:
        self.value = value

    @property
    def nbytes(self) -> int:
        return 8 if not isinstance(self.value, str) else len(self.value)

    @property
    def shape(self) -> tuple[int, int]:
        return (1, 1)

    def as_float(self) -> float:
        return float(self.value)  # type: ignore[arg-type]

    def __repr__(self) -> str:
        return f"ScalarValue({self.value!r})"


Value = Union[MatrixValue, ScalarValue]


def as_matrix(value: Value) -> np.ndarray:
    """Numpy view of a value (scalars become 1x1 matrices)."""
    if isinstance(value, MatrixValue):
        return value.data
    return np.full((1, 1), value.as_float())


def make_value(raw: object) -> Value:
    """Wrap a numpy array or python scalar into a runtime value."""
    if isinstance(raw, (MatrixValue, ScalarValue)):
        return raw
    if isinstance(raw, np.ndarray):
        return MatrixValue(raw)
    if isinstance(raw, (float, int, bool, np.floating, np.integer, str)):
        if isinstance(raw, (np.floating,)):
            return ScalarValue(float(raw))
        if isinstance(raw, (np.integer,)):
            return ScalarValue(int(raw))
        return ScalarValue(raw)
    raise TypeError(f"cannot convert {type(raw)!r} to a runtime value")


def value_bytes(value: Value) -> int:
    """Size estimate of any runtime value."""
    return value.nbytes
