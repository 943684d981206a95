"""Tests for the CPU kernels and backend."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.backends.cpu import CpuBackend, kernels
from repro.common.config import CpuConfig, MemphisConfig
from repro.common.costs import op_flops
from repro.common.errors import BackendError
from repro.common.simclock import SimClock
from repro.common.stats import SERVER_SCOPED_KEYS, Stats
from repro.core.session import Session
from repro.core.substrate import Substrate
from repro.lineage.item import OP_DATA
from repro.runtime.values import MatrixValue, ScalarValue


def run(opcode, inputs, attrs=None):
    return kernels.execute(opcode, inputs, attrs or {})


def mat(arr):
    return MatrixValue(np.asarray(arr, dtype=float))


class TestKernels:
    def test_binary_matrix_matrix(self):
        out = run("+", [mat([[1, 2]]), mat([[3, 4]])])
        assert np.allclose(out.data, [[4, 6]])

    def test_binary_matrix_scalar(self):
        out = run("*", [mat([[1, 2]]), ScalarValue(3.0)])
        assert np.allclose(out.data, [[3, 6]])

    def test_binary_scalar_scalar(self):
        out = run("+", [ScalarValue(1.0), ScalarValue(2.0)])
        assert isinstance(out, ScalarValue)
        assert out.value == 3.0

    def test_comparison_yields_indicator(self):
        out = run(">", [mat([[1, 5]]), ScalarValue(2.0)])
        assert np.allclose(out.data, [[0, 1]])

    def test_matmul(self):
        a, b = np.arange(6).reshape(2, 3), np.arange(12).reshape(3, 4)
        out = run("ba+*", [mat(a), mat(b)])
        assert np.allclose(out.data, a @ b)

    def test_transpose(self):
        out = run("r'", [mat([[1, 2], [3, 4]])])
        assert np.allclose(out.data, [[1, 3], [2, 4]])

    def test_solve(self):
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        b = np.array([[2.0], [8.0]])
        out = run("solve", [mat(a), mat(b)])
        assert np.allclose(out.data, [[1.0], [2.0]])

    def test_solve_singular_falls_back_to_lstsq(self):
        a = np.ones((2, 2))
        b = np.array([[2.0], [2.0]])
        out = run("solve", [mat(a), mat(b)])
        assert np.allclose(a @ out.data, b)

    def test_aggregates(self):
        m = mat([[1, 2], [3, 4]])
        assert run("uak+", [m]).value == 10.0
        assert np.allclose(run("uark+", [m]).data, [[3], [7]])
        assert np.allclose(run("uack+", [m]).data, [[4, 6]])
        assert run("uamean", [m]).value == 2.5
        assert run("uamax", [m]).value == 4.0
        assert run("uamin", [m]).value == 1.0

    def test_row_argmax_one_indexed(self):
        out = run("uarimax", [mat([[1, 9, 2], [8, 1, 1]])])
        assert np.allclose(out.data, [[2], [1]])

    def test_rand_deterministic_by_seed(self):
        attrs = {"rows": 4, "cols": 3, "seed": 7}
        a = run("rand", [], attrs)
        b = run("rand", [], attrs)
        assert np.allclose(a.data, b.data)
        c = run("rand", [], {**attrs, "seed": 8})
        assert not np.allclose(a.data, c.data)

    def test_rand_range_and_sparsity(self):
        out = run("rand", [], {"rows": 100, "cols": 10, "min": 2, "max": 3,
                               "seed": 1, "sparsity": 0.5})
        nonzero = out.data[out.data != 0]
        assert ((nonzero >= 2) & (nonzero <= 3)).all()
        assert 0.3 < (out.data != 0).mean() < 0.7

    def test_seq(self):
        out = run("seq", [], {"from": 1, "to": 5, "incr": 2})
        assert np.allclose(out.data, [[1], [3], [5]])

    def test_right_index_one_based(self):
        m = mat(np.arange(20).reshape(4, 5))
        out = run("rightIndex", [m], {"rl": 2, "ru": 3, "cl": 1, "cu": 2})
        assert np.allclose(out.data, [[5, 6], [10, 11]])

    def test_cbind_rbind(self):
        a, b = mat([[1], [2]]), mat([[3], [4]])
        assert run("cbind", [a, b]).shape == (2, 2)
        assert run("rbind", [a, b]).shape == (4, 1)

    def test_table_one_hot(self):
        rows = mat([[1], [2], [3]])
        codes = mat([[2], [1], [2]])
        out = run("table", [rows, codes], {"rows": 3, "cols": 2})
        assert np.allclose(out.data, [[0, 1], [1, 0], [0, 1]])

    def test_replace_nan(self):
        m = mat([[1, np.nan], [np.nan, 4]])
        out = run("replace", [m], {"pattern": float("nan"), "replacement": 0})
        assert np.allclose(out.data, [[1, 0], [0, 4]])

    def test_softmax_rows_sum_to_one(self):
        out = run("softmax", [mat(np.random.default_rng(0).random((5, 4)))])
        assert np.allclose(out.data.sum(axis=1), 1.0)

    def test_dropout_deterministic_and_scaled(self):
        m = mat(np.ones((100, 100)))
        a = run("dropout", [m], {"rate": 0.5, "seed": 3})
        b = run("dropout", [m], {"rate": 0.5, "seed": 3})
        assert np.allclose(a.data, b.data)
        # inverted dropout preserves expectation
        assert abs(a.data.mean() - 1.0) < 0.05

    def test_conv2d_matches_direct(self):
        rng = np.random.default_rng(0)
        n, c, h, w, k, r, s = 2, 3, 8, 8, 4, 3, 3
        x = rng.random((n, c, h, w))
        f = rng.random((k, c, r, s))
        out = run("conv2d", [mat(x.reshape(n, -1)), mat(f.reshape(k, -1))],
                  {"N": n, "C": c, "H": h, "W": w, "K": k, "R": r, "S": s})
        # direct convolution reference
        hout = wout = h - r + 1
        ref = np.zeros((n, k, hout, wout))
        for i in range(hout):
            for j in range(wout):
                patch = x[:, :, i:i + r, j:j + s].reshape(n, -1)
                ref[:, :, i, j] = patch @ f.reshape(k, -1).T
        assert np.allclose(out.data, ref.reshape(n, -1))

    def test_maxpool(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = run("maxpool", [mat(x.reshape(1, -1))],
                  {"N": 1, "C": 1, "H": 4, "W": 4, "R": 2, "S": 2, "stride": 2})
        assert np.allclose(out.data, [[5, 7, 13, 15]])

    def test_unknown_opcode_raises(self):
        with pytest.raises(BackendError):
            run("frobnicate", [mat([[1]])])


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                               min_side=1, max_side=8),
                  elements=st.floats(-100, 100)))
def test_property_transpose_involution(arr):
    once = run("r'", [mat(arr)])
    twice = run("r'", [once])
    assert np.allclose(twice.data, arr)


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, (4, 4), elements=st.floats(-10, 10)))
def test_property_relu_idempotent(arr):
    once = run("relu", [mat(arr)])
    twice = run("relu", [once])
    assert np.allclose(once.data, twice.data)
    assert (once.data >= 0).all()


def _old_windows(x, pad, fill, hout, wout, r, s, stride):
    """The ``np.pad`` + ``as_strided`` formulation the DNN kernels had,
    kept as the byte-equality oracle."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                   constant_values=fill)
    strides = (x.strides[0], x.strides[1], x.strides[2] * stride,
               x.strides[3] * stride, x.strides[2], x.strides[3])
    return np.lib.stride_tricks.as_strided(
        x, (x.shape[0], x.shape[1], hout, wout, r, s), strides)


def _old_conv2d(x, f, n, c, h, w, k, r, s, stride, pad, hout, wout):
    x = x.reshape(n, c, h, w)
    f = f.reshape(k, c * r * s)
    cols = _old_windows(x, pad, 0.0, hout, wout, r, s, stride)
    cols = cols.transpose(0, 2, 3, 1, 4, 5).reshape(n * hout * wout, c * r * s)
    out = (cols @ f.T).reshape(n, hout, wout, k).transpose(0, 3, 1, 2)
    return out.reshape(n, k * hout * wout)


def _old_maxpool(x, n, c, h, w, r, s, stride, pad, hout, wout):
    windows = _old_windows(x.reshape(n, c, h, w), pad, -np.inf, hout, wout,
                           r, s, stride)
    return windows.max(axis=(4, 5)).reshape(n, c * hout * wout)


@st.composite
def _dnn_case(draw):
    """A conv/pool geometry (non-square images, stride 1-3, pad 0-2), an
    image matrix that is a strided view (a column slice or a transpose),
    and filters."""
    n, c, k = (draw(st.integers(1, 3)) for _ in range(3))
    r, s = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    stride, pad = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    h = draw(st.integers(max(r - 2 * pad, 1), 9))
    w = draw(st.integers(max(s - 2 * pad, 1), 9))
    cells = st.floats(-100, 100, width=64)
    if draw(st.booleans()):  # every other column of a wider matrix
        x = draw(hnp.arrays(np.float64, (n, 2 * c * h * w), elements=cells))
        x = x[:, ::2]
    else:  # the transpose of a (C*H*W) x N matrix
        x = draw(hnp.arrays(np.float64, (c * h * w, n), elements=cells)).T
    f = draw(hnp.arrays(np.float64, (k, c * r * s), elements=cells))
    attrs = {"N": n, "C": c, "H": h, "W": w, "K": k, "R": r, "S": s,
             "stride": stride, "pad": pad}
    return x, f, attrs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_dnn_case())
def test_property_dnn_kernels_byte_equal_to_pad_and_as_strided(case):
    x, f, attrs = case
    geometry = kernels._conv_shapes(attrs)
    n, c, h, w, k, r, s, stride, pad, hout, wout = geometry
    conv = run("conv2d", [MatrixValue(x), mat(f)], attrs)
    assert conv.data.tobytes() == _old_conv2d(x, f, *geometry).tobytes()
    pool = run("maxpool", [MatrixValue(x)], attrs)
    assert pool.data.tobytes() == _old_maxpool(
        x, n, c, h, w, r, s, stride, pad, hout, wout).tobytes()


def _old_rand(rows, cols, lo, hi, sparsity, seed, pdf):
    """``rand`` as every fill once drew it: seeded RNG, then the mask."""
    rng = np.random.default_rng(seed)
    if pdf == "normal":
        out = rng.standard_normal((rows, cols))
    else:
        out = rng.random((rows, cols)) * (hi - lo) + lo
    if sparsity < 1.0:
        out = out * (rng.random((rows, cols)) < sparsity)
    return out


def _rand_and_rng_use(rows, cols, lo, hi, sparsity, seed, pdf):
    """The kernel's fill bytes, and whether it built a generator."""
    attrs = {"rows": rows, "cols": cols, "min": lo, "max": hi,
             "sparsity": sparsity, "seed": seed, "pdf": pdf}
    with mock.patch.object(np.random, "default_rng",
                           wraps=np.random.default_rng) as rng:
        out = run("rand", [], attrs)
    expected = _old_rand(rows, cols, lo, hi, sparsity, seed, pdf)
    assert out.data.dtype == expected.dtype
    assert out.data.tobytes() == expected.tobytes()
    return rng.called


_DIMS = st.integers(1, 40)
_SEEDS = st.integers(0, 2 ** 32 - 1)
#: finite constants: signed zeros, subnormals, the extremes, anything
_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                     1e300, -1e300, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_DIMS, _DIMS, _FINITE, _SEEDS)
def test_property_constant_fill_byte_equal_to_rng_formula(rows, cols, lo,
                                                          seed):
    assert not _rand_and_rng_use(rows, cols, lo, lo, 1.0, seed, "uniform")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_DIMS, _DIMS, _SEEDS, st.one_of(
    # non-finite constants: inf - inf is NaN, so the RNG sum decides
    st.tuples(st.sampled_from([np.inf, -np.inf, np.nan]), st.just(1.0),
              st.just("uniform")),
    # a sparse constant draws its mask from the same generator
    st.tuples(_FINITE, st.floats(0.0, 1.0, exclude_max=True),
              st.just("uniform")),
    st.tuples(_FINITE, st.just(1.0), st.just("normal")),
))
def test_property_rand_keeps_rng_path_off_the_constant_fill(rows, cols,
                                                            seed, case):
    lo, sparsity, pdf = case
    assert _rand_and_rng_use(rows, cols, lo, lo, sparsity, seed, pdf)


#: fill bounds: signed zeros, NaN, the infinities and two finite values
_BOUNDS = st.sampled_from([0.0, -0.0, 1.0, -2.5, math.inf, -math.inf,
                           math.nan])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_BOUNDS, _BOUNDS, st.sampled_from([0.0, 0.5, 1.0, 2.0]),
       st.sampled_from(["uniform", "normal"]),
       st.lists(_SEEDS, min_size=2, max_size=2, unique=True))
def test_property_constant_fill_iff_bytes_free_of_the_seed(lo, hi, sparsity,
                                                           pdf, seeds):
    """``constant_fill`` holds exactly when two seeds give one value.

    A fill the predicate rejects draws from its generator, and the draws
    show in its bytes unless the fill absorbs every one of them (``inf -
    inf`` or NaN spreads, a zero constant or an empty mask), leaving no
    finite non-zero entry.  A shared substrate reads the predicate off
    the lineage item the runtime traced, and must read what the kernel
    does: it scopes the key exactly when the predicate fails.
    """
    attrs = {"rows": 8, "cols": 8, "min": lo, "max": hi,
             "sparsity": sparsity, "pdf": pdf}
    sub = Substrate.shared_substrate(MemphisConfig.server_session())
    session = Session(MemphisConfig.server_session(), substrate=sub)
    with np.errstate(invalid="ignore"):  # inf - inf, NaN · False
        first, second = (run("rand", [], dict(attrs, seed=seed)).data
                         for seed in seeds)
        session.compute(session.rand(**attrs, seed=seeds[0]))
    constant = kernels.constant_fill(attrs)
    assert sub.stats.get(SERVER_SCOPED_KEYS) == (0 if constant else 1)
    if constant:
        assert first.tobytes() == second.tobytes()
    else:
        assert first.tobytes() != second.tobytes() \
            or not (np.isfinite(first) & (first != 0.0)).any()


def test_shared_substrate_shares_the_constant_chain_only(
        cross_session_keys):
    """Two sessions on one shared substrate solve ``G + r·eye(n)`` over
    different data: the constant fill, its ``diag`` and ``r·I`` are
    computed once and hit across sessions, nothing that reads ``G`` is.
    A seeded ``min != max`` rand and an unseeded rand stay scoped."""
    sub = Substrate.shared_substrate(MemphisConfig.server_session())

    def ridge(offset, substrate=None):
        session = Session(MemphisConfig.server_session(),
                          substrate=substrate)
        G = session.read(np.eye(4) * 4.0 + offset, f"G{offset}")
        b = session.read(np.arange(4.0).reshape(4, 1), "b")
        return session, session.compute(
            session.solve(G + 0.5 * session.eye(4), b))

    for offset in (1.0, 2.0):
        session, result = ridge(offset, sub)
        assert np.array_equal(result, ridge(offset)[1])  # as a private one
    assert sorted(key.opcode for key in cross_session_keys) == \
        ["*", "diag", "rand"]
    assert not [node for key in cross_session_keys
                for node in key.iter_dag() if node.opcode == OP_DATA]
    assert sub.stats.get(SERVER_SCOPED_KEYS) == 0
    for draw in ({}, {"seed": 3}, {"min": 1.0, "max": 1.0, "sparsity": 0.5,
                                  "seed": 3}):
        scoped = sub.stats.get(SERVER_SCOPED_KEYS)
        session.compute(session.rand(4, 4, **draw))
        assert sub.stats.get(SERVER_SCOPED_KEYS) == scoped + 1


def _matmul_charge(n: int) -> tuple[float, int]:
    """The lowered ``(flops, nbytes)`` of an ``n x n`` matmul."""
    return op_flops("ba+*", [(n, n), (n, n)], (n, n)), 3 * n * n * 8


class TestCpuBackend:
    def test_charges_time(self):
        clock, stats = SimClock(), Stats()
        backend = CpuBackend(CpuConfig(), clock, stats)
        backend.execute("+", [mat([[1]]), mat([[2]])], {},
                        op_flops("+", [(1, 1), (1, 1)], (1, 1)), 3 * 8)
        assert clock.now() > 0
        assert stats.get("runtime/instructions_executed") == 1

    def test_bigger_ops_cost_more(self):
        clock, stats = SimClock(), Stats()
        backend = CpuBackend(CpuConfig(), clock, stats)
        a = mat(np.ones((500, 500)))
        backend.execute("ba+*", [a, a], {}, *_matmul_charge(500))
        t1 = clock.now()
        big = mat(np.ones((1000, 1000)))
        backend.execute("ba+*", [big, big], {}, *_matmul_charge(1000))
        assert clock.now() - t1 > t1
