"""Tests for the Spark simulator: RDDs, scheduler, memory, broadcast."""

import hashlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MemphisConfig, Session
from repro.backends.spark import SPARK_OPCODES, SparkBackend, SparkContext
from repro.backends.spark.backend import _stack_rows
from repro.common.config import SparkConfig, StorageLevel
from repro.common.runtime import scope
from repro.common.simclock import CLUSTER, HOST, SimClock
from repro.common.stats import (
    MEM_RESERVE_FAILURES,
    PREFETCH_ISSUED,
    SPARK_JOBS,
    Stats,
)
from repro.core.entry import BACKEND_SP
from repro.memory import REGION_SPARK_STORAGE
from repro.obs import ExplainCollector
from repro.runtime.interpreter import Interpreter
from repro.runtime.placement import matmul_pattern
from repro.runtime.values import MatrixValue


@pytest.fixture()
def ctx():
    cfg = SparkConfig(block_size_rows=100)
    return SparkContext(cfg, SimClock(), Stats())


@pytest.fixture()
def sb(ctx):
    return SparkBackend(ctx)


def _mat(rows, cols, seed=0):
    return MatrixValue(np.random.default_rng(seed).random((rows, cols)))


class TestRddBasics:
    def test_parallelize_partitions(self, ctx):
        rdd = ctx.parallelize(np.ones((250, 4)))
        assert rdd.num_partitions == 3  # 100+100+50

    def test_transformations_are_lazy(self, ctx):
        rdd = ctx.parallelize(np.ones((250, 4)))
        rdd.map_blocks(lambda b: b * 2, "double")
        assert ctx.stats.get("spark/jobs") == 0

    def test_collect_triggers_one_job(self, ctx):
        rdd = ctx.parallelize(np.ones((250, 4)))
        out = ctx.collect(rdd.map_blocks(lambda b: b * 2, "double"))
        assert np.allclose(out, 2.0)
        assert ctx.stats.get("spark/jobs") == 1

    def test_collect_advances_host_clock(self, ctx):
        rdd = ctx.parallelize(np.ones((500, 10)))
        ctx.collect(rdd)
        assert ctx.clock.now(HOST) > 0
        assert ctx.clock.now(CLUSTER) > 0

    def test_zip_requires_alignment(self, ctx):
        a = ctx.parallelize(np.ones((200, 2)))
        b = ctx.parallelize(np.ones((300, 2)))
        with pytest.raises(ValueError):
            a.map_blocks(lambda x, y: x + y, "+", zip_with=b)

    def test_count(self, ctx):
        rdd = ctx.parallelize(np.ones((250, 4)))
        assert ctx.count(rdd) == 250

    def test_async_collect_future(self, ctx):
        rdd = ctx.parallelize(np.ones((250, 4)))
        future = ctx.collect_async(rdd)
        # host has not advanced to job completion yet
        assert ctx.clock.now(HOST) < future.ready_time
        out = future.wait()
        assert out.shape == (250, 4)
        assert ctx.clock.now(HOST) >= future.ready_time


class TestJobLanes:
    def test_concurrent_jobs_overlap(self, ctx):
        rdd1 = ctx.parallelize(np.ones((1000, 50)))
        rdd2 = ctx.parallelize(np.ones((1000, 50)))
        f1 = ctx.collect_async(rdd1.map_blocks(lambda b: b + 1, "a"))
        f2 = ctx.collect_async(rdd2.map_blocks(lambda b: b + 1, "b"))
        # second job did not start after the first ended (lanes overlap)
        assert f2.ready_time < 2 * f1.ready_time


class TestDistributedOps:
    def test_tsmm(self, sb):
        x = _mat(500, 8)
        out = sb.collect(sb.tsmm(sb.distribute(x)))
        assert np.allclose(out.data, x.data.T @ x.data)

    def test_mapmm(self, sb):
        x, b = _mat(300, 10), _mat(10, 3, seed=1)
        bc = sb.broadcast(b)
        out = sb.collect(sb.mapmm(sb.distribute(x), bc, 3))
        assert np.allclose(out.data, x.data @ b.data)

    def test_bcmm_left(self, sb):
        x, v = _mat(350, 6), _mat(1, 350, seed=2)
        out = sb.collect(sb.bcmm_left(sb.broadcast(v), 1, sb.distribute(x)))
        assert np.allclose(out.data, v.data @ x.data)

    def test_cpmm(self, sb):
        a, b = _mat(400, 5), _mat(400, 7, seed=3)
        out = sb.collect(sb.cpmm(sb.distribute(a), sb.distribute(b)))
        assert np.allclose(out.data, a.data.T @ b.data)

    def test_transpose(self, sb):
        x = _mat(250, 30)
        out = sb.collect(sb.transpose(sb.distribute(x)))
        assert np.allclose(out.data, x.data.T)

    def test_elementwise_zip_scalar_broadcast(self, sb):
        x = _mat(220, 5)
        dx = sb.distribute(x)
        assert np.allclose(
            sb.collect(sb.cellwise("*", dx, dx)).data, x.data**2
        )
        assert np.allclose(
            sb.collect(sb.cellwise("+", dx, 1.0)).data, x.data + 1
        )

    def test_elementwise_broadcast_vector(self, sb):
        x, v = _mat(220, 5), _mat(1, 5, seed=4)
        out = sb.collect(sb.cellwise(
            "-", sb.distribute(x), sb.broadcast(v)
        ))
        assert np.allclose(out.data, x.data - v.data)

    def test_unary(self, sb):
        x = _mat(150, 4)
        out = sb.collect(sb.blockwise("exp", sb.distribute(x), 4))
        assert np.allclose(out.data, np.exp(x.data))

    def test_aggregates(self, sb):
        x = _mat(330, 6)
        dx = sb.distribute(x)
        assert np.allclose(sb.collect(sb.blockwise("uark+", dx, 1)).data,
                           x.data.sum(1, keepdims=True))

    def test_aggregate_actions_on_spark(self):
        """``uak+`` / ``uack+`` of a distributed input run as Spark
        actions (the interpreter's one definition) and equal numpy."""
        cfg = MemphisConfig.memphis()
        cfg.cpu.operation_memory_bytes = 64 * 1024
        sess = Session(cfg)
        x = np.random.default_rng(0).random((2000, 16))  # 256 KB > 64 KB
        X = sess.read(x, "X")
        total, cols = X.sum(), X.col_sums()
        hops = [total.hop, cols.hop]
        sess.evaluate([total, cols])
        assert [hop.placement for hop in hops] == [BACKEND_SP, BACKEND_SP]
        assert np.isclose(total.item(), x.sum())
        assert np.allclose(cols.compute(), x.sum(0, keepdims=True))

    def test_rbind(self, sb):
        a, b = _mat(120, 3), _mat(80, 3, seed=9)
        out = sb.collect(sb.rbind(sb.distribute(a), sb.distribute(b)))
        assert np.allclose(out.data, np.vstack([a.data, b.data]))


BLOCK_ROWS = 8
ROWS = 3 * BLOCK_ROWS - 2  # three row blocks: 8 + 8 + 6


def _ints(rows, cols, seed):
    """Small positive integers: every sum, product and dot product is
    exact, so a different fold order cannot change a bit."""
    rng = np.random.default_rng(seed)
    return rng.integers(1, 9, (rows, cols)).astype(np.float64)


def _run(build, spark, asynchronous=False):
    """Evaluate ``build(sess, X, Y, c, v)``'s root on Spark (placement
    forced, so the dispatcher picks the operand form) or on CP."""
    cfg = MemphisConfig.base(enable_async_ops=asynchronous)
    cfg.spark_enabled = spark
    cfg.spark.block_size_rows = BLOCK_ROWS
    # every ROWS x 3 operand is "distributed" for the matmul patterns
    cfg.cpu.operation_memory_bytes = 256
    sess = Session(cfg)
    leaves = [sess.read(_ints(ROWS, 3, 0), "X"),
              sess.read(_ints(ROWS, 3, 1), "Y"),
              sess.read(_ints(ROWS, 1, 2), "c"),
              sess.read(_ints(1, 3, 3), "v")]
    out = build(sess, *leaves)
    if spark:
        out.hop.placement = BACKEND_SP
    return out.compute(), sess


def _op(opcode, *operands, **attrs):
    def build(sess, X, Y, c, v):
        env = {"X": X, "Y": Y, "c": c, "v": v}
        hops = [env[o].hop if isinstance(o, str) else sess.scalar(o).hop
                for o in operands]
        return sess.op(opcode, hops, attrs or None)
    return build


def _opcodes(*kinds):
    return sorted(op for op, kind in SPARK_OPCODES.items() if kind in kinds)


#: operand form -> (operands, suffix of the RDD the form builds, the
#: physical operator lowering picks)
CELLWISE_FORMS = {
    "scalar_right": (("X", 3.0), "s", "scalar_right"),
    "scalar_left": ((3.0, "X"), "s", "scalar_left"),
    "zip": (("X", "Y"), "", "zip"),
    "zip_column_right": (("X", "c"), "", "zip"),
    "zip_column_left": (("c", "X"), "", "zip"),
    "broadcast_right": (("X", "v"), "bc", "broadcast_right"),
    "broadcast_left": (("v", "X"), "bc", "broadcast_left"),
}


class TestPlacementInvariance:
    """SP ≡ CP by construction: every opcode of the Spark table, in every
    operand form lowering selects, evaluated over three row blocks
    equals the CP evaluation bit for bit.  The block's lowered program
    carries the physical operator, its runtime EXPLAIN line names it,
    and running it derives no matmul pattern: the operator is chosen at
    compile time only."""

    @pytest.fixture(autouse=True)
    def _record(self, rdd_names, monkeypatch):
        self.rdd_names = rdd_names
        # matmul_pattern calls so far; (program, calls made inside) per run
        self.patterns = [0]
        self.runs = []
        pattern, run = matmul_pattern, Interpreter.run

        def counted(*args):
            self.patterns[0] += 1
            return pattern(*args)

        def recorded(interp, order, program):
            before = self.patterns[0]
            slots = run(interp, order, program)
            self.runs.append((program, self.patterns[0] - before))
            return slots

        for module in list(sys.modules.values()):  # every importer
            if getattr(module, "__dict__", {}).get("matmul_pattern") \
                    is pattern:
                monkeypatch.setattr(module, "matmul_pattern", counted)
        monkeypatch.setattr(Interpreter, "run", recorded)

    def _check(self, build, rdd_name, operator, asynchronous=False):
        expected, _ = _run(build, spark=False)
        del self.runs[:]
        with scope(explain=ExplainCollector()) as rt:
            actual, sess = _run(build, spark=True, asynchronous=asynchronous)
        assert sess.stats.get(SPARK_JOBS) > 0
        if rdd_name is not None:
            assert rdd_name in self.rdd_names
        assert actual.shape == expected.shape
        assert np.array_equal(actual, expected)
        # one block, one root: the root is the last instruction
        [(program, patterns_at_run_time)] = self.runs
        assert program[-1][7] == operator
        assert f" SP {operator} " in rt.explain.render(level="runtime")
        assert patterns_at_run_time == 0
        return sess

    @pytest.mark.parametrize("form", sorted(CELLWISE_FORMS))
    @pytest.mark.parametrize("opcode", _opcodes("cellwise"))
    def test_cellwise(self, opcode, form):
        operands, suffix, operator = CELLWISE_FORMS[form]
        self._check(_op(opcode, *operands), opcode + suffix, operator)

    @pytest.mark.parametrize("opcode", _opcodes("blockwise", "row_aggregate"))
    def test_blockwise(self, opcode):
        attrs = {"pattern": 3.0, "replacement": -1.0} \
            if opcode == "replace" else {}
        self._check(_op(opcode, "X", **attrs), opcode, SPARK_OPCODES[opcode])

    @pytest.mark.parametrize("asynchronous", [False, True],
                             ids=["sync", "async"])
    @pytest.mark.parametrize("opcode", _opcodes("action"))
    def test_action(self, opcode, asynchronous):
        sess = self._check(_op(opcode, "X"), None,
                           "async_action" if asynchronous else "action",
                           asynchronous=asynchronous)
        assert (sess.stats.get(PREFETCH_ISSUED) > 0) == asynchronous

    @pytest.mark.parametrize("rows, cols, rdd_name, operator", [
        (slice(2, 17), slice(None), "sliceRows", "slice_rows"),
        (slice(None), slice(1, 3), "rightIndex", "slice_cols"),
        (slice(2, 17), slice(1, 3), "sliceRows", "slice_both"),
        (slice(None), slice(None), None, "slice_none"),
    ], ids=["rows", "columns", "rows_and_columns", "whole"])
    def test_right_index(self, rows, cols, rdd_name, operator):
        self._check(lambda sess, X, *_: X[rows, cols], rdd_name, operator)

    def test_transpose(self):
        self._check(lambda sess, X, *_: X.t(), "r'", "transpose")

    def test_rbind(self):
        self._check(lambda sess, X, Y, *_: sess.rbind(X, Y), "rbind",
                    "rbind")

    @pytest.mark.parametrize("pattern", ["tsmm", "cpmm", "mapmm", "bcmm"])
    def test_matmul(self, pattern):
        build = {
            "tsmm": lambda sess, X, *_: X.t() @ X,
            "cpmm": lambda sess, X, Y, *_: X.t() @ Y,
            "mapmm": lambda sess, X, *_: X @ sess.read(_ints(3, 2, 4)),
            "bcmm": lambda sess, X, *_: sess.read(_ints(1, ROWS, 5)) @ X,
        }[pattern]

        def checked(sess, *leaves):
            out = build(sess, *leaves)
            assert matmul_pattern(out.hop, sess.config) == pattern
            return out

        self._check(checked, pattern, pattern)
        assert self.patterns[0] > 0  # the count sees placement's calls

    def test_matmul_of_two_dropped_leaves_is_not_tsmm(self):
        """``t(A) %*% B`` whose leaves nothing else references: both
        weakly held handles are gone before compile, and the pattern must
        still tell ``A`` from ``B``."""
        cfg = MemphisConfig.base()
        cfg.spark.block_size_rows = BLOCK_ROWS
        cfg.cpu.operation_memory_bytes = 256  # both inputs distributed
        sess = Session(cfg)
        a, b = _ints(ROWS, 3, 0), _ints(ROWS, 3, 1)
        out = (sess.read(a).t() @ sess.read(b)).compute()
        assert sess.stats.get(SPARK_JOBS) > 0
        assert np.array_equal(out, a.T @ b)

    def test_every_spark_opcode_is_covered(self):
        covered = set(_opcodes("cellwise", "blockwise", "row_aggregate",
                               "action")) | {"rightIndex", "r'", "rbind",
                                             "ba+*"}
        assert covered == set(SPARK_OPCODES)
        assert len(SPARK_OPCODES) == 35


class TestReblockingViews:
    """Row slices and ``rbind`` of a Spark-placed parallelized matrix
    copy no cells: a re-blocked partition whose rows are consecutive in
    the driver matrix is a read-only view of it."""

    BS = 1000
    N = 9 * BS + 517  # ten row blocks, the last one short
    A, B = 2345, 6789  # not block-aligned

    def _driver(self):
        return np.random.default_rng(5).random((self.N, 16))

    def _session_result(self, x, spark, build):
        cfg = MemphisConfig.base()
        cfg.spark_enabled = spark
        cfg.spark.block_size_rows = self.BS
        cfg.cpu.operation_memory_bytes = 256  # every operand distributed
        sess = Session(cfg)
        out = build(sess, sess.read(x, "X"))
        if spark:
            out.hop.placement = BACKEND_SP
        result = out.compute()
        assert (sess.stats.get(SPARK_JOBS) > 0) == spark
        return result

    @pytest.mark.parametrize("op", ["slice", "rbind"])
    def test_spark_result_byte_equal_to_cp(self, op):
        a, b, n = self.A, self.B, self.N
        build = {
            "slice": lambda sess, X: X[a:b, :],
            "rbind": lambda sess, X: sess.rbind(X[0:a, :], X[b:n, :]),
        }[op]
        x = self._driver()
        expected = self._session_result(x, False, build)
        actual = self._session_result(x, True, build)
        assert actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()

    def test_partitions_are_views_of_the_driver_matrix(self):
        a, b, n, bs = self.A, self.B, self.N, self.BS
        x = self._driver()
        digest = hashlib.sha1(x.tobytes()).hexdigest()
        ctx = SparkContext(SparkConfig(block_size_rows=bs), SimClock(), Stats())
        sb = SparkBackend(ctx)
        dx = sb.distribute(MatrixValue(x))
        sliced = sb.slice_rows(dx, a, b)
        tracemalloc.start()
        try:
            parts = ctx.run_job(sliced.rdd)[0].partitions
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert allocated < bs * x.shape[1] * x.itemsize
        assert np.vstack(parts).tobytes() == x[a:b].tobytes()
        assert all(np.shares_memory(p, x) for p in parts)
        for p in parts[:-1]:  # each stacks rows of two driver blocks
            with pytest.raises(ValueError):
                p[0, 0] = -1.0

        rbound = sb.rbind(sb.slice_rows(dx, 0, a), sb.slice_rows(dx, b, n))
        parts = ctx.run_job(rbound.rdd)[0].partitions
        assert np.vstack(parts).tobytes() == np.vstack([x[:a], x[b:]]).tobytes()
        copies = [i for i, p in enumerate(parts) if not np.shares_memory(p, x)]
        assert copies == [a // bs]  # the one block straddling the seam
        with pytest.raises(ValueError):
            parts[-2][0, 0] = -1.0
        assert hashlib.sha1(x.tobytes()).hexdigest() == digest


@st.composite
def _row_cuts(draw):
    """A C-contiguous float64 base and the rows between sorted cuts."""
    rows, cols = draw(st.integers(1, 300)), draw(st.integers(1, 12))
    buf = np.random.default_rng(draw(st.integers(0, 2**16))).random(rows * cols)
    cuts = sorted(draw(st.sets(st.integers(0, rows), min_size=2, max_size=12)))
    base = buf.reshape(rows, cols)
    return buf, [base[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


class TestStackRows:
    """``_stack_rows`` (the reduce side of ``slice_rows`` / ``rbind``)
    against ``np.vstack``: a view only when the pieces tile one buffer."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_row_cuts())
    def test_consecutive_rows_are_a_read_only_view(self, case):
        buf, pieces = case
        out = _stack_rows(pieces)
        expected = np.vstack(pieces)
        assert (out.shape, out.dtype) == (expected.shape, expected.dtype)
        assert out.tobytes() == expected.tobytes()
        assert np.shares_memory(out, buf)
        if len(pieces) == 1:
            assert out is pieces[0]
            return
        assert out.base is buf and not out.flags.writeable
        half = out.shape[0] // 2
        if half:  # a re-block of re-blocked output is a view too
            assert _stack_rows([out[:half], out[half:]]).base is buf

    @staticmethod
    def _fallbacks(buf, rows, cols):
        """Pieces that share ``buf`` (or not) but do not tile it."""
        base, cut = buf.reshape(rows, cols), rows // 2
        return {
            "gap": [base[:cut], base[cut + 1:]],
            "overlap": [base[:cut], base[cut - 1:]],
            "two_bases": [base[:cut], base.copy()[cut:]],
            # byte-adjacent, but each piece has its own base array
            "two_adjacent_bases": [
                np.frombuffer(half).reshape(-1, cols)
                for half in (memoryview(buf)[:cut * cols],
                             memoryview(buf)[cut * cols:])],
            # starts at the byte the first piece ends, but F-ordered
            "f_ordered": [base[:cut],
                          buf[cut * cols:].reshape(cols, rows - cut).T],
            "dtype": [base[:cut], base[cut:].view(np.int64)],
        }

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(4, 300), st.integers(2, 12),
           st.sampled_from(["gap", "overlap", "two_bases",
                            "two_adjacent_bases", "f_ordered", "dtype"]))
    def test_anything_else_is_a_fresh_copy(self, rows, cols, kind):
        buf = np.random.default_rng(rows * cols).random(rows * cols)
        pieces = self._fallbacks(buf, rows, cols)[kind]
        out = _stack_rows(pieces)
        expected = np.vstack(pieces)
        assert (out.shape, out.dtype) == (expected.shape, expected.dtype)
        assert out.tobytes() == expected.tobytes()
        assert not any(np.shares_memory(out, p) for p in pieces)

    def test_different_column_counts_are_not_viewed(self):
        """Byte-adjacent pieces of one buffer, 2x3 then 3x2: no view is
        built over them; ``np.vstack`` refuses them as it always did."""
        buf = np.arange(12.0)
        with pytest.raises(ValueError):
            _stack_rows([buf[:6].reshape(2, 3), buf[6:].reshape(3, 2)])

    def test_single_piece_is_returned_as_is(self):
        piece = np.ones((3, 2))
        assert _stack_rows([piece]) is piece


class TestPersistence:
    def test_persist_is_lazy(self, ctx):
        rdd = ctx.parallelize(np.ones((250, 4))).persist()
        info = ctx.block_manager.rdd_storage_info(rdd.id, rdd.num_partitions)
        assert info["num_cached_partitions"] == 0

    def test_materialized_after_job(self, ctx):
        rdd = ctx.parallelize(np.ones((250, 4))) \
            .map_blocks(lambda b: b + 1, "inc").persist()
        ctx.collect(rdd)
        info = ctx.block_manager.rdd_storage_info(rdd.id, rdd.num_partitions)
        assert info["fully_cached"]

    def test_cached_partitions_skip_recompute(self, ctx):
        calls = []

        def fn(b):
            calls.append(1)
            return b + 1

        rdd = ctx.parallelize(np.ones((250, 4))).map_blocks(fn, "inc").persist()
        ctx.collect(rdd)
        first = len(calls)
        ctx.collect(rdd)
        assert len(calls) == first  # served from cache

    def test_unpersist_drops_partitions(self, ctx):
        rdd = ctx.parallelize(np.ones((250, 4))) \
            .map_blocks(lambda b: b, "id").persist()
        ctx.collect(rdd)
        rdd.unpersist()
        info = ctx.block_manager.rdd_storage_info(rdd.id, rdd.num_partitions)
        assert info["num_cached_partitions"] == 0

    @staticmethod
    def _full_storage():
        """A context whose storage region (40000*0.6*0.5 = 12000 B) is
        exactly filled by one MEMORY_ONLY RDD of three 100x5 partitions
        (4000 B each)."""
        cfg = SparkConfig(block_size_rows=100, num_executors=1,
                          executor_memory=40_000)
        ctx = SparkContext(cfg, SimClock(), Stats())
        first = ctx.parallelize(np.ones((300, 5))) \
            .map_blocks(lambda b: b * 2, "a").persist(StorageLevel.MEMORY_ONLY)
        ctx.collect(first)
        region = ctx.block_manager.arbiter.region(REGION_SPARK_STORAGE)
        assert (region.used, region.capacity) == (12_000, 12_000)
        return ctx, first

    def test_full_storage_spills_or_refuses_new_partitions(self):
        """Nothing is evicted to make room: a new MEMORY_AND_DISK
        partition goes to disk, a new MEMORY_ONLY one is not stored,
        and each costs one failed reservation."""
        ctx, first = self._full_storage()
        bm = ctx.block_manager
        spilled = ctx.parallelize(np.ones((100, 5))) \
            .map_blocks(lambda b: b + 1, "b") \
            .persist(StorageLevel.MEMORY_AND_DISK)
        ctx.collect(spilled)
        assert ctx.stats.get(MEM_RESERVE_FAILURES) == 1
        assert ctx.stats.get("spark/partitions_spilled") == 1
        assert bm.rdd_storage_info(spilled.id, 1)["disk_bytes"] == 4000
        refused = ctx.parallelize(np.ones((100, 5))) \
            .map_blocks(lambda b: b + 3, "c") \
            .persist(StorageLevel.MEMORY_ONLY)
        out = ctx.collect(refused)
        assert ctx.stats.get(MEM_RESERVE_FAILURES) == 2
        assert bm.rdd_storage_info(refused.id, 1)["num_cached_partitions"] == 0
        info = bm.rdd_storage_info(first.id, first.num_partitions)
        assert info["fully_cached"] and info["memory_bytes"] == 12_000
        # the refused RDD is recomputed from lineage, to the same bytes
        again = ctx.collect(refused)
        assert ctx.stats.get("spark/partitions_recomputed") == 1
        assert again.tobytes() == out.tobytes()
        ctx.block_manager.arbiter.check()

    def test_evicted_partition_recomputed(self):
        """A MEMORY_ONLY partition refused by full storage memory is
        recomputed from lineage on every access."""
        ctx, first = self._full_storage()
        second = ctx.parallelize(np.ones((300, 5))) \
            .map_blocks(lambda b: b * 3, "b").persist(StorageLevel.MEMORY_ONLY)
        assert np.allclose(ctx.collect(second), 3.0)  # nothing stored
        out = ctx.collect(second)  # recomputes every partition
        assert np.allclose(out, 3.0)
        assert ctx.stats.get("spark/partitions_recomputed") == 3
        assert np.allclose(ctx.collect(first), 2.0)  # still resident

    def test_memory_and_disk_spills(self):
        cfg = SparkConfig(block_size_rows=100, num_executors=1,
                          executor_memory=40_000)
        ctx = SparkContext(cfg, SimClock(), Stats())
        a = ctx.parallelize(np.ones((300, 4))) \
            .map_blocks(lambda b: b, "a").persist(StorageLevel.MEMORY_AND_DISK)
        ctx.collect(a)
        b = ctx.parallelize(np.ones((300, 4))) \
            .map_blocks(lambda b: b, "b").persist(StorageLevel.MEMORY_AND_DISK)
        ctx.collect(b)
        assert ctx.stats.get("spark/partitions_spilled") > 0
        # no partitions lost: both still fully readable
        assert np.allclose(ctx.collect(a), 1.0)


class TestShuffleFiles:
    def test_shuffle_files_reused_across_jobs(self, sb, ctx):
        x = _mat(500, 8)
        mm = sb.tsmm(sb.distribute(x))
        sb.collect(mm)
        tasks_before = ctx.stats.get("spark/tasks")
        sb.collect(mm)  # map side skipped: shuffle files retained
        delta = ctx.stats.get("spark/tasks") - tasks_before
        assert delta == 1  # only the single reduce/result task
        assert ctx.stats.get("spark/shuffle_files_reused") >= 1


class TestBroadcast:
    def test_driver_memory_retained_until_destroy(self, ctx):
        bc = ctx.broadcast(np.ones((100, 100)))
        assert ctx.driver_retained_bytes == 80_000
        bc.destroy()
        assert ctx.driver_retained_bytes == 0

    def test_use_after_destroy_raises(self, ctx, sb):
        x = _mat(300, 10)
        b = _mat(10, 2, seed=5)
        bc = sb.broadcast(b)
        out = sb.mapmm(sb.distribute(x), bc, 2)
        bc.destroy()
        with pytest.raises(RuntimeError):
            sb.collect(out)

    def test_chunking(self, ctx):
        bc = ctx.broadcast(np.ones((1024, 1024)))  # 8 MB -> 2 chunks
        assert bc.num_chunks == 2
