"""Tests for operator placement and interpreter exchange paths."""

import numpy as np
import pytest

from repro import MemphisConfig, Session
from repro.compiler.ir import op_hop
from repro.compiler.linearize import depth_first
from repro.core.entry import BACKEND_CP, BACKEND_GPU, BACKEND_SP
from repro.runtime.placement import (
    assign_placements,
    matmul_pattern,
    spark_supported,
)

RNG = np.random.default_rng(17)


def big_session():
    """Session where a modest matrix already exceeds operation memory."""
    cfg = MemphisConfig.memphis()
    cfg.cpu.operation_memory_bytes = 64 * 1024
    return Session(cfg)


class TestPlacementRules:
    def test_small_ops_stay_local(self):
        sess = Session(MemphisConfig.memphis())
        X = sess.read(RNG.random((10, 4)), "X")
        out = X.t() @ X
        assign_placements(depth_first([out.hop]), sess.config)
        assert out.hop.placement == BACKEND_CP

    def test_large_ops_go_to_spark(self):
        sess = big_session()
        X = sess.read(RNG.random((2000, 16)), "X")  # 256 KB > 64 KB
        out = X * 2.0
        assign_placements(depth_first([out.hop]), sess.config)
        assert out.hop.placement == BACKEND_SP

    def test_small_result_of_distributed_input_is_local(self):
        """A tiny weight update after a distributed op runs locally,
        bounding the lazy lineage of iterative algorithms."""
        sess = big_session()
        X = sess.read(RNG.random((2000, 8)), "X")
        w = sess.read(RNG.random((8, 1)), "w")
        grad = (X.t() @ (X @ w))  # distributed
        update = sess.read(RNG.random((8, 1)), "w2") - 0.1
        small = grad.sum()  # scalar of distributed input -> Spark action
        assign_placements(depth_first([small.hop, update.hop]),
                          sess.config)
        assert small.hop.placement == BACKEND_SP  # aggregate action
        assert update.hop.placement == BACKEND_CP

    def test_scalar_arithmetic_always_local(self):
        sess = big_session()
        X = sess.read(RNG.random((2000, 8)), "X")
        ratio = X.sum() / X.mean()
        assign_placements(depth_first([ratio.hop]), sess.config)
        assert ratio.hop.placement == BACKEND_CP

    def test_gpu_placement_when_enabled(self):
        cfg = MemphisConfig.memphis()
        cfg.gpu_enabled = True
        cfg.spark_enabled = False
        sess = Session(cfg)
        X = sess.read(RNG.random((64, 64)), "X")
        out = X @ X
        assign_placements(depth_first([out.hop]), sess.config)
        assert out.hop.placement == BACKEND_GPU

    def test_tiny_matrices_not_worth_gpu(self):
        cfg = MemphisConfig.memphis()
        cfg.gpu_enabled = True
        cfg.spark_enabled = False
        sess = Session(cfg)
        X = sess.read(RNG.random((4, 4)), "X")
        out = X @ X
        assign_placements(depth_first([out.hop]), sess.config)
        assert out.hop.placement == BACKEND_CP


class TestMatmulPatterns:
    def _hops(self, sess, left_shape, right_shape, transpose_left=False):
        left = sess.read(RNG.random(left_shape), "L")
        right = sess.read(RNG.random(right_shape), "R")
        lhop = left.hop
        if transpose_left:
            lhop = op_hop("r'", [lhop])
        return op_hop("ba+*", [lhop, right.hop]), left, right

    def test_tsmm_pattern(self):
        sess = big_session()
        X = sess.read(RNG.random((5000, 8)), "X")
        hop = op_hop("ba+*", [op_hop("r'", [X.hop]), X.hop])
        assert matmul_pattern(hop, sess.config) == "tsmm"

    def test_mapmm_pattern(self):
        sess = big_session()
        hop, *_ = self._hops(sess, (5000, 64), (64, 4))
        assert matmul_pattern(hop, sess.config) == "mapmm"

    def test_bcmm_pattern(self):
        sess = big_session()
        hop, *_ = self._hops(sess, (1, 5000), (5000, 64))
        assert matmul_pattern(hop, sess.config) == "bcmm"

    def test_cpmm_pattern(self):
        sess = big_session()
        cfg = sess.config
        # both sides bigger than the broadcast limit
        big = cfg.spark.driver_memory // 4 // 8 + 1024
        hop, *_ = self._hops(sess, (big, 4), (big, 4), transpose_left=True)
        assert matmul_pattern(hop, cfg) == "cpmm"

    def test_spark_supported_gates_on_pattern(self):
        sess = big_session()
        hop, *_ = self._hops(sess, (5000, 64), (64, 4))
        assert spark_supported(hop, sess.config)


class TestExchangePaths:
    def test_spark_to_gpu_roundtrip(self):
        cfg = MemphisConfig.memphis()
        cfg.gpu_enabled = True
        cfg.cpu.operation_memory_bytes = 64 * 1024
        sess = Session(cfg)
        data = RNG.random((2000, 16))
        X = sess.read(data, "X")
        # distributed elementwise, then a small local matmul that may
        # run on the GPU: exercises SP -> CP -> GPU conversion
        scaled = (X * 2.0).evaluate()
        assert BACKEND_SP in scaled.payloads
        small = scaled[0:32, :]
        out = (small @ small.t()).compute()
        assert np.allclose(out, (2 * data[:32]) @ (2 * data[:32]).T)

    def test_collected_copy_cached_for_action_reuse(self):
        sess = big_session()
        X = sess.read(RNG.random((2000, 16)), "X")
        scaled = (X * 3.0)
        first = scaled.compute()  # collect (a job)
        jobs = sess.stats.get("spark/jobs")
        again = (X * 3.0).compute()  # same lineage: no new job
        assert sess.stats.get("spark/jobs") == jobs
        assert np.allclose(first, again)

    def test_gpu_stale_pointer_falls_back_to_host_copy(self):
        cfg = MemphisConfig.memphis()
        cfg.gpu_enabled = True
        cfg.spark_enabled = False
        sess = Session(cfg)
        X = sess.read(RNG.random((64, 64)), "X")
        out = (X @ X).evaluate()
        gpu_payload = out.payloads.get(BACKEND_GPU)
        assert gpu_payload is not None
        # forcibly invalidate the pointer (simulates recycling)
        sess.gpu.memory.release(gpu_payload.ptr)
        sess.gpu.memory.empty_cache(1.0)
        assert gpu_payload.ptr.freed
        # consuming the handle re-uploads from the host shadow
        total = (out + 0.0).sum().item()
        assert np.isfinite(total)

    def test_broadcast_reused_not_recreated(self):
        sess = big_session()
        X = sess.read(RNG.random((4000, 16)), "X")
        B = sess.read(RNG.random((16, 2)), "B")
        (X @ B).compute()
        bcasts = sess.stats.get("spark/broadcasts")
        (X @ B).compute()  # reuse: no second broadcast of B
        assert sess.stats.get("spark/broadcasts") == bcasts


class TestFailedRun:
    def test_mid_block_error_releases_gpu_references(self):
        """A run that raises must not leave its acquired-pointer frame
        (and the execution references in it) behind."""
        cfg = MemphisConfig.memphis()
        cfg.gpu_enabled = True
        cfg.spark_enabled = False
        sess = Session(cfg)
        interp = sess.interpreter
        X = sess.read(RNG.random((64, 64)), "X")
        out = ((X @ X) + 1.0).relu()

        frames = []
        exec_gpu = interp._exec_gpu

        def failing_exec_gpu(hop, slot, in_slots, acquired, flops):
            if frames:
                raise RuntimeError("injected kernel failure")
            frames.append(acquired)
            exec_gpu(hop, slot, in_slots, acquired, flops)

        interp._exec_gpu = failing_exec_gpu
        with pytest.raises(RuntimeError, match="injected kernel failure"):
            out.compute()
        del interp._exec_gpu

        assert interp._acquired_stack == []
        acquired = frames[0]
        assert acquired, "the first GPU instruction acquired pointers"
        assert all(d.ptr.freed or d.ptr.ref_count == 0 for d in acquired)
        sess.arbiter.check()
        # the next block runs on a clean stack and leaves it clean
        assert np.isfinite(((X @ X) + 1.0).sum().item())
        assert interp._acquired_stack == []


class TestFusedTranspose:
    def test_tsmm_does_not_execute_standalone_transpose(self, rdd_names):
        sess = big_session()
        data = RNG.random((3000, 8))
        X = sess.read(data, "X")
        out = (X.t() @ X).compute()
        assert np.allclose(out, data.T @ data)
        # no full 8x3000 transpose was materialized as its own RDD
        assert "tsmm" in rdd_names
        assert "r'" not in rdd_names

    def test_tsmm_with_a_second_consumer_of_its_transpose(self, rdd_names):
        """The transpose is materialised for its other consumer; tsmm
        still reads ``X`` itself."""
        sess, data = tiny_spark_session(), TINY["X"]
        X = sess.read(data, "X")
        T = X.t()
        M, C = T @ X, T * 2.0
        sess.evaluate([M, C])
        assert "tsmm" in rdd_names
        np.testing.assert_allclose(M.compute(), data.T @ data)
        np.testing.assert_allclose(C.compute(), data.T * 2.0)

    def test_tsmm_and_cpmm_of_one_transpose_in_one_block(self, rdd_names):
        sess = tiny_spark_session()
        X, Y = sess.read(TINY["X"], "X"), sess.read(TINY["Y"], "Y")
        T = X.t()
        M, N = T @ X, T @ Y
        sess.evaluate([M, N])
        assert {"tsmm", "cpmm"} <= set(rdd_names)
        np.testing.assert_allclose(M.compute(), TINY["X"].T @ TINY["X"])
        np.testing.assert_allclose(N.compute(), TINY["X"].T @ TINY["Y"])

    def test_root_transpose_is_bound_by_its_block(self, rdd_names):
        """A transpose that is a root of its block is not trace-only,
        though its one consumer is a tsmm reading through it: the block
        binds it, and computing it compiles nothing more."""
        sess, data = tiny_spark_session(), TINY["X"]
        X = sess.read(data, "X")
        T = X.t()
        M = T @ X
        sess.evaluate([M, T])
        assert "tsmm" in rdd_names
        assert T.is_evaluated
        assert len(sess._plans) == 1
        np.testing.assert_allclose(T.compute(), data.T)
        np.testing.assert_allclose(M.compute(), data.T @ data)
        assert len(sess._plans) == 1

    def test_held_transpose_fused_then_read_on_cp_next_block(self):
        """Fusion is a decision of block 1's program: in block 2 the
        held ``T`` is an ordinary transpose for its CP consumer."""
        sess, data = tiny_spark_session(), TINY["X"]
        X = sess.read(data, "X")
        T = X.t()
        np.testing.assert_allclose((T @ X).compute(), data.T @ data)
        C = T * 2.0
        C.hop.placement = BACKEND_CP
        np.testing.assert_allclose(C.compute(), data.T * 2.0)


#: 22x3 operands over a 256 B operation budget in 8-row blocks (three
#: partitions): every matmul of them runs on Spark.
TINY = {name: np.random.default_rng(seed).random(shape) for name, seed, shape
        in (("X", 1, (22, 3)), ("Y", 2, (22, 3)),
            ("V", 3, (22, 1)), ("W", 4, (1, 3)))}


def tiny_spark_session():
    cfg = MemphisConfig.memphis()
    cfg.spark.block_size_rows = 8
    cfg.cpu.operation_memory_bytes = 256
    return Session(cfg)


def _held(pattern, leaves):
    """``(T, M, T_np, M_np)``: the held operand ``T`` and the Spark
    matmul ``M`` reading it — the transpose of tsmm/cpmm, the broadcast
    side of mapmm/bcmm."""
    X, Y, V, W = (leaves[k] for k in "XYVW")
    x, y, v, w = (TINY[k] for k in "XYVW")
    if pattern == "tsmm":
        T = X.t()
        return T, T @ X, x.T, x.T @ x
    if pattern == "cpmm":
        T = X.t()
        return T, T @ Y, x.T, x.T @ y
    if pattern == "mapmm":
        T = W.t()
        return T, X @ T, w.T, x @ w.T
    T = V.t()
    return T, T @ X, v.T, v.T @ x


class TestHeldOperand:
    """A held operand of each Spark matmul pattern with a second
    consumer on CP or Spark — in the matmul's block, in the next block,
    or itself a root of the matmul's block — reads what numpy reads."""

    @pytest.mark.parametrize("where", ["same", "next", "root"])
    @pytest.mark.parametrize("backend", [BACKEND_CP, BACKEND_SP])
    @pytest.mark.parametrize("pattern", ["tsmm", "cpmm", "mapmm", "bcmm"])
    def test_second_consumer_reads_the_held_operand(self, pattern, backend,
                                                    where, rdd_names):
        sess = tiny_spark_session()
        leaves = {k: sess.read(v, k) for k, v in TINY.items()}
        T, M, t_np, m_np = _held(pattern, leaves)
        if where == "root":
            T.hop.placement = backend
            sess.evaluate([M, T])
            second, want = T, t_np
        else:
            second, want = T * 2.0, t_np * 2.0
            second.hop.placement = backend
            if where == "same":
                sess.evaluate([M, second])
            else:
                M.compute()
        np.testing.assert_allclose(M.compute(), m_np)
        np.testing.assert_allclose(second.compute(), want)
        assert pattern in rdd_names
