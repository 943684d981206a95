"""Integration tests for the Session: end-to-end reuse across backends."""

import numpy as np
import pytest

from repro import MemphisConfig, ReuseMode, Session
from repro.core.entry import BACKEND_CP


RNG = np.random.default_rng(7)


@pytest.fixture()
def sess():
    return Session(MemphisConfig.memphis())


class TestBasicEvaluation:
    def test_scalar_math(self, sess):
        x = sess.read(np.array([[1.0, 2.0], [3.0, 4.0]]), "x")
        assert x.sum().item() == 10.0
        assert x.mean().item() == 2.5

    def test_expression_chain(self, sess):
        x = sess.read(np.full((4, 4), 2.0), "x")
        out = ((x * 3 + 1).sqrt()).compute()
        assert np.allclose(out, np.sqrt(7.0))

    def test_matmul_transpose_solve(self, sess):
        a = RNG.random((20, 6))
        b = RNG.random((20, 1))
        X = sess.read(a, "X")
        y = sess.read(b, "y")
        beta = sess.solve(X.t() @ X, (y.t() @ X).t())
        expect = np.linalg.solve(a.T @ a, a.T @ b)
        assert np.allclose(beta.compute(), expect)

    def test_indexing(self, sess):
        m = np.arange(20, dtype=float).reshape(4, 5)
        X = sess.read(m, "X")
        assert np.allclose(X[1:3, 0:2].compute(), m[1:3, 0:2])

    def test_rand_seeded_deterministic(self, sess):
        a = sess.rand(10, 5, seed=3).compute()
        b = sess.rand(10, 5, seed=3).compute()
        assert np.allclose(a, b)

    def test_rand_unseeded_unique(self, sess):
        a = sess.rand(10, 5).compute()
        b = sess.rand(10, 5).compute()
        assert not np.allclose(a, b)

    def test_eye_and_diag(self, sess):
        assert np.allclose(sess.eye(3).compute(), np.eye(3))

    def test_cbind_rbind(self, sess):
        a = sess.read(np.ones((3, 2)), "a")
        b = sess.read(np.zeros((3, 1)), "b")
        assert sess.cbind(a, b).compute().shape == (3, 3)

    def test_comparison_ops(self, sess):
        x = sess.read(np.array([[1.0, 5.0]]), "x")
        assert np.allclose((x > 2).compute(), [[0, 1]])


class TestReuseCorrectness:
    def test_hit_matches_recomputation(self):
        """Every cache hit must produce exactly the recomputed value."""
        data = RNG.random((50, 8))
        mph = Session(MemphisConfig.memphis())
        base = Session(MemphisConfig.base())
        for sess_ in (mph, base):
            X = sess_.read(data, "X")
            for i in range(4):
                out = ((X.t() @ X) * 2.0).exp().sum()
                sess_.evaluate([out])
        expect = np.exp(2.0 * (data.T @ data)).sum()
        Xm = mph.read(data, "X")
        assert np.isclose(((Xm.t() @ Xm) * 2.0).exp().sum().item(), expect)
        assert mph.stats.get("cache/hits") > 0

    def test_repeated_block_skips_instructions(self, sess):
        X = sess.read(RNG.random((30, 5)), "X")
        for _ in range(3):
            (X.t() @ X).sum().compute()
        assert sess.stats.get("runtime/instructions_skipped") > 0

    def test_no_reuse_across_different_inputs(self, sess):
        a = sess.read(RNG.random((10, 3)), "a")
        b = sess.read(RNG.random((10, 3)), "b")
        ra = (a.t() @ a).sum().item()
        rb = (b.t() @ b).sum().item()
        assert not np.isclose(ra, rb)

    def test_base_mode_never_probes(self):
        sess = Session(MemphisConfig.base())
        X = sess.read(RNG.random((10, 3)), "X")
        for _ in range(3):
            (X.t() @ X).sum().compute()
        assert sess.stats.get("cache/probes") == 0
        assert sess.stats.get("cache/hits") == 0

    def test_trace_only_traces_without_probing(self):
        cfg = MemphisConfig.base()
        cfg.reuse_mode = ReuseMode.TRACE_ONLY
        sess = Session(cfg)
        X = sess.read(RNG.random((10, 3)), "X")
        (X.t() @ X).sum().compute()
        assert sess.stats.get("lineage/items_traced") > 0
        assert sess.stats.get("cache/probes") == 0

    def test_probe_only_never_caches(self):
        cfg = MemphisConfig.base()
        cfg.reuse_mode = ReuseMode.PROBE_ONLY
        sess = Session(cfg)
        X = sess.read(RNG.random((10, 3)), "X")
        for _ in range(3):
            (X.t() @ X).sum().compute()
        assert sess.stats.get("cache/probes") > 0
        assert sess.stats.get("cache/hits") == 0

    def test_cse_within_dag(self, sess):
        X = sess.read(RNG.random((10, 3)), "X")
        g = X.t() @ X
        out = (g + g).sum()  # same sub-DAG used twice
        before = sess.stats.get("runtime/instructions_executed")
        out.compute()
        executed = sess.stats.get("runtime/instructions_executed") - before
        # tsmm executed once despite two references
        assert executed <= 5


class TestFunctionReuse:
    def test_function_hit_skips_body(self, sess):
        calls = []

        @sess.function("fit")
        def fit(X, reg):
            calls.append(1)
            return sess.solve(X.t() @ X + sess.eye(X.ncol) * reg,
                              (X.t() @ X).col_sums().t())

        X = sess.read(RNG.random((20, 4)), "X")
        a = fit(X, 0.1).compute()
        b = fit(X, 0.1).compute()
        assert np.allclose(a, b)
        assert len(calls) == 1
        assert sess.stats.get("cache/function_hits") == 1

    def test_function_different_args_reruns(self, sess):
        calls = []

        @sess.function("f2")
        def f2(X, reg):
            calls.append(1)
            return X * reg

        X = sess.read(np.ones((4, 4)), "X")
        f2(X, 1.0).compute()
        f2(X, 2.0).compute()
        assert len(calls) == 2

    def test_function_tuple_outputs(self, sess):
        @sess.function("split")
        def split(X):
            return X * 2, X * 3

        X = sess.read(np.ones((3, 3)), "X")
        a1, b1 = split(X)
        a2, b2 = split(X)
        assert np.allclose(a2.compute(), 2.0)
        assert np.allclose(b2.compute(), 3.0)
        assert sess.stats.get("cache/function_hits") == 1

    def test_nondeterministic_function_not_reused(self, sess):
        calls = []

        @sess.function("noise", deterministic=False)
        def noise(X):
            calls.append(1)
            return X + 1

        X = sess.read(np.ones((3, 3)), "X")
        noise(X)
        noise(X)
        assert len(calls) == 2

    def test_helix_mode_only_function_reuse(self):
        sess = Session(MemphisConfig.helix())

        @sess.function("g")
        def g(X):
            return (X.t() @ X).sum()

        X = sess.read(RNG.random((10, 3)), "X")
        g(X)
        g(X)
        assert sess.stats.get("cache/function_hits") == 1
        # no operator-level caching happened
        assert sess.cache.cached_count(BACKEND_CP) == 1  # just the function

    def test_operator_only_mode_disables_function_reuse(self):
        sess = Session(MemphisConfig.memphis_fine_only())
        calls = []

        @sess.function("h")
        def h(X):
            calls.append(1)
            return X * 2

        X = sess.read(np.ones((3, 3)), "X")
        h(X)
        h(X)
        assert len(calls) == 2


class TestRecompute:
    def test_serialize_recompute_roundtrip(self, sess):
        data = RNG.random((15, 4))
        X = sess.read(data, "X")
        out = (X.t() @ X).exp().sum()
        expect = out.item()
        log = sess.serialize_lineage(out)
        # recompute in a fresh session (different environment)
        fresh = Session(MemphisConfig.base())
        result = fresh.recompute(log, inputs={"X": data})
        assert np.isclose(float(result[0, 0]), expect)

    def test_recompute_with_rand(self, sess):
        out = sess.rand(6, 6, seed=11).sum()
        expect = out.item()
        log = sess.serialize_lineage(out)
        fresh = Session(MemphisConfig.memphis())
        assert np.isclose(float(fresh.recompute(log)[0, 0]), expect)

    def test_recompute_missing_input_raises(self, sess):
        X = sess.read(np.ones((3, 3)), "X")
        log = sess.serialize_lineage((X * 2).sum())
        fresh = Session()
        from repro.common.errors import RecomputationError
        with pytest.raises(RecomputationError):
            fresh.recompute(log)


class TestSparkIntegration:
    def _distributed_session(self, cfg=None):
        sess = Session(cfg or MemphisConfig.memphis())
        rows = sess.config.cpu.operation_memory_bytes // (8 * 10) + 1000
        data = RNG.random((rows, 10))
        return sess, sess.read(data, "X"), data

    def test_large_op_goes_to_spark(self):
        sess, X, data = self._distributed_session()
        out = (X.t() @ X).compute()
        assert np.allclose(out, data.T @ data)
        assert sess.stats.get("spark/jobs") >= 1

    def test_action_reuse_skips_job(self):
        sess, X, data = self._distributed_session()
        (X.t() @ X).compute()
        jobs = sess.stats.get("spark/jobs")
        (X.t() @ X).compute()
        assert sess.stats.get("spark/jobs") == jobs
        assert sess.stats.get("spark/actions_reused") >= 1

    def test_rdd_reuse(self):
        sess, X, data = self._distributed_session()
        for _ in range(2):
            out = ((X * 2.0).t() @ (X * 2.0)).compute()
        assert sess.stats.get("spark/rdds_reused") >= 1
        assert np.allclose(out, 4 * data.T @ data)

    def test_prefetch_issued_with_async(self):
        sess, X, _ = self._distributed_session()
        (X.t() @ X).compute()
        assert sess.stats.get("async/prefetch_issued") >= 1

    def test_no_prefetch_without_async(self):
        sess, X, _ = self._distributed_session(MemphisConfig.memphis_no_async())
        (X.t() @ X).compute()
        assert sess.stats.get("async/prefetch_issued") == 0

    def test_elementwise_distributed_correct(self):
        sess, X, data = self._distributed_session()
        out = (X * 2.0 + 1.0).sum().item()
        assert np.isclose(out, (data * 2 + 1).sum())

    def test_rowsums_distributed(self):
        sess, X, data = self._distributed_session()
        out = X.row_sums().sum().item()
        assert np.isclose(out, data.sum())

    def test_loop_checkpoint_limits_job_growth(self):
        sess, X, data = self._distributed_session()
        tasks = []
        with sess.loop("iter") as loop:
            W = X
            for i in range(4):
                before = sess.stats.get("spark/tasks")
                W = (W * 0.5).evaluate()
                loop.update(W=W)
                tasks.append(sess.stats.get("spark/tasks") - before)
        # with per-iteration checkpoints, later iterations do not re-execute
        # the whole history: task counts stay bounded
        assert tasks[-1] <= tasks[1] + 1
        assert sess.stats.get("compiler/checkpoints_placed") >= 1


class TestGpuIntegration:
    def _gpu_session(self, mode=None):
        cfg = mode or MemphisConfig.memphis()
        cfg.gpu_enabled = True
        cfg.spark_enabled = False
        return Session(cfg)

    def test_gpu_op_correct(self):
        sess = self._gpu_session()
        X = sess.read(RNG.random((64, 64)), "X")
        out = (X @ X).relu().compute()
        data = X.payloads[BACKEND_CP].data
        assert np.allclose(out, np.maximum(data @ data, 0))
        assert sess.stats.get("gpu/kernels_launched") >= 1

    def test_gpu_pointer_reuse_across_iterations(self):
        sess = self._gpu_session()
        X = sess.read(RNG.random((64, 64)), "X")
        for _ in range(3):
            (X @ X).relu().sum().compute()
        assert sess.stats.get("gpu/pointers_reused") >= 1

    def test_gpu_recycling_in_minibatch_loop(self):
        sess = self._gpu_session()
        W = sess.read(RNG.standard_normal((32, 16)), "W")
        for i in range(6):
            Xb = sess.read(RNG.standard_normal((64, 32)), f"batch{i}")
            (Xb @ W).relu().sum().compute()
        assert sess.stats.get("gpu/pointers_recycled") > 0

    def test_eviction_injection_between_loops(self):
        sess = self._gpu_session()
        X = sess.read(RNG.random((64, 64)), "X")
        with sess.loop("model_a"):
            (X @ X).relu().sum().compute()
        with sess.loop("model_b"):
            (X * 2 @ X).relu().sum().compute()
        assert sess.stats.get("compiler/evict_instructions") >= 1

    def test_no_eviction_injection_same_loop(self):
        sess = self._gpu_session()
        X = sess.read(RNG.random((64, 64)), "X")
        for _ in range(2):
            with sess.loop("same"):
                (X @ X).sum().compute()
        assert sess.stats.get("compiler/evict_instructions") == 0


class TestDelayedCachingIntegration:
    def test_block_tuning_sets_delay(self):
        sess = Session(MemphisConfig.memphis())
        with sess.block("fs", execution_frequency=10, reusable_fraction=0.1):
            assert sess.delay_factor == 4
        assert sess.delay_factor == 1

    def test_delayed_block_defers_caching(self):
        sess = Session(MemphisConfig.memphis())
        X = sess.read(RNG.random((10, 4)), "X")
        with sess.block("b", execution_frequency=10, reusable_fraction=0.5):
            (X.t() @ X).sum().compute()
            assert sess.stats.get("cache/delayed_entries") > 0
            hits_before = sess.stats.get("cache/hits")
            (X.t() @ X).sum().compute()  # second occurrence: now cached
            (X.t() @ X).sum().compute()  # third: hits
            assert sess.stats.get("cache/hits") > hits_before

    def test_auto_tuning_disabled(self):
        cfg = MemphisConfig.memphis()
        cfg.enable_auto_tuning = False
        sess = Session(cfg)
        with sess.block("fs", execution_frequency=10, reusable_fraction=0.1):
            assert sess.delay_factor == 1
