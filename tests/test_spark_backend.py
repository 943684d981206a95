"""Tests for the Spark simulator: RDDs, scheduler, memory, broadcast."""

import numpy as np
import pytest

from repro import MemphisConfig, Session
from repro.backends.spark import SparkBackend, SparkContext
from repro.common.config import SparkConfig, StorageLevel
from repro.common.simclock import CLUSTER, HOST, SimClock
from repro.common.stats import Stats
from repro.core.entry import BACKEND_SP
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
            a.zip_blocks(b, lambda x, y: x + y, "+")

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
            sb.collect(sb.elementwise_zip("*", dx, dx)).data, x.data**2
        )
        assert np.allclose(
            sb.collect(sb.elementwise_scalar("+", dx, 1.0)).data, x.data + 1
        )

    def test_elementwise_broadcast_vector(self, sb):
        x, v = _mat(220, 5), _mat(1, 5, seed=4)
        out = sb.collect(sb.elementwise_broadcast(
            "-", sb.distribute(x), sb.broadcast(v), 5
        ))
        assert np.allclose(out.data, x.data - v.data)

    def test_unary(self, sb):
        x = _mat(150, 4)
        out = sb.collect(sb.unary("exp", sb.distribute(x)))
        assert np.allclose(out.data, np.exp(x.data))

    def test_aggregates(self, sb):
        x = _mat(330, 6)
        dx = sb.distribute(x)
        assert np.allclose(sb.collect(sb.row_sums(dx)).data,
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

    def test_eviction_lru_partitions(self):
        cfg = SparkConfig(block_size_rows=100, num_executors=1,
                          executor_memory=40_000)
        ctx = SparkContext(cfg, SimClock(), Stats())
        # storage capacity = 40000*0.6*0.5 = 12000 bytes; each partition
        # 100x4x8 = 3200 bytes
        first = ctx.parallelize(np.ones((300, 4))) \
            .map_blocks(lambda b: b, "a").persist(StorageLevel.MEMORY_ONLY)
        ctx.collect(first)
        second = ctx.parallelize(np.ones((300, 4))) \
            .map_blocks(lambda b: b, "b").persist(StorageLevel.MEMORY_ONLY)
        ctx.collect(second)
        assert ctx.stats.get("spark/partitions_evicted") > 0

    def test_evicted_partition_recomputed(self):
        cfg = SparkConfig(block_size_rows=100, num_executors=1,
                          executor_memory=40_000)
        ctx = SparkContext(cfg, SimClock(), Stats())
        first = ctx.parallelize(np.ones((300, 4))) \
            .map_blocks(lambda b: b * 2, "a").persist(StorageLevel.MEMORY_ONLY)
        ctx.collect(first)
        second = ctx.parallelize(np.ones((300, 4))) \
            .map_blocks(lambda b: b * 3, "b").persist(StorageLevel.MEMORY_ONLY)
        ctx.collect(second)  # evicts partitions of first
        out = ctx.collect(first)  # recomputes them from lineage
        assert np.allclose(out, 2.0)
        assert ctx.stats.get("spark/partitions_recomputed") > 0

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
