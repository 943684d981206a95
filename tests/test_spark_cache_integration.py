"""Deeper integration tests of Spark-tier cache behaviour (§4.1)."""

import numpy as np
import pytest

from repro import MemphisConfig, Session
from repro.common.config import KB, StorageLevel
from repro.core.entry import BACKEND_SP
from repro.core.substrate import Substrate

RNG = np.random.default_rng(31)


def spark_session(**cache_kw):
    cfg = MemphisConfig.memphis()
    cfg.cpu.operation_memory_bytes = 64 * 1024
    for key, value in cache_kw.items():
        setattr(cfg.cache, key, value)
    return Session(cfg)


class TestUnmaterializedReuse:
    def test_rdd_reused_before_materialization(self):
        """persist is lazy: the RDD is reusable even before any job ran."""
        sess = spark_session()
        X = sess.read(RNG.random((5000, 16)), "X")
        (X * 2.0).evaluate()  # lazy chain, cached (persist marked)
        jobs = sess.stats.get("spark/jobs")
        assert jobs == 0
        out = ((X * 2.0) + 1.0).sum().compute()  # builds on the cached RDD
        assert sess.stats.get("spark/rdds_reused") >= 1

    def test_async_materialization_after_k_misses(self):
        sess = spark_session(async_materialize_after_misses=2)
        X = sess.read(RNG.random((5000, 16)), "X")
        for _ in range(4):
            (X * 2.0).evaluate()
        assert sess.stats.get("spark/async_materializations") >= 1

    def test_shuffle_file_reuse_across_jobs(self):
        sess = spark_session()
        cfg_base = MemphisConfig.base()
        cfg_base.cpu.operation_memory_bytes = 64 * 1024
        base = Session(cfg_base)
        data = RNG.random((5000, 16))
        for s in (sess, base):
            X = s.read(data, "X")
            (X.t() @ X).compute()
            (X.t() @ X).compute()
        # even Base benefits from Spark's implicit shuffle-file caching,
        # but only MEMPHIS elides the jobs entirely
        assert sess.stats.get("spark/jobs") < base.stats.get("spark/jobs")


class TestStorageLevels:
    def test_tuned_storage_level_applied(self):
        sess = spark_session()
        with sess.block("b", execution_frequency=10, reusable_fraction=0.9):
            assert sess.spark_mgr.storage_level is \
                StorageLevel.MEMORY_AND_DISK
        with sess.block("c", execution_frequency=10, reusable_fraction=0.1):
            assert sess.spark_mgr.storage_level is StorageLevel.MEMORY_ONLY

    def test_memory_only_partitions_dropped_not_spilled(self):
        cfg = MemphisConfig.memphis()
        cfg.cpu.operation_memory_bytes = 16 * 1024
        cfg.spark.num_executors = 1
        cfg.spark.executor_memory = 200_000
        sess = Session(cfg)
        sess.spark_mgr.storage_level = StorageLevel.MEMORY_ONLY
        X = sess.read(RNG.random((3000, 8)), "X")
        for scale in range(1, 6):
            (X * float(scale)).sum().compute()
        assert sess.stats.get("spark/partitions_spilled") == 0


class TestEvictionUnderPressure:
    def test_spark_tier_evicts_and_stays_within_budget(self):
        cfg = MemphisConfig.memphis()
        cfg.cpu.operation_memory_bytes = 16 * 1024
        cfg.spark.num_executors = 1
        cfg.spark.executor_memory = 1_200_000  # reuse budget: 288 KB
        sess = Session(cfg)
        X = sess.read(RNG.random((3000, 8)), "X")  # 192 KB per RDD
        for scale in range(1, 10):
            (X * float(scale)).sum().compute()
        assert sess.spark_mgr.sp_bytes <= sess.spark_mgr.budget
        assert sess.stats.get("spark/rdds_unpersisted") > 0

    def test_results_correct_despite_eviction(self):
        cfg = MemphisConfig.memphis()
        cfg.cpu.operation_memory_bytes = 16 * 1024
        cfg.spark.num_executors = 1
        cfg.spark.executor_memory = 600_000
        sess = Session(cfg)
        data = RNG.random((3000, 8))
        X = sess.read(data, "X")
        outs = {}
        for rounds in range(2):
            for scale in range(1, 10):
                value = (X * float(scale)).sum().item()
                if rounds == 0:
                    outs[scale] = value
                else:
                    assert value == pytest.approx(outs[scale])
                assert value == pytest.approx(data.sum() * scale)


class TestSharedSubstrate:
    """The Spark tier is session-private even on a shared lineage cache."""

    @staticmethod
    def _config() -> MemphisConfig:
        cfg = MemphisConfig.memphis()
        cfg.cpu.operation_memory_bytes = 16 * KB
        cfg.spark.num_executors = 2
        cfg.spark.executor_memory = 256 * KB  # SP_CACHE: 125,828 B
        return cfg

    @staticmethod
    def _persisted(sess: Session) -> int:
        """Bytes of the RDDs ``sess`` persisted that the cache still holds."""
        return sum(
            entry.payloads[BACKEND_SP].nbytes
            for entry in sess.cache.entries()
            if BACKEND_SP in entry.payloads
            and entry.owner == sess._ctx.uid)

    def test_eviction_stays_within_own_entries(self):
        """Regression: ``_candidates`` scanned every session's entries
        and ``evict`` released ``entry.size`` on its own ledger whatever
        was charged — *b* unpersisted *a*'s RDD, *a*'s ledger kept the
        charge, and *b* held more persisted bytes than its capacity
        while its ledger read 98,304 B."""
        sub = Substrate.shared_substrate(self._config())
        a = Session(self._config(), substrate=sub)
        b = Session(self._config(), substrate=sub)
        capacity = b.spark_mgr.budget
        assert capacity == 125_828

        def run(sess: Session, tag: str, count: int) -> None:
            for i in range(count):
                sub.activate(sess._ctx)
                X = sess.read(np.full((256, 16), float(i + 1)), f"X{tag}{i}")
                ((X * 2) + 1).compute()  # two 32 KB RDDs on Spark

        run(a, "a", 1)
        assert a.spark_mgr.sp_bytes == self._persisted(a) == 65_536
        run(b, "b", 6)
        # b made room among its own RDDs only ...
        assert a.stats.get("spark/rdds_unpersisted") == 0
        assert b.stats.get("spark/rdds_unpersisted") == 9
        # ... so each ledger still reads what its session holds
        assert a.spark_mgr.sp_bytes == self._persisted(a) == 65_536
        assert b.spark_mgr.sp_bytes == self._persisted(b) == 98_304
        assert b.spark_mgr.sp_bytes <= capacity
        for sess in (a, b):
            sess.spark_mgr.audit()
        sub.audit()

    def test_audit_catches_a_ledger_that_drifted(self):
        sess = spark_session()
        X = sess.read(RNG.random((5000, 16)), "X")
        (X * 2.0).evaluate()
        sess.spark_mgr.audit()
        sess.arbiter.region("SP_CACHE").release(1)
        with pytest.raises(AssertionError, match="SP_CACHE ledger"):
            sess.spark_mgr.audit()
