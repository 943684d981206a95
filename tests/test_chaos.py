"""Chaos, differential, and property-based fault-recovery tests.

The headline guarantee of ``repro.faults``: every injected-fault run
converges to outputs **numerically identical** to the fault-free run —
faults only ever alter simulated time, allocation churn, and counters —
with the recovery visible in the ``faults/*`` stats and the trace.

Marked ``tier2_chaos`` (select with ``-m tier2_chaos``); kept fast
enough to ride along in the default suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import MemphisConfig, Session
from repro.common.config import CacheConfig
from repro.common.errors import FaultInjectionError, GpuOutOfMemoryError
from repro.common.simclock import SimClock
from repro.common.stats import (
    FAULT_CACHE_ENTRIES_LOST,
    FAULT_EXECUTORS_LOST,
    FAULT_GPU_ALLOC_RETRIES,
    FAULT_LINEAGE_RECOMPUTES,
    FAULT_PARTITIONS_DROPPED,
    FAULT_RESTORE_IO_ERRORS,
    FAULT_SHUFFLE_INVALIDATED,
    FAULT_SPARK_TASK_RETRIES,
    FAULT_SPILL_IO_ERRORS,
    FAULTS_INJECTED,
    FAULTS_RECOVERED,
    Stats,
)
from repro.core.cache import BACKEND_DISK, LineageCache
from repro.core.entry import BACKEND_CP
from repro.core.substrate import Substrate
from repro.common.runtime import RuntimeContext, scope
from repro.faults import FaultInjector, FaultPlan
from repro.lineage.item import LineageItem

pytestmark = pytest.mark.tier2_chaos

RNG_DATA = (np.arange(2000.0 * 8).reshape(2000, 8) % 23.0) / 23.0
RNG_TARGET = (np.arange(2000.0).reshape(2000, 1) % 7.0) / 7.0


def cp_config() -> MemphisConfig:
    return MemphisConfig.memphis()


def sp_config() -> MemphisConfig:
    """Ops on the 2000x8 inputs exceed operation memory -> Spark."""
    cfg = MemphisConfig.memphis()
    cfg.cpu.operation_memory_bytes = 64 * 1024
    return cfg


def gpu_config() -> MemphisConfig:
    cfg = MemphisConfig.memphis()
    cfg.gpu_enabled = True
    cfg.spark_enabled = False
    return cfg


def run_workload(cfg: MemphisConfig, plan: FaultPlan | None = None,
                 iters: int = 3):
    """Iterative linear-regression workload; returns (session, ndarray).

    Each run gets a fresh runtime context, so compared runs (faulted vs
    fault-free) number hops, lineage items and pointers identically.
    """
    with RuntimeContext(faults=plan):
        sess = Session(cfg)
        X = sess.read(RNG_DATA, "X")
        y = sess.read(RNG_TARGET, "y")
        w = sess.read(np.zeros((8, 1)), "w0")
        for _ in range(iters):
            grad = X.t() @ (X @ w) - X.t() @ y
            w = w - 0.01 * grad
        return sess, w.compute()


def baseline(cfg_factory) -> np.ndarray:
    _, out = run_workload(cfg_factory())
    return out


class TestSparkRecovery:
    def test_task_retry_converges_to_fault_free(self):
        expected = baseline(sp_config)
        sess, out = run_workload(
            sp_config(), FaultPlan.parse("spark_task@0,count=2")
        )
        assert np.array_equal(out, expected)
        assert sess.stats.get(FAULT_SPARK_TASK_RETRIES) == 2
        assert sess.stats.get(FAULTS_INJECTED) == 2
        assert sess.stats.get(FAULTS_RECOVERED) >= 1

    def test_retries_respect_budget(self):
        plan = FaultPlan.parse("spark_task@0,count=3")
        sess, out = run_workload(sp_config(), plan)
        assert sess.stats.get(FAULT_SPARK_TASK_RETRIES) \
            <= plan.max_task_retries
        with pytest.raises(FaultInjectionError):
            run_workload(sp_config(), FaultPlan.parse("spark_task@0,count=9"))

    def test_retry_charges_extra_task_time(self):
        def serial_config():
            cfg = sp_config()  # 1 core total: task attempts serialize
            cfg.spark.num_executors = 1
            cfg.spark.cores_per_executor = 1
            return cfg

        sess, _ = run_workload(serial_config())
        fault_free_elapsed = sess.elapsed()
        sess, _ = run_workload(serial_config(),
                               FaultPlan.parse("spark_task@0,count=2"))
        assert sess.elapsed() > fault_free_elapsed

    def test_executor_loss_recovers(self):
        expected = baseline(sp_config)
        sess, out = run_workload(
            sp_config(), FaultPlan.parse("executor_loss@1,count=2;seed=5")
        )
        assert np.array_equal(out, expected)
        assert sess.stats.get(FAULT_EXECUTORS_LOST) == 2
        invalidated = sess.stats.get(FAULT_SHUFFLE_INVALIDATED)
        dropped = sess.stats.get(FAULT_PARTITIONS_DROPPED)
        assert invalidated + dropped >= 0  # counters exist and are exact
        # shuffle-store accounting stays exact after invalidation
        ctx = sess.spark_context
        assert ctx.shuffle_store_bytes >= 0


class TestGpuRecovery:
    def test_alloc_retry_converges(self):
        expected = baseline(gpu_config)
        sess, out = run_workload(
            gpu_config(), FaultPlan.parse("gpu_alloc@0,count=2")
        )
        assert np.array_equal(out, expected)
        assert sess.stats.get(FAULT_GPU_ALLOC_RETRIES) == 2
        assert sess.stats.get(FAULTS_RECOVERED) >= 1

    def test_no_leaked_allocations_after_chaos(self):
        sess, _ = run_workload(
            gpu_config(), FaultPlan.parse("gpu_alloc@1,count=3;gpu_alloc@4")
        )
        report = sess.gpu.memory.device.allocation_report()
        assert report["consistent"]
        assert report["used_bytes"] + report["hole_bytes"] \
            == sess.gpu.memory.device.capacity

    def test_alloc_budget_exceeded_raises(self):
        plan = FaultPlan.parse("gpu_alloc@0,count=9")
        with scope(faults=plan):
            sess = Session(gpu_config())
        with pytest.raises(GpuOutOfMemoryError):
            sess.gpu.memory.allocate(4096)
        assert sess.stats.get(FAULT_GPU_ALLOC_RETRIES) \
            == plan.max_alloc_retries + 1

    def test_retry_costs_device_time(self):
        sess_a, _ = run_workload(gpu_config())
        sess_b, _ = run_workload(gpu_config(),
                                 FaultPlan.parse("gpu_alloc@0,count=2"))
        assert sess_b.elapsed() > sess_a.elapsed()


class TestCacheLossRecovery:
    def test_cache_lost_recomputes_identically(self):
        expected = baseline(cp_config)
        sess, out = run_workload(
            cp_config(), FaultPlan.parse("cache_lost@4,count=2;seed=13")
        )
        assert np.array_equal(out, expected)
        assert sess.stats.get(FAULT_CACHE_ENTRIES_LOST) == 2

    def test_stripped_handle_recovers_through_lineage(self):
        with scope(faults=FaultPlan()):  # recovery armed, no faults
            sess = Session(cp_config())
        X = sess.read(RNG_DATA[:64], "X")
        A = X.t() @ X
        expected = A.compute().copy()
        # lose every copy: cache entries and the handle's own payloads
        for entry in sess.cache.entries():
            sess.cache.invalidate_entry(entry, spark_mgr=sess.spark_mgr)
        A.payloads.pop(BACKEND_CP, None)
        recovered = A.compute()
        assert np.array_equal(recovered, expected)
        assert sess.stats.get(FAULT_LINEAGE_RECOMPUTES) >= 1
        assert sess.stats.get(FAULTS_RECOVERED) >= 1

    def test_audit_catches_a_cp_charge_a_lost_entry_kept(self, monkeypatch):
        """A ``cache_lost`` invalidation that drops an entry's CP payload
        but not its charge keeps the CP ledger equal to the summed
        charges; the audit must still see the stale bytes."""
        sess, _ = run_workload(cp_config())
        sess.substrate.audit()
        invalidate = LineageCache.invalidate_entry

        def leaky(cache, entry, spark_mgr=None):
            with monkeypatch.context() as m:
                m.setattr(LineageCache, "_release_cp", lambda *_: None)
                return invalidate(cache, entry, spark_mgr)

        monkeypatch.setattr(LineageCache, "invalidate_entry", leaky)
        entry = next(e for e in sess.cache.entries() if e.cp_accounted)
        assert sess.tiers.invalidate(entry) == [BACKEND_CP]
        with pytest.raises(AssertionError, match="no CP payload"):
            sess.substrate.audit()

    def test_buffer_accounting_exact_after_chaos(self):
        sess, _ = run_workload(
            cp_config(), FaultPlan.parse("cache_lost@2;cache_lost@6;seed=2")
        )
        assert sess.cache.cp_bytes >= 0
        assert sess.cache.cp_bytes == sum(
            e.cp_accounted for e in sess.cache.entries()
        )
        cached_disk = sum(
            e.size for e in sess.cache.entries()
            if BACKEND_DISK in e.payloads
        )
        assert sess.cache.disk_bytes == cached_disk


#: plans whose recovery paths the drain law runs through: two random
#: plans of the chaos sweep, and lost cache entries with GPU allocation
#: retries on the GPU lane
DRAIN_PLANS = {
    "random0": (lambda: FaultPlan.randomize(0), sp_config),
    "random1": (lambda: FaultPlan.randomize(1), sp_config),
    "lost+gpu": (lambda: FaultPlan.parse(
        "cache_lost@2;gpu_alloc@1,count=2;cache_lost@6,count=2;seed=5"),
        gpu_config),
}


class TestReservationsDrainAfterRecovery:
    """After fault recovery every reservation drains to zero: each
    arbiter's quiescent check and the cache's audit hold after every
    ``evaluate``, on a private substrate and on a shared one that two
    tenants' sessions attach to in turn."""

    @pytest.mark.parametrize("shared", [False, True],
                             ids=["private", "shared"])
    @pytest.mark.parametrize("name", sorted(DRAIN_PLANS))
    def test_every_evaluate_leaves_no_reservation(self, name, shared,
                                                  monkeypatch):
        make_plan, factory = DRAIN_PLANS[name]
        expected = baseline(factory)
        evaluate = Session.evaluate
        audited = []

        def evaluate_then_audit(sess, handles):
            evaluate(sess, handles)
            sess.arbiter.check()
            sess.substrate.arbiter.check()  # the same one when private
            sess.cache.audit()
            audited.append(sess)

        monkeypatch.setattr(Session, "evaluate", evaluate_then_audit)
        plan = make_plan()
        with RuntimeContext(faults=plan):
            substrate = (Substrate.shared_substrate(factory())
                         if shared else None)
            for tenant in ("alpha", "beta") if shared else (None,):
                sess = Session(factory(), substrate=substrate,
                               tenant=tenant)
                X = sess.read(RNG_DATA, "X")
                y = sess.read(RNG_TARGET, "y")
                w = sess.read(np.zeros((8, 1)), "w0")
                for _ in range(3):
                    w = w - 0.01 * (X.t() @ (X @ w) - X.t() @ y)
                assert np.array_equal(w.compute(), expected), tenant
                assert sess.stats.get(FAULTS_INJECTED) >= 1, tenant
        assert audited
        if shared:
            substrate.audit()


class TestSpillRestoreFaults:
    def _spilling_cache(self, plan: FaultPlan):
        stats = Stats()
        clock = SimClock()
        faults = FaultInjector(plan, clock, stats)
        cache = LineageCache(
            CacheConfig(driver_cache_bytes=1000, spill_to_disk=True,
                        disk_cache_bytes=10_000),
            stats, clock=clock, faults=faults,
        )
        return cache, stats

    def _fill(self, cache: LineageCache):
        # expensive-to-recompute entries, so eviction prefers spilling
        for i in range(3):
            cache.put(LineageItem("op", (f"k{i}",)), object(),
                      BACKEND_CP, 400, compute_cost=10**12)

    def test_spill_io_fault_drops_instead_of_spilling(self):
        cache, stats = self._spilling_cache(
            FaultPlan.parse("spill_io@0")
        )
        self._fill(cache)  # third put forces one eviction -> faulted spill
        assert stats.get(FAULT_SPILL_IO_ERRORS) == 1
        assert cache.disk_bytes == 0
        # a clean run of the same sequence spills instead
        cache2, stats2 = self._spilling_cache(FaultPlan())
        self._fill(cache2)
        assert stats2.get("cache/disk_spills") == 1
        assert cache2.disk_bytes == 400

    def test_restore_io_fault_loses_disk_copy(self):
        cache, stats = self._spilling_cache(
            FaultPlan.parse("restore_io@0")
        )
        self._fill(cache)
        spilled = next(k for k, in
                       [(e.key,) for e in cache.entries()
                        if BACKEND_DISK in e.payloads])
        assert cache.probe(spilled) is None  # restore fails
        assert stats.get(FAULT_RESTORE_IO_ERRORS) == 1
        entry = cache.get_entry(spilled)
        assert BACKEND_DISK not in entry.payloads
        # disk accounting stays exact (make-space may spill another entry)
        assert cache.disk_bytes == sum(
            e.size for e in cache.entries() if BACKEND_DISK in e.payloads
        )


class TestDifferential:
    """Bit-equal outputs across reuse modes and placements, under faults."""

    PLAN = "cache_lost@3;spark_task@0;seed=21"

    def test_reuse_on_off_bit_equal_under_faults(self):
        from repro.common.config import ReuseMode

        cfg_full = sp_config()
        _, out_full = run_workload(cfg_full, FaultPlan.parse(self.PLAN))
        cfg_none = sp_config()
        cfg_none.reuse_mode = ReuseMode.NONE
        _, out_none = run_workload(cfg_none, FaultPlan.parse(self.PLAN))
        assert np.array_equal(out_full, out_none)

    def test_placements_unperturbed_by_faults(self):
        """Per placement, faulted == fault-free bit-for-bit.

        Across placements only ``allclose`` holds — blocked/distributed
        execution reorders floating-point sums even without faults — so
        the differential contract is: faults never add *any* numeric
        perturbation on top of the placement's own execution order.
        """
        outs = []
        for factory in (cp_config, sp_config, gpu_config):
            expected = baseline(factory)
            _, out = run_workload(factory(), FaultPlan.parse(self.PLAN))
            assert np.array_equal(out, expected)
            outs.append(out)
        assert np.allclose(outs[0], outs[1])
        assert np.allclose(outs[0], outs[2])


class TestChaosSweepProperties:
    """Randomized plans (pure functions of the seed) all converge."""

    def test_random_plans_converge_and_account_exactly(self):
        for factory in (cp_config, sp_config):
            expected = baseline(factory)
            for seed in range(16):
                where = f"{factory.__name__}, seed {seed}"
                plan = FaultPlan.randomize(seed)
                sess, out = run_workload(factory(), plan)
                assert np.array_equal(out, expected), f"diverged: {where}"
                # retry budgets respected
                assert sess.stats.get(FAULT_SPARK_TASK_RETRIES) \
                    <= plan.max_task_retries * max(
                        1, sum(s.count for s in plan.specs)), where
                # buffer accounting exact: the budget holds exactly the
                # sum of per-entry charges, and never drifts negative
                assert sess.cache.cp_bytes >= 0, where
                assert sess.cache.cp_bytes == sum(
                    e.cp_accounted for e in sess.cache.entries()), where
                # the GPU address space is whole: nothing leaked,
                # nothing freed twice
                report = sess.gpu.memory.device.allocation_report()
                assert report["consistent"], f"{where}: {report}"

    def test_hypothesis_plan_round_trip_and_convergence(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        expected = baseline(cp_config)

        @settings(max_examples=10, deadline=None)
        @given(seed=st.integers(min_value=0, max_value=10_000))
        def check(seed):
            plan = FaultPlan.randomize(
                seed, kinds=("cache_lost", "spill_io", "restore_io"))
            text = ";".join(f"{spec.kind}@{spec.at},count={spec.count}"
                            for spec in plan.specs)
            assert FaultPlan.parse(f"{text};seed={seed}") == plan
            _, out = run_workload(cp_config(), plan)
            assert np.array_equal(out, expected)

        check()
