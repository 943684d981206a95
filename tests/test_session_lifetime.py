"""A CP-only request pays only for what it uses: its session builds no
Spark or GPU tier, yet reports the same regions, and is freed by
reference counting once the scheduler drops it (docs/ARCHITECTURE.md,
"Session construction").
"""

import gc
import weakref

import numpy as np
import pytest

from repro.backends.gpu.backend import GpuBackend
from repro.backends.gpu.memmanager import GpuMemoryManager
from repro.backends.spark.blockmanager import BlockManager
from repro.backends.spark.context import SparkContext
from repro.common.config import MemphisConfig, StorageLevel
from repro.common.runtime import RuntimeContext, scope
from repro.core.entry import BACKEND_GPU
from repro.core.session import Session
from repro.core.tiers import IDLE_GPU_GAUGES, IDLE_SPARK_GAUGES
from repro.obs import ExplainCollector
from repro.server import Scheduler, pure_program
from repro.workloads.base import scale_overheads
from repro.workloads.micro import ensemble_cnns


@pytest.fixture
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.fixture
def constructions(monkeypatch):
    """Count ``SparkContext`` and ``GpuBackend`` constructions."""
    built = []
    for cls in (SparkContext, GpuBackend):
        init = cls.__init__

        def counting(self, *args, _init=init, _cls=cls, **kwargs):
            built.append(_cls.__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


def _cp_request(force_tiers=False):
    """Run one CP-only request in a fresh runtime context, explain
    capture on; returns a weakref to its session, the scheduler and the
    report.  ``force_tiers`` reads every tier before the program runs."""
    program = pure_program()

    def forcing(session):
        session.spark_context, session.spark_mgr, session.gpu
        return (yield from program(session))

    with RuntimeContext(), scope(explain=ExplainCollector()):
        sched = Scheduler(seed=3)
        sched.add_tenant("alpha")
        sched.submit("alpha", forcing if force_tiers else program)
        report = sched.run()
    assert report.results[0].ok
    return weakref.ref(sched.sessions[0]), sched, report


class TestCpOnlyRequest:
    def test_session_freed_by_reference_counting(self, no_cyclic_gc):
        ref, sched, report = _cp_request()
        assert ref() is not None
        del sched, report
        assert ref() is None

    def test_builds_no_spark_or_gpu_tier(self, constructions):
        ref, sched, _ = _cp_request()
        assert constructions == []
        assert not ref().tiers.built("spark_context")
        assert not ref().tiers.built("gpu")

    def test_regions_explain_and_audit_match_forced_tiers(self,
                                                          constructions):
        lazy_ref, lazy_sched, _ = _cp_request()
        forced_ref, forced_sched, _ = _cp_request(force_tiers=True)
        assert constructions == ["SparkContext", "GpuBackend"]
        lazy, forced = lazy_ref(), forced_ref()

        def regions(sess):
            return [(r.name, r.capacity, r.used, r.peak_used,
                     r.policy.name if r.policy else None)
                    for r in sess.arbiter.regions()]

        assert regions(lazy) == regions(forced)
        assert (lazy.explain(level="runtime")
                == forced.explain(level="runtime"))
        for sess in (lazy, forced):
            sess.substrate.audit()
            sess.arbiter.check()
        forced.spark_mgr.audit()
        forced.gpu.memory.audit()
        # none of the above built a tier of the lazy session
        assert constructions == ["SparkContext", "GpuBackend"]


class TestTiersOnFirstUse:
    def test_tier_built_on_first_read_and_counts_on_its_region(self):
        sess = Session(MemphisConfig.memphis())
        region = sess.arbiter.region("GPU")
        assert not sess.tiers.built("gpu")
        assert sess.gpu.memory._region is region
        assert sess.tiers.built("gpu")
        assert sess.gpu is sess.gpu

    def test_block_tuning_reaches_a_tier_built_inside_it(self):
        sess = Session(MemphisConfig.memphis())
        with sess.block("c", execution_frequency=10, reusable_fraction=0.1):
            assert not sess.tiers.built("spark_mgr")
            assert sess.spark_mgr.storage_level is StorageLevel.MEMORY_ONLY
        assert sess.spark_mgr.storage_level is StorageLevel.MEMORY_AND_DISK

    def test_idle_gauges_are_a_fresh_managers(self):
        cfg = MemphisConfig.memphis()
        sess = Session(cfg)
        gauges = sess.tiers.metrics_gauges()
        assert not sess.tiers.built("spark_context")
        assert not sess.tiers.built("gpu")
        fresh = {**BlockManager(cfg.spark, sess.stats).metrics_gauges(),
                 **sess.gpu.memory.metrics_gauges()}
        assert gauges == fresh
        assert set(fresh) == set(IDLE_SPARK_GAUGES) | set(IDLE_GPU_GAUGES)
        assert isinstance(sess.gpu.memory, GpuMemoryManager)

    def test_spark_placement_builds_the_spark_tier_only(self):
        cfg = MemphisConfig.memphis()
        cfg.cpu.operation_memory_bytes = 16 * 1024
        sess = Session(cfg)
        X = sess.read(np.random.default_rng(1).random((3000, 8)), "X")
        assert not sess.tiers.built("spark_context")
        (X * 2.0).sum().compute()
        assert sess.tiers.built("spark_context")
        assert not sess.tiers.built("gpu")


def _bound_pointers(handles) -> set[int]:
    """Ids of the GPU pointers ``handles`` are bound to."""
    ptrs = (h.payloads[BACKEND_GPU].ptr for h in handles
            if BACKEND_GPU in h.payloads)
    return {ptr.id for ptr in ptrs if not ptr.freed}


class TestGpuPointerLifetime:
    def test_blocks_and_dropped_handles_release_without_a_collection(
            self, no_cyclic_gc):
        """``gpu_score``-shaped scoring (duplicate batches, a mid-stream
        re-batch, a device small enough to recycle cached pointers and
        walk Algorithm 1) with the cyclic collector off: after every
        block the live pointers are exactly those still-bound handles
        hold, the Free list agrees with its scan, and a pointer is
        ``cached`` exactly when the lineage cache indexes it."""
        config = MemphisConfig.memphis()
        config.gpu_enabled = True
        config.spark_enabled = False
        config.gpu.min_cells = 64
        config.gpu.device_memory = 2 * 1024 * 1024
        scale_overheads(config, 1.0 / 64.0)
        sess = Session(config)
        models = [model.build(sess, seed=41 + k)
                  for k, model in enumerate(ensemble_cnns(16))]
        weights = [h for model in models for h in model.filters + model.fcs]
        memory, cache = sess.gpu.memory, sess.cache
        rng = np.random.default_rng(5)
        images = rng.random((5, 6, 3 * 16 * 16))

        def audited():
            memory.audit()
            cache.audit()
            for ptr in [*memory.live.values(), *memory.free.pointers()]:
                assert ptr.cached == (ptr.id in cache._gpu_index), ptr

        kept = []
        for i in range(12):
            rows = 4 if i < 6 else 6
            batch = sess.read(images[i % 5, :rows], f"content_{i % 5}_{rows}")
            feats = models[1].extract_features(sess, batch, upto_fc=0)
            probs = [model.score(sess, batch) for model in models]
            sess.evaluate(probs + [feats])
            kept.append(feats)
            del batch, feats, probs
            assert set(memory.live) == _bound_pointers(weights + kept)
            audited()
        assert _bound_pointers(kept) - _bound_pointers(weights)
        del kept
        assert set(memory.live) == _bound_pointers(weights)
        audited()
        counters = sess.stats.counters()
        for name in ("gpu/pointers_recycled", "gpu/pointers_reused",
                     "gpu/cuda_frees", "cache/evictions"):
            assert counters[name] > 0, name
