"""Integration tests for the end-to-end workloads (Table 3).

Each workload must (1) run under every relevant system configuration,
(2) produce *identical quality metrics* regardless of reuse — the core
correctness property of lineage-based reuse — and (3) exercise the
influential technique Table 3 attributes to it.
"""

import pytest

from repro.workloads import (
    run_clean,
    run_en2de,
    run_fig2c,
    run_hband,
    run_hcv,
    run_hdrop,
    run_pnmf,
    run_reuse_overhead,
    run_tlvis,
)


class TestHcv:
    def test_metric_invariant_under_reuse(self):
        base = run_hcv("Base", 5.0)
        mph = run_hcv("MPH", 5.0)
        assert mph.metric == pytest.approx(base.metric, rel=1e-9)

    def test_mph_reuses_and_wins(self):
        base = run_hcv("Base", 5.0)
        mph = run_hcv("MPH", 5.0)
        assert mph.elapsed < base.elapsed
        assert mph.counter("cache/hits") > 0

    def test_distributed_scale_uses_spark_reuse(self):
        mph = run_hcv("MPH", 50.0)
        assert mph.counter("spark/rdds_reused") > 0
        assert mph.counter("async/prefetch_issued") > 0

    def test_lima_matches_base_when_distributed(self):
        base = run_hcv("Base", 50.0)
        lima = run_hcv("LIMA", 50.0)
        assert lima.elapsed == pytest.approx(base.elapsed, rel=0.1)


class TestPnmf:
    def test_loss_invariant_under_reuse(self):
        base = run_pnmf("Base", 6)
        mph = run_pnmf("MPH", 6)
        assert mph.metric == pytest.approx(base.metric, rel=1e-6)

    def test_base_superlinear_mph_linear(self):
        base_short = run_pnmf("Base", 5)
        base_long = run_pnmf("Base", 20)
        mph_short = run_pnmf("MPH", 5)
        mph_long = run_pnmf("MPH", 20)
        base_ratio = (base_long.elapsed / 20) / (base_short.elapsed / 5)
        mph_ratio = (mph_long.elapsed / 20) / (mph_short.elapsed / 5)
        assert base_ratio > mph_ratio
        assert mph_ratio < 1.4  # roughly constant per-iteration cost

    def test_checkpoints_placed_per_iteration(self):
        mph = run_pnmf("MPH", 7)
        assert mph.counter("compiler/checkpoints_placed") >= 7
        base = run_pnmf("Base", 7)
        assert base.counter("compiler/checkpoints_placed") == 0


class TestHband:
    def test_metric_invariant_under_reuse(self):
        base = run_hband("Base", 5.0)
        mph = run_hband("MPH", 5.0)
        assert mph.metric == pytest.approx(base.metric, rel=1e-9)

    def test_mph_beats_all(self):
        runs = {s: run_hband(s, 5.0) for s in ("Base", "LIMA", "HELIX", "MPH")}
        assert runs["MPH"].elapsed < runs["LIMA"].elapsed
        assert runs["MPH"].elapsed < runs["HELIX"].elapsed
        assert runs["MPH"].elapsed < runs["Base"].elapsed


class TestClean:
    def test_metric_invariant_under_reuse(self):
        base = run_clean("Base", 12)
        mph = run_clean("MPH", 12)
        assert mph.metric == pytest.approx(base.metric, rel=1e-9)

    def test_accuracy_is_sane(self):
        result = run_clean("MPH", 12)
        assert 0.5 < result.metric <= 1.0

    def test_distributed_scale_reuses(self):
        mph = run_clean("MPH", 120)
        base = run_clean("Base", 120)
        assert mph.elapsed < base.elapsed
        assert mph.counter("spark/rdds_reused") > 0


class TestHdrop:
    def test_metric_invariant_between_gpu_and_cpu(self):
        cpu = run_hdrop("Base-C", epochs=2)
        gpu = run_hdrop("Base-G", epochs=2)
        mph = run_hdrop("MPH", epochs=2)
        assert gpu.metric == pytest.approx(cpu.metric, rel=1e-9)
        assert mph.metric == pytest.approx(cpu.metric, rel=1e-9)

    def test_mph_reuses_idp_on_both_backends(self):
        mph = run_hdrop("MPH", epochs=3)
        assert mph.counter("cache/hits") > 0  # host-side transform reuse
        assert mph.counter("gpu/pointers_reused") > 0  # GPU-side reuse

    def test_coordl_between_base_and_mph(self):
        base = run_hdrop("Base-G", epochs=3)
        coordl = run_hdrop("CoorDL", epochs=3)
        mph = run_hdrop("MPH", epochs=3)
        assert mph.elapsed <= coordl.elapsed * 1.05
        assert coordl.elapsed < base.elapsed


class TestEn2de:
    def test_checksum_invariant_across_systems(self):
        results = [run_en2de(s) for s in ("Base-G", "MPH", "Clipper",
                                          "PyTorch", "MPH-F")]
        for r in results[1:]:
            assert r.metric == pytest.approx(results[0].metric, rel=1e-9)

    def test_prediction_reuse_eliminates_gpu_work(self):
        base = run_en2de("Base-G")
        mph = run_en2de("MPH")
        assert mph.counter("cache/function_hits") > 100
        assert mph.counter("gpu/kernels_launched") < \
            base.counter("gpu/kernels_launched") / 2
        assert mph.elapsed < base.elapsed / 2


class TestTlvis:
    def test_metric_invariant(self):
        base = run_tlvis("Base-G")
        mph = run_tlvis("MPH")
        assert mph.metric == pytest.approx(base.metric, rel=1e-9)

    def test_eviction_injection_between_models(self):
        mph = run_tlvis("MPH")
        assert mph.counter("compiler/evict_instructions") >= 2

    def test_pytorch_oom_on_tight_device(self):
        # a capacity where PyTorch's cross-model pooled allocations OOM
        # but manual empty_cache (Clr) and MEMPHIS's eviction survive
        tight = 23 * 1024 * 1024
        assert run_tlvis("PyTorch", device_memory=tight).failed is not None
        assert run_tlvis("PyTorch-Clr", device_memory=tight).failed is None
        assert run_tlvis("MPH", device_memory=tight).failed is None


class TestMicros:
    def test_fig2c_metric_invariant(self):
        nocache = run_fig2c("NoCache", num_chains=24)
        memphis = run_fig2c("MEMPHIS", num_chains=24)
        assert memphis.metric == pytest.approx(nocache.metric, rel=1e-9)

    def test_reuse_overhead_checksum_invariant(self):
        base = run_reuse_overhead("Base", 80_000, iterations=20,
                                  reuse_fraction=0.0)
        reuse = run_reuse_overhead("Reuse", 80_000, iterations=20,
                                   reuse_fraction=0.0)
        assert reuse.metric == pytest.approx(base.metric, rel=1e-9)

    def test_trace_probe_monotone_overhead(self):
        base = run_reuse_overhead("Base", 800, iterations=30)
        trace = run_reuse_overhead("Trace", 800, iterations=30)
        probe = run_reuse_overhead("Probe", 800, iterations=30)
        assert base.elapsed < trace.elapsed < probe.elapsed
