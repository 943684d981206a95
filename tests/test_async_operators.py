"""Tests for the asynchronous operators (prefetch/broadcast, §5.1) and
operator ordering at the session level."""

import argparse
from itertools import takewhile

import numpy as np

from repro import MemphisConfig, Session
from repro.analysis import AnalysisCollector
from repro.common.runtime import scope
from repro.common.simclock import CLUSTER
from repro.harness.__main__ import _report_collected
from repro.obs.explain import ExplainCollector

RNG = np.random.default_rng(23)


def distributed_session(**flags):
    cfg = MemphisConfig.memphis()
    cfg.cpu.operation_memory_bytes = 64 * 1024
    for key, value in flags.items():
        setattr(cfg, key, value)
    return cfg


class TestPrefetch:
    def test_prefetch_overlaps_jobs(self):
        """Two independent Spark chains collected by one consumer: the
        async version overlaps the jobs and beats the sync version."""
        def run(async_on: bool) -> float:
            cfg = distributed_session(enable_async_ops=async_on,
                                      enable_max_parallelize=async_on)
            cfg.reuse_mode = cfg.reuse_mode  # keep MPH reuse either way
            sess = Session(cfg)
            X = sess.read(RNG.random((20_000, 16)), "X")
            Y = sess.read(RNG.random((20_000, 16)), "Y")
            a = (X * 2.0).sum()
            b = (Y * 3.0).sum()
            (a + b).compute()
            return sess.elapsed()

        assert run(True) < run(False)

    def test_prefetch_results_are_correct(self):
        cfg = distributed_session()
        sess = Session(cfg)
        data = RNG.random((10_000, 8))
        X = sess.read(data, "X")
        out = ((X * 2.0).t() @ (X * 2.0)).compute()
        assert np.allclose(out, (2 * data).T @ (2 * data))
        assert sess.stats.get("async/prefetch_issued") > 0

    def test_prefetched_result_cached_for_reuse(self):
        """The prefetch thread PUTs the fetched data once available."""
        cfg = distributed_session()
        sess = Session(cfg)
        X = sess.read(RNG.random((10_000, 8)), "X")
        (X.t() @ X).compute()
        jobs = sess.stats.get("spark/jobs")
        (X.t() @ X).compute()
        assert sess.stats.get("spark/jobs") == jobs  # fully reused

    def test_cluster_timeline_advances_independently(self):
        cfg = distributed_session()
        sess = Session(cfg)
        X = sess.read(RNG.random((10_000, 8)), "X")
        (X * 2.0).evaluate()  # lazy: no job yet
        assert sess.clock.now(CLUSTER) == 0.0
        (X * 2.0).sum().compute()
        assert sess.clock.now(CLUSTER) > 0.0


def _stale_prefetch_blocks(explain=None):
    """``Z`` is prefetched for the CP ``quantile`` of block 1, with zero
    overlap (ASY001); block 2, built before block 1 ran, consumes ``Z``
    on Spark only.  Runs block 1 under an analysis collector (and
    ``explain``, if given); returns the session, the collector, ``Z``'s
    hop id, block 2's root and the input."""
    cfg = MemphisConfig.base_async()
    cfg.cpu.operation_memory_bytes = 100_000
    with scope(analysis=AnalysisCollector(), explain=explain) as rt:
        sess = Session(cfg)
        data = RNG.random((2000, 50))
        X = sess.read(data, "X")
        Z = X * 2.0
        B = Z + 1.0
        z_id = Z.hop.id  # block 1 rebinds Z; block 2 reads this hop
        sess.quantile(Z, 0.5).compute()
    return sess, rt.analysis, z_id, B, data


class TestFlagsEndWithTheirBlock:
    def test_prefetch_of_an_earlier_block_does_not_leak(self):
        """A §5 flag is a decision of one block: ``Z`` is prefetched for
        the CP ``quantile`` of block 1, but in block 2 (built before
        block 1 ran) its only consumer runs on Spark."""
        sess, analysis, z_id, B, data = _stale_prefetch_blocks()
        assert sess.stats.get("async/prefetch_issued") == 1
        z_line = [line for line in
                  sess.explain(B, level="runtime").splitlines()
                  if f": #{z_id} " in line]
        out = B.compute()
        assert sess.stats.get("async/prefetch_issued") == 1  # none more
        assert len(z_line) == 1 and " * " in z_line[0]
        assert "{prefetch}" not in z_line[0]
        assert not analysis.merged().by_rule("ASY003")
        assert np.allclose(out, 2 * data + 1)

    def test_explain_shows_only_its_blocks_diagnostics(self):
        """Block 1's ASY001 on ``Z`` belongs to block 1: block 2's
        runtime EXPLAIN, which does not prefetch ``Z``, prints none
        under ``*``#Z."""
        sess, analysis, z_id, B, _ = _stale_prefetch_blocks()
        assert any(d.hop == z_id for d in analysis.merged().by_rule("ASY001"))
        lines = sess.explain(B, level="runtime").splitlines()
        (at,) = [i for i, line in enumerate(lines) if f": #{z_id} " in line]
        assert " * " in lines[at]
        notes = list(takewhile(lambda line: line.lstrip().startswith("!"),
                               lines[at + 1:]))
        assert not [note for note in notes if "ASY001" in note]

    def test_harness_renders_each_plan_with_its_blocks_diagnostics(
            self, capsys):
        """What ``--explain --verify-ir`` prints: block 1's plan shows
        its ASY001 under ``Z``, block 2's plan (which does not prefetch
        ``Z``) shows none there."""
        explain = ExplainCollector()
        _, analysis, z_id, B, _ = _stale_prefetch_blocks(explain)
        B.compute()
        with scope(analysis=analysis, explain=explain) as rt:
            _report_collected(
                argparse.Namespace(trace=None, trace_summary=False), rt)
        lines = capsys.readouterr().out.splitlines()
        starts = [i for i, line in enumerate(lines)
                  if line.startswith("block ")]
        assert len(starts) == 2
        sections = (lines[starts[0]:starts[1]], lines[starts[1]:])

        def asy001_under_z(section):
            found = []
            for at, line in enumerate(section):
                if f"#{z_id} " in line and " * " in line:
                    notes = takewhile(
                        lambda note: note.lstrip().startswith("!"),
                        section[at + 1:])
                    found += [note for note in notes if "ASY001" in note]
            return found

        assert asy001_under_z(sections[0])
        assert not asy001_under_z(sections[1])


class TestBroadcastRewrite:
    def test_small_local_results_broadcast_async(self):
        cfg = distributed_session()
        sess = Session(cfg)
        X = sess.read(RNG.random((10_000, 16)), "X")
        B = sess.read(RNG.random((16, 4)), "B")
        # B * 2 is a small CP op feeding a Spark matmul
        out = (X @ (B * 2.0)).compute()
        assert sess.stats.get("async/broadcast_issued") > 0
        assert out.shape == (10_000, 4)

    def test_no_async_broadcast_when_disabled(self):
        cfg = distributed_session(enable_async_ops=False,
                                  enable_max_parallelize=False)
        sess = Session(cfg)
        X = sess.read(RNG.random((10_000, 16)), "X")
        B = sess.read(RNG.random((16, 4)), "B")
        (X @ (B * 2.0)).compute()
        assert sess.stats.get("async/broadcast_issued") == 0


class TestLazyGc:
    def test_broadcasts_destroyed_after_materialization(self):
        cfg = distributed_session()
        sess = Session(cfg)
        X = sess.read(RNG.random((10_000, 16)), "X")
        B = sess.read(RNG.random((16, 4)), "B")
        for _ in range(6):  # reuse drives async materialization + GC
            (X @ B).sum().compute()
        assert sess.stats.get("spark/dangling_cleaned") > 0

    def test_driver_memory_reclaimed(self):
        cfg = distributed_session()
        sess = Session(cfg)
        X = sess.read(RNG.random((10_000, 16)), "X")
        B = sess.read(RNG.random((16, 4)), "B")
        for _ in range(6):
            (X @ B).sum().compute()
        retained = sess.spark_context.driver_retained_bytes
        broadcasts = sess.stats.get("spark/broadcasts")
        cleaned = sess.stats.get("spark/dangling_cleaned")
        assert cleaned > 0
        assert retained < broadcasts * 16 * 4 * 8  # some were destroyed


class TestSessionReporting:
    def test_report_lists_counters(self):
        sess = Session(MemphisConfig.memphis())
        X = sess.read(RNG.random((20, 4)), "X")
        (X.t() @ X).sum().compute()
        report = sess.report()
        assert "cache/" in report
        assert "runtime/instructions_executed" in report

    def test_elapsed_monotone(self):
        sess = Session(MemphisConfig.memphis())
        X = sess.read(RNG.random((20, 4)), "X")
        t0 = sess.elapsed()
        (X @ X.t()).sum().compute()
        assert sess.elapsed() > t0
