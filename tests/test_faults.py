"""Unit tests for the fault-injection framework (``repro.faults``).

Covers the plan surface (DSL round-trips, validation), the
injector's deterministic occurrence counters, and the two framework-wide
guarantees the chaos suite builds on:

* **zero overhead when disabled** — with no plan, sessions hold
  :data:`NULL_INJECTOR` and a run is byte-for-byte identical (stats,
  instruction counts, simulated durations) to one with an *empty* plan;
* **recovery determinism** — a plan replayed after a DSL round-trip
  reproduces the identical trace event sequence and outputs.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import MemphisConfig, Session
from repro.common.runtime import RuntimeContext, current, scope
from repro.common.simclock import HOST, SimClock
from repro.common.stats import Stats
from repro.faults import (
    KIND_EXECUTOR_LOSS,
    KIND_SPARK_TASK,
    KINDS,
    NULL_INJECTOR,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.obs import TraceCollector


def quickstart(cfg: MemphisConfig | None = None,
               plan: FaultPlan | None = None):
    """The docs' quickstart workload: 3 gradient steps of ridge regression.

    Deterministic data, multi-op DAG with cross-iteration reuse; returns
    ``(session, final ndarray)``.
    """
    cfg = cfg or MemphisConfig.memphis()
    with scope(faults=plan):
        sess = Session(cfg)
    data = (np.arange(200.0 * 8).reshape(200, 8) % 17.0) / 17.0
    target = (np.arange(200.0).reshape(200, 1) % 5.0) / 5.0
    X = sess.read(data, "X")
    y = sess.read(target, "y")
    w = sess.read(np.zeros((8, 1)), "w0")
    for _ in range(3):
        grad = X.t() @ (X @ w) - X.t() @ y
        w = w - 0.01 * grad
    return sess, w.compute()


def dsl(plan: FaultPlan) -> str:
    """``plan`` written in the ``--faults`` DSL, every field spelled out."""
    tokens = []
    for spec in plan.specs:
        keys = [spec.kind if spec.at is None else f"{spec.kind}@{spec.at}",
                f"count={spec.count}"]
        if spec.target is not None:
            keys.append(f"target={spec.target}")
        if spec.after_time is not None:
            keys.append(f"after={spec.after_time!r}")
        tokens.append(",".join(keys))
    tokens += [f"{field.name}={getattr(plan, field.name)!r}"
               for field in dataclasses.fields(plan) if field.name != "specs"]
    return ";".join(tokens)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor_strike", at=0)

    def test_needs_index_or_clock_key(self):
        with pytest.raises(ValueError, match="needs an index"):
            FaultSpec(KIND_SPARK_TASK)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count"):
            FaultSpec(KIND_SPARK_TASK, at=0, count=0)

    def test_clock_keyed_spec_is_valid(self):
        spec = FaultSpec("spill_io", after_time=1.5)
        assert spec.at is None and spec.after_time == 1.5

    def test_dsl_round_trip_every_kind(self):
        for i, kind in enumerate(KINDS):
            spec = FaultSpec(kind, at=i, count=2, target=1)
            plan = FaultPlan(specs=[spec])
            assert FaultPlan.parse(dsl(plan)) == plan


class TestFaultPlan:
    def test_dsl_round_trip(self):
        """The DSL is the one text form: it expresses every field."""
        plan = FaultPlan(
            specs=[FaultSpec(KIND_SPARK_TASK, at=3, count=2),
                   FaultSpec(KIND_EXECUTOR_LOSS, at=0, target=2),
                   FaultSpec("spill_io", after_time=0.25)],
            seed=99, max_task_retries=5, max_alloc_retries=6,
        )
        assert FaultPlan.parse(dsl(plan)) == plan

    def test_parse_dsl(self):
        plan = FaultPlan.parse(
            "spark_task@3;executor_loss@1,executor=2,count=3;"
            "gpu_alloc@0,count=2;spill_io,after=0.5;"
            "seed=7;max_task_retries=5;max_alloc_retries=4"
        )
        assert plan.seed == 7
        assert plan.max_task_retries == 5
        assert plan.max_alloc_retries == 4
        by_kind = {s.kind: s for s in plan.specs}
        assert by_kind[KIND_SPARK_TASK].at == 3
        assert by_kind[KIND_EXECUTOR_LOSS].target == 2
        assert by_kind[KIND_EXECUTOR_LOSS].count == 3
        assert by_kind["gpu_alloc"].count == 2
        assert by_kind["spill_io"].after_time == 0.5

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultPlan.parse("spark_task@0,flavor=3")
        with pytest.raises(ValueError, match="unknown fault plan field"):
            FaultPlan.parse("warp_speed=9")

    def test_randomize_is_pure_in_seed(self):
        a, b = FaultPlan.randomize(42), FaultPlan.randomize(42)
        assert a == b
        assert FaultPlan.randomize(43) != a
        budgets = FaultPlan()
        for spec in a.specs:
            assert 1 <= spec.count <= 2 <= budgets.max_task_retries

    def test_ambient_install_uninstall(self):
        plan = FaultPlan(specs=[FaultSpec(KIND_SPARK_TASK, at=0)])
        assert current().faults is None
        with scope(faults=plan):
            assert current().faults is plan
            # a session created under a context plan picks it up
            sess = Session(MemphisConfig.memphis())
            assert sess.faults.enabled
            assert sess.faults.plan is plan
        assert current().faults is None


class TestInjector:
    def _injector(self, *specs, seed=1234) -> FaultInjector:
        return FaultInjector(FaultPlan(specs=list(specs), seed=seed),
                             SimClock(), Stats())

    def test_occurrence_counter_indexes_draws(self):
        inj = self._injector(FaultSpec(KIND_SPARK_TASK, at=2))
        assert inj.spark_task() is None
        assert inj.spark_task() is None
        fault = inj.spark_task()
        assert fault is not None and fault.spec.at == 2
        assert inj.spark_task() is None

    def test_count_consumed_by_take(self):
        inj = self._injector(FaultSpec(KIND_SPARK_TASK, at=0, count=2))
        fault = inj.spark_task()
        assert fault.take() and fault.take() and not fault.take()

    def test_target_restricts_worker(self):
        """A targeted executor loss kills that executor, drawing nothing
        from the injector's RNG."""
        inj = self._injector(FaultSpec(KIND_EXECUTOR_LOSS, at=1, target=5))
        state = inj.rng.getstate()
        assert inj.executor_losses(4) == []  # job 0: not armed
        assert inj.executor_losses(4) == [1]  # job 1: executor 5 % 4
        assert inj.executor_losses(4) == []
        assert inj.rng.getstate() == state

    def test_clock_keyed_fault_waits_for_sim_time(self):
        clock = SimClock()
        inj = FaultInjector(
            FaultPlan(specs=[FaultSpec("spill_io", after_time=1.0)]),
            clock, Stats(),
        )
        assert not inj.spill_io()
        clock.advance(2.0, HOST)
        assert inj.spill_io()
        assert not inj.spill_io()  # consumed

    def test_executor_losses_deterministic_in_seed(self):
        spec = FaultSpec("executor_loss", at=0, count=3)
        a = self._injector(spec, seed=7).executor_losses(8)
        b = self._injector(FaultSpec("executor_loss", at=0, count=3),
                           seed=7).executor_losses(8)
        assert a == b and len(a) == 3
        assert all(0 <= e < 8 for e in a)

    def test_null_injector_is_inert(self):
        assert not NULL_INJECTOR.enabled
        assert NULL_INJECTOR.spark_task() is None
        assert NULL_INJECTOR.executor_losses(4) == []
        assert NULL_INJECTOR.gpu_alloc() is None
        assert not NULL_INJECTOR.spill_io()
        assert NULL_INJECTOR.lost_cache_entries(None) == 0


class TestZeroOverheadWhenDisabled:
    def test_session_without_plan_holds_null_injector(self):
        sess = Session(MemphisConfig.memphis())
        assert sess.faults is NULL_INJECTOR
        assert sess.spark_context.faults is NULL_INJECTOR
        assert sess.gpu.memory.faults is NULL_INJECTOR
        assert sess.cache.faults is NULL_INJECTOR

    def test_empty_plan_changes_nothing(self):
        """Empty plan == no plan: stats, durations, outputs identical."""
        with RuntimeContext():
            sess_a, out_a = quickstart()
        with RuntimeContext():
            sess_b, out_b = quickstart(plan=FaultPlan())
        assert sess_b.faults is not NULL_INJECTOR  # machinery armed
        assert np.array_equal(out_a, out_b)
        assert sess_a.elapsed() == sess_b.elapsed()
        assert sess_a.stats.counters() == sess_b.stats.counters()
        assert not any(k.startswith("faults/")
                       for k in sess_b.stats.counters())

    def test_no_plan_run_has_no_fault_counters(self):
        sess, _ = quickstart()
        assert not any(k.startswith("faults/")
                       for k in sess.stats.counters())


class TestRecoveryDeterminism:
    """Plan -> DSL -> plan, rerun, identical traces."""

    def _traced_run(self, plan: FaultPlan):
        with scope(trace=TraceCollector()):
            sess, out = quickstart(plan=plan)
        events = [(e.name, e.ph, round(e.ts, 12), e.lane,
                   round(e.dur, 12)) for e in sess.trace_events()]
        return out, events, sess.stats.counters()

    def test_round_tripped_plan_replays_identically(self):
        plan = FaultPlan.parse("cache_lost@4;spark_task@0,count=2;seed=11")
        with RuntimeContext():
            out_a, events_a, stats_a = self._traced_run(plan)
        with RuntimeContext():
            out_b, events_b, stats_b = self._traced_run(
                FaultPlan.parse(dsl(plan))
            )
        assert np.array_equal(out_a, out_b)
        assert events_a == events_b
        assert stats_a == stats_b
        assert len(events_a) > 0


class TestHarnessFlag:
    def test_faults_flag_installs_and_uninstalls(self, capsys):
        from repro.harness.__main__ import main

        code = main(["fig11a", "--faults", "cache_lost@6;seed=3"])
        assert code == 0
        assert current().faults is None  # the harness scope has exited
        captured = capsys.readouterr().out
        assert "[faults: injecting 1 fault spec(s), seed 3]" in captured

    def test_faults_flag_rejects_bad_spec(self):
        from repro.harness.__main__ import main

        with pytest.raises(ValueError):
            main(["fig11a", "--faults", "meteor_strike@0"])
