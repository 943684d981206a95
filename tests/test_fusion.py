"""Differential fused-vs-unfused tests for the reuse-aware fusion pass.

Three layers of evidence that ``repro.compiler.rewrites.fusion`` never
changes semantics:

* a differential suite running every harness experiment fused and
  unfused — results (workload metrics) must be byte-identical, lineage
  probe/hit/put counters must be identical (reuse boundaries forbid
  fusion wherever the cache is live), and the fused instruction count
  must never rise;
* a hypothesis property test over randomly generated cell-wise chains —
  fused output equals unfused output bit-for-bit and interior hops are
  never also cached;
* unit tests for the planner's reuse-awareness/boundary gates and for
  the FUS analysis rule family.

The slow experiments are skipped by default; set
``MEMPHIS_FULL_DIFFERENTIAL=1`` to run all 16 (CI nightly / release).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze
from repro.common.config import (
    MemphisConfig,
    ReuseMode,
)
from repro.common.runtime import RuntimeContext, scope
from repro.common.stats import (
    CACHE_HITS,
    CACHE_PUTS,
    CPU_BYTES_ALLOCATED,
    FUSION_BYTES_SAVED,
    FUSION_CHAINS,
    FUSION_INSTRUCTIONS,
    INSTRUCTIONS_EXECUTED,
    LINEAGE_PROBES,
    LINEAGE_TRACED,
)
from repro.compiler.ir import Hop, literal_hop, op_hop
from repro.compiler.rewrites.fusion import (
    FUSED_OPCODE,
    FusedHop,
    fusion_spec,
    plan_fusion,
    retention_candidate,
)
from repro.core.session import Session
from repro.harness.__main__ import EXPERIMENTS
from repro.lineage.item import LineageItem
from repro.workloads.micro import run_reuse_overhead

# ------------------------------------------------------------- helpers


def _fuse(config: MemphisConfig) -> None:
    """The ``configure`` hook of harness ``--fusion``."""
    config.enable_fusion = True


def _session(reuse_mode=ReuseMode.NONE, fusion=False) -> Session:
    config = MemphisConfig.memphis()
    config.reuse_mode = reuse_mode
    config.enable_fusion = fusion
    return Session(config)


def _chain(handle):
    return (((handle * 2.0) + 1.0).sigmoid() * 0.5).relu()


DATA = (np.arange(32.0 * 32).reshape(32, 32) % 23.0) / 23.0 - 0.5


# ---------------------------------------------- fused execution semantics


class TestFusedExecution:
    def test_cellwise_chain_byte_equal_single_instruction(self):
        base = _session()
        fused = _session(fusion=True)
        out_base = _chain(base.read(DATA, "X")).compute()
        out_fused = _chain(fused.read(DATA, "X")).compute()
        assert out_fused.tobytes() == out_base.tobytes()
        assert out_fused.dtype == np.float64
        assert base.stats.get(INSTRUCTIONS_EXECUTED) == 5
        assert fused.stats.get(INSTRUCTIONS_EXECUTED) == 1
        assert fused.stats.get(FUSION_CHAINS) == 1
        assert fused.stats.get(FUSION_INSTRUCTIONS) == 1

    def test_fusion_reduces_allocated_bytes(self):
        base = _session()
        fused = _session(fusion=True)
        _chain(base.read(DATA, "X")).compute()
        _chain(fused.read(DATA, "X")).compute()
        saved = fused.stats.get(FUSION_BYTES_SAVED)
        assert saved > 0
        assert (fused.stats.get(CPU_BYTES_ALLOCATED) + saved
                == base.stats.get(CPU_BYTES_ALLOCATED))

    def test_matmul_epilogue_fuses(self):
        rng = np.random.default_rng(7)
        a, b = rng.random((24, 16)), rng.random((16, 8))
        base = _session()
        fused = _session(fusion=True)
        out_base = ((base.read(a, "A") @ base.read(b, "B")) * 0.5).relu()
        out_fused = ((fused.read(a, "A") @ fused.read(b, "B")) * 0.5).relu()
        assert out_fused.compute().tobytes() == out_base.compute().tobytes()
        assert fused.stats.get(INSTRUCTIONS_EXECUTED) == 1
        assert base.stats.get(INSTRUCTIONS_EXECUTED) == 3
        assert (fused.stats.get(CPU_BYTES_ALLOCATED)
                < base.stats.get(CPU_BYTES_ALLOCATED))

    def test_comparison_chain_stays_float64(self):
        base = _session()
        fused = _session(fusion=True)
        out_base = (((base.read(DATA, "X") > 0.5) * 3.0) + 1.0).compute()
        out_fused = (((fused.read(DATA, "X") > 0.5) * 3.0) + 1.0).compute()
        assert out_fused.dtype == np.float64
        assert out_fused.tobytes() == out_base.tobytes()
        assert fused.stats.get(FUSION_CHAINS) == 1

    def test_trace_only_fuses_and_traces_per_step(self):
        fused = _session(ReuseMode.TRACE_ONLY, fusion=True)
        _chain(fused.read(DATA, "X")).compute()
        assert fused.stats.get(FUSION_CHAINS) == 1
        # the fused instruction re-interns each absorbed hop's lineage
        assert fused.stats.get(LINEAGE_TRACED) == 5

    def test_trace_only_tail_lineage_matches_unfused(self):
        base = _session(ReuseMode.TRACE_ONLY)
        fused = _session(ReuseMode.TRACE_ONLY, fusion=True)
        hb = _chain(base.read(DATA, "X"))
        hf = _chain(fused.read(DATA, "X"))
        hb.compute(), hf.compute()
        assert hb.lineage is not None and hf.lineage is not None
        assert hb.lineage.opcode == hf.lineage.opcode

    def test_shared_interior_ends_the_chain(self):
        # `mid` has two consumers: it must not be fused over
        base = _session()
        fused = _session(fusion=True)
        outs = []
        for sess in (base, fused):
            x = sess.read(DATA, "X")
            mid = (x * 2.0) + 1.0
            outs.append((mid.relu() + mid.sigmoid()).compute())
        assert outs[0].tobytes() == outs[1].tobytes()

    def test_explain_annotates_fused_steps(self):
        fused = _session(fusion=True)
        rendered = fused.explain(_chain(fused.read(DATA, "X")))
        assert "fused(5)" in rendered
        assert FUSED_OPCODE in rendered


# ------------------------------------------------------ reuse-awareness


class TestReuseAwareness:
    @pytest.mark.parametrize("factory", [
        MemphisConfig.memphis, MemphisConfig.lima, MemphisConfig.helix,
        MemphisConfig.memphis_fine_only,
    ])
    def test_fusion_refused_under_retaining_modes(self, factory):
        config = factory()
        config.enable_fusion = True
        session = Session(config)
        out = _chain(session.read(DATA, "X")).compute()
        assert session.stats.get(FUSION_CHAINS) == 0
        base = _session()
        expected = _chain(base.read(DATA, "X")).compute()
        assert out.tobytes() == expected.tobytes()

    def test_retention_candidate_tracks_reuse_mode(self):
        hop = op_hop("relu", [Hop("data", "data", [], shape=(4, 4))])
        none_cfg = MemphisConfig.base()
        assert none_cfg.reuse_mode is ReuseMode.NONE
        assert not retention_candidate(hop, none_cfg)
        full_cfg = MemphisConfig.memphis()
        assert retention_candidate(hop, full_cfg)
        # unseeded rand is never retained (non-deterministic lineage key)
        rand = Hop("op", "rand", [], attrs={"rows": 4, "cols": 4},
                   shape=(4, 4))
        assert not retention_candidate(rand, full_cfg)
        rand.attrs["seed"] = 1
        assert retention_candidate(rand, full_cfg)

    def test_plan_fusion_refuses_retaining_config(self):
        x = Hop("data", "data", [], shape=(8, 8))
        a = op_hop("*", [x, literal_hop(2.0)])
        b = op_hop("relu", [a])
        nodes = [b, a, x]
        consumers = {x.id: [a], a.id: [b]}
        assert plan_fusion([b], nodes, consumers, MemphisConfig.base())
        assert not plan_fusion([b], nodes, consumers,
                               MemphisConfig.memphis())

    def test_ambient_override_enables_fusion(self):
        with scope(configure=_fuse):
            assert MemphisConfig.base().enable_fusion
        assert not MemphisConfig.base().enable_fusion

    def test_reuse_overhead_micro_unchanged_by_fusion(self):
        # fig11b's L2SVM reuse-overhead micro under the full reuse
        # config: --fusion must leave every counter as it was
        counters = []
        for configure in (None, _fuse):
            with RuntimeContext(configure=configure):
                counters.append(
                    run_reuse_overhead("Reuse", 800, 30, 0.4).counters)
        assert counters[0] == counters[1]
        assert counters[0][INSTRUCTIONS_EXECUTED] > 0


# ------------------------------------------------- hypothesis property

_UNARY_OPS = ("sigmoid", "relu", "tanh", "abs", "sign", "round")
_BINARY_OPS = ("*", "+", "-", "min", "max", ">")


def _apply_op(handle, op, scalar):
    if op in _UNARY_OPS:
        return getattr(handle, op)()
    if op == "*":
        return handle * scalar
    if op == "+":
        return handle + scalar
    if op == "-":
        return handle - scalar
    if op == "min":
        return handle.minimum(scalar)
    if op == "max":
        return handle.maximum(scalar)
    return handle > scalar


_chain_strategy = st.lists(
    st.tuples(
        st.sampled_from(_UNARY_OPS + _BINARY_OPS),
        st.floats(min_value=-1.5, max_value=1.5,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=2, max_size=6,
)


class TestFusionProperty:
    @given(ops=_chain_strategy, seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_random_chain_fused_equals_unfused(self, ops, seed):
        rng = np.random.default_rng(seed)
        data = rng.random((12, 12)) - 0.5
        outs, sessions = {}, {}
        for fuse in (False, True):
            session = _session(fusion=fuse)
            handle = session.read(data.copy(), "X")
            for op, scalar in ops:
                handle = _apply_op(handle, op, scalar)
            outs[fuse] = handle.compute()
            sessions[fuse] = session
        assert outs[True].tobytes() == outs[False].tobytes()
        assert outs[True].dtype == outs[False].dtype == np.float64
        fused = sessions[True].stats
        # the whole chain collapses into one fused instruction ...
        assert fused.get(FUSION_CHAINS) == 1
        assert fused.get(INSTRUCTIONS_EXECUTED) == 1
        assert (sessions[False].stats.get(INSTRUCTIONS_EXECUTED)
                == len(ops))
        # ... and no interior is ever also cached
        assert fused.get(CACHE_PUTS) == 0
        assert fused.get(LINEAGE_PROBES) == 0


# ----------------------------------------------------------- FUS rules


def _leaf(rows=8, cols=8):
    hop = Hop("data", "data", [], shape=(rows, cols))
    hop.bundle = (LineageItem("data", (f"leaf{hop.id}",)), {"CP": object()})
    return hop


def _planned_fused(config=None):
    """A well-formed FusedHop straight from the planner."""
    x = _leaf()
    a = op_hop("*", [x, literal_hop(2.0)])
    b = op_hop("sigmoid", [a])
    c = op_hop("relu", [b])
    consumers = {x.id: [a], a.id: [b], b.id: [c]}
    fused = plan_fusion([c], [c, b, a, x], consumers,
                        config or MemphisConfig.base())
    assert len(fused) == 1
    return fused[0], x


class TestFusRules:
    def _rules(self, roots, config=None):
        report = analyze(roots, config=config or MemphisConfig.base(),
                         passes=("fusion-legality",))
        return [d.rule for d in report]

    def test_clean_fused_plan_has_no_findings(self):
        fused, _x = _planned_fused()
        assert self._rules([fused]) == []

    def test_fus001_plain_hop_with_fused_opcode(self):
        bogus = Hop("op", FUSED_OPCODE, [_leaf()],
                    attrs={"steps": "relu", "rows": 8, "cols": 8},
                    shape=(8, 8))
        assert "FUS001" in self._rules([bogus])

    def test_fus002_offcp_placement(self):
        fused, _x = _planned_fused()
        fused.placement = "GPU"
        assert "FUS002" in self._rules([fused])

    def test_fus003_checkpoint_boundary(self):
        fused, _x = _planned_fused()
        fused.chain[0].checkpoint = True
        assert "FUS003" in self._rules([fused])

    def test_fus004_retention_candidate_absorbed(self):
        fused, _x = _planned_fused()
        rules = self._rules([fused], config=MemphisConfig.memphis())
        assert "FUS004" in rules

    def test_fus005_interior_still_reachable(self):
        fused, _x = _planned_fused()
        # re-expose an absorbed interior through a second root
        leak = op_hop("exp", [fused.chain[0]])
        assert "FUS005" in self._rules([fused, leak])

    def test_fusion_spec_helper(self):
        fused, _x = _planned_fused()
        spec = fusion_spec(fused)
        assert spec is not None and "sigmoid" in spec
        assert fusion_spec(_x) is None


# --------------------------------------- experiment differential suite

#: experiments that take > 10s per pass; run with
#: ``MEMPHIS_FULL_DIFFERENTIAL=1`` (the differential runs each twice).
SLOW_EXPERIMENTS = frozenset(
    {"fig11b", "hcv", "pnmf", "hband", "clean", "hdrop"})

_FULL = os.environ.get("MEMPHIS_FULL_DIFFERENTIAL") == "1"


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_differential(name):
    """Every experiment produces identical results fused vs unfused."""
    if name in SLOW_EXPERIMENTS and not _FULL:
        pytest.skip("slow experiment: set MEMPHIS_FULL_DIFFERENTIAL=1")
    with RuntimeContext():
        base = EXPERIMENTS[name]()
    with RuntimeContext(configure=_fuse):
        fused = EXPERIMENTS[name]()
    base_runs = base.workloads()
    fused_runs = fused.workloads()
    assert len(base_runs) == len(fused_runs)
    if not base_runs:
        # raw-dict grid (fig2c/fig2d-style micro breakdowns): no CPU
        # cell-wise chains, so the runs must be byte-identical
        assert repr(base.grid) == repr(fused.grid)
        assert base.table == fused.table
        return
    for b, f in zip(base_runs, fused_runs):
        where = (name, b.workload, b.system, b.params)
        assert (b.workload, b.system, b.params) == \
               (f.workload, f.system, f.params)
        assert b.failed is None and f.failed is None, where
        # results are byte-identical (repr compares NaN-safely)
        assert repr(b.metric) == repr(f.metric), where
        # lineage reuse is untouched: fusion never fires where the
        # cache probes or puts, so hit rates are identical
        for key in (LINEAGE_PROBES, CACHE_HITS, CACHE_PUTS):
            assert b.counter(key) == f.counter(key), (*where, key)
        # instruction count never rises under fusion
        assert (f.counter(INSTRUCTIONS_EXECUTED)
                <= b.counter(INSTRUCTIONS_EXECUTED)), where
        if f.counter(FUSION_CHAINS) == 0:
            # fusion never fired: the runs must be fully identical
            assert b.counters == f.counters, where
        else:
            assert (f.counter(INSTRUCTIONS_EXECUTED)
                    < b.counter(INSTRUCTIONS_EXECUTED)), where
