"""The per-shape compile plan memo (``repro.compiler.plan``).

A session records a block shape's compile decisions the second time it
sees the shape and replays them from the third on.  Two properties:

* *miss ≡ hit*: a block compiled from the memo gets the same EXPLAIN
  dump, flags, order, verifier diagnostics and rebound handles as the
  same block compiled by the passes;
* *key soundness*: a hit never serves a plan the passes would not
  build — each pair below differs in one fact the key must hold, and
  the second block's plan must equal its plan in a fresh session.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.session as session_mod
from repro.analysis.hook import AnalysisCollector
from repro.backends.cpu.backend import CpuBackend
from repro.backends.gpu.backend import GpuBackend
from repro.common.config import MemphisConfig
from repro.common.costs import op_flops
from repro.common.runtime import RuntimeContext
from repro.compiler.plan import MEMO_BOUND, PlanMemo
from repro.core.session import Session
from repro.ml.l2svm import l2svm_core_iteration
from repro.ml.linreg import lin_reg_ds, lin_reg_predict, r2_score
from repro.ml.tuning import kfold_indices
from repro.obs import TraceCollector, chrome_trace_dict
from repro.obs.explain import ExplainCollector
from repro.workloads.base import make_session, scale_overheads
from repro.workloads.datagen import synthetic_regression
from repro.workloads.hcv import _complement
from repro.workloads.micro import ensemble_cnns, run_fig12b

KB = 1024


@pytest.fixture
def pass_runs(monkeypatch):
    """How many blocks ran the passes (a memo hit runs none)."""
    runs = [0]
    real = session_mod.depth_first

    def counted(*args, **kwargs):
        runs[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(session_mod, "depth_first", counted)
    return runs


def plan_of(compiled) -> tuple:
    """A compiled block by position in its order: per hop kind, opcode,
    shape, placement, flags and input positions; the roots; and which
    positions rebind CSE-merged handles."""
    _, root_hops, order, extra = compiled
    at = {hop.id: i for i, hop in enumerate(order)}
    hops = tuple(
        (hop.kind, hop.opcode, hop.shape, hop.placement, hop.prefetch,
         hop.async_broadcast, hop.checkpoint, hop.fused,
         tuple(at[h.id] for h in hop.inputs))
        for hop in order)
    merged = sorted((at[hop_id], len(handles))
                    for hop_id, handles in extra.items())
    return hops, tuple(at[h.id] for h in root_hops), merged


# -- miss ≡ hit ---------------------------------------------------------------


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _run(case, blocks: int, memo: bool, pass_runs) -> dict:
    """``case``'s steps in a fresh id space, under explain capture and
    analysis; without ``memo`` every block is compiled by the passes."""
    explain, analysis = ExplainCollector(), AnalysisCollector()
    before = pass_runs[0]
    with RuntimeContext(explain=explain, analysis=analysis):
        sess, step = case()
        outs = []
        for i in range(blocks):
            if not memo:
                sess._plans = PlanMemo()
            outs.append(step(i))
        return {
            "explain": sess.explain(),
            "diagnostics": [d.format() for d in analysis.merged()],
            "outs": outs,
            "pass_runs": pass_runs[0] - before,
            "stats": sess.stats.counters(),
            "sim_s": sess.elapsed(),
        }


def ridge_case():
    """The quickstart ridge step; ``A2`` is a live duplicate of ``A``
    that CSE merges, so its handle is rebound as an extra handle."""
    sess = Session(MemphisConfig.memphis())
    rng = np.random.default_rng(3)
    X = sess.read(rng.random((60, 6)), "X")
    y = sess.read(rng.random((60, 1)), "y")

    def step(i):
        A = X.t() @ X
        A2 = X.t() @ X
        b = (y.t() @ X).t()
        beta = sess.solve(A + (0.1 * (i + 1)) * sess.eye(X.ncol), b)
        sess.evaluate([beta, A2])
        return [beta.compute(), A2.compute(), A2.lineage is A.lineage,
                sess.serialize_lineage(A2)]

    return sess, step


def hcv_case():
    """One ``hcv`` configuration per block: Spark placement with
    checkpoint, prefetch and broadcast flags and a reordered stream."""
    X_data, y_data = synthetic_regression(25.0, 64, 1)
    sess = make_session("MPH")
    X = sess.read(X_data, "X")
    y = sess.read(y_data, "y")
    start, stop = kfold_indices(X.nrow, 3)[1]

    def step(i):
        with sess.block("hcv", execution_frequency=30,
                        reusable_fraction=0.9):
            X_tr, y_tr = _complement(sess, X, y, start, stop)
            beta = lin_reg_ds(sess, X_tr, y_tr, 10.0 ** (i - 3))
            y_hat = lin_reg_predict(sess, X[start:stop, :], beta)
            return r2_score(sess, y[start:stop, :], y_hat).item()

    return sess, step


def cnn_case():
    """``gpu_score``'s ensemble CNN scoring, one batch per block."""
    config = MemphisConfig.memphis()
    config.gpu_enabled = True
    config.spark_enabled = False
    config.gpu.min_cells = 64
    scale_overheads(config, 1.0 / 64.0)
    sess = Session(config)
    models = [model.build(sess, seed=41 + k)
              for k, model in enumerate(ensemble_cnns(16)[:2])]
    rng = np.random.default_rng(5)

    def step(i):
        batch = sess.read(rng.random((4, 3 * 16 * 16)), f"content_{i}")
        return [model.score(sess, batch).max().item() for model in models]

    return sess, step


def l2svm_case():
    """The ``hpo_*`` L2SVM step: only the ``reg`` literal changes."""
    sess = Session(MemphisConfig.memphis())
    rng = np.random.default_rng(7)
    X = sess.read(rng.random((80, 8)), "X")
    y = sess.read(np.where(rng.random((80, 1)) > 0.5, 1.0, -1.0), "y")
    w = sess.read(np.zeros((8, 1)), "w")

    def step(i):
        reg = 0.25 * (i + 1)
        return l2svm_core_iteration(sess, X, y, w + reg, reg).sum().item()

    return sess, step


@pytest.mark.parametrize("case", [ridge_case, hcv_case, cnn_case,
                                  l2svm_case])
def test_memo_hit_equals_pass_compile(case, pass_runs):
    hit = _run(case, 4, True, pass_runs)
    miss = _run(case, 4, False, pass_runs)
    assert hit["pass_runs"] < miss["pass_runs"], "no block hit the memo"
    assert hit["explain"] == miss["explain"]
    assert hit["diagnostics"] == miss["diagnostics"]
    assert _same(hit["outs"], miss["outs"])
    assert hit["stats"] == miss["stats"]
    assert hit["sim_s"] == miss["sim_s"]


def test_merged_live_handles_rebound_on_a_hit(pass_runs):
    sess, step = ridge_case()
    outs = [step(i) for i in range(3)]
    assert pass_runs[0] == 2
    beta, A2, shares_lineage, _ = outs[2]
    assert shares_lineage
    assert beta.shape == (6, 1) and A2.shape == (6, 6)


# -- key soundness ------------------------------------------------------------


def _spark_config(op_mem: int = 64 * KB) -> MemphisConfig:
    config = MemphisConfig.memphis()
    config.cpu.operation_memory_bytes = op_mem
    return config


def _read(sess, name, rows=100, cols=64, seed=0):
    rng = np.random.default_rng(seed)
    return sess.read(rng.random((rows, cols)), name)


def _after_warmup(make, warm, block):
    """``block``'s plan in a session that compiled ``warm`` twice first,
    and in a fresh session; plus ``warm``'s own plan."""
    sess = make()
    for _ in range(2):
        warm_plan = plan_of(sess._compile(warm(sess)))
    got = plan_of(sess._compile(block(sess)))
    fresh = make()
    return got, plan_of(fresh._compile(block(fresh))), warm_plan


def test_key_tells_tsmm_from_a_distinct_leaf_of_equal_shape():
    def make():
        sess = Session(_spark_config())
        sess.leaves = [_read(sess, "X"), _read(sess, "Z", seed=1)]
        return sess

    def tsmm(sess):
        X, _ = sess.leaves
        return [X.t() @ X]

    def cross(sess):
        X, Z = sess.leaves
        return [X.t() @ Z]

    got, want, warm = _after_warmup(make, tsmm, cross)
    assert got == want
    assert want != warm


def test_key_holds_leaf_residency():
    def make():
        sess = Session(_spark_config())
        local = _read(sess, "L", rows=20, cols=8)
        remote = _read(sess, "R", rows=20, cols=8, seed=1) * 1.0
        remote.hop.placement = "SP"
        sess.evaluate([remote])
        sess.leaves = [local, remote]
        return sess

    def on_local(sess):
        return [sess.leaves[0].sum()]

    def on_remote(sess):
        return [sess.leaves[1].sum()]

    got, want, warm = _after_warmup(make, on_local, on_remote)
    assert got == want
    assert want != warm


def _x(sess):
    if not hasattr(sess, "leaves"):
        sess.leaves = [_read(sess, "X", rows=10, cols=4)]
    return sess.leaves[0]


def test_key_holds_literal_classes():
    make = lambda: Session(MemphisConfig.memphis())  # noqa: E731
    got, want, warm = _after_warmup(
        make, lambda s: [_x(s) * 2.0 + _x(s) * 2.0],
        lambda s: [_x(s) * 2.0 + _x(s) * 3.0])
    assert got == want
    assert want != warm


def test_signed_zero_literals_group_as_cse_groups_them(pass_runs):
    sess = Session(MemphisConfig.memphis())
    for _ in range(2):
        sess._compile([_x(sess) * 2.0 + _x(sess) * 2.0])
    runs = pass_runs[0]
    got = plan_of(sess._compile([_x(sess) * 0.0 + _x(sess) * -0.0]))
    assert pass_runs[0] == runs, "0.0 and -0.0 are one CSE class"
    fresh = Session(MemphisConfig.memphis())
    assert got == plan_of(
        fresh._compile([_x(fresh) * 0.0 + _x(fresh) * -0.0]))


def test_key_holds_the_config_the_passes_read():
    def block(sess):
        if not hasattr(sess, "leaves"):
            sess.leaves = [_read(sess, "X")]
        X = sess.leaves[0]
        return [(X.t() @ X).sum()]

    sess = Session(_spark_config(op_mem=64 * 1024 * KB))
    for _ in range(2):
        warm = plan_of(sess._compile(block(sess)))
    sess.config.cpu.operation_memory_bytes = 64 * KB
    got = plan_of(sess._compile(block(sess)))
    fresh = Session(_spark_config())
    want = plan_of(fresh._compile(block(fresh)))
    assert got == want
    assert want != warm


def _placed_on_spark(sess):
    """``T`` is placed on Spark (its transpose fused) by a first block
    under a small operation budget, which then grows."""
    X = _read(sess, "X")
    T = X.t() @ X
    sess._compile([T + 1.0])
    sess.config.cpu.operation_memory_bytes = 64 * 1024 * KB
    return X, T, lambda: (X.t() @ X)


def _placed_locally(sess):
    """``T`` is placed on the driver by a first block under a large
    operation budget, which then shrinks: only its placement differs
    from a fresh hop's."""
    sess.config.cpu.operation_memory_bytes = 64 * 1024 * KB
    X = _read(sess, "X")
    T = X * 2.0
    sess._compile([T + 1.0])
    sess.config.cpu.operation_memory_bytes = 64 * KB
    return X, T, lambda: X * 2.0


@pytest.mark.parametrize("placed", [_placed_on_spark, _placed_locally])
def test_key_holds_placements_from_an_earlier_block(placed):
    sess = Session(_spark_config())
    X, T, fresh_T = placed(sess)
    for _ in range(2):
        warm = plan_of(sess._compile([fresh_T() * 3.0]))
    got = plan_of(sess._compile([T * 3.0]))
    fresh = Session(_spark_config())
    _, T_fresh, _ = placed(fresh)
    want = plan_of(fresh._compile([T_fresh * 3.0]))
    assert got == want
    assert want != warm


def test_nan_attribute_block_is_recorded_on_its_second_compile(pass_runs):
    sess = Session(MemphisConfig.memphis())
    X = _read(sess, "X", rows=10, cols=4)
    plans = [plan_of(sess._compile([X.replace(float("nan"), 0.0) + 1.0]))
             for _ in range(3)]
    assert len(sess._plans) == 1
    assert pass_runs[0] == 2
    assert plans[0] == plans[2]


def test_memo_stays_within_its_bound():
    sess = Session(MemphisConfig.memphis())
    for _ in range(1000):
        sess.rand(4, 4).compute()
    assert 0 < len(sess._plans) <= MEMO_BOUND
    for i in range(2 * MEMO_BOUND):
        for _ in range(2):
            (sess.rand(4, 4, seed=i) + 1.0).compute()
    assert len(sess._plans) <= MEMO_BOUND


# -- lowered instructions -----------------------------------------------------


def test_static_cp_charge_equals_the_value_derived_one(monkeypatch):
    """A lowered instruction's CP FLOPs and bytes are what the values
    of the executed instruction give."""
    real = CpuBackend.execute
    checked = []

    def execute(self, opcode, inputs, attrs, flops=None, nbytes=None):
        out = real(self, opcode, inputs, attrs, flops, nbytes)
        in_shapes = [v.shape for v in inputs] or [(1, 1)]
        assert flops == op_flops(opcode, in_shapes, out.shape), opcode
        assert nbytes == out.nbytes + sum(v.nbytes for v in inputs), opcode
        checked.append(opcode)
        return out

    monkeypatch.setattr(CpuBackend, "execute", execute)
    for case in (ridge_case, l2svm_case, hcv_case):
        _, step = case()
        for i in range(3):
            step(i)
    sess = Session(MemphisConfig.memphis())
    X = _read(sess, "X", rows=30, cols=5)
    (sess.seq(1, 7, 2).sum() + sess.cbind(X, X).replace(0.5, 1.0)
     .row_sums().t().col_maxs().sum() + X[2:5, 1:3].mean()).compute()
    assert {"ba+*", "solve", "uak+", "cbind", "rightIndex",
            "seq"} <= set(checked)


def _cnn_blocks():
    sess, step = cnn_case()
    for i in range(4):
        step(i)
    return sess.elapsed(), sess.stats.counters()


def _fig12b_blocks():
    res = run_fig12b("MPH", 8, num_images=32, reuse_fraction=0.5)
    return res.elapsed, res.counters


@pytest.mark.parametrize("blocks", [_cnn_blocks, _fig12b_blocks])
def test_static_gpu_charge_equals_the_value_derived_one(blocks, monkeypatch):
    """A GPU instruction charged with its lowered FLOPs runs exactly as
    one whose FLOPs ``GpuBackend.execute`` derives from the values: same
    simulated clock, ``gpu/*`` counters and traced kernel events."""
    real = GpuBackend.execute
    derive = [False]
    lowered = []

    def execute(self, opcode, inputs, attrs, lineage_height=1, flops=None):
        lowered.append(flops)
        return real(self, opcode, inputs, attrs, lineage_height,
                    None if derive[0] else flops)

    monkeypatch.setattr(GpuBackend, "execute", execute)
    runs = []
    for derive[0] in (False, True):
        trace = TraceCollector()
        with RuntimeContext(trace=trace):
            sim_s, counters = blocks()
        doc = chrome_trace_dict(trace.events(), trace.session_labels)
        runs.append((
            sim_s,
            {k: v for k, v in counters.items() if k.startswith("gpu/")},
            [e for e in doc["traceEvents"] if e["name"] == "gpu/kernel"],
        ))
    assert lowered and None not in lowered
    assert runs[0][1]["gpu/kernels_launched"] > 0 and runs[0][2]
    assert runs[0] == runs[1]
