"""Pass-ordering and idempotence tests for the compiler rewrites.

The rewrite pipeline (``Session._compile``) runs CSE, placement, then
``block_flags``, which decides the checkpoint/prefetch/broadcast
rewrites and the transpose fusion that lowering carries out.
Each rewrite must be idempotent — running it twice leaves the DAG
exactly as running it once; ``block_flags`` returns the same bits twice
and mutates no hop.
"""

import importlib.util
import inspect
import pathlib

import numpy as np
import pytest

from repro.analysis import (
    DEFAULT_PASS_ORDER,
    dag_verify,
    memory_plan,
    placement_legality,
)
from repro.common.config import MemphisConfig, ReuseMode, StorageLevel
from repro.compiler.ir import (
    BROADCAST,
    CHECKPOINT,
    KIND_OP,
    PREFETCH,
    Hop,
    literal_hop,
    op_hop,
)
from repro.compiler.linearize import depth_first, max_parallelize
from repro.compiler.plan import CompiledBlock, attr_data, block_flags, lower
from repro.compiler.rewrites.cse import eliminate_common_subexpressions
from repro.compiler.rewrites.tuning import tune_block
from repro.core.entry import BACKEND_CP, BACKEND_GPU, BACKEND_SP
from repro.core.session import Session
from repro.core.substrate import Substrate
from repro.lineage.item import LineageItem
from repro.runtime.placement import assign_placements, matmul_pattern
from repro.server.demo import impure_program, pure_program
from repro.server.scheduler import Scheduler

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _leaf(rows=8, cols=8, placement=None):
    hop = Hop("data", "data", [], shape=(rows, cols))
    hop.bundle = (LineageItem("data", (f"leaf{hop.id}",)), {"CP": object()})
    if placement is not None:
        hop.placement = placement
    return hop


def _flags(roots, flags):
    """Per reachable hop, its lowered instruction's flags given the
    block's :func:`block_flags`, and whether the program only traces
    it."""
    nodes = depth_first(roots)
    block = CompiledBlock([], roots, nodes, {}, lower(
        nodes, flags, {h.id: attr_data(h.attrs) for h in nodes if h.attrs}))
    skipped, flags = block.trace_only, block.flags
    return {(h.id, flags.get(h.id, 0), i in skipped)
            for i, h in enumerate(nodes)}


def _hops(roots):
    """Every slot of every reachable hop."""
    slots = [s for s in Hop.__slots__ if s != "__weakref__"]
    return [[getattr(h, s, None) for s in slots] for h in depth_first(roots)]


def _ids(flags, bit):
    """The ids of the hops whose bits hold ``bit``."""
    return {hop_id for hop_id, bits in flags.items() if bits & bit}


def _shape(roots):
    """Structural fingerprint: (id, opcode, input ids) per hop."""
    return {
        (h.id, h.opcode, tuple(i.id for i in h.inputs))
        for h in depth_first(roots)
    }


# ------------------------------------------------------------ pass order


class TestRegisteredPassOrder:
    def test_relative_order(self):
        order = list(DEFAULT_PASS_ORDER)
        assert order[0] is dag_verify
        assert order[-1] is memory_plan
        assert order.index(placement_legality) < order.index(memory_plan)

    def test_compile_pipeline_source_order(self):
        """CSE and placement run before ``block_flags``, which must see
        the final DAG and backends, and lowering comes last."""
        src = inspect.getsource(Session._compile)
        cse = src.index("eliminate_common_subexpressions")
        placement = src.index("assign_placements")
        flags = src.index("block_flags(")
        lowering = src.index("lower(")
        assert cse < placement < flags < lowering


# ------------------------------------------------------------ idempotence


class TestRewriteIdempotence:
    def test_cse_idempotent(self):
        x = _leaf()
        dup1 = op_hop("*", [x, literal_hop(2.0)])
        dup2 = op_hop("*", [x, literal_hop(2.0)])
        root = op_hop("+", [op_hop("relu", [dup1]), op_hop("relu", [dup2])])
        before = len(depth_first([root]))
        once, extra = eliminate_common_subexpressions([root])
        assert len(depth_first(once)) < before
        twice, extra2 = eliminate_common_subexpressions(list(once))
        assert _shape(twice) == _shape(once)
        assert extra2 == {}

    def test_checkpoint_idempotent(self):
        config = MemphisConfig.memphis()
        shared = op_hop("*", [_leaf(64, 64, BACKEND_SP),
                              _leaf(64, 64, BACKEND_SP)])
        shared.placement = BACKEND_SP
        c1 = op_hop("relu", [shared])
        c2 = op_hop("sigmoid", [shared])
        c1.placement = c2.placement = BACKEND_SP
        roots = [c1, c2]
        nodes = depth_first(roots)
        hops = _hops(roots)
        once = block_flags(roots, config, nodes)
        assert len(_ids(once, CHECKPOINT)) == 1
        assert shared.id in _ids(once, CHECKPOINT)
        state = _flags(roots, once)
        assert (shared.id, CHECKPOINT, False) in state
        twice = block_flags(roots, config, nodes)
        assert twice == once
        assert _flags(roots, twice) == state
        assert _hops(roots) == hops

    def test_async_ops_idempotent(self):
        config = MemphisConfig.memphis()
        remote = op_hop("*", [_leaf(64, 64, BACKEND_SP),
                              _leaf(64, 64, BACKEND_SP)])
        remote.placement = BACKEND_SP
        local = op_hop("relu", [_leaf(4, 4)])
        local.placement = BACKEND_CP
        sink = op_hop("+", [remote, local])
        sink.placement = BACKEND_SP
        collect = op_hop("sum", [sink])
        collect.placement = BACKEND_CP
        roots = [collect]
        nodes = depth_first(roots)
        hops = _hops(roots)
        once = block_flags(roots, config, nodes)
        state = _flags(roots, once)
        assert any(flags & PREFETCH for _, flags, _ in state)
        twice = block_flags(roots, config, nodes)
        assert _ids(twice, PREFETCH) == _ids(once, PREFETCH)
        assert _ids(twice, BROADCAST) == _ids(once, BROADCAST)
        assert _flags(roots, twice) == state
        assert _hops(roots) == hops

    def test_tuning_idempotent(self):
        # (execution frequency, reusable fraction): main, loop, cold
        blocks = [(1, 0.8), (20, 0.9), (20, 0.1)]
        once = [tune_block(*block) for block in blocks]
        twice = [tune_block(*block) for block in blocks]
        assert once == twice
        assert once[1][0] == 1
        assert once[2][1] is StorageLevel.MEMORY_ONLY


# ------------------------------------------------ CSE-merged handles


class TestCseMergedHandles:
    def test_every_handle_of_a_merged_hop_is_bound(self):
        # `mid_a` and `mid_b` are one hop after CSE: `mid_b` lives on
        # only as an extra handle, which evaluate must bind as well
        session = Session(MemphisConfig.memphis(reuse_mode=ReuseMode.NONE))
        data = (np.arange(16.0 * 16).reshape(16, 16) % 7.0) / 7.0
        x = session.read(data, "X")
        mid_a = (x * 2.0) + 1.0
        mid_b = (x * 2.0) + 1.0
        tail = mid_a.relu()
        session.evaluate([tail, mid_b])
        assert mid_a.is_evaluated and mid_b.is_evaluated
        expected_mid = data * 2.0 + 1.0
        np.testing.assert_array_equal(mid_b.compute(), expected_mid)
        np.testing.assert_array_equal(tail.compute(),
                                      np.maximum(expected_mid, 0.0))


# ------------------------------------------------- the CP-only compile path


def _full_passes(compiled, config):
    """What the whole pass sequence — ``block_flags`` with no skip for
    CP-only blocks — returns on the hops ``Session._compile`` just
    placed: the checkpoint, prefetch and broadcast ids, the order and
    the program."""
    _, root_hops, _, _ = compiled
    nodes = depth_first(root_hops)
    assign_placements(nodes, config)  # all placed: a no-op
    flags = block_flags(root_hops, config, nodes)
    order = (max_parallelize(root_hops, flags, nodes)
             if config.enable_max_parallelize else nodes)
    program = lower(order, flags,
                    {h.id: attr_data(h.attrs) for h in nodes if h.attrs})
    return (_ids(flags, CHECKPOINT), _ids(flags, PREFETCH),
            _ids(flags, BROADCAST), order, program)


def _remote(compiled) -> bool:
    return any(h.kind == KIND_OP and h.placement in (BACKEND_SP, BACKEND_GPU)
               for h in compiled[2])


@pytest.fixture
def checked(monkeypatch):
    """Every block a session compiles is checked against
    :func:`_full_passes` on its hops; counts CP-only and remote blocks."""
    seen = {"cp_only": 0, "remote": 0}
    real = Session._compile

    def compile_and_check(self, handles):
        compiled = real(self, handles)
        if compiled is None:
            return None
        seen["remote" if _remote(compiled) else "cp_only"] += 1
        checkpoint, prefetch, broadcast, order, program = _full_passes(
            compiled, self.config)
        flags = compiled.flags
        for bit, ids in ((CHECKPOINT, checkpoint), (PREFETCH, prefetch),
                         (BROADCAST, broadcast)):
            assert {i for i, f in flags.items() if f & bit} == set(ids)
        assert [h.id for h in compiled[2]] == [h.id for h in order]
        assert compiled.program == program
        return compiled

    monkeypatch.setattr(Session, "_compile", compile_and_check)
    return seen


class TestCpOnlyBlocksCompileExactly:
    """A block with no op on Spark or the GPU skips ``block_flags``;
    what it compiles to must be what the whole pass sequence returns on
    the same hops."""

    def test_quickstart(self, checked):
        spec = importlib.util.spec_from_file_location(
            "quickstart", EXAMPLES / "quickstart.py")
        quickstart = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(quickstart)
        # its 60,000-row input runs on Spark; 600 rows stay on the driver
        for rows in (60_000, 600):
            rng = np.random.default_rng(42)
            X = rng.random((rows, 32))
            y = X @ rng.standard_normal((32, 1))
            quickstart.grid_search(Session(MemphisConfig.memphis()), X, y,
                                   [1e-3, 1e-2, 1e-1])
        assert checked["cp_only"] and checked["remote"]

    def test_server_demo_request(self, checked):
        scheduler = Scheduler(
            Substrate.shared_substrate(MemphisConfig.server_session()))
        scheduler.submit("alpha", pure_program(), name="pure")
        scheduler.submit("beta", impure_program(), name="impure")
        assert scheduler.run().ok
        assert checked["cp_only"] and not checked["remote"]

    def test_spark_tsmm_and_cpmm(self, checked):
        cfg = MemphisConfig.memphis()
        cfg.cpu.operation_memory_bytes = 64 * 1024
        sess = Session(cfg)
        X = sess.read(np.random.default_rng(3).random((2000, 16)), "X")
        Y = sess.read(np.random.default_rng(4).random((2000, 8)), "Y")
        tsmm, cpmm = X.t() @ X, X.t() @ Y
        assert matmul_pattern(tsmm.hop, cfg) == "tsmm"
        assert matmul_pattern(cpmm.hop, cfg) == "cpmm"
        sess.evaluate([tsmm, cpmm])
        assert checked["remote"]

    def test_gpu_block(self, checked):
        cfg = MemphisConfig.memphis()
        cfg.gpu_enabled = True
        cfg.spark_enabled = False
        sess = Session(cfg)
        X = sess.read(np.random.default_rng(5).random((64, 64)), "X")
        ((X @ X).relu() + 1.0).sum().compute()
        assert checked["remote"]

    def test_remote_op_placed_by_an_earlier_block(self, checked):
        """Block 2's only remote op is ``Z``, which block 1 placed on
        Spark; its consumer there is a CP ``quantile``, so the whole
        pass sequence prefetches ``Z``."""
        cfg = MemphisConfig.base_async()
        cfg.cpu.operation_memory_bytes = 100_000
        sess = Session(cfg)
        X = sess.read(np.random.default_rng(6).random((2000, 50)), "X")
        Z = X * 2.0
        z_hop = Z.hop
        later = sess.quantile(Z, 0.25)  # built before block 1 runs
        sess.quantile(Z, 0.5).compute()
        assert z_hop.placement == BACKEND_SP
        new = [h for h in depth_first([later.hop])
               if h.kind == KIND_OP and h.placement is None]
        compiled = sess._compile([later])
        assert new and all(h.placement == BACKEND_CP for h in new)
        assert compiled.flags.get(z_hop.id, 0) & PREFETCH
        assert checked["remote"] == 2
