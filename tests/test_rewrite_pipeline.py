"""Pass-ordering and idempotence tests for the compiler rewrites.

The rewrite pipeline (``Session._compile``) runs CSE, placement, then
the checkpoint/prefetch/broadcast flag passes; lowering decides
transpose fusion and carries the flags.
Each rewrite must be idempotent — running it twice leaves the DAG
exactly as running it once; a flag pass returns the same ids twice and
mutates no hop.
"""

import inspect

import numpy as np

from repro.analysis import (
    DEFAULT_PASS_ORDER,
    dag_verify,
    memory_plan,
    placement_legality,
)
from repro.common.config import MemphisConfig, ReuseMode, StorageLevel
from repro.compiler.ir import CHECKPOINT, PREFETCH, Hop, literal_hop, op_hop
from repro.compiler.linearize import depth_first
from repro.compiler.plan import CompiledBlock, lower
from repro.compiler.rewrites.async_ops import (
    consumers_map,
    place_broadcast,
    place_prefetch,
)
from repro.compiler.rewrites.checkpoint import place_shared_checkpoints
from repro.compiler.rewrites.cse import eliminate_common_subexpressions
from repro.compiler.rewrites.tuning import tune_block
from repro.core.entry import BACKEND_CP, BACKEND_SP
from repro.core.session import Session
from repro.lineage.item import LineageItem


def _leaf(rows=8, cols=8, placement=None):
    hop = Hop("data", "data", [], shape=(rows, cols))
    hop.bundle = (LineageItem("data", (f"leaf{hop.id}",)), {"CP": object()})
    if placement is not None:
        hop.placement = placement
    return hop


def _flags(roots, config, prefetch=(), broadcast=(), checkpoint=()):
    """Per reachable hop, its lowered instruction's flags given the
    flag passes' ids, and whether the program only traces it."""
    nodes = depth_first(roots)
    block = CompiledBlock([], roots, nodes, {}, lower(
        nodes, consumers_map(roots, nodes), config, roots,
        prefetch, broadcast, checkpoint))
    skipped, flags = block.trace_only, block.flags
    return {(h.id, flags.get(h.id, 0), i in skipped)
            for i, h in enumerate(nodes)}


def _hops(roots):
    """Every slot of every reachable hop but the output-size cache."""
    slots = [s for s in Hop.__slots__ if s not in ("_obytes", "__weakref__")]
    return [[getattr(h, s, None) for s in slots] for h in depth_first(roots)]


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
        """CSE and placement run before the flag passes, which must see
        the final DAG and backends."""
        src = inspect.getsource(Session._compile)
        cse = src.index("eliminate_common_subexpressions")
        placement = src.index("assign_placements")
        checkpoint = src.index("place_shared_checkpoints")
        prefetch = src.index("place_prefetch")
        assert cse < placement < checkpoint < prefetch


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
        consumers = consumers_map(roots, nodes)
        hops = _hops(roots)
        once = place_shared_checkpoints(roots, config, consumers, nodes)
        assert len(once) == 1
        assert shared.id in once
        state = _flags(roots, config, checkpoint=once)
        assert (shared.id, CHECKPOINT, False) in state
        twice = place_shared_checkpoints(roots, config, consumers, nodes)
        assert twice == once
        assert _flags(roots, config, checkpoint=twice) == state
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
        consumers = consumers_map(roots, nodes)
        hops = _hops(roots)
        prefetch = place_prefetch(roots, config, consumers, nodes)
        broadcast = place_broadcast(roots, config, consumers, nodes)
        state = _flags(roots, config, prefetch, broadcast)
        assert any(flags & PREFETCH for _, flags, _ in state)
        assert place_prefetch(roots, config, consumers, nodes) == prefetch
        assert place_broadcast(roots, config, consumers, nodes) == broadcast
        assert _flags(roots, config, prefetch, broadcast) == state
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
