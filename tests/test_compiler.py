"""Tests for the compiler: IR, CSE, rewrites, linearization, tuning."""

import pytest

from repro.analysis import analyze, linearization_soundness
from repro.common.config import MemphisConfig, StorageLevel
from repro.common.errors import CompilationError
from repro.compiler.ir import (
    BROADCAST,
    CHECKPOINT,
    PREFETCH,
    READS_THROUGH,
    TRACE_ONLY,
    Hop,
    infer_shape,
    literal_hop,
    op_hop,
)
from repro.compiler.linearize import depth_first, max_parallelize
from repro.compiler.plan import block_flags
from repro.compiler.rewrites.checkpoint import should_checkpoint_loop_var
from repro.compiler.rewrites.cse import eliminate_common_subexpressions
from repro.compiler.rewrites.tuning import tune_block
from repro.core.entry import BACKEND_CP, BACKEND_GPU, BACKEND_SP
from repro.runtime.placement import matmul_pattern


def flagged(roots, config, bit):
    """The ids of the op hops :func:`block_flags` gives ``bit``."""
    flags = block_flags(roots, config, depth_first(roots))
    return {hop_id for hop_id, bits in flags.items() if bits & bit}


def prefetched(*hops):
    """The flags of a block whose only bits are these chain roots'."""
    return {hop.id: PREFETCH for hop in hops}


def parallelized(roots, flags):
    """:func:`max_parallelize` over the roots' depth-first order."""
    return max_parallelize(roots, flags, depth_first(roots))


class TestShapeInference:
    def test_matmul(self):
        assert infer_shape("ba+*", [(10, 20), (20, 5)], {}) == (10, 5)

    def test_transpose(self):
        assert infer_shape("r'", [(3, 7)], {}) == (7, 3)

    def test_solve(self):
        assert infer_shape("solve", [(5, 5), (5, 2)], {}) == (5, 2)

    def test_aggregates(self):
        assert infer_shape("uak+", [(10, 5)], {}) == (1, 1)
        assert infer_shape("uark+", [(10, 5)], {}) == (10, 1)
        assert infer_shape("uack+", [(10, 5)], {}) == (1, 5)

    def test_rand_seq(self):
        assert infer_shape("rand", [], {"rows": 8, "cols": 3}) == (8, 3)
        assert infer_shape("seq", [], {"from": 0, "to": 9, "incr": 1}) == (10, 1)

    def test_indexing(self):
        assert infer_shape("rightIndex", [(10, 10)],
                           {"rl": 2, "ru": 5, "cl": 1, "cu": 3}) == (4, 3)

    def test_binds(self):
        assert infer_shape("cbind", [(5, 2), (5, 3)], {}) == (5, 5)
        assert infer_shape("rbind", [(5, 2), (3, 2)], {}) == (8, 2)

    def test_broadcasting_binary(self):
        assert infer_shape("+", [(10, 5), (1, 5)], {}) == (10, 5)
        assert infer_shape("*", [(10, 1), (10, 5)], {}) == (10, 5)

    def test_conv_shapes(self):
        shape = infer_shape("conv2d", [(4, 3 * 8 * 8), (16, 27)], {
            "N": 4, "C": 3, "H": 8, "W": 8, "K": 16, "R": 3, "S": 3,
        })
        assert shape == (4, 16 * 6 * 6)

    def test_memory_estimate(self):
        hop = op_hop("ba+*", [literal_and(10, 20), literal_and(20, 5)])
        assert hop.output_bytes == 10 * 5 * 8
        assert hop.memory_estimate == (10 * 5 + 10 * 20 + 20 * 5) * 8


def literal_and(rows, cols):
    """A leaf hop with a given shape (stand-in for data)."""
    return Hop("data", "data", [], shape=(rows, cols))


class TestCse:
    def test_merges_identical_subtrees(self):
        x = literal_and(10, 10)
        a = op_hop("exp", [x])
        b = op_hop("exp", [x])
        root = op_hop("+", [a, b])
        roots, extra = eliminate_common_subexpressions([root])
        merged = roots[0]
        assert merged.inputs[0] is merged.inputs[1]

    def test_respects_attrs(self):
        x = literal_and(10, 10)
        a = op_hop("rightIndex", [x], {"rl": 1, "ru": 5, "cl": 1, "cu": 10})
        b = op_hop("rightIndex", [x], {"rl": 6, "ru": 10, "cl": 1, "cu": 10})
        root = op_hop("rbind", [a, b])
        roots, _ = eliminate_common_subexpressions([root])
        assert roots[0].inputs[0] is not roots[0].inputs[1]

    def test_distinct_leaves_not_merged(self):
        a = op_hop("exp", [literal_and(5, 5)])
        b = op_hop("exp", [literal_and(5, 5)])
        root = op_hop("+", [a, b])
        roots, _ = eliminate_common_subexpressions([root])
        assert roots[0].inputs[0] is not roots[0].inputs[1]

    def test_deep_chain_no_recursion_error(self):
        x = literal_and(2, 2)
        node = x
        for _ in range(5000):
            node = op_hop("exp", [node])
        roots, _ = eliminate_common_subexpressions([node])
        assert roots[0] is node

    def test_literals_merged_by_value(self):
        a = op_hop("+", [literal_hop(1.0), literal_hop(1.0)])
        roots, _ = eliminate_common_subexpressions([a])
        assert roots[0].inputs[0] is roots[0].inputs[1]


class TestLinearize:
    def _diamond(self):
        x = literal_and(4, 4)
        a = op_hop("exp", [x])
        b = op_hop("log", [a])
        c = op_hop("sqrt", [a])
        root = op_hop("+", [b, c])
        return x, a, b, c, root

    def test_depth_first_postorder(self):
        x, a, b, c, root = self._diamond()
        order = depth_first([root])
        pos = {h.id: i for i, h in enumerate(order)}
        assert pos[x.id] < pos[a.id] < pos[b.id]
        assert pos[a.id] < pos[c.id]
        assert pos[root.id] == len(order) - 1

    def test_depth_first_no_duplicates(self):
        *_, root = self._diamond()
        order = depth_first([root])
        assert len(order) == len({h.id for h in order})

    def test_max_parallelize_falls_back_without_remote(self):
        *_, root = self._diamond()
        assert [h.id for h in parallelized([root], {})] == \
            [h.id for h in depth_first([root])]

    def test_max_parallelize_longest_chain_first(self):
        x = literal_and(4, 4)
        # chain 1: three SP ops ending in a prefetch root
        s1 = op_hop("exp", [x]); s1.placement = BACKEND_SP
        s2 = op_hop("log", [s1]); s2.placement = BACKEND_SP
        long_root = op_hop("sqrt", [s2])
        long_root.placement = BACKEND_SP
        # chain 2: single SP op
        short_root = op_hop("abs", [x])
        short_root.placement = BACKEND_SP
        final = op_hop("+", [short_root, long_root])
        final.placement = BACKEND_CP
        order = parallelized([final], prefetched(long_root, short_root))
        pos = {h.id: i for i, h in enumerate(order)}
        # the longer chain's root is linearized before the shorter one
        assert pos[long_root.id] < pos[short_root.id]
        # dependencies still satisfied
        assert pos[s1.id] < pos[s2.id] < pos[long_root.id]
        assert pos[final.id] == len(order) - 1

    def test_max_parallelize_is_valid_topological_order(self):
        x = literal_and(4, 4)
        s1 = op_hop("exp", [x]); s1.placement = BACKEND_SP
        s2 = op_hop("log", [s1]); s2.placement = BACKEND_SP
        final = op_hop("+", [s1, s2])
        order = parallelized([final], prefetched(s1, s2))
        pos = {h.id: i for i, h in enumerate(order)}
        for hop in order:
            for inp in hop.inputs:
                assert pos[inp.id] < pos[hop.id]

    def test_depth_first_node_is_inner_and_later_root(self):
        # a appears inside root's DAG *and* again as its own root: it
        # must be emitted exactly once, at its first post-order slot
        x, a, b, c, root = self._diamond()
        order = depth_first([root, a])
        assert [h.id for h in order].count(a.id) == 1
        assert len(order) == len({h.id for h in order})
        assert not analyze([root, a], order,
                           passes=(linearization_soundness,)).errors()

    def test_depth_first_root_before_its_consumer_root(self):
        x, a, b, c, root = self._diamond()
        order = depth_first([a, root])
        pos = {h.id: i for i, h in enumerate(order)}
        assert pos[a.id] < pos[root.id]
        assert not analyze([a, root], order,
                           passes=(linearization_soundness,)).errors()

    def test_depth_first_duplicate_roots(self):
        *_, root = self._diamond()
        order = depth_first([root, root])
        assert len(order) == len({h.id for h in order})
        assert not analyze([root, root], order,
                           passes=(linearization_soundness,)).errors()

    def test_depth_first_same_input_twice(self):
        x = literal_and(4, 4)
        root = op_hop("+", [x, x])
        order = depth_first([root])
        assert [h.id for h in order] == [x.id, root.id]

    def test_depth_first_rejects_cycle(self):
        x = literal_and(4, 4)
        a = op_hop("exp", [x])
        b = op_hop("log", [a])
        a.inputs.append(b)
        with pytest.raises(CompilationError):
            depth_first([b])

    def _chain(self, x, length, backend):
        """A chain of ``length`` ops on ``backend``; its last op is the
        root max_parallelize is handed as prefetched."""
        node = x
        for _ in range(length):
            node = op_hop("exp", [node])
            node.placement = backend
        return node

    def test_max_parallelize_tie_broken_by_discovery_order(self):
        # equal chain lengths: the sort is stable, so chains keep the
        # deterministic depth-first discovery order (left-to-right)
        x = literal_and(4, 4)
        first = self._chain(x, 2, BACKEND_SP)
        second = self._chain(x, 2, BACKEND_SP)
        prefetch = prefetched(first, second)
        final = op_hop("+", [first, second])
        final.placement = BACKEND_CP
        order = parallelized([final], prefetch)
        pos = {h.id: i for i, h in enumerate(order)}
        assert pos[first.id] < pos[second.id]
        # swapping the consumer's operands swaps the discovery order
        final2 = op_hop("+", [second, first])
        final2.placement = BACKEND_CP
        order2 = parallelized([final2], prefetch)
        pos2 = {h.id: i for i, h in enumerate(order2)}
        assert pos2[second.id] < pos2[first.id]

    def test_max_parallelize_mixed_sp_and_gpu_chains(self):
        x = literal_and(4, 4)
        gpu_root = self._chain(x, 3, BACKEND_GPU)
        sp_root = self._chain(x, 1, BACKEND_SP)
        final = op_hop("+", [sp_root, gpu_root])
        final.placement = BACKEND_CP
        order = parallelized([final], prefetched(gpu_root, sp_root))
        pos = {h.id: i for i, h in enumerate(order)}
        # the longer GPU chain is linearized before the shorter SP one
        assert pos[gpu_root.id] < pos[sp_root.id]
        assert pos[final.id] == len(order) - 1
        assert not analyze([final], order,
                           passes=(linearization_soundness,)).errors()


class TestAsyncRewrites:
    def _sp_to_cp(self):
        x = literal_and(10_000, 100)
        sp = op_hop("exp", [x])
        sp.placement = BACKEND_SP
        cp = op_hop("uak+", [sp])
        cp.placement = BACKEND_CP
        return sp, cp

    def test_prefetch_placed_on_boundary(self):
        sp, cp = self._sp_to_cp()
        placed = flagged([cp], MemphisConfig.memphis(), PREFETCH)
        assert len(placed) == 1
        assert sp.id in placed

    def test_prefetch_disabled_without_async(self):
        sp, cp = self._sp_to_cp()
        placed = flagged([cp], MemphisConfig.base(), PREFETCH)
        assert len(placed) == 0
        assert sp.id not in placed

    def test_broadcast_placed_for_small_cp_feeding_sp(self):
        small = op_hop("exp", [literal_and(10, 10)])
        small.placement = BACKEND_CP
        consumer = op_hop("+", [small, literal_and(10_000, 10)])
        consumer.placement = BACKEND_SP
        placed = flagged([consumer], MemphisConfig.memphis(), BROADCAST)
        assert len(placed) == 1
        assert small.id in placed

    def test_broadcast_skips_large(self):
        cfg = MemphisConfig.memphis()
        big_cols = cfg.spark.driver_memory // 2 // 8
        big = op_hop("exp", [literal_and(1, big_cols)])
        big.placement = BACKEND_CP
        consumer = op_hop("+", [big, literal_and(1, big_cols)])
        consumer.placement = BACKEND_SP
        assert len(flagged([consumer], cfg, BROADCAST)) == 0


class TestCheckpointRewrites:
    def test_shared_sp_hop_checkpointed(self):
        x = literal_and(100_000, 100)
        shared = op_hop("exp", [x]); shared.placement = BACKEND_SP
        j1 = op_hop("uark+", [shared]); j1.placement = BACKEND_SP
        j2 = op_hop("log", [shared]); j2.placement = BACKEND_SP
        placed = flagged([j1, j2], MemphisConfig.memphis(), CHECKPOINT)
        assert len(placed) == 1
        assert shared.id in placed

    def test_single_consumer_not_checkpointed(self):
        x = literal_and(100_000, 100)
        sp = op_hop("exp", [x]); sp.placement = BACKEND_SP
        j1 = op_hop("uark+", [sp]); j1.placement = BACKEND_SP
        assert len(flagged([j1], MemphisConfig.memphis(), CHECKPOINT)) == 0

    def test_each_input_edge_counts(self):
        """Edges count per occurrence: one Spark ``*`` reading a Spark
        hop twice is two Spark consumers of it."""
        x = literal_and(100_000, 100)
        shared = op_hop("exp", [x]); shared.placement = BACKEND_SP
        square = op_hop("*", [shared, shared]); square.placement = BACKEND_SP
        assert flagged([square], MemphisConfig.memphis(),
                       CHECKPOINT) == {shared.id}

    def test_loop_var_predicate_uses_size(self):
        cfg = MemphisConfig.memphis()
        threshold_cells = cfg.cpu.operation_memory_bytes // 8
        assert should_checkpoint_loop_var((threshold_cells + 1, 1), cfg)
        assert not should_checkpoint_loop_var((10, 10), cfg)

    def test_loop_var_predicate_disabled(self):
        cfg = MemphisConfig.base()
        assert not should_checkpoint_loop_var((10**9, 10), cfg)


class TestReadThrough:
    """A Spark ``tsmm``/``cpmm`` reads through its left transpose, which
    is trace-only when that read is its one consumer edge."""

    def _transpose(self):
        cfg = MemphisConfig.memphis()
        cfg.cpu.operation_memory_bytes = 64 * 1024
        x = literal_and(200, 200)  # 320 KB: distributed
        t = op_hop("r'", [x]); t.placement = BACKEND_SP
        return cfg, x, t

    def test_tsmm_left_transpose_is_trace_only(self):
        cfg, x, t = self._transpose()
        mm = op_hop("ba+*", [t, x]); mm.placement = BACKEND_SP
        assert matmul_pattern(mm, cfg) == "tsmm"
        assert flagged([mm], cfg, READS_THROUGH) == {mm.id}
        assert flagged([mm], cfg, TRACE_ONLY) == {t.id}

    def test_transpose_read_twice_is_not_trace_only(self):
        cfg, x, t = self._transpose()
        mm = op_hop("ba+*", [t, t]); mm.placement = BACKEND_SP
        assert matmul_pattern(mm, cfg) == "cpmm"
        assert flagged([mm], cfg, READS_THROUGH) == {mm.id}
        assert flagged([mm], cfg, TRACE_ONLY) == set()

    def test_root_transpose_is_not_trace_only(self):
        cfg, x, t = self._transpose()
        mm = op_hop("ba+*", [t, x]); mm.placement = BACKEND_SP
        assert flagged([mm, t], cfg, READS_THROUGH) == {mm.id}
        assert flagged([mm, t], cfg, TRACE_ONLY) == set()


class TestAutoTuning:
    def test_highly_reusable_block_no_delay(self):
        delay, level = tune_block(18, 1.0)
        assert delay == 1
        assert level is StorageLevel.MEMORY_AND_DISK

    def test_loop_dependent_block_delayed(self):
        delay, level = tune_block(10, 0.1)
        assert delay == 4
        assert level is StorageLevel.MEMORY_ONLY

    def test_partially_reusable_block(self):
        assert tune_block(10, 0.6)[0] == 2

    def test_run_once_block_delayed(self):
        assert tune_block(1, 1.0)[0] == 4


class TestBenchSeams:
    """The contract ``bench/tracing.py`` relies on: it times CSE,
    placement and linearization by wrapping these names in
    ``repro.core.session``, and reads ``_compile(...)[2]`` as the
    block's instruction order."""

    PASSES = ("eliminate_common_subexpressions", "assign_placements",
              "depth_first", "max_parallelize")

    def _session(self):
        import numpy as np

        from repro.core.session import Session

        sess = Session(MemphisConfig.memphis())
        return sess, sess.read(np.ones((20, 4)), "X")

    def test_session_module_exposes_the_pass_names(self):
        import repro.core.session as session_mod

        for name in self.PASSES:
            assert callable(getattr(session_mod, name)), name

    def test_a_miss_calls_each_pass_through_the_session_module(
            self, monkeypatch):
        import repro.core.session as session_mod

        calls = []
        for name in self.PASSES:
            real = getattr(session_mod, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(session_mod, name, counted)
        sess, X = self._session()
        (X.t() @ X).compute()
        assert set(calls) == set(self.PASSES)

    def test_compile_index_2_is_the_executed_order(self):
        sess, X = self._session()
        compiled, ran = [], []
        compile_block, run = sess._compile, sess.interpreter.run

        def recording_compile(handles):
            compiled.append(compile_block(handles))
            return compiled[-1]

        def recording_run(order, *args):
            ran.append(order)
            return run(order, *args)

        sess._compile = recording_compile
        sess.interpreter.run = recording_run
        for i in range(3):  # two misses, then a memo hit
            (X.t() @ X + float(i)).compute()
        assert len(compiled) == len(ran) == 3
        for block, order in zip(compiled, ran):
            assert block[2] is order
            assert len(block) == 4
            assert all(isinstance(hop, Hop) for hop in order)
