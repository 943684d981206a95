"""What an analysis pass inspects.

A pass is a plain function ``(ctx) -> list[Diagnostic]`` over one
compiled program — the post-rewrite HOP DAG and/or its linearized
instruction stream; :data:`~repro.analysis.manager.DEFAULT_PASS_ORDER`
is the fixed tuple of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.analysis.dataflow import StreamDefUse
from repro.common.config import MemphisConfig
from repro.compiler.ir import Hop

if TYPE_CHECKING:
    from repro.analysis.memplan import BlockMemPlan


@dataclass
class AnalysisContext:
    """Everything a pass may inspect for one compiled program.

    ``roots`` are the output hops of one basic block after rewrites;
    ``order`` is the proposed linearization (``None`` when only the DAG
    is available, e.g. :meth:`Hop.validate`).  ``nodes`` caches the
    cycle-safe post-order so each pass does not re-walk the DAG, and
    ``cyclic`` short-circuits passes that require an acyclic graph.
    ``defuse`` holds the def-use chains of ``order``, built once for
    all stream passes; ``plan`` is the block's memory plan when the
    caller (``Session.evaluate``) already computed it; ``flags`` the
    block's §5 flags (:attr:`~repro.compiler.plan.CompiledBlock.flags`).
    """

    roots: list[Hop]
    order: Optional[list[Hop]] = None
    config: MemphisConfig = field(default_factory=MemphisConfig)
    nodes: list[Hop] = field(default_factory=list)
    cyclic: bool = False
    defuse: Optional[StreamDefUse] = None
    plan: Optional["BlockMemPlan"] = None
    flags: dict[int, int] = field(default_factory=dict)
