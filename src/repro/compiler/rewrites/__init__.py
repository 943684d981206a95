"""Compiler rewrites: CSE, async operators, checkpoints, tuning."""

from repro.compiler.rewrites.async_ops import place_broadcast, place_prefetch
from repro.compiler.rewrites.checkpoint import (
    place_shared_checkpoints,
    should_checkpoint_loop_var,
)
from repro.compiler.rewrites.cse import eliminate_common_subexpressions
from repro.compiler.rewrites.tuning import (
    BlockTuning,
    ProgramBlock,
    tune_block,
    tune_program,
)

__all__ = [
    "place_prefetch",
    "place_broadcast",
    "place_shared_checkpoints",
    "should_checkpoint_loop_var",
    "eliminate_common_subexpressions",
    "ProgramBlock",
    "BlockTuning",
    "tune_block",
    "tune_program",
]
