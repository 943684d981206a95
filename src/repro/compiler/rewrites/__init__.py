"""Compiler rewrites: CSE, loop checkpoints, tuning."""

from repro.compiler.rewrites.checkpoint import should_checkpoint_loop_var
from repro.compiler.rewrites.cse import eliminate_common_subexpressions
from repro.compiler.rewrites.tuning import tune_block

__all__ = [
    "should_checkpoint_loop_var",
    "eliminate_common_subexpressions",
    "tune_block",
]
