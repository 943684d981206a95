"""Hyper-parameter search helpers: k-fold boundaries, Hyperband-style
successive halving and ensemble-weight search (paper HCV and HBAND
pipelines; the HCV loop itself is ``repro.workloads.hcv``).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.session import Session
from repro.runtime.handles import MatrixHandle


def kfold_indices(n: int, k: int) -> list[tuple[int, int]]:
    """Contiguous fold boundaries [(start, stop)), 0-based."""
    fold = n // k
    return [(i * fold, (i + 1) * fold if i < k - 1 else n) for i in range(k)]


def successive_halving(
    sess: Session,
    configs: Sequence[dict],
    train_fn: Callable[[dict, int], object],
    score_fn: Callable[[object], float],
    brackets: int = 5,
    start_iterations: int = 10,
) -> tuple[dict, object, float]:
    """Hyperband-style bracket loop (paper HBAND phase 1).

    Each bracket halves the surviving configuration list and doubles the
    iteration budget; repeated configurations across brackets share
    their training prefix through lineage reuse.
    """
    survivors = list(configs)
    iterations = start_iterations
    best = (survivors[0], None, float("-inf"))
    for _ in range(brackets):
        scored = []
        for cfg in survivors:
            model = train_fn(cfg, iterations)
            scored.append((score_fn(model, cfg), cfg, model))
        scored.sort(key=lambda t: -t[0])
        top_score, top_cfg, top_model = scored[0]
        if top_score > best[2]:
            best = (top_cfg, top_model, top_score)
        survivors = [cfg for _, cfg, _ in scored[:max(len(scored) // 2, 1)]]
        iterations *= 2
        if len(survivors) == 1:
            break
    return best


def weighted_ensemble(
    sess: Session,
    probs_a: MatrixHandle,
    probs_b: MatrixHandle,
    truth: MatrixHandle,
    weight_grid: Sequence[float],
) -> tuple[float, float]:
    """Random/grid search over ensemble weights (paper HBAND phase 2).

    Combines two models' class probabilities as ``w*A + (1-w)*B``; the
    underlying ``X %*% B`` probability computations are reused across
    all weight configurations.
    """
    best_w, best_acc = weight_grid[0], -1.0
    for w in weight_grid:
        combined = probs_a * w + probs_b * (1.0 - w)
        pred = combined.row_argmax()
        acc = pred.eq(truth).mean().item()
        if acc > best_acc:
            best_w, best_acc = w, acc
    return best_w, best_acc
