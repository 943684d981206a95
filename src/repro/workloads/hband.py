"""HBAND: Hyperband-style model search + weighted ensemble
(paper Fig. 13(c), Table 3 row 3).

Phase 1 fine-tunes L2SVM and multinomial logistic regression via
successive halving (grid over regularization x intercept; brackets halve
the candidate list and double the iteration budget).  Phase 2 optimizes
ensemble weights over the two best models; the ``X %*% B`` class-
probability computations are reused across all weight configurations.
"""

from __future__ import annotations

import numpy as np

from repro.ml.l2svm import l2svm, l2svm_predict
from repro.ml.mlogreg import mlogreg, mlogreg_predict
from repro.ml.tuning import successive_halving, weighted_ensemble
from repro.workloads.base import WorkloadResult, finish, make_session
from repro.workloads.datagen import synthetic_classification


def run_hband(system: str, paper_gb: float, cols: int = 48,
              num_regs: int = 6, brackets: int = 3,
              start_iterations: int = 2, num_weights: int = 50,
              seed: int = 2) -> WorkloadResult:
    """Run the HBAND pipeline under one system configuration."""
    X_data, y_data = synthetic_classification(paper_gb, cols, 2, seed)
    labels = ((y_data > 0).astype(float) + 1.0)  # classes 1/2
    onehot = np.hstack([(labels == 1).astype(float),
                        (labels == 2).astype(float)])

    sess = make_session(system)
    X = sess.read(X_data, "X")
    y = sess.read(y_data, "y")
    Y = sess.read(onehot, "Y")
    truth = sess.read(labels, "labels")

    regs = [10.0 ** (i - num_regs // 2) for i in range(num_regs)]
    # three intercept options as in the paper; options 1 and 2 compile to
    # the same plan, creating exactly the cross-configuration redundancy
    # fine-grained reuse exploits
    configs = [{"reg": r, "icpt": i} for r in regs for i in (0, 1, 2)]

    train_svm = sess.function("train_l2svm")(
        lambda X_, y_, reg, icpt, iters: l2svm(
            sess, X_, y_, reg=reg, intercept=icpt, max_iterations=iters
        )
    )
    train_mlr = sess.function("train_mlogreg")(
        lambda X_, Y_, reg, icpt, iters: mlogreg(
            sess, X_, Y_, reg=reg, intercept=icpt, max_iterations=iters
        )
    )

    # scoring is wrapped for multi-level (function) reuse: intercept
    # options 1 and 2 train identical models, so their scoring calls
    # share lineage keys and the whole evaluation is reused (§3.3)
    score_svm_fn = sess.function("score_l2svm")(
        lambda w_, use_icpt: (
            l2svm_predict(sess, X, w_, intercept=use_icpt).sign() * y > 0.0
        ).mean()
    )
    score_mlr_fn = sess.function("score_mlogreg")(
        lambda W_, use_icpt: mlogreg_predict(
            sess, X, W_, intercept=use_icpt
        ).row_argmax().eq(truth).mean()
    )

    def score_svm(w, cfg) -> float:
        return score_svm_fn(w, min(cfg["icpt"], 1)).item()

    def score_mlr(W, cfg) -> float:
        return score_mlr_fn(W, min(cfg["icpt"], 1)).item()

    with sess.block("hband", execution_frequency=len(configs) * brackets,
                    reusable_fraction=0.7):
        best_svm_cfg, best_svm, svm_acc = successive_halving(
            sess, configs,
            lambda cfg, iters: train_svm(X, y, cfg["reg"], cfg["icpt"], iters),
            score_svm, brackets=brackets,
            start_iterations=start_iterations,
        )
        best_mlr_cfg, best_mlr, mlr_acc = successive_halving(
            sess, configs,
            lambda cfg, iters: train_mlr(X, Y, cfg["reg"], cfg["icpt"], iters),
            score_mlr, brackets=brackets,
            start_iterations=start_iterations,
        )
        # phase 2: weighted ensemble over class probabilities
        svm_scores = l2svm_predict(sess, X, best_svm,
                                   intercept=best_svm_cfg["icpt"])
        probs_svm = sess.cbind((-svm_scores).sigmoid(), svm_scores.sigmoid())
        probs_mlr = mlogreg_predict(sess, X, best_mlr,
                                    intercept=best_mlr_cfg["icpt"])
        weights = [i / num_weights for i in range(num_weights + 1)]
        _, ensemble_acc = weighted_ensemble(
            sess, probs_svm, probs_mlr, truth, weights
        )
    return finish("HBAND", system, {"paper_gb": paper_gb}, sess,
                  metric=ensemble_acc)
