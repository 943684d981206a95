"""The matrix's workload programs: the paper's workloads (§6), small.

Each target is a small, fast configuration of one of the paper's
workloads; ``test_matrix.py`` runs every one under an
:class:`~repro.analysis.hook.AnalysisCollector`, so each compiled block
that flows through :meth:`Session.evaluate` is planned and verified by
the full pass pipeline.  The analyzer checks compiled IR, not
performance, so each target only needs to exercise its workload's DAG
shapes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.common.config import MemphisConfig
from repro.core.session import Session
from repro.ml import lin_reg_ds, lin_reg_predict, r2_score
from repro.workloads.clean import run_clean
from repro.workloads.en2de import run_en2de
from repro.workloads.hband import run_hband
from repro.workloads.hcv import run_hcv
from repro.workloads.hdrop import run_hdrop
from repro.workloads.micro import run_fig2c, run_reuse_overhead
from repro.workloads.pnmf_wl import run_pnmf
from repro.workloads.tlvis import run_tlvis


def run_quickstart() -> list[float]:
    """The README's grid search (``examples/quickstart.py``) at a small
    size; returns the R^2 of every grid point."""
    rng = np.random.default_rng(1)
    X_data = rng.random((256, 16))
    y_data = X_data @ rng.random((16, 1)) + 0.01 * rng.random((256, 1))
    session = Session(MemphisConfig.memphis())
    X, y = session.read(X_data, "X"), session.read(y_data, "y")
    return [
        r2_score(session, y, lin_reg_predict(
            session, X, lin_reg_ds(session, X, y, reg))).item()
        for reg in (0.01, 0.1, 1.0)
    ]


#: name -> thunk.
TARGETS: dict[str, Callable[[], object]] = {
    # the README's ridge grid search (direct solve, MPH)
    "quickstart": run_quickstart,
    # hyper-parameter tuned cross-validation (lmCG, MPH)
    "hcv": lambda: run_hcv("MPH", 5.0),
    # Poisson non-negative matrix factorization (MPH)
    "pnmf": lambda: run_pnmf("MPH", 5),
    # hyper-band hyper-parameter search (MPH)
    "hband": lambda: run_hband("MPH", 5.0),
    # data-cleaning pipeline enumeration (MPH)
    "clean": lambda: run_clean("MPH", 12),
    # MLP grid search with dropout (MPH, 1 epoch)
    "hdrop": lambda: run_hdrop("MPH", epochs=1),
    # transformer encoder inference (MPH)
    "en2de": lambda: run_en2de("MPH"),
    # transfer-learning feature extraction (MPH)
    "tlvis": lambda: run_tlvis("MPH", num_images=2000),
    # microbenchmarks: fig2c chain reuse + reuse-overhead sweep
    "micro": lambda: (
        run_fig2c("MEMPHIS", num_chains=20),
        run_reuse_overhead("Reuse", 8 * 1024, iterations=10),
    ),
}
