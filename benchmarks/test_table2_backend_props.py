"""E14 (paper Table 2): measured backend properties.

Verifies that the configured simulator matches the paper's Table 2 and
that the *measured* behaviour matches the configuration: Spark transfers
run at ~15 GB/s, GPU pageable copies at ~6.1 GB/s, Spark is lazy, the
GPU stream is asynchronous.
"""

import numpy as np

from repro.common.config import GB, MemphisConfig
from repro.common.costs import op_flops
from repro.common.simclock import DEVICE, HOST
from repro.core.session import Session
from repro.harness import run_experiment_table2
from repro.runtime.values import MatrixValue


def test_table2_report(benchmark, print_report):
    result = benchmark.pedantic(run_experiment_table2, rounds=1, iterations=1)
    print_report(result)


def test_table2_spark_bandwidth_measured(benchmark):
    sess = Session(MemphisConfig.base())
    value = MatrixValue(np.ones((1024, 128)))  # 1 MiB

    def roundtrip():
        dm = sess.spark.distribute(value)
        t0 = sess.clock.now(HOST)
        sess.spark.collect(dm)
        return sess.clock.now(HOST) - t0

    elapsed = benchmark.pedantic(roundtrip, rounds=1, iterations=1)
    # two transfers (up on compute, down on collect) + overheads
    floor = 2 * value.nbytes / (15 * GB)
    assert elapsed >= floor

def test_table2_gpu_bandwidth_measured(benchmark):
    cfg = MemphisConfig.base()
    cfg.gpu_enabled = True
    sess = Session(cfg)
    value = MatrixValue(np.ones((1024, 128)))

    def upload():
        t0 = sess.clock.now(HOST)
        sess.gpu.to_device(value)
        return sess.clock.now(HOST) - t0

    elapsed = benchmark.pedantic(upload, rounds=1, iterations=1)
    assert elapsed >= value.nbytes / (6.2 * GB)

def test_table2_execution_models(benchmark):
    cfg = MemphisConfig.base()
    cfg.gpu_enabled = True
    sess = Session(cfg)

    def exercise():
        dm = sess.spark.distribute(MatrixValue(np.ones((2048, 4))))
        sess.spark.blockwise("exp", dm, dm.ncol)
        jobs = sess.stats.get("spark/jobs")
        data = sess.gpu.to_device(MatrixValue(np.ones((64, 64))))
        sess.gpu.execute("ba+*", [data, data], {},
                         op_flops("ba+*", [(64, 64), (64, 64)], (64, 64)))
        return jobs

    jobs = benchmark.pedantic(exercise, rounds=1, iterations=1)
    # Spark lazy: transformations trigger no jobs
    assert jobs == 0
    # GPU async: kernels leave the device timeline ahead of the host
    assert sess.clock.now(DEVICE) > sess.clock.now(HOST)
