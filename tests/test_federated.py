"""Tests for the federated backend extension (paper §5.4)."""

import numpy as np
import pytest

from repro.backends.federated import (
    FederatedConfig,
    FederatedCoordinator,
    FederatedWorker,
)


@pytest.fixture()
def fleet():
    cfg = FederatedConfig(num_workers=4)
    workers = [FederatedWorker(i, cfg) for i in range(4)]
    return workers, cfg


@pytest.fixture()
def coord(fleet):
    workers, cfg = fleet
    return FederatedCoordinator(workers, cfg)


RNG = np.random.default_rng(21)


class TestFederatedOps:
    def test_federate_partitions_rows(self, coord):
        data = RNG.random((1000, 8))
        fm = coord.federate("X", data)
        assert (fm.nrow, fm.ncol) == (1000, 8)
        assert sum(rows for _, _, rows in fm.placement) == 1000
        assert len(fm.placement) == 4

    def test_tsmm_correct(self, coord):
        data = RNG.random((800, 12))
        fm = coord.federate("X", data)
        assert np.allclose(coord.tsmm(fm), data.T @ data)

    def test_matvec_correct(self, coord):
        data = RNG.random((600, 10))
        v = RNG.random((10, 1))
        fm = coord.federate("X", data)
        assert np.allclose(coord.matvec(fm, v), data @ v)

    def test_column_sums_correct(self, coord):
        data = RNG.random((500, 6))
        fm = coord.federate("X", data)
        assert np.allclose(coord.column_sums(fm),
                           data.sum(axis=0, keepdims=True))

    def test_requests_counted(self, coord):
        fm = coord.federate("X", RNG.random((400, 5)))
        coord.tsmm(fm)
        assert coord.stats.get("federated/requests") == 4


class TestFederatedReuse:
    def test_repeated_request_reuses_worker_cache(self, coord):
        fm = coord.federate("X", RNG.random((800, 12)))
        coord.tsmm(fm)
        t_first = coord.clock.now()
        coord.tsmm(fm)
        t_second = coord.clock.now() - t_first
        assert coord.stats.get("federated/worker_reuses") == 4
        # the reused round costs only latency, not compute
        assert t_second < t_first

    def test_reuse_disabled(self, fleet):
        workers, cfg = fleet
        coord = FederatedCoordinator(workers, cfg, reuse=False)
        fm = coord.federate("X", RNG.random((800, 12)))
        coord.tsmm(fm)
        coord.tsmm(fm)
        assert coord.stats.get("federated/worker_reuses") == 0

    def test_multi_tenant_cache_sharing(self, fleet):
        """A second tenant reuses what the first tenant computed [19]."""
        workers, cfg = fleet
        data = RNG.random((800, 12))
        tenant_a = FederatedCoordinator(workers, cfg)
        fm_a = tenant_a.federate("X", data)
        result_a = tenant_a.tsmm(fm_a)

        tenant_b = FederatedCoordinator(workers, cfg)
        fm_b = tenant_b.federate("X", data)  # same shards, same lineage
        result_b = tenant_b.tsmm(fm_b)
        assert np.allclose(result_a, result_b)
        assert tenant_b.stats.get("federated/worker_reuses") == 4

    def test_different_data_not_reused(self, fleet):
        workers, cfg = fleet
        tenant_a = FederatedCoordinator(workers, cfg)
        tenant_a.tsmm(tenant_a.federate("X", RNG.random((400, 6))))
        tenant_b = FederatedCoordinator(workers, cfg)
        tenant_b.tsmm(tenant_b.federate("Y", RNG.random((400, 6))))
        assert tenant_b.stats.get("federated/worker_reuses") == 0

    def test_shipped_vector_identity_in_lineage(self, coord):
        """matvec with a different vector must not hit the cache."""
        data = RNG.random((400, 6))
        fm = coord.federate("X", data)
        v1 = RNG.random((6, 1))
        v2 = RNG.random((6, 1))
        out1 = coord.matvec(fm, v1)
        out2 = coord.matvec(fm, v2)
        assert not np.allclose(out1, out2)
        assert coord.stats.get("federated/worker_reuses") == 0
        # same vector again: hits
        out1b = coord.matvec(fm, v1)
        assert np.allclose(out1, out1b)
        assert coord.stats.get("federated/worker_reuses") == 4


class TestFederatedCostModel:
    def test_workers_run_in_parallel(self):
        """4-site execution takes ~1/4 of single-site time (minus fixed
        costs): sites compute concurrently."""
        data = RNG.random((4000, 40))
        cfg = FederatedConfig(request_latency_s=0.0,
                              bandwidth_bytes_per_s=1e15)

        def run(num_workers: int) -> float:
            workers = [FederatedWorker(i, cfg) for i in range(num_workers)]
            coord = FederatedCoordinator(workers, cfg)
            fm = coord.federate("X", data)
            t0 = coord.clock.now()
            coord.tsmm(fm)
            return coord.clock.now() - t0

        serial = run(1)
        parallel = run(4)
        assert parallel < serial / 2

    def test_latency_floor(self, coord):
        fm = coord.federate("X", RNG.random((40, 4)))
        t0 = coord.clock.now()
        coord.tsmm(fm)
        assert coord.clock.now() - t0 >= 2 * coord.config.request_latency_s
