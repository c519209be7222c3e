"""The serving contract: every backend is a :class:`ServiceBase`.

The drivers (runner, sessions, loadgen, drills) type against
:class:`~repro.serve.service.ServiceBase` alone, so the resilience
wrapper must serve them exactly as the backends it wraps do.
"""

import pytest

from repro.loadgen import LoadDriver, LoadSpec, WorkloadMix
from repro.serve import (
    PredictionService,
    Request,
    ResilientService,
    ServiceBase,
    ShardedPredictionService,
)


def _request(sm_dataset, query=40, seed=3):
    examples = [
        (sm_dataset.config(i), float(sm_dataset.runtimes[i]))
        for i in range(3)
    ]
    return Request(
        examples=examples, query_config=sm_dataset.config(query), seed=seed,
        size="SM",
    )


def test_contract_cannot_be_instantiated_bare():
    with pytest.raises(TypeError):
        ServiceBase()


def test_every_backend_is_a_service_base():
    with PredictionService() as local:
        assert isinstance(local, ServiceBase)
        assert isinstance(ResilientService(local), ServiceBase)
    with ShardedPredictionService(1) as sharded:
        assert isinstance(sharded, ServiceBase)


def test_resilient_async_submit_matches_blocking(sm_dataset):
    request = _request(sm_dataset)
    with ResilientService(PredictionService()) as service:
        blocking = service.submit(request)
        futures = [service.submit_async(request) for _ in range(3)]
        values = [f.result(timeout=60).value for f in futures]
        stats = service.stats()
    assert values == [blocking.value] * 3
    assert stats.n_logical == 4 and stats.availability == 1.0


def test_resilient_close_refuses_async_submits(sm_dataset):
    from repro.errors import ServiceClosedError

    service = ResilientService(PredictionService())
    service.close()
    with pytest.raises(ServiceClosedError):
        service.submit_async(_request(sm_dataset))


def test_resilient_metrics_carry_breaker_state(sm_dataset):
    with ResilientService(PredictionService()) as service:
        service.submit(_request(sm_dataset))
        snap = service.metrics().snapshot()
        inner = service.service.stats()
    assert snap["breaker.trips{route=SM}"] == 0
    assert snap["breaker.open{route=SM}"] == 0.0
    assert snap["resilience.logical"] == inner.n_logical == 1


@pytest.mark.parametrize("mode", ["closed", "open"])
def test_load_driver_through_resilient_service(mode):
    """Closed loop drives ``submit``, open loop ``submit_async``."""
    spec = LoadSpec(
        arrival="constant", rps=40.0, duration_s=0.25, seed=3,
        mode=mode, concurrency=2,
        mix=WorkloadMix(n_unique=2, n_tenants=1, seed_lanes=1),
        warmup=False,
    )
    with ResilientService(PredictionService()) as service:
        report = LoadDriver(spec).run(service)
    assert report.offered == len(LoadDriver(spec).workload()) > 0
    assert report.ok == report.offered
    assert report.errors == report.shed == report.timeouts == 0
    assert report.degraded == 0
