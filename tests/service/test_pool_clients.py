"""How a ``SharedWorkerPool`` keeps track of its ``ServiceEvaluator`` clients.

A long-lived shared pool serves campaign after campaign.  It only needs to
know how many clients attached (a private, single-client pool may snapshot
its state; a shared one may not), so it must not hold on to finished
clients: each carries its campaign's run function and delivered results.
"""

import gc
import weakref

import numpy as np
import pytest

from fixtures import make_service_space, service_run_function
from repro.service import ServiceEvaluator, SharedWorkerPool


def run_to_completion(client, configs):
    client.submit(configs)
    collected = []
    while client.num_pending or client.num_queued:
        _, done = client.wait_any(float("inf"))
        collected.extend(done)
    return collected


class TestPoolClients:
    def test_finished_dropped_client_is_garbage_collected(self):
        pool = SharedWorkerPool(num_workers=2)
        configs = make_service_space().sample(5, np.random.default_rng(3))
        client = ServiceEvaluator(service_run_function, pool=pool)
        assert len(run_to_completion(client, configs)) == 5
        ref = weakref.ref(client)
        del client
        gc.collect()
        assert ref() is None
        # The pool keeps serving later campaigns.
        later = ServiceEvaluator(service_run_function, pool=pool)
        assert len(run_to_completion(later, configs)) == 5

    def test_private_pool_snapshots_and_shared_pool_refuses(self):
        private = ServiceEvaluator(service_run_function, num_workers=2)
        assert private.pool.num_clients == 1
        assert private.state_dict()["pool"]["now"] == 0.0

        shared = SharedWorkerPool(num_workers=2)
        first = ServiceEvaluator(service_run_function, pool=shared)
        ServiceEvaluator(service_run_function, pool=shared)
        assert shared.num_clients == 2
        with pytest.raises(RuntimeError, match="2 clients"):
            first.state_dict()
