"""Regression: ``SharedWorkerPool`` scheduling state raced under threads.

Before the pool lock, threads stepping two clients of one pool concurrently
corrupted the scheduler: ``submit`` could double-start one idle worker (two
threads both saw it idle), ``process_until`` could pop the retry heap
concurrently, and ``wait_any``'s advance-then-collect could interleave with
another client's clock advance so completions were collected at the wrong
virtual time.  The pool now serialises every scheduling/clock/queue entry
point behind one re-entrant lock — virtual time, not thread arrival order,
still decides which events fire.

The runner itself never exercises this (it steps every campaign of a tick
on one thread), so these tests hammer the pool directly from raw threads:
the invariants are *conservation* ones (nothing lost, nothing duplicated, consistent final
state), which must hold under any interleaving.
"""

import math
import threading

import numpy as np

from fixtures import make_service_space, service_run_function
from repro.service.evaluator import ServiceEvaluator, SharedWorkerPool


def drain(evaluator, outstanding):
    """Collect until this client got all of its ``outstanding`` results."""
    collected = []
    while len(collected) < outstanding:
        _, done = evaluator.wait_any(float("inf"))
        collected.extend(done)
        if not done and evaluator.num_pending == 0 and evaluator.num_queued == 0:
            break
    return collected


class TestPoolThreadSafety:
    def test_threaded_submit_wait_any_hammer_conserves_work(self):
        space = make_service_space()
        rng = np.random.default_rng(7)
        pool = SharedWorkerPool(num_workers=6)
        clients = [
            ServiceEvaluator(service_run_function, pool=pool) for _ in range(4)
        ]
        rounds, batch = 12, 3
        plans = [
            [space.sample(batch, rng) for _ in range(rounds)]
            for _ in range(len(clients))
        ]
        results = [[] for _ in clients]
        errors = []
        barrier = threading.Barrier(len(clients))

        def hammer(index):
            try:
                evaluator = clients[index]
                barrier.wait()
                for configs in plans[index]:
                    accepted = evaluator.submit(configs)
                    assert accepted == batch  # the service queues, never drops
                    results[index].extend(drain(evaluator, batch))
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(len(clients))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        for index, evaluator in enumerate(clients):
            # Conservation per client: every submission came back exactly
            # once, to its owner, with the run function's exact measurement.
            assert evaluator.num_submitted == rounds * batch
            assert evaluator.num_collected == rounds * batch
            assert len(results[index]) == rounds * batch
            expected = sorted(
                service_run_function(c)
                for configs in plans[index]
                for c in configs
            )
            assert sorted(r.runtime for r in results[index]) == expected
            for completed in results[index]:
                assert completed.completed >= completed.submitted
        # The pool wound down clean: no orphaned work, no stuck queue.
        assert pool.num_pending == 0
        assert pool.num_queued == 0
        assert pool.num_idle == pool.num_workers

    def test_threaded_clients_with_queueing_pressure(self):
        # 2 workers, 3 clients, batches far beyond capacity: every submit
        # path goes through the queue, and the drain loop runs under
        # contention.  Nothing may be lost or double-delivered.
        space = make_service_space()
        rng = np.random.default_rng(11)
        pool = SharedWorkerPool(num_workers=2)
        clients = [
            ServiceEvaluator(service_run_function, pool=pool) for _ in range(3)
        ]
        batches = [space.sample(10, rng) for _ in clients]
        counts = []
        errors = []
        barrier = threading.Barrier(len(clients))

        def hammer(index):
            try:
                barrier.wait()
                clients[index].submit(batches[index])
                counts.append(len(drain(clients[index], 10)))
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(len(clients))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert counts == [10, 10, 10]
        assert pool.num_pending == 0
        assert pool.num_queued == 0
        # The shared clock is a single coherent timeline.
        assert math.isfinite(pool.now) and pool.now > 0.0
