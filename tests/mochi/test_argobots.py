"""Unit tests for the Argobots pool model."""

import pytest

from repro.sim import Environment
from repro.mochi.argobots import Pool, PoolCostModel, PoolKind


class TestPoolKind:
    def test_all_paper_pool_types_exist(self):
        assert {k.value for k in PoolKind} == {"fifo", "fifo_wait", "prio_wait"}

    def test_cost_model_orders_overheads(self):
        costs = PoolCostModel()
        fifo = costs.per_item_overhead(PoolKind.FIFO, was_idle=True)
        fifo_wait = costs.per_item_overhead(PoolKind.FIFO_WAIT, was_idle=True)
        prio_wait = costs.per_item_overhead(PoolKind.PRIO_WAIT, was_idle=True)
        assert fifo < fifo_wait < prio_wait

    def test_wakeup_only_charged_when_idle(self):
        costs = PoolCostModel()
        idle = costs.per_item_overhead(PoolKind.FIFO_WAIT, was_idle=True)
        busy = costs.per_item_overhead(PoolKind.FIFO_WAIT, was_idle=False)
        assert idle > busy


class TestPool:
    def test_requires_at_least_one_xstream(self):
        env = Environment()
        with pytest.raises(ValueError):
            Pool(env, num_xstreams=0)

    def test_negative_work_time_rejected(self):
        env = Environment()
        pool = Pool(env)

        def proc(env, pool):
            yield from pool.execute(-1.0)

        env.process(proc(env, pool))
        with pytest.raises(ValueError):
            env.run()

    def test_concurrency_bounded_by_xstreams(self):
        env = Environment()
        pool = Pool(env, num_xstreams=2)

        def work(env, pool):
            yield from pool.execute(1.0)

        for _ in range(4):
            env.process(work(env, pool))
        env.run()
        # 4 items of 1 s on 2 streams ≈ 2 s (plus tiny scheduling overheads).
        assert env.now == pytest.approx(2.0, abs=1e-3)
        assert pool.items_executed == 4

    def test_fifo_pins_cores_waiting_pools_do_not(self):
        env = Environment()
        busy = Pool(env, kind=PoolKind.FIFO, num_xstreams=4)
        idle = Pool(env, kind=PoolKind.FIFO_WAIT, num_xstreams=4)
        assert busy.cpu_occupancy() == 4.0
        assert idle.cpu_occupancy() == 0.0

    def test_prio_wait_uses_priority_ordering(self):
        env = Environment()
        pool = Pool(env, kind=PoolKind.PRIO_WAIT, num_xstreams=1)
        order = []

        def blocker(env, pool):
            yield from pool.execute(1.0)

        def work(env, pool, name, prio, delay):
            yield env.timeout(delay)
            yield from pool.execute(0.1, priority=prio)
            order.append(name)

        env.process(blocker(env, pool))
        env.process(work(env, pool, "low", 5, 0.1))
        env.process(work(env, pool, "high", 0, 0.2))
        env.run()
        assert order == ["high", "low"]

    def test_utilization_tracks_busy_time(self):
        env = Environment()
        pool = Pool(env, num_xstreams=1)

        def work(env, pool):
            yield from pool.execute(2.0)

        env.process(work(env, pool))
        env.run(until=4.0)
        assert 0.45 < pool.utilization(horizon=4.0) < 0.55

    def test_utilization_defaults_to_time_since_creation(self):
        env = Environment()
        env.run(until=100.0)
        free = PoolCostModel(dispatch_overhead=0.0, wakeup_latency=0.0)
        pool = Pool(env, num_xstreams=1, cost_model=free)

        def work(env, pool):
            yield from pool.execute(10.0)

        env.process(work(env, pool))
        env.run(until=110.0)
        assert pool.utilization() == pytest.approx(1.0)

    def test_run_executes_nested_generator_and_returns_value(self):
        env = Environment()
        pool = Pool(env, num_xstreams=1)
        results = []

        def nested(env):
            yield env.timeout(0.5)
            return "done"

        def proc(env, pool):
            value = yield from pool.run(nested(env))
            results.append((env.now, value))

        env.process(proc(env, pool))
        env.run()
        assert results[0][1] == "done"
        assert results[0][0] >= 0.5

    def test_run_holds_stream_for_nested_duration(self):
        env = Environment()
        pool = Pool(env, num_xstreams=1)
        finish_times = []

        def nested(env, duration):
            yield env.timeout(duration)

        def proc(env, pool, duration):
            yield from pool.run(nested(env, duration))
            finish_times.append(env.now)

        env.process(proc(env, pool, 1.0))
        env.process(proc(env, pool, 1.0))
        env.run()
        # Second item cannot start before the first finished.
        assert finish_times[1] >= 2.0
