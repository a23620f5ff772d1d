"""Unit tests for simulation resources (Resource, PriorityResource, Store, Container)."""

import pytest

from repro.sim import (
    Container,
    Environment,
    Interrupt,
    PriorityResource,
    Resource,
    SimulationError,
    Store,
)


class TestResource:
    def test_capacity_must_be_positive(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_exclusive_access_serialises_users(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def user(env, res, name, hold):
            with res.request() as req:
                yield req
                log.append(("start", name, env.now))
                yield env.timeout(hold)
            log.append(("end", name, env.now))

        env.process(user(env, res, "a", 2.0))
        env.process(user(env, res, "b", 1.0))
        env.run()
        assert log == [
            ("start", "a", 0.0),
            ("end", "a", 2.0),
            ("start", "b", 2.0),
            ("end", "b", 3.0),
        ]

    def test_capacity_two_allows_two_concurrent_users(self):
        env = Environment()
        res = Resource(env, capacity=2)
        starts = []

        def user(env, res, name):
            with res.request() as req:
                yield req
                starts.append((name, env.now))
                yield env.timeout(1.0)

        for name in ["a", "b", "c"]:
            env.process(user(env, res, name))
        env.run()
        assert starts == [("a", 0.0), ("b", 0.0), ("c", 1.0)]

    def test_count_and_queue_length(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def holder(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(5.0)

        def waiter(env, res):
            with res.request() as req:
                yield req

        env.process(holder(env, res))
        env.process(waiter(env, res))
        env.run(until=1.0)
        assert res.count == 1
        assert res.queue_length == 1

    def test_release_unowned_request_raises(self):
        env = Environment()
        res = Resource(env, capacity=2)

        def proc(env, res):
            req = res.request()
            yield req
            res.release(req)
            res.release(req)  # second release is illegal

        env.process(proc(env, res))
        with pytest.raises(SimulationError):
            env.run()

    def test_utilization_accounts_busy_time(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def user(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(4.0)

        env.process(user(env, res))
        env.run(until=8.0)
        assert res.utilization(horizon=8.0) == pytest.approx(0.5)

    def test_utilization_defaults_to_time_since_creation(self):
        env = Environment()
        env.run(until=100.0)
        res = Resource(env, capacity=1)

        def user(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(10.0)

        env.process(user(env, res))
        env.run(until=110.0)
        assert res.utilization() == pytest.approx(1.0)
        assert res.utilization(horizon=110.0) == pytest.approx(10.0 / 110.0)

    def test_granted_counter(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def user(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(1.0)

        for _ in range(5):
            env.process(user(env, res))
        env.run()
        assert res.granted == 5


class TestPriorityResource:
    def test_lower_priority_value_served_first(self):
        env = Environment()
        res = PriorityResource(env, capacity=1)
        order = []

        def holder(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(10.0)

        def user(env, res, name, prio, delay):
            yield env.timeout(delay)
            with res.request(priority=prio) as req:
                yield req
                order.append(name)

        env.process(holder(env, res))
        # All three wait behind the holder; arrival order differs from priority.
        env.process(user(env, res, "low", 5, 1.0))
        env.process(user(env, res, "high", 0, 2.0))
        env.process(user(env, res, "mid", 2, 3.0))
        env.run()
        assert order == ["high", "mid", "low"]

    def test_fifo_among_equal_priorities(self):
        env = Environment()
        res = PriorityResource(env, capacity=1)
        order = []

        def holder(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(5.0)

        def user(env, res, name, delay):
            yield env.timeout(delay)
            with res.request(priority=1) as req:
                yield req
                order.append(name)

        env.process(holder(env, res))
        env.process(user(env, res, "first", 1.0))
        env.process(user(env, res, "second", 2.0))
        env.run()
        assert order == ["first", "second"]


@pytest.mark.parametrize("kind", [Resource, PriorityResource])
class TestInterruptedWaiter:
    """Interrupting a process queued for a resource withdraws its request."""

    def test_interrupt_reaches_the_process_and_the_queue_empties(self, kind):
        env = Environment()
        res = kind(env, capacity=1)
        log = []

        def holder(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(10.0)

        def waiter(env, res):
            try:
                with res.request() as req:
                    yield req
                    log.append("granted")
            except Interrupt as exc:
                log.append(exc.cause)

        def late(env, res):
            yield env.timeout(20.0)
            with res.request() as req:
                yield req
                log.append(("late", env.now))
                yield env.timeout(1.0)

        env.process(holder(env, res))
        victim = env.process(waiter(env, res))
        env.process(late(env, res))
        env.run(until=2.0)
        assert res.queue_length == 1
        victim.interrupt("stop")
        env.run()
        assert log == ["stop", ("late", 20.0)]
        assert res.count == 0
        assert res.queue_length == 0
        assert res.granted == 2

    def test_withdrawn_request_keeps_the_others_in_order(self, kind):
        env = Environment()
        res = kind(env, capacity=1)
        order = []

        def holder(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(10.0)

        def user(env, res, name):
            try:
                with res.request(priority=1) as req:
                    yield req
                    order.append(name)
                    yield env.timeout(1.0)
            except Interrupt:
                order.append(f"{name} interrupted")

        env.process(holder(env, res))
        users = {name: env.process(user(env, res, name)) for name in "abcd"}
        env.run(until=1.0)
        users["b"].interrupt()
        env.run()
        assert order == ["b interrupted", "a", "c", "d"]
        assert res.count == 0


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        received = []

        def producer(env, store):
            yield store.put("item-1")
            yield store.put("item-2")

        def consumer(env, store):
            a = yield store.get()
            b = yield store.get()
            received.extend([a, b])

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert received == ["item-1", "item-2"]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        times = []

        def consumer(env, store):
            item = yield store.get()
            times.append((env.now, item))

        def producer(env, store):
            yield env.timeout(3.0)
            yield store.put("late")

        env.process(consumer(env, store))
        env.process(producer(env, store))
        env.run()
        assert times == [(3.0, "late")]

    def test_bounded_capacity_blocks_put(self):
        env = Environment()
        store = Store(env, capacity=1)
        log = []

        def producer(env, store):
            yield store.put("a")
            log.append(("put-a", env.now))
            yield store.put("b")
            log.append(("put-b", env.now))

        def consumer(env, store):
            yield env.timeout(5.0)
            item = yield store.get()
            log.append(("got", item, env.now))

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert ("put-a", 0.0) in log
        assert ("got", "a", 5.0) in log
        assert ("put-b", 5.0) in log

    def test_filtered_get(self):
        env = Environment()
        store = Store(env)
        got = []

        def producer(env, store):
            for item in [1, 2, 3, 4]:
                yield store.put(item)

        def consumer(env, store):
            item = yield store.get(filter_fn=lambda x: x % 2 == 0)
            got.append(item)

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert got == [2]
        assert list(store.items) == [1, 3, 4]

    def test_try_get_empty_raises(self):
        env = Environment()
        store = Store(env)
        with pytest.raises(SimulationError):
            store.try_get()

    def test_try_get_returns_fifo(self):
        env = Environment()
        store = Store(env)

        def producer(env, store):
            yield store.put("x")
            yield store.put("y")

        env.process(producer(env, store))
        env.run()
        assert store.try_get() == "x"
        assert store.try_get() == "y"

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_level_tracks_items(self):
        env = Environment()
        store = Store(env)

        def producer(env, store):
            for i in range(3):
                yield store.put(i)

        env.process(producer(env, store))
        env.run()
        assert store.level == 3


class TestContainer:
    def test_put_and_get_adjust_level(self):
        env = Environment()
        tank = Container(env, capacity=100.0, init=10.0)

        def proc(env, tank):
            yield tank.put(40.0)
            yield tank.get(25.0)

        env.process(proc(env, tank))
        env.run()
        assert tank.level == pytest.approx(25.0)

    def test_get_blocks_until_available(self):
        env = Environment()
        tank = Container(env, capacity=100.0, init=0.0)
        times = []

        def consumer(env, tank):
            yield tank.get(10.0)
            times.append(env.now)

        def producer(env, tank):
            yield env.timeout(2.0)
            yield tank.put(10.0)

        env.process(consumer(env, tank))
        env.process(producer(env, tank))
        env.run()
        assert times == [2.0]

    def test_put_blocks_when_overflowing(self):
        env = Environment()
        tank = Container(env, capacity=10.0, init=8.0)
        times = []

        def producer(env, tank):
            yield tank.put(5.0)
            times.append(env.now)

        def consumer(env, tank):
            yield env.timeout(3.0)
            yield tank.get(5.0)

        env.process(producer(env, tank))
        env.process(consumer(env, tank))
        env.run()
        assert times == [3.0]

    def test_invalid_amounts_rejected(self):
        env = Environment()
        tank = Container(env, capacity=10.0)
        with pytest.raises(ValueError):
            tank.put(0.0)
        with pytest.raises(ValueError):
            tank.get(-1.0)

    def test_invalid_init_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            Container(env, capacity=10.0, init=20.0)
