"""Contract of the simulation kernel's event dispatch.

* Every event that reaches the heap is dispatched by ``Environment.step``,
  so a class-level patch of ``step`` (how ``perfbench`` counts simulator
  events) sees all of them.
* Leaving a ``with resource.request()`` block schedules no event.
* An explicit ``Resource.release`` still returns a yieldable ``Release``.
* Events carry ``__slots__``, not a per-instance ``__dict__``.
"""

import pytest

from repro.sim import (
    Container,
    Environment,
    Interrupt,
    PriorityResource,
    Resource,
    Store,
)
from repro.sim.resources import Release


@pytest.fixture
def step_counter(monkeypatch):
    steps = [0]
    step = Environment.step

    def counted_step(self):
        steps[0] += 1
        return step(self)

    monkeypatch.setattr(Environment, "step", counted_step)
    return steps


def test_with_request_cycle_reaches_step_exactly_twice(step_counter):
    env = Environment()
    res = Resource(env, capacity=1)

    def user(env, res, cycles):
        for _ in range(cycles):
            with res.request() as req:
                yield req
                yield env.timeout(1.0)

    for cycles in (1, 5):
        step_counter[0] = 0
        env.process(user(env, res, cycles))
        env.run()
        # Start and finish of the process, then a grant and a timeout per cycle.
        assert step_counter[0] == 2 + 2 * cycles


def test_explicit_release_is_a_yieldable_event_firing_now():
    env = Environment()
    res = Resource(env, capacity=1)
    seen = []

    def user(env, res):
        req = res.request()
        yield req
        yield env.timeout(3.0)
        release = res.release(req)
        assert isinstance(release, Release)
        assert res.count == 0
        value = yield release
        seen.append((env.now, value, release.processed))

    env.process(user(env, res))
    env.run()
    assert seen == [(3.0, None, True)]


@pytest.mark.parametrize("until", [None, 4.5])
def test_class_level_step_patch_counts_every_event(step_counter, until):
    env = Environment()
    res = PriorityResource(env, capacity=1)
    store = Store(env, capacity=1)
    tank = Container(env, capacity=10.0)

    def worker(env, name):
        with res.request(priority=len(name)) as req:
            yield req
            yield env.timeout(1.0) & env.timeout(0.5)
        yield store.put(name)
        yield tank.put(2.0)

    def consumer(env):
        for _ in range(3):
            yield store.get()
            yield env.timeout(0.25) | env.timeout(2.0)
        yield tank.get(6.0)

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass

    for name in ("a", "bb", "ccc"):
        env.process(worker(env, name))
    env.process(consumer(env))
    victim = env.process(sleeper(env))
    env.process(_interrupt_at(env, victim, 2.0))
    env.run(until=until)
    pending = len(env._heap)
    # ``_seq`` numbers every push onto the heap; each one was stepped or is pending.
    assert step_counter[0] + pending == next(env._seq)
    assert step_counter[0] > 0


def _interrupt_at(env, process, when):
    yield env.timeout(when)
    process.interrupt("wake")


def test_events_have_no_instance_dict():
    env = Environment()
    res = Resource(env, capacity=1)
    store = Store(env)
    tank = Container(env, capacity=1.0)

    def noop(env):
        yield env.timeout(0.0)

    request = res.request()
    events = [
        env.event(),
        env.timeout(1.0),
        env.process(noop(env)),
        env.all_of([env.timeout(1.0)]),
        env.any_of([env.timeout(1.0)]),
        request,
        res.release(request),
        store.put(1),
        store.get(),
        tank.put(1.0),
        tank.get(1.0),
    ]
    for event in events:
        assert not hasattr(event, "__dict__"), type(event).__name__
