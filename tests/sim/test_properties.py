"""Property-based tests of the simulation kernel (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, PriorityResource, Resource
from tests.net.reference_mailbox import PriorityItem, PriorityStore, Store


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []

    def proc(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@given(
    capacity=st.integers(min_value=1, max_value=5),
    holds=st.lists(
        st.floats(min_value=0.1, max_value=10), min_size=1, max_size=25
    ),
)
@settings(max_examples=50, deadline=None)
def test_resource_never_exceeds_capacity(capacity, holds):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    concurrency = []

    def user(env, duration):
        with resource.request() as req:
            yield req
            concurrency.append(resource.count)
            yield env.timeout(duration)

    for duration in holds:
        env.process(user(env, duration))
    env.run()
    assert len(concurrency) == len(holds)  # everyone was eventually served
    assert max(concurrency) <= capacity


@given(
    priorities=st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=20)
)
@settings(max_examples=50, deadline=None)
def test_priority_resource_serves_waiting_queue_in_priority_order(priorities):
    env = Environment()
    resource = PriorityResource(env, capacity=1)
    served = []

    def holder(env):
        with resource.request(priority=-1) as req:
            yield req
            yield env.timeout(1)  # everyone else queues behind this

    def user(env, priority, index):
        with resource.request(priority=priority) as req:
            yield req
            served.append((priority, index))
            yield env.timeout(0.01)

    env.process(holder(env))
    for index, priority in enumerate(priorities):
        env.process(user(env, priority, index))
    env.run()
    # Served order must be sorted by (priority, arrival index).
    assert served == sorted(served)


@given(
    items=st.lists(st.integers(), min_size=1, max_size=30),
    capacity=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=50, deadline=None)
def test_store_conserves_items_fifo(items, capacity):
    env = Environment()
    store = Store(env, capacity=capacity)
    received = []

    def producer(env):
        for item in items:
            yield store.put(item)

    def consumer(env):
        for _ in items:
            value = yield store.get()
            received.append(value)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == items


@given(
    entries=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5), st.integers()),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_priority_store_delivers_stable_sorted(entries):
    env = Environment()
    store = PriorityStore(env)
    received = []

    def producer(env):
        for priority, payload in entries:
            yield store.put(PriorityItem(priority, payload))

    def consumer(env):
        yield env.timeout(1)  # let the producer enqueue everything first
        for _ in entries:
            entry = yield store.get()
            received.append((entry.priority, entry.item))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    # Stable sort by priority: payload order preserved within a class.
    expected = sorted(
        [(p, payload) for p, payload in entries],
        key=lambda pair: pair[0],
    )
    # Compare priorities exactly and the within-class payload sequences.
    assert [p for p, _ in received] == [p for p, _ in expected]
    for klass in set(p for p, _ in entries):
        want = [payload for p, payload in entries if p == klass]
        got = [payload for p, payload in received if p == klass]
        assert got == want
