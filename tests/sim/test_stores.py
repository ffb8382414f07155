"""Store and PriorityStore semantics.

These generic stores live in ``tests/net/reference_mailbox.py``: the
store-based mailbox oracle is built on them, so they are pinned here.
"""

import pytest

from tests.net.reference_mailbox import PriorityItem, PriorityStore, Store


class TestStore:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_put_then_get_fifo(self, env):
        store = Store(env)
        got = []

        def producer(env):
            for item in ("a", "b", "c"):
                yield store.put(item)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == ["a", "b", "c"]

    def test_get_blocks_until_item(self, env):
        store = Store(env)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append((env.now, item))

        def producer(env):
            yield env.timeout(5)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [(5.0, "late")]

    def test_bounded_put_blocks_when_full(self, env):
        store = Store(env, capacity=1)
        times = []

        def producer(env):
            yield store.put("x")
            times.append(env.now)
            yield store.put("y")
            times.append(env.now)

        def consumer(env):
            yield env.timeout(4)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert times == [0.0, 4.0]

    def test_len_reflects_items(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")
        env.run()
        assert len(store) == 2

    def test_none_is_a_valid_item(self, env):
        store = Store(env)
        got = []

        def roundtrip(env):
            yield store.put(None)
            item = yield store.get()
            got.append(item)

        env.process(roundtrip(env))
        env.run()
        assert got == [None]


class TestPriorityStore:
    def test_delivery_in_priority_order(self, env):
        store = PriorityStore(env)
        got = []

        def producer(env):
            yield store.put(PriorityItem(5, "bulk"))
            yield store.put(PriorityItem(0, "vip"))
            yield store.put(PriorityItem(3, "mid"))

        def consumer(env):
            yield env.timeout(1)
            for _ in range(3):
                entry = yield store.get()
                got.append(entry.item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == ["vip", "mid", "bulk"]

    def test_fifo_within_priority(self, env):
        store = PriorityStore(env)
        got = []

        def producer(env):
            for tag in ("first", "second", "third"):
                yield store.put(PriorityItem(1, tag))

        def consumer(env):
            yield env.timeout(1)
            for _ in range(3):
                entry = yield store.get()
                got.append(entry.item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == ["first", "second", "third"]

    def test_items_property_sorted(self, env):
        store = PriorityStore(env)
        store.put(PriorityItem(2, "b"))
        store.put(PriorityItem(1, "a"))
        env.run()
        assert [e.item for e in store.items] == ["a", "b"]

    def test_clear_returns_in_order(self, env):
        store = PriorityStore(env)
        store.put(PriorityItem(3, "z"))
        store.put(PriorityItem(1, "a"))
        env.run()
        drained = store.clear()
        assert [e.item for e in drained] == ["a", "z"]
        assert len(store) == 0

    def test_items_not_assignable(self, env):
        store = PriorityStore(env)
        with pytest.raises(ValueError):
            store.items = [PriorityItem(1, "x")]

    def test_waiting_getter_served_on_put(self, env):
        store = PriorityStore(env)
        got = []

        def consumer(env):
            entry = yield store.get()
            got.append((env.now, entry.item))

        def producer(env):
            yield env.timeout(2)
            yield store.put(PriorityItem(1, "x"))

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [(2.0, "x")]


class TestPriorityItem:
    def test_ordering_by_priority(self):
        assert PriorityItem(0, "a") < PriorityItem(1, "b")
        assert not PriorityItem(1, "a") < PriorityItem(1, "b")

    def test_equality_on_priority(self):
        assert PriorityItem(1, "x") == PriorityItem(1, "y")
        assert PriorityItem(1, "x") != PriorityItem(2, "x")

    def test_hash_is_identity_based(self):
        a, b = PriorityItem(1, "x"), PriorityItem(1, "x")
        assert hash(a) != hash(b) or a is b

