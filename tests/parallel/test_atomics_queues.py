import numpy as np

from repro.parallel.atomics import AtomicArray, AtomicCounter


class TestAtomicArray:
    def test_cas_success(self):
        a = AtomicArray(np.zeros(3, dtype=np.int64))
        assert a.compare_and_swap(1, 0, 7)
        assert a.load(1) == 7
        assert a.cas_attempts == 1
        assert a.cas_failures == 0

    def test_cas_failure(self):
        a = AtomicArray(np.ones(2, dtype=np.int64))
        assert not a.compare_and_swap(0, 0, 9)
        assert a.load(0) == 1
        assert a.cas_failures == 1

    def test_fetch_and_or(self):
        a = AtomicArray(np.array([0b0101], dtype=np.int64))
        old = a.fetch_and_or(0, 0b0010)
        assert old == 0b0101
        assert a.load(0) == 0b0111

    def test_fetch_and_add(self):
        a = AtomicArray(np.array([10], dtype=np.int64))
        assert a.fetch_and_add(0, 5) == 10
        assert a.load(0) == 15

    def test_store(self):
        a = AtomicArray(np.zeros(1, dtype=np.int64))
        a.store(0, 42)
        assert a.load(0) == 42


class TestAtomicCounter:
    def test_fetch_and_add(self):
        c = AtomicCounter()
        assert c.fetch_and_add(3) == 0
        assert c.fetch_and_add(2) == 3
        assert c.value == 5
        assert c.rmw_ops == 2


class RecordingObserver:
    def __init__(self):
        self.records = []

    def record(self, array, index, kind, atomic):
        self.records.append((array, index, kind, atomic))


class TestAccessObserver:
    """Every AtomicArray op — including plain ``store`` — reaches the log."""

    def test_plain_store_is_observed_non_atomic(self):
        obs = RecordingObserver()
        a = AtomicArray(np.zeros(4, dtype=np.int64), name="visited", observer=obs)
        a.store(2, 1)
        assert obs.records == [("visited", 2, "w", False)]
        assert a.store_ops == 1

    def test_load_is_observed_atomic(self):
        obs = RecordingObserver()
        a = AtomicArray(np.zeros(4, dtype=np.int64), name="visited", observer=obs)
        a.load(1)
        assert obs.records == [("visited", 1, "r", True)]
        assert a.load_ops == 1

    def test_cas_success_is_atomic_write(self):
        obs = RecordingObserver()
        a = AtomicArray(np.zeros(2, dtype=np.int64), name="v", observer=obs)
        assert a.compare_and_swap(0, 0, 5)
        assert obs.records == [("v", 0, "w", True)]

    def test_cas_failure_is_atomic_read(self):
        obs = RecordingObserver()
        a = AtomicArray(np.ones(2, dtype=np.int64), name="v", observer=obs)
        assert not a.compare_and_swap(0, 0, 5)
        assert obs.records == [("v", 0, "r", True)]

    def test_rmw_is_atomic_write(self):
        obs = RecordingObserver()
        a = AtomicArray(np.zeros(1, dtype=np.int64), name="q", observer=obs)
        a.fetch_and_add(0, 3)
        a.fetch_and_or(0, 4)
        assert obs.records == [("q", 0, "w", True), ("q", 0, "w", True)]

    def test_no_observer_is_silent(self):
        a = AtomicArray(np.zeros(2, dtype=np.int64))
        a.store(0, 1)
        a.load(0)
        assert a.store_ops == 1 and a.load_ops == 1

    def test_shared_array_plain_accesses(self):
        from repro.parallel.shared import SharedArray

        obs = RecordingObserver()
        s = SharedArray(np.zeros(3, dtype=np.int64), name="leaf", observer=obs)
        s.store(1, 9)
        assert s.load(1) == 9
        assert obs.records == [("leaf", 1, "w", False), ("leaf", 1, "r", False)]
