"""Unit tests for the heartbeat monitor, using a fake comm layer."""

import threading
import time

import pytest

from repro.parallel.heartbeat import HeartbeatMonitor, SlaveLiveness
from repro.parallel.messages import StatusReply
from repro.parallel.states import SlaveState


class FakeComm:
    """A controllable stand-in for the master's comm manager."""

    def __init__(self):
        self.requests: list[int] = []
        self._replies: list[StatusReply] = []
        self._lock = threading.Lock()

    def request_status(self, rank: int) -> None:
        with self._lock:
            self.requests.append(rank)

    def queue_reply(self, rank: int, state: str = "processing", iteration: int = 0):
        with self._lock:
            self._replies.append(StatusReply(rank, state, iteration, time.time()))

    def drain_status_replies(self):
        with self._lock:
            replies, self._replies = self._replies, []
            return replies


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture()
def comm():
    return FakeComm()


class TestLiveness:
    def test_initial_entry(self):
        entry = SlaveLiveness(rank=3)
        assert not entry.finished and not entry.dead and not entry.accounted

    def test_accounted_states(self):
        finished = SlaveLiveness(rank=1, state=SlaveState.FINISHED.value)
        dead = SlaveLiveness(rank=2, dead=True)
        assert finished.accounted and dead.accounted


class TestMonitor:
    def test_validation(self, comm):
        with pytest.raises(ValueError):
            HeartbeatMonitor(comm, [1], interval_s=0.0)
        with pytest.raises(ValueError):
            HeartbeatMonitor(comm, [1], miss_limit=0)

    def test_polls_processing_slaves(self, comm):
        monitor = HeartbeatMonitor(comm, [1, 2], interval_s=0.02, miss_limit=100)
        monitor.start()
        try:
            assert wait_until(lambda: comm.requests.count(1) >= 2)
            assert wait_until(lambda: comm.requests.count(2) >= 2)
        finally:
            monitor.stop()

    def test_records_replies(self, comm):
        monitor = HeartbeatMonitor(comm, [1], interval_s=0.02, miss_limit=100)
        monitor.start()
        try:
            comm.queue_reply(1, "processing", iteration=7)
            assert wait_until(
                lambda: monitor.snapshot()[1].iteration == 7
            )
            assert monitor.snapshot()[1].missed_rounds == 0
        finally:
            monitor.stop()

    def test_detects_death_after_miss_limit(self, comm):
        monitor = HeartbeatMonitor(comm, [1], interval_s=0.02, miss_limit=3)
        monitor.start()
        try:
            assert wait_until(monitor.deaths_detected.is_set)
            assert monitor.dead_ranks() == [1]
            assert monitor.all_accounted()
        finally:
            monitor.stop()

    def test_replying_slave_stays_alive(self, comm):
        monitor = HeartbeatMonitor(comm, [1], interval_s=0.02, miss_limit=3)

        # Answer every request promptly from a feeder thread.
        stop = threading.Event()

        def feeder():
            answered = 0
            while not stop.is_set():
                if len(comm.requests) > answered:
                    answered = len(comm.requests)
                    comm.queue_reply(1, "processing")
                time.sleep(0.005)

        thread = threading.Thread(target=feeder, daemon=True)
        thread.start()
        monitor.start()
        try:
            time.sleep(0.3)  # many intervals
            assert not monitor.deaths_detected.is_set()
            assert monitor.dead_ranks() == []
        finally:
            stop.set()
            monitor.stop()
            thread.join(timeout=2)

    def test_mark_finished_stops_polling(self, comm):
        monitor = HeartbeatMonitor(comm, [1], interval_s=0.02, miss_limit=1000)
        monitor.start()
        try:
            assert wait_until(lambda: len(comm.requests) >= 1)
            monitor.mark_finished(1)
            count = len(comm.requests)
            time.sleep(0.1)
            # At most one in-flight round after marking finished.
            assert len(comm.requests) <= count + 1
            assert monitor.all_accounted()
        finally:
            monitor.stop()

    def test_finished_reply_accounts_slave(self, comm):
        monitor = HeartbeatMonitor(comm, [1], interval_s=0.02, miss_limit=1000)
        monitor.start()
        try:
            comm.queue_reply(1, SlaveState.FINISHED.value, iteration=9)
            assert wait_until(lambda: monitor.snapshot()[1].finished)
            assert monitor.all_accounted()
        finally:
            monitor.stop()

    def test_monitor_idles_when_all_accounted_and_stop_ends_it(self, comm):
        """With everyone accounted the loop stops polling but stays up —
        revive() may hand it a rank again — and stop() ends it."""
        monitor = HeartbeatMonitor(comm, [1], interval_s=0.02, miss_limit=2)
        monitor.start()
        assert wait_until(monitor.all_accounted)
        time.sleep(0.1)  # let an in-flight round finish
        polled = len(comm.requests)
        time.sleep(0.1)
        assert len(comm.requests) == polled
        assert monitor._thread.is_alive()
        monitor.stop()
        assert not monitor._thread.is_alive()

    def test_snapshot_is_a_copy(self, comm):
        monitor = HeartbeatMonitor(comm, [1], interval_s=0.02, miss_limit=3)
        snap = monitor.snapshot()
        snap[1].dead = True
        assert not monitor.liveness[1].dead
