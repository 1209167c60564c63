"""Direct unit tests for the Endpoint (mailbox pump + matching engine)."""

import queue
import threading
import time

import numpy as np
import pytest

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.endpoint import Endpoint, Group, Link, mailbox_links
from repro.mpi.errors import MpiError, MpiTimeoutError

CTX = (0,)


@pytest.fixture()
def endpoint():
    inbox = queue.SimpleQueue()
    ep = Endpoint(0, inbox, mailbox_links({0: inbox.put}, blocking=False))
    yield ep
    ep.close()


def put(endpoint, source=1, tag=0, payload="x", ctx=CTX):
    endpoint._inbox.put(Group(ctx, source, payload, ((0, tag),)))


class TestMatching:
    def test_exact_match(self, endpoint):
        put(endpoint, source=1, tag=5, payload="hello")
        env = endpoint.recv(CTX, source=1, tag=5, timeout=5)
        assert env.payload == "hello"

    def test_any_source(self, endpoint):
        put(endpoint, source=3, tag=1)
        env = endpoint.recv(CTX, ANY_SOURCE, 1, timeout=5)
        assert env.source == 3

    def test_any_tag(self, endpoint):
        put(endpoint, source=1, tag=42)
        env = endpoint.recv(CTX, 1, ANY_TAG, timeout=5)
        assert env.tag == 42

    def test_earliest_first(self, endpoint):
        put(endpoint, source=1, tag=1, payload="first")
        put(endpoint, source=1, tag=1, payload="second")
        assert endpoint.recv(CTX, 1, 1, timeout=5).payload == "first"
        assert endpoint.recv(CTX, 1, 1, timeout=5).payload == "second"

    def test_non_matching_stays_buffered(self, endpoint):
        put(endpoint, source=1, tag=1, payload="keep")
        put(endpoint, source=1, tag=2, payload="want")
        assert endpoint.recv(CTX, 1, 2, timeout=5).payload == "want"
        assert endpoint.recv(CTX, 1, 1, timeout=5).payload == "keep"

    def test_context_isolation(self, endpoint):
        put(endpoint, ctx=(0, 1, 1), source=1, tag=1, payload="other-comm")
        put(endpoint, ctx=CTX, source=1, tag=1, payload="world")
        assert endpoint.recv(CTX, 1, 1, timeout=5).payload == "world"
        assert endpoint.recv((0, 1, 1), 1, 1, timeout=5).payload == "other-comm"


class TestProbeAndPending:
    def test_iprobe_does_not_consume(self, endpoint):
        put(endpoint, source=1, tag=7)
        deadline = time.monotonic() + 5
        while endpoint.iprobe(CTX, 1, 7) is None:
            assert time.monotonic() < deadline
        assert endpoint.iprobe(CTX, 1, 7) is not None  # still there
        endpoint.recv(CTX, 1, 7, timeout=5)
        assert endpoint.iprobe(CTX, 1, 7) is None

    def test_pending_counts_by_context(self, endpoint):
        put(endpoint, ctx=CTX, source=1, tag=1)
        put(endpoint, ctx=CTX, source=1, tag=2)
        put(endpoint, ctx=(0, 9, 9), source=1, tag=1)
        # The demux thread files messages one at a time: wait for the last
        # one put, not only for the context counted first.
        deadline = time.monotonic() + 5
        while endpoint.pending(CTX) < 2 or endpoint.pending((0, 9, 9)) < 1:
            assert time.monotonic() < deadline
        assert endpoint.pending(CTX) == 2
        assert endpoint.pending((0, 9, 9)) == 1


class TestTimeoutsAndShutdown:
    def test_timeout_raises(self, endpoint):
        start = time.monotonic()
        with pytest.raises(MpiTimeoutError):
            endpoint.recv(CTX, 1, 1, timeout=0.05)
        assert time.monotonic() - start < 1.0

    def test_negative_timeout_rejected(self, endpoint):
        with pytest.raises(ValueError):
            endpoint.recv(CTX, 1, 1, timeout=-1.0)

    def test_recv_after_close_raises(self):
        inbox = queue.SimpleQueue()
        ep = Endpoint(0, inbox, mailbox_links({0: inbox.put}, blocking=False))
        ep.close()
        with pytest.raises(MpiError, match="closed"):
            ep.recv(CTX, 1, 1, timeout=5)

    def test_close_idempotent(self):
        inbox = queue.SimpleQueue()
        ep = Endpoint(0, inbox, mailbox_links({0: inbox.put}, blocking=False))
        ep.close()
        ep.close()

    def test_send_to_unknown_rank(self, endpoint):
        with pytest.raises(MpiError, match="unknown destination"):
            endpoint.send_group(Group(CTX, 0, None, ((99, 0),)))


class TestConcurrentReceivers:
    def test_two_threads_get_disjoint_messages(self, endpoint):
        """The slave's two threads share one endpoint; each message must be
        delivered exactly once."""
        received = []
        lock = threading.Lock()

        def consume(tag):
            for _ in range(20):
                env = endpoint.recv(CTX, ANY_SOURCE, tag, timeout=10)
                with lock:
                    received.append(env.payload)

        t1 = threading.Thread(target=consume, args=(1,))
        t2 = threading.Thread(target=consume, args=(2,))
        t1.start()
        t2.start()
        for i in range(20):
            put(endpoint, source=1, tag=1, payload=("a", i))
            put(endpoint, source=1, tag=2, payload=("b", i))
        t1.join(timeout=15)
        t2.join(timeout=15)
        assert not t1.is_alive() and not t2.is_alive()
        assert len(received) == 40
        assert len(set(received)) == 40  # exactly-once delivery

    def test_numpy_payload_identity_preserved_in_process(self, endpoint):
        array = np.arange(5.0)
        put(endpoint, source=1, tag=1, payload=array)
        env = endpoint.recv(CTX, 1, 1, timeout=5)
        assert env.payload is array  # same object: in-process transport
