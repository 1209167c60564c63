"""Unit tests for the heartbeat's liveness table, driven by explicit ``now``
values: no clock, no sleep, no thread."""

import math

import pytest

from repro.parallel.heartbeat import HeartbeatMonitor, SlaveLiveness
from repro.parallel.messages import StatusReply
from repro.parallel.states import SlaveState


def reply(rank, state="processing", iteration=0):
    return StatusReply(rank, state, iteration)


def watched(*ranks, interval_s=1.0, miss_limit=3):
    monitor = HeartbeatMonitor(interval_s=interval_s, miss_limit=miss_limit)
    for rank in ranks:
        monitor.watch(rank, 0.0)
    return monitor


class TestLiveness:
    def test_initial_entry(self):
        entry = SlaveLiveness(rank=3)
        assert not entry.finished and not entry.dead and not entry.accounted

    def test_accounted_states(self):
        finished = SlaveLiveness(rank=1, state=SlaveState.FINISHED.value)
        dead = SlaveLiveness(rank=2, dead=True)
        assert finished.accounted and dead.accounted


class TestMonitor:
    def test_validation(self):
        with pytest.raises(ValueError):
            HeartbeatMonitor(interval_s=0.0)
        with pytest.raises(ValueError):
            HeartbeatMonitor(miss_limit=0)

    def test_polls_processing_slaves(self):
        monitor = watched(1, 2)
        assert monitor.tick(0.0) == [1, 2]  # a watched rank is pinged at once
        assert monitor.tick(0.5) == []      # nothing due before the interval
        assert monitor.next_tick() == 1.0
        assert monitor.tick(1.0) == [1, 2]

    def test_records_replies(self):
        monitor = watched(1)
        monitor.tick(0.0)
        monitor.record(reply(1, iteration=7))
        entry = monitor.liveness[1]
        assert entry.iteration == 7 and not entry.awaiting

    def test_reply_resets_the_miss_count(self):
        monitor = watched(1)
        for now in (0.0, 1.0, 2.0):
            monitor.tick(now)
        assert monitor.liveness[1].missed_rounds == 2
        monitor.record(reply(1))
        assert monitor.liveness[1].missed_rounds == 0
        monitor.tick(3.0)  # answered since the last ping: no miss
        assert monitor.liveness[1].missed_rounds == 0

    def test_detects_death_after_miss_limit(self):
        """Death at exactly ``miss_limit`` unanswered rounds, not before."""
        monitor = watched(1, miss_limit=3)
        for now in (0.0, 1.0, 2.0):
            monitor.tick(now)
        assert monitor.dead_ranks() == []
        assert monitor.tick(3.0) == []  # the third miss: dead, not pinged
        assert monitor.dead_ranks() == [1]
        assert monitor.all_accounted()
        assert monitor.next_tick() == math.inf

    def test_replying_slave_stays_alive(self):
        monitor = watched(1, miss_limit=2)
        for now in range(50):
            assert monitor.tick(float(now)) == [1]
            monitor.record(reply(1))
        assert monitor.dead_ranks() == []

    def test_a_late_reply_still_counts_for_its_round(self):
        monitor = watched(1, miss_limit=2)
        monitor.tick(0.0)
        monitor.tick(1.0)  # one miss
        monitor.record(reply(1))
        monitor.tick(2.0)
        assert monitor.liveness[1].missed_rounds == 0

    def test_mark_finished_stops_polling(self):
        """Accounted ranks are not pinged."""
        monitor = watched(1, 2)
        monitor.tick(0.0)
        monitor.mark_finished(1)
        assert monitor.tick(1.0) == [2]
        assert monitor.liveness[1].missed_rounds == 0

    def test_finished_reply_accounts_slave(self):
        monitor = watched(1)
        monitor.tick(0.0)
        monitor.record(reply(1, SlaveState.FINISHED.value, iteration=9))
        assert monitor.liveness[1].finished
        assert monitor.all_accounted()
        assert monitor.tick(1.0) == []

    def test_idles_until_a_rank_is_watched_again(self):
        monitor = watched(1, miss_limit=2)
        monitor.tick(0.0)
        monitor.mark_finished(1)
        assert monitor.next_tick() == math.inf
        assert monitor.tick(100.0) == []
        monitor.watch(1, 200.0)
        assert monitor.next_tick() == 200.0
        assert monitor.tick(200.0) == [1]

    def test_mark_finished_after_a_death_resurrects_the_rank(self):
        monitor = watched(1, miss_limit=1)
        monitor.tick(0.0)
        monitor.tick(1.0)
        assert monitor.dead_ranks() == [1]
        assert monitor.mark_finished(1) is True
        assert monitor.dead_ranks() == [] and monitor.liveness[1].finished

    def test_revive_rearms_the_rank(self):
        """A respawned or joined rank is watched afresh: cleared, pinged at
        the next tick, and given the full miss budget again."""
        monitor = watched(1, miss_limit=2)
        for now in (0.0, 1.0, 2.0):
            monitor.tick(now)
        assert monitor.dead_ranks() == [1]
        monitor.watch(1, 5.0)
        entry = monitor.liveness[1]
        assert not entry.dead and entry.missed_rounds == 0
        assert entry.state == SlaveState.PROCESSING.value
        assert monitor.tick(5.0) == [1]
        monitor.tick(6.0)
        assert monitor.dead_ranks() == []
        monitor.tick(7.0)
        assert monitor.dead_ranks() == [1]

    def test_late_replies_of_an_accounted_rank_are_ignored(self):
        monitor = watched(1, miss_limit=1)
        monitor.tick(0.0)
        monitor.tick(1.0)
        monitor.record(reply(1, iteration=4))
        assert monitor.dead_ranks() == [1]
        assert monitor.liveness[1].iteration == 0
