"""The master's one membership transition, driven with plain values: no
sockets, no threads, no sleeps, no clock.

Part one is a table of (kind x policy) cases asserting the returned
:class:`Transition`; part two is a property test over random event
sequences checking the invariants the table promises.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coevolution.checkpoint import CellSnapshot
from repro.parallel.elastic import MembershipTable
from repro.parallel.grid import Grid
from repro.parallel.recovery import FAULT_POLICIES, FaultState

ITERATIONS = 20
REJOIN = 9


def snapshots_for(table, ranks, iteration=3):
    """What the master would look up: one checkpoint per cell at stake."""
    return {
        cell: CellSnapshot(cell_index=cell, iteration=iteration,
                           generator_genome=f"g{cell}",
                           discriminator_genome=f"d{cell}",
                           mixture_weights=f"w{cell}")
        for cell in table.at_stake(ranks)
    }


def depart(table, kind, ranks, held=()):
    return table.depart(kind, ranks, snapshots=snapshots_for(table, ranks),
                        rejoin=REJOIN, held=held)


def arrive(table, kind, rank):
    return table.arrive(kind, rank, snapshots=snapshots_for(table, [rank]),
                        rejoin=REJOIN)


def table_2x2(policy):
    """Ranks 1-4 own cells 0-3."""
    return MembershipTable(Grid(2, 2), policy, ITERATIONS)


def owner(table, cell, ranks=(1, 2, 3, 4)):
    """The one rank that owns an unfinished cell, or ``None``."""
    owners = [rank for rank in ranks if cell in table.cells_of(rank)]
    assert len(owners) <= 1
    return owners[0] if owners else None


def frozen(transition):
    return tuple(c for c in transition.cells if c.adopter_rank is None)


# -- (a) kind x policy ---------------------------------------------------------


class TestDepart:
    @pytest.mark.parametrize("kind", ["death", "drain"])
    def test_abort_takes_no_cell_and_aborts_the_peers(self, kind):
        table = table_2x2("abort")
        t = depart(table, kind, [2])
        assert (t.kind, t.ranks, t.epoch) == (kind, (2,), 1)
        assert t.abort and t.peers == (1, 3, 4)
        assert t.notice is None and t.cells == () and t.starts == ()
        assert t.ack == (2 if kind == "drain" else None)
        assert table.log.events[-1].cells == (1,)

    @pytest.mark.parametrize("kind", ["death", "drain"])
    def test_degrade_freezes_the_orphans(self, kind):
        table = table_2x2("degrade")
        t = depart(table, kind, [2])
        assert not t.abort and t.peers == (1, 3, 4)
        (cell,) = t.cells
        assert frozen(t) == t.cells and t.notice.cells == t.cells
        assert (cell.snapshot.cell_index, cell.adopter_rank, cell.epoch) == (1, None, 1)
        assert cell.snapshot.iteration == 3 and cell.snapshot.generator_genome == "g1"
        assert cell.rejoin_iteration == ITERATIONS  # never rejoins
        assert t.notice.policy == "degrade" and t.ranks == (2,)
        assert t.ack == (2 if kind == "drain" else None)
        assert table.outcome("degraded") == [2]
        assert table.outcome("recovered") == []
        assert owner(table, 1) is None and table.vacant() == {2}

    @pytest.mark.parametrize("kind", ["death", "drain"])
    def test_recover_hands_the_orphans_to_a_survivor(self, kind):
        table = table_2x2("recover")
        t = depart(table, kind, [2])
        (cell,) = t.cells
        assert frozen(t) == () and not t.abort and t.peers == (1, 3, 4)
        assert (cell.snapshot.cell_index, cell.adopter_rank) == (1, 1)  # least loaded
        assert cell.rejoin_iteration == REJOIN and cell.epoch == 1
        assert table.cells_of(1) == (0, 1)
        assert table.outcome("degraded") == []
        # A death recovered is reported; a drain is not a fault.
        assert table.outcome("recovered") == ([2] if kind == "death" else [])
        assert table.outcome(kind) == [2]

    def test_recover_with_nobody_left_to_adopt_freezes(self):
        table = table_2x2("recover")
        for cell in (0, 2, 3):
            table.finish(cell)  # only rank 2 still works
        t = depart(table, "death", [2])
        assert [c.adopter_rank for c in t.cells] == [None]
        assert t.peers == () and table.outcome("degraded") == [2]

    def test_a_wave_of_deaths_is_one_transition(self):
        table = table_2x2("recover")
        t = depart(table, "death", [2, 3])
        assert t.epoch == 1 and t.ranks == (2, 3)
        assert {c.snapshot.cell_index: c.adopter_rank for c in t.cells} == {1: 1, 2: 4}
        assert t.peers == (1, 4)

    def test_death_with_no_unfinished_cells_emits_no_notice(self):
        for policy in FAULT_POLICIES:
            table = table_2x2(policy)
            table.finish(1)
            t = depart(table, "death", [2])
            assert t.epoch == 1 and table.epoch == 1
            assert t.notice is None and t.cells == () and not t.abort
            assert table.outcome("death") == [2]

    def test_drain_of_a_vacant_rank_is_acked_and_changes_nothing(self):
        table = table_2x2("recover")
        depart(table, "drain", [2])
        before = (table.epoch, len(table.log), table.vacant(),
                  table.cells_of(1))
        t = depart(table, "drain", [2])
        assert t.ack == 2 and t.ranks == () and t.epoch == before[0]
        assert t.notice is None and not t.abort and t.peers == ()
        assert (table.epoch, len(table.log), table.vacant(),
                table.cells_of(1)) == before


class TestArrive:
    @pytest.mark.parametrize("policy", FAULT_POLICIES)
    def test_joiner_with_nothing_to_take_parks_as_standby(self, policy):
        table = table_2x2(policy)
        table.finish(1)
        depart(table, "drain", [2])
        t = arrive(table, "join", 2)
        assert (t.kind, t.ranks, t.epoch) == ("join", (2,), 2)
        assert t.notice is None and t.cells == () and not t.abort
        ((rank, cells, directive),) = t.starts
        assert (rank, cells) == (2, ())  # nothing to resume
        assert directive.snapshots == () and directive.rejoin_iteration == 0
        assert table.standby() == (2,) and table.cells_of(2) == ()
        assert table.outcome("join") == [2] and table.vacant() == set()

    def test_standby_is_a_candidate_for_the_next_orphan(self):
        table = table_2x2("recover")
        depart(table, "death", [2])           # cell 1 -> rank 1
        arrive(table, "join", 2)              # parks: cell 1 has an owner
        for cell in (0, 1, 3):
            table.finish(cell)                # ranks 1 and 4 are done
        t = depart(table, "death", [3])
        assert [(c.snapshot.cell_index, c.adopter_rank) for c in t.cells] == [(2, 2)]
        assert t.peers == (2,)                # the standby gets the notice
        assert table.standby() == (2,) and table.cells_of(2) == (2,)

    def test_joiner_reclaims_its_frozen_home_cell(self):
        table = table_2x2("degrade")
        death = depart(table, "death", [2])
        t = arrive(table, "join", 2)
        (cell,) = t.cells
        assert (cell.snapshot.cell_index, cell.adopter_rank) == (1, 2)
        assert cell.epoch == 2 > death.cells[0].epoch  # epoch-newer
        assert cell.rejoin_iteration == REJOIN and frozen(t) == ()
        assert t.peers == (1, 3, 4)
        ((rank, start_cells, directive),) = t.starts
        assert (rank, start_cells) == (2, (1,))
        assert [s.cell_index for s in directive.snapshots] == [1]
        assert directive.rejoin_iteration == REJOIN
        assert directive.notices == (death.notice, t.notice)
        assert table.outcome("degraded") == []
        assert table.outcome("recovered") == [2] and owner(table, 1) == 2
        # The peers re-animate the cell: the newer notice replaces the old.
        peer = FaultState()
        peer.apply(death.notice)
        assert peer.skip_send(1, 0) and peer.send_route(1) is None
        peer.apply(t.notice)
        assert peer.send_route(1) == 2  # the joiner's WORLD rank

    def test_respawn_resumes_the_cell_kept_for_it(self):
        table = table_2x2("recover")
        death = depart(table, "death", [4], held=[4])
        # Nothing for the survivors to do: the cell waits for its rank.
        assert death.notice is None and death.cells == ()
        assert table.log.events[-1].cells == (3,)
        assert owner(table, 3) is None and 4 in table.vacant()
        t = arrive(table, "respawn", 4)
        assert (t.kind, t.epoch, t.peers) == ("respawn", 2, (1, 2, 3))
        (cell,) = t.cells
        assert (cell.snapshot.cell_index, cell.adopter_rank, cell.epoch) == (3, 4, 2)
        ((rank, start_cells, directive),) = t.starts
        assert (rank, start_cells) == (4, (3,))
        assert [s.iteration for s in directive.snapshots] == [3]
        assert directive.notices == (t.notice,)
        assert table.outcome("recovered") == [4]
        assert table.outcome("join") == [] and table.outcome("death") == [4]
        assert table.standby() == () and owner(table, 3) == 4

    def test_replacement_resumes_its_whole_home_block(self):
        table = MembershipTable(Grid(2, 2, blocks=((0, 1), (2, 3))), "recover",
                                ITERATIONS)
        death = depart(table, "death", [2], held=[2])
        assert death.notice is None and table.log.events[-1].cells == (2, 3)
        t = arrive(table, "respawn", 2)
        assert [(c.snapshot.cell_index, c.adopter_rank) for c in t.cells] == [
            (2, 2), (3, 2)]
        ((rank, cells, directive),) = t.starts
        assert (rank, cells) == (2, (2, 3))
        assert [s.cell_index for s in directive.snapshots] == [2, 3]
        assert table.cells_of(2) == (2, 3) and table.cells_of(1) == (0, 1)

    def test_replacement_keeps_one_cell_the_rest_are_rebalanced(self):
        table = table_2x2("recover")
        depart(table, "death", [2])           # rank 1 now owns cells 0, 1
        t = depart(table, "death", [1], held=[1])
        assert [(c.snapshot.cell_index, c.adopter_rank) for c in t.cells] == [(1, 4)]  # next to cell 3
        t = arrive(table, "respawn", 1)
        assert [(c.snapshot.cell_index, c.adopter_rank) for c in t.cells] == [(0, 1)]

    def test_arrival_in_an_occupied_slot_changes_nothing(self):
        table = table_2x2("recover")
        t = arrive(table, "join", 2)
        assert t.ranks == () and t.starts == () and table.epoch == 0
        assert len(table.log) == 1


# -- (b) the invariants, over random event sequences ---------------------------


def frozen_view(state):
    return {c.snapshot.cell_index: (c.adopter_rank, c.epoch, c.rejoin_iteration)
            for c in state.frozen_cells()}


events = st.lists(
    st.tuples(st.sampled_from(["death", "drain", "join", "respawn", "finish"]),
              st.integers(min_value=0, max_value=8)),
    max_size=30)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 3), cols=st.integers(1, 3),
       policy=st.sampled_from(FAULT_POLICIES), sequence=events,
       cuts=st.none() | st.sets(st.integers(1, 8), max_size=4))
def test_invariants_hold_over_random_churn(rows, cols, policy, sequence, cuts):
    # One cell per rank, or contiguous blocks split wherever ``cuts`` fall
    # inside the grid (the socket backend's layout).
    grid = Grid(rows, cols)
    if cuts is not None:
        bounds = sorted({0, grid.cell_count} | {c for c in cuts if c < grid.cell_count})
        grid = Grid(rows, cols, blocks=[range(first, end)
                                        for first, end in zip(bounds, bounds[1:])])
    table = MembershipTable(grid, policy, ITERATIONS)
    ranks = grid.slave_ranks()
    views = {rank: FaultState() for rank in ranks}  # each slave's replay
    finished: set[int] = set()

    def deliver(t):
        if t.notice is not None:
            for peer in t.peers:
                views[peer].apply(t.notice)
        for rank, _cell, directive in t.starts:
            views[rank] = FaultState()  # a fresh process replays the ledger
            for notice in directive.notices:
                views[rank].apply(notice)
        return t

    for kind, pick in sequence:
        rank = ranks[pick % len(ranks)]
        if kind == "finish":
            cell = pick % grid.cell_count
            if owner(table, cell, ranks) is not None:
                table.finish(cell)
                finished.add(cell)
        elif kind == "respawn":
            held = [rank] if policy == "recover" else []
            deliver(depart(table, "death", [rank], held=held))
            if held and rank in table.vacant():
                deliver(arrive(table, "respawn", rank))
        elif kind == "join":
            deliver(arrive(table, "join", rank))
        elif deliver(depart(table, kind, [rank])).abort:
            break  # the run is ending: nothing is owed an owner any more

        epochs = table.log.epochs()
        assert epochs == sorted(set(epochs)), "epochs strictly increase"
        vacant = table.vacant()
        members = set(ranks) - vacant
        for rank in vacant:
            assert table.cells_of(rank) == (), "a vacant slot owns nothing"
        assert set(table.standby()) <= members, "a standby is a member"
        exchanging = [r for r in sorted(members)
                      if table.cells_of(r) or r in table.standby()]
        reference = frozen_view(views[exchanging[0]]) if exchanging else {}
        for rank in exchanging:
            assert frozen_view(views[rank]) == reference, \
                "every survivor replays to the same frozen set"
        for rank in table.standby():
            named = {c for c, (adopter, _e, _r) in reference.items()
                     if adopter == rank}
            assert set(table.cells_of(rank)) <= named, \
                "a standby owns nothing until a notice names it"
        if policy == "abort":
            continue
        for cell in set(range(grid.cell_count)) - finished:
            rank = owner(table, cell, ranks)  # asserts "at most one"
            if rank is not None:
                assert rank in members, "exactly one live owner"
                if cell in reference:
                    assert reference[cell][0] == rank
                else:
                    assert rank == grid.rank_of_cell(cell)
            elif exchanging:
                assert reference[cell][0] is None, "or it is frozen"
