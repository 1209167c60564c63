"""The rank layout is one decision: ``layout_blocks`` turns a socket host
spec's slots into the blocks of cells each slave rank hosts, ``Grid``
holds them, and the runner launches one rank per block."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import DistributedRunner
from repro.parallel.grid import Grid, layout_blocks
from tests.conftest import make_quick_config


@settings(max_examples=300, deadline=None)
@given(slots=st.lists(st.integers(1, 7), min_size=1, max_size=6)
       .filter(lambda slots: sum(slots) >= 2))
def test_socket_spec_layout(slots):
    cells = sum(slots) - 1
    blocks = layout_blocks(cells, slots)
    # The blocks partition the cells, contiguous in row-major order.
    assert [cell for block in blocks for cell in block] == list(range(cells))
    assert all(block == tuple(range(block[0], block[-1] + 1)) for block in blocks)
    # One block per worker; a first entry of one slot hosts only the master.
    sizes = [n for n in [slots[0] - 1] + slots[1:] if n]
    assert [len(block) for block in blocks] == sizes
    assert len(blocks) == len(slots) - (slots[0] == 1)
    grid = Grid(1, cells, blocks=blocks)
    assert grid.world_size == len(blocks) + 1
    assert grid.slave_ranks() == list(range(1, grid.world_size))
    # rank_of_cell and cells_of_rank are inverses.
    for rank in grid.slave_ranks():
        assert all(grid.rank_of_cell(cell) == rank for cell in grid.cells_of_rank(rank))
    for cell in range(cells):
        assert cell in grid.cells_of_rank(grid.rank_of_cell(cell))
    assert Grid.from_payload(grid.to_payload()).blocks == blocks


@given(cells=st.integers(1, 40))
def test_one_cell_per_rank_without_a_spec(cells):
    blocks = layout_blocks(cells)
    assert blocks == tuple((cell,) for cell in range(cells))
    grid = Grid(1, cells)
    assert grid.blocks == blocks and grid.world_size == cells + 1
    assert all(grid.cell_of_rank(grid.rank_of_cell(c)) == c for c in range(cells))


@pytest.mark.parametrize("slots", [[0, 10], [5, 4], [5, 6]])
def test_a_spec_that_misses_the_cells_is_refused(slots):
    with pytest.raises(ValueError, match="do not partition"):
        Grid(3, 3, blocks=layout_blocks(9, slots))


def test_blocks_must_partition_the_grid():
    for blocks in (((0, 1), (1, 2, 3)), ((0, 1), (2,)), ((0, 1, 2, 3), ())):
        with pytest.raises(ValueError, match="do not partition"):
            Grid(2, 2, blocks=blocks)


@pytest.mark.parametrize("backend,hosts,world,launch", [
    ("socket", "127.0.0.1:5,127.0.0.1:5", 3,
     [("127.0.0.1", 2), ("127.0.0.1", 1)]),
    ("socket", None, 2, [("127.0.0.1", 2)]),
    ("socket", "127.0.0.1:1,127.0.0.1:9", 2,
     [("127.0.0.1", 1), ("127.0.0.1", 1)]),
    ("process", None, 10, None),
    ("threaded", None, 10, None),
])
def test_launch_sizes(backend, hosts, world, launch):
    """3x3: master plus blocks {0..3} and {4..8} over two 5-slot workers,
    one block on one worker, one rank per cell in process."""
    runner = DistributedRunner(make_quick_config(3, 3), backend=backend,
                               hosts=hosts)
    assert runner.grid.world_size == world
    assert runner.launch_hosts == launch
    if hosts == "127.0.0.1:5,127.0.0.1:5":
        assert runner.grid.blocks == ((0, 1, 2, 3), (4, 5, 6, 7, 8))
