"""Linted as repro.parallel.fixture: copies cross, aliases stay local."""


def exchange(cell, comm):
    vector = cell.center_genomes(alias=True)
    comm.send_group(vector.copy(), [(1, 0)])


class NeighborCache:
    def park(self, network, parameters_to_vector):
        self.latest = parameters_to_vector(network, alias=True).copy()
