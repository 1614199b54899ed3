"""Fixture: scalar golden side of the REP004 VC-mesh watched pair."""


class VCMesh:
    def __init__(self, width, height, num_vcs=2):
        self.width = width
        self.height = height
        self.num_vcs = num_vcs

    @property
    def num_nodes(self):
        return self.width * self.height

    def inject(self, packet):
        pass

    def credit_snapshot(self):
        return []

    @property
    def delivered_count(self):
        return 0

    def step(self):
        pass


def run_shared_network_experiment(num_vcs, cycles=100, engine=None):
    return {}


def sweep_vc_grid(vc_counts=(1, 2), engine=None):
    return []
