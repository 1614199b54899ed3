"""Fixture: batched side of the REP004 VC-mesh pair (drifted).

The lane-batched accessors (``inject(lane, packet)``) and the
``last_ejected`` extra are *allowed* drifts; the missing
``credit_snapshot``, the ``step`` signature, ``delivered_count`` as a
method where the scalar side has a property, the extra required
parameter on the experiment twin and the missing grid twin are the
violations.
"""


class BatchedVCMesh:
    def __init__(self, width, height, num_vcs=(2,)):
        self.width = width
        self.height = height
        self.num_vcs = num_vcs

    @property
    def num_nodes(self):
        return self.width * self.height

    def inject(self, lane, packet):     # leading lane is stripped: OK
        pass

    def step(self, cycles):             # required-param drift: finding
        pass

    def delivered_count(self, lane):    # property on the scalar side:
        return 0                        # kind drift, finding

    @property
    def last_ejected(self):             # batched-only extra: allowed
        return ()


def batched_shared_network_experiment(num_vcs, lanes, cycles=100):
    # extra required `lanes` drifts from the scalar twin: finding
    return {}

# no batched_vc_grid: sweep_vc_grid has no twin — finding
