"""Cycle-level 2-D mesh NoC simulator (paper Section VI).

This is the "simulation-based prior work" side of the paper's comparison:
a Booksim-style wormhole mesh with dimension-ordered routing, credit flow
control and pluggable (round-robin vs age-based) arbitration — one
scalar router model, :class:`~repro.noc.mesh.vc.VCMesh`, run at one VC
for the plain mesh (:func:`~repro.noc.mesh.vc.one_vc_mesh`) — plus the
many-to-few-to-many request/reply traffic pattern with a rate-limited
NoC->MEM reply interface.  It regenerates Fig 21 (reply-interface
backpressure starving memory) and Fig 23 (throughput unfairness under
round-robin arbitration).
"""

from repro.noc.mesh.flit import Packet, Flit, PacketKind
from repro.noc.mesh.routing import xy_route, Port
from repro.noc.mesh.traffic import (ManyToFewTraffic, run_fairness_experiment,
                                    FairnessResult)
from repro.noc.mesh.interfaces import (MemoryNode, run_reply_bottleneck,
                                       ReplyBottleneckResult)
from repro.noc.mesh.loadcurve import (LoadCurve, LoadPoint,
                                      measure_load_point, sweep_load)
from repro.noc.mesh.vc import (VCMesh, VCRouter, DeliveryStats, one_vc_mesh,
                               SharedNetworkResult,
                               run_shared_network_experiment)
from repro.noc.mesh.fastmesh import (BatchedMesh, BatchedManyToFew,
                                     batched_load_curves,
                                     batched_sweep_load,
                                     batched_fairness_experiment,
                                     batched_fairness_experiments,
                                     batched_reply_bottleneck)

__all__ = [
    "Packet", "Flit", "PacketKind",
    "xy_route", "Port",
    "ManyToFewTraffic", "run_fairness_experiment", "FairnessResult",
    "MemoryNode", "run_reply_bottleneck", "ReplyBottleneckResult",
    "LoadCurve", "LoadPoint", "measure_load_point", "sweep_load",
    "VCMesh", "VCRouter", "DeliveryStats", "one_vc_mesh",
    "SharedNetworkResult",
    "run_shared_network_experiment",
    "BatchedMesh", "BatchedManyToFew", "batched_load_curves",
    "batched_sweep_load", "batched_fairness_experiment",
    "batched_fairness_experiments", "batched_reply_bottleneck",
]
