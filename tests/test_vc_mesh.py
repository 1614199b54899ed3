"""Virtual-channel mesh: router mechanics + protocol-separation effect."""

import pytest

from repro.errors import MeshConfigError
from repro.noc.mesh.flit import Packet, PacketKind
from repro.noc.mesh.routing import Port
from repro.noc.mesh.vc import (VCMesh, VCRouter, class_vc,
                               run_shared_network_experiment)


def test_class_vc_mapping():
    req = Packet(src=0, dst=1, size=1, kind=PacketKind.REQUEST)
    rep = Packet(src=0, dst=1, size=1, kind=PacketKind.REPLY)
    assert class_vc(req, 2) == 0
    assert class_vc(rep, 2) == 1
    assert class_vc(rep, 1) == 0       # folds onto one VC


def test_router_separate_vc_buffers():
    router = VCRouter(0, num_vcs=2, buffer_flits=1)
    req = Packet(src=0, dst=1, size=1, kind=PacketKind.REQUEST)
    rep = Packet(src=0, dst=1, size=1, kind=PacketKind.REPLY)
    router.accept(Port.LOCAL, req.flits()[0])
    # a full request VC does not block the reply VC
    assert router.space(Port.LOCAL, 0) == 0
    assert router.space(Port.LOCAL, 1) == 1
    router.accept(Port.LOCAL, rep.flits()[0])
    with pytest.raises(MeshConfigError):
        router.accept(Port.LOCAL, req.flits()[0])


def test_router_validation():
    with pytest.raises(MeshConfigError):
        VCRouter(0, num_vcs=0)
    with pytest.raises(MeshConfigError, match="unknown arbiter kind"):
        VCRouter(0, num_vcs=1, arbiter_kind="lottery")
    with pytest.raises(MeshConfigError):
        VCRouter(0).pop(Port.LOCAL, 0, Port.EAST)


def test_vcmesh_delivers_both_classes():
    mesh = VCMesh(4, 4, num_vcs=2)
    req = Packet(src=0, dst=15, size=1, kind=PacketKind.REQUEST)
    rep = Packet(src=15, dst=0, size=3, kind=PacketKind.REPLY)
    mesh.inject(req)
    mesh.inject(rep)
    mesh.run(80)
    assert req.delivered_cycle is not None
    assert rep.delivered_cycle is not None


def test_vcmesh_validation():
    mesh = VCMesh(2, 2)
    with pytest.raises(MeshConfigError):
        mesh.inject(Packet(src=0, dst=9, size=1))
    with pytest.raises(MeshConfigError):
        mesh.run(-1)
    with pytest.raises(MeshConfigError):
        VCMesh(0, 2)


def test_wormhole_lock_per_vc():
    """A reply holding an output does not lock requests out of it."""
    mesh = VCMesh(3, 1, num_vcs=2, buffer_flits=2)
    # long reply 0 -> 2 and a request 0 -> 2 compete for EAST at node 0
    rep = Packet(src=0, dst=2, size=6, kind=PacketKind.REPLY)
    req = Packet(src=0, dst=2, size=1, kind=PacketKind.REQUEST)
    mesh.inject(rep)
    mesh.inject(req)
    mesh.run(60)
    assert rep.delivered_cycle is not None
    assert req.delivered_cycle is not None


def test_vcmesh_flit_conservation():
    """Injected flits = delivered + in routers + in source queues."""
    mesh = VCMesh(3, 3, num_vcs=2)
    total = 0
    packets = 0
    for i in range(24):
        kind = PacketKind.REQUEST if i % 2 else PacketKind.REPLY
        size = 1 if kind is PacketKind.REQUEST else 3
        p = Packet(src=i % 9, dst=(i * 4 + 1) % 9, size=size, kind=kind)
        if p.src == p.dst:
            continue
        mesh.inject(p)
        total += p.size
        packets += 1
    for _ in range(30):
        mesh.step()
        in_flight = sum(r.occupancy for r in mesh.routers)
        backlog = sum(mesh.source_backlog(n) for n in range(9))
        assert mesh.flits_delivered + in_flight + backlog == total
    mesh.run(400)
    assert mesh.flits_delivered == total
    assert mesh.stats.count == packets


def test_shared_network_vc_benefit():
    """Class-separated VCs roughly double the shared-network service
    rate (the reply class stops head-of-line-blocking requests)."""
    one = run_shared_network_experiment(1, cycles=4000)
    two = run_shared_network_experiment(2, cycles=4000)
    assert two.service_rate > 1.5 * one.service_rate
