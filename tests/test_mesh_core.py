"""Mesh simulator core: flits, routing, arbitration, router mechanics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MeshConfigError
from repro.noc.mesh.flit import Packet, PacketKind
from repro.noc.mesh.routing import Port, neighbor, node_xy, xy_route
from repro.noc.mesh.vc import VCRouter, one_vc_mesh


# ---- packets/flits -----------------------------------------------------------

def test_packet_flit_train():
    p = Packet(src=0, dst=5, size=3)
    flits = p.flits()
    assert len(flits) == 3
    assert flits[0].is_head and not flits[0].is_tail
    assert flits[-1].is_tail and not flits[-1].is_head


def test_single_flit_packet_is_head_and_tail():
    f = Packet(src=0, dst=1, size=1).flits()[0]
    assert f.is_head and f.is_tail


def test_packet_latency_requires_delivery():
    p = Packet(src=0, dst=1, size=1, birth_cycle=10)
    with pytest.raises(MeshConfigError):
        _ = p.latency
    p.delivered_cycle = 25
    assert p.latency == 15


def test_packet_validation():
    with pytest.raises(MeshConfigError):
        Packet(src=0, dst=1, size=0)
    with pytest.raises(MeshConfigError):
        Packet(src=-1, dst=1, size=1)


def test_packet_ids_unique():
    ids = {Packet(src=0, dst=1, size=1).pid for _ in range(100)}
    assert len(ids) == 100


# ---- routing -----------------------------------------------------------------

def test_xy_route_resolves_x_first():
    # node 0 -> node 8 on a 6-wide mesh: dst (2, 1): go EAST first
    assert xy_route(0, 8, width=6) is Port.EAST
    # same column: go SOUTH
    assert xy_route(2, 8, width=6) is Port.SOUTH
    assert xy_route(8, 8, width=6) is Port.LOCAL


def test_xy_route_west_north():
    assert xy_route(8, 7, width=6) is Port.WEST
    assert xy_route(8, 2, width=6) is Port.NORTH


def test_node_xy():
    assert node_xy(8, 6) == (2, 1)
    with pytest.raises(MeshConfigError):
        node_xy(-1, 6)


def test_neighbor_edges():
    assert neighbor(0, Port.EAST, 6, 6) == 1
    assert neighbor(7, Port.NORTH, 6, 6) == 1
    with pytest.raises(MeshConfigError):
        neighbor(0, Port.WEST, 6, 6)
    with pytest.raises(MeshConfigError):
        neighbor(0, Port.NORTH, 6, 6)


@settings(max_examples=60, deadline=None)
@given(src=st.integers(0, 35), dst=st.integers(0, 35))
def test_xy_route_always_makes_progress(src, dst):
    """Following XY hops always reaches the destination (no livelock)."""
    node = src
    for _ in range(12):     # max Manhattan distance on 6x6 is 10
        port = xy_route(node, dst, width=6)
        if port is Port.LOCAL:
            break
        node = neighbor(node, port, 6, 6)
    assert node == dst


# ---- arbitration (VCRouter.grant at one VC) -----------------------------------

def _flit(birth, pid_src=0):
    p = Packet(src=pid_src, dst=1, size=1)
    p.birth_cycle = birth
    return p.flits()[0]


def test_round_robin_rotates():
    r = VCRouter(0, num_vcs=1, arbiter_kind="rr")
    candidates = {0: _flit(0), 2: _flit(0)}
    grants = [r.grant(Port.EAST, candidates) for _ in range(4)]
    assert grants == [0, 2, 0, 2]


def test_round_robin_validation():
    with pytest.raises(MeshConfigError):
        VCRouter(0, num_vcs=1, arbiter_kind="rr").grant(Port.EAST, {})


def test_age_arbiter_prefers_oldest():
    r = VCRouter(0, num_vcs=1, arbiter_kind="age")
    assert r.grant(Port.EAST, {0: _flit(50), 3: _flit(10)}) == 3


def test_age_arbiter_tie_break_deterministic():
    r = VCRouter(0, num_vcs=1, arbiter_kind="age")
    a, b = _flit(5), _flit(5)
    winner = r.grant(Port.EAST, {0: a, 1: b})
    expected = 0 if a.packet.pid < b.packet.pid else 1
    assert winner == expected


# ---- router -------------------------------------------------------------------

def test_router_accept_and_space():
    r = VCRouter(0, num_vcs=1, buffer_flits=2)
    f = _flit(0)
    r.accept(Port.LOCAL, f)
    assert r.space(Port.LOCAL, 0) == 1
    r.accept(Port.LOCAL, _flit(0))
    with pytest.raises(MeshConfigError):
        r.accept(Port.LOCAL, _flit(0))


def test_router_wormhole_lock():
    r = VCRouter(0, num_vcs=1, buffer_flits=8)
    p = Packet(src=0, dst=1, size=3)
    for f in p.flits():
        r.accept(Port.WEST, f)
    # head wins and locks the output
    r.pop(Port.WEST, 0, Port.EAST)
    assert r.out_lock[(Port.EAST, 0)] is p
    assert r.body_out[(Port.WEST, 0)] is Port.EAST
    # a competing head finds the output locked to another packet
    other = Packet(src=2, dst=1, size=1)
    r.accept(Port.NORTH, other.flits()[0])
    r.pop(Port.WEST, 0, Port.EAST)
    assert r.out_lock[(Port.EAST, 0)] is p
    # draining the tail releases the lock
    r.pop(Port.WEST, 0, Port.EAST)
    assert r.out_lock[(Port.EAST, 0)] is None
    assert r.body_out[(Port.WEST, 0)] is None


def test_wormhole_lock_blocks_competing_head_until_tail():
    """On a 3x1 mesh a head injected at node 1 while a 4-flit packet
    streams through node 1's EAST output waits for that packet's tail:
    node 2 receives the four flits back to back, then the late head."""
    mesh = one_vc_mesh(3, 1)
    long_packet = Packet(src=0, dst=2, size=4)
    late = Packet(src=1, dst=2, size=1)
    arrivals = []
    accept = mesh.routers[2].accept

    def record(port, flit, ready=0):
        if port is Port.WEST:
            arrivals.append(flit.packet.pid)
        accept(port, flit, ready)

    mesh.routers[2].accept = record
    mesh.inject(long_packet)
    mesh.run(2)         # the head crosses node 1 and takes the lock
    mesh.inject(late)
    mesh.run(20)
    assert arrivals == [long_packet.pid] * 4 + [late.pid]


def test_router_pop_empty_raises():
    with pytest.raises(MeshConfigError):
        VCRouter(0, num_vcs=1).pop(Port.LOCAL, 0, Port.EAST)
