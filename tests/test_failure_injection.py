"""Failure injection: the model degrades honestly under abuse.

These tests push components past their intended operating points —
thrashing working sets, zero-capacity-like links, overfull meshes,
adversarial traces — and assert the failure mode is the physically
correct one (misses, saturation, backpressure), never a crash or a
silently wrong number.
"""

import numpy as np
import pytest

from repro.errors import MeshConfigError, SolverError
from repro.gpu.device import SimulatedGPU
from repro.memory.l2cache import L2Slice
from repro.noc.flows import FlowNetwork
from repro.noc.mesh.flit import Packet
from repro.noc.mesh.vc import one_vc_mesh
from repro.workloads import streaming_trace


def test_l2_thrashing_degrades_hit_rate():
    """A working set larger than a slice turns reuse into misses."""
    slice_cache = L2Slice(capacity_bytes=128 * 64, line_bytes=128, ways=4)
    small = [i * 128 for i in range(32)]
    big = [i * 128 for i in range(256)]        # 4x capacity
    for _ in range(3):
        for a in small:
            slice_cache.access(a)
    small_hits = slice_cache.hits
    assert small_hits > 0
    thrash = L2Slice(capacity_bytes=128 * 64, line_bytes=128, ways=4)
    for _ in range(3):
        for a in big:
            thrash.access(a)
    assert thrash.hits == 0                    # LRU + cyclic scan: all miss
    assert thrash.evictions > 0


def test_cold_device_misses_then_warms(tiny):
    mem = tiny.fresh_memory()
    trace = streaming_trace(64)
    first = [mem.access(0, int(a)).hit for a in trace]
    second = [mem.access(0, int(a)).hit for a in trace]
    assert not any(first)
    assert all(second)


def test_solver_overload_never_exceeds_capacity():
    """1000 flows into a 10 GB/s link: feasibility holds at any scale."""
    net = FlowNetwork()
    net.add_link("tiny", 10.0)
    for i in range(1000):
        net.add_flow(f"f{i}", ["tiny"])
    result = net.solve()
    assert result.total_gbps <= 10.0 + 1e-6
    rates = list(result.rates_gbps.values())
    assert max(rates) - min(rates) < 1e-9      # perfectly fair


def test_solver_conflicting_caps():
    net = FlowNetwork()
    net.add_link("l", 100.0)
    net.add_flow("f", ["l"], littles_cap_gbps=0.001, hard_cap_gbps=1e9)
    assert net.solve().rate("f") == pytest.approx(0.001, rel=1e-3)


def test_mesh_gridlock_recovers():
    """Flooding a 2x2 mesh fills every buffer; draining still completes."""
    mesh = one_vc_mesh(2, 2, buffer_flits=1)
    packets = []
    for i in range(40):
        p = Packet(src=i % 4, dst=(i + 1) % 4, size=2)
        mesh.inject(p)
        packets.append(p)
    mesh.run(2000)
    assert all(p.delivered_cycle is not None for p in packets)


def test_mesh_buffer_never_overflows_under_flood():
    mesh = one_vc_mesh(3, 3, buffer_flits=2)
    for i in range(100):
        mesh.inject(Packet(src=i % 9, dst=(i * 5 + 1) % 9, size=3))
    for _ in range(500):
        mesh.step()
        assert all(occ <= 2 for occ in mesh.buffer_occupancy())


def test_self_addressed_packets_rejected_or_delivered():
    """src == dst is legal: ejected immediately via the LOCAL port."""
    mesh = one_vc_mesh(2, 2)
    p = Packet(src=1, dst=1, size=1)
    mesh.inject(p)
    mesh.run(10)
    assert p.delivered_cycle is not None
    assert p.latency <= 3


def test_adversarial_trace_on_modulo_device_camps():
    """End to end: a modulo-interleaved device camps on one channel."""
    from repro.memory.address import AddressHasher, camping_index
    from repro.workloads import camping_trace
    gpu = SimulatedGPU("V100", seed=41)
    gpu.memory.hasher = AddressHasher(gpu.num_slices,
                                      gpu.spec.cache_line_bytes,
                                      mode="modulo")
    trace = camping_trace(512, num_channels=gpu.num_slices)
    for a in trace:
        gpu.memory.access(0, int(a))
    counts = np.array(gpu.memory.slice_requests)
    assert camping_index(counts) == gpu.num_slices   # all on one slice


def test_empty_flow_network_is_harmless():
    assert FlowNetwork().solve().total_gbps == 0.0


def test_zero_size_mesh_rejected():
    with pytest.raises(MeshConfigError):
        one_vc_mesh(0, 0)
