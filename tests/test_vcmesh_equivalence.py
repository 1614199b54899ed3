"""Exact-equality parity: BatchedVCMesh vs the scalar credit-based VCMesh.

Every assertion is ``==`` — the batched kernel replays the scalar
model's per-cycle schedule (VC allocation, switch allocation, credit
return) exactly, so buffer occupancies, credit counters and delivery
statistics must match *per cycle*, not just at the end.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, MeshConfigError
from repro.exec import SweepRunner
from repro.noc.mesh.fastmesh import BatchedMesh
from repro.noc.mesh.flit import Packet, PacketKind
from repro.noc.mesh.vc import (VCMesh, run_shared_network_experiment,
                               sweep_vc_grid)
from repro.noc.mesh.vcmesh_batched import (_MAX_PACKET_FLITS, BatchedVCMesh,
                                           batched_shared_network_experiment,
                                           batched_vc_grid)


def lockstep(width, height, cfgs, cycles, traffic_seed, arbiter="rr",
             pipeline_stages=1, reply_bias=0.5):
    """Drive identical random traffic into both models, compare per cycle."""
    scalars = [VCMesh(width, height, num_vcs=v, buffer_flits=d,
                      credit_latency=la, pipeline_stages=pipeline_stages,
                      arbiter_kind=arbiter)
               for v, d, la in cfgs]
    batched = BatchedVCMesh(width, height,
                            num_vcs=tuple(v for v, _d, _la in cfgs),
                            buffer_flits=tuple(d for _v, d, _la in cfgs),
                            credit_latency=tuple(la for _v, _d, la in cfgs),
                            pipeline_stages=pipeline_stages,
                            arbiter_kind=arbiter)
    n = width * height
    gen = np.random.default_rng(traffic_seed)
    for cycle in range(cycles):
        for lane, scalar in enumerate(scalars):
            for node in range(n):
                if gen.random() < 0.3 and scalar.source_backlog(node) < 6:
                    dst = int(gen.integers(n))
                    if dst == node:
                        continue
                    reply = gen.random() < reply_bias
                    spec = dict(src=node, dst=dst,
                                size=3 if reply else 1,
                                kind=(PacketKind.REPLY if reply
                                      else PacketKind.REQUEST))
                    scalar.inject(Packet(**spec))
                    batched.inject(lane, Packet(**spec))
        step_and_compare(scalars, batched, cycle)


def step_and_compare(scalars, batched, cycle):
    """Step both models one cycle and compare every lane's state."""
    for scalar in scalars:
        scalar.step()
    batched.step()
    for lane, scalar in enumerate(scalars):
        where = (cycle, lane)
        assert scalar.buffer_occupancy() == \
            batched.buffer_occupancy(lane), where
        assert scalar.credit_snapshot() == \
            batched.credit_snapshot(lane), where
        assert scalar.flits_delivered == \
            batched.delivered_flits(lane), where
        assert scalar.delivered_count() == \
            batched.delivered_count(lane), where
        assert scalar.source_backlog(0) == \
            batched.source_backlog(lane, 0), where


def lockstep_bursts(width, height, cfgs, cycles, traffic_seed, arbiter):
    """Bursts of 1-3 packets per source per cycle, lanes interleaved.

    Sources inject node-major in a fresh random node order each cycle,
    so one deferred flush holds several packets per queue, appended out
    of lane and queue order (packet ids, the age tie break, follow
    inject order, not queue order); 1- and 4-flit packets mix in one
    flush; the batched source queues start at two flits, so flushes
    must grow them; and backlog reads between same-cycle injects must
    count the packets still deferred.
    """
    scalars = [VCMesh(width, height, num_vcs=v, buffer_flits=d,
                      credit_latency=la, arbiter_kind=arbiter)
               for v, d, la in cfgs]
    batched = BatchedVCMesh(width, height,
                            num_vcs=tuple(v for v, _d, _la in cfgs),
                            buffer_flits=tuple(d for _v, d, _la in cfgs),
                            credit_latency=tuple(la for _v, _d, la in cfgs),
                            arbiter_kind=arbiter, source_capacity=2)
    n = width * height
    gen = np.random.default_rng(traffic_seed)
    for cycle in range(cycles):
        for node in gen.permutation(n).tolist():
            for lane, scalar in enumerate(scalars):
                if scalar.source_backlog(node) >= 12:
                    continue
                for _ in range(int(gen.integers(0, 4))):
                    dst = int(gen.integers(n - 1))
                    dst += dst >= node
                    reply = gen.random() < 0.5
                    spec = dict(src=node, dst=dst,
                                size=4 if gen.random() < 0.4 else 1,
                                kind=(PacketKind.REPLY if reply
                                      else PacketKind.REQUEST))
                    scalar.inject(Packet(**spec))
                    batched.inject(lane, Packet(**spec))
                    if gen.random() < 0.2:
                        assert scalar.source_backlog(node) == \
                            batched.source_backlog(lane, node), (cycle, lane)
        step_and_compare(scalars, batched, cycle)


# ------------------------------------------------------- lockstep traces

def test_lockstep_heterogeneous_lanes():
    # one batched run covering four different (VCs, depth, latency) lanes
    lockstep(3, 3, [(1, 4, 1), (2, 4, 1), (2, 2, 3), (3, 5, 2)],
             cycles=200, traffic_seed=42)


def test_lockstep_age_arbiter():
    lockstep(3, 3, [(2, 3, 1), (2, 4, 2)], cycles=200, traffic_seed=1,
             arbiter="age")


def test_lockstep_deep_pipeline():
    lockstep(3, 3, [(2, 4, 1)], cycles=150, traffic_seed=5,
             pipeline_stages=3)


def test_lockstep_widest_vc_mask():
    # 8 VCs: the 40-bit contender mask whose rr rotation shifts past bit
    # 63 (the discarded bits) next to a folded 5-VC lane
    lockstep(3, 3, [(8, 2, 1), (5, 3, 2)], cycles=150, traffic_seed=3)


def test_lockstep_single_vc_request_only():
    # one VC shared by both classes: the protocol-coupling regime
    lockstep(4, 3, [(1, 2, 1)], cycles=150, traffic_seed=9,
             reply_bias=0.7)


@pytest.mark.parametrize("arbiter", ["rr", "age"])
def test_lockstep_bursts_bulk_flush(arbiter):
    lockstep_bursts(3, 3, [(1, 3, 1), (2, 4, 2), (3, 2, 1)], cycles=150,
                    traffic_seed=11, arbiter=arbiter)


# -------------------------------------------------- experiment entry points

@pytest.mark.parametrize("num_vcs", (1, 2))
def test_shared_network_experiment_identical(num_vcs):
    scalar = run_shared_network_experiment(num_vcs, cycles=600, window=100,
                                           engine="scalar")
    batched = batched_shared_network_experiment(num_vcs, cycles=600,
                                                window=100)
    assert scalar.to_json() == batched.to_json()
    assert np.array_equal(scalar.utilization, batched.utilization)


def test_shared_network_injection_rate_identical():
    scalar = run_shared_network_experiment(2, cycles=600, window=100,
                                           injection_rate=0.25,
                                           engine="scalar")
    batched = run_shared_network_experiment(2, cycles=600, window=100,
                                            injection_rate=0.25)
    assert scalar.to_json() == batched.to_json()


def test_vc_grid_identical_row_major():
    kwargs = dict(vc_counts=(1, 2), buffer_depths=(2, 4),
                  credit_latencies=(1, 2), injection_rates=(None, 0.4),
                  seeds=(0, 7), cycles=400, reply_flits=3, window=50)
    scalar = sweep_vc_grid(engine="scalar", **kwargs)
    batched = batched_vc_grid(**kwargs)
    assert len(scalar) == len(batched) == 32
    for s, b in zip(scalar, batched):
        assert s.to_json() == b.to_json()


def _grid_bytes(results) -> bytes:
    return json.dumps([r.to_json() for r in results]).encode()


def test_vc_grid_jobs_invariance(monkeypatch):
    # blocks of different widths: VC counts, depths and credit loops (so
    # V/F/R strides) differ between blocks, Bernoulli and greedy mix
    kwargs = dict(vc_counts=(1, 3), buffer_depths=(2, 5),
                  credit_latencies=(1, 3), injection_rates=(None, 0.3),
                  seeds=(4,), cycles=200, reply_flits=3, window=50)
    points = 16
    shard_counts = []
    real_map = SweepRunner.map

    def counting_map(self, worker, shard_args):
        shard_args = list(shard_args)
        shard_counts.append(len(shard_args))
        # every block layout still runs on a real (two-worker) pool
        return real_map(SweepRunner(min(self.jobs, 2)), worker, shard_args)

    monkeypatch.setattr(SweepRunner, "map", counting_map)
    expected = _grid_bytes(sweep_vc_grid(**kwargs))
    assert shard_counts == []          # jobs=None: one in-process batch
    for jobs in (1, 2, 3, 5, 9, 20):
        assert _grid_bytes(sweep_vc_grid(jobs=jobs, **kwargs)) == expected, \
            jobs
        assert shard_counts[-1] == min(jobs, points), jobs


@pytest.mark.parametrize("jobs", [0, -1])
def test_vc_grid_rejects_bad_jobs(jobs):
    with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
        sweep_vc_grid(cycles=200, window=50, jobs=jobs)


def test_default_engine_is_batched():
    via_registry = run_shared_network_experiment(2, cycles=400, window=100)
    direct = batched_shared_network_experiment(2, cycles=400, window=100)
    assert via_registry.to_json() == direct.to_json()


# ------------------------------------------------------------- validation

def test_batched_validation():
    with pytest.raises(MeshConfigError):
        BatchedVCMesh(0, 3)
    with pytest.raises(MeshConfigError):
        BatchedVCMesh(3, 3, num_vcs=(0,))
    with pytest.raises(MeshConfigError):
        BatchedVCMesh(3, 3, num_vcs=(2,), credit_latency=(0,))
    with pytest.raises(MeshConfigError):
        BatchedVCMesh(3, 3, num_vcs=(9,))      # bitmask exactness bound
    with pytest.raises(MeshConfigError):
        BatchedVCMesh(3, 3, arbiter_kind="fifo")
    with pytest.raises(MeshConfigError):
        batched_vc_grid(vc_counts=(1,), injection_rates=(1.5,),
                        cycles=200, window=50)


def test_batched_packing_limits():
    # the deferred-enqueue code packs the size and the queue id
    too_long = _MAX_PACKET_FLITS + 1
    with pytest.raises(MeshConfigError, match="at most"):
        BatchedVCMesh(3, 3).inject(0, Packet(src=0, dst=1, size=too_long))
    with pytest.raises(MeshConfigError, match="at most"):
        batched_vc_grid(vc_counts=(1,), cycles=200, window=50,
                        reply_flits=too_long)
    with pytest.raises(MeshConfigError, match="too many lanes"):
        BatchedVCMesh(64, 64, num_vcs=(1,) * 257, buffer_flits=2,
                      credit_latency=1)
    # the one-VC kernel defers its packets in the same code
    with pytest.raises(MeshConfigError, match="at most"):
        BatchedMesh(3, 3, batch=1).inject(0, 0, 1, too_long)
    with pytest.raises(MeshConfigError, match="too many lanes"):
        BatchedMesh(64, 64, batch=257)


@pytest.mark.parametrize("reply_flits", [0, -3])
@pytest.mark.parametrize("engine", ["scalar", "batched"])
def test_shared_network_rejects_nonpositive_reply_flits(engine, reply_flits):
    with pytest.raises(MeshConfigError, match="reply_flits must be positive"):
        run_shared_network_experiment(2, cycles=300, reply_flits=reply_flits,
                                      engine=engine)


@pytest.mark.parametrize("jobs", [None, 2])
@pytest.mark.parametrize("reply_flits", [0, -3])
@pytest.mark.parametrize("engine", ["scalar", "batched"])
def test_vc_grid_rejects_nonpositive_reply_flits(engine, reply_flits, jobs):
    with pytest.raises(MeshConfigError, match="reply_flits must be positive"):
        sweep_vc_grid(cycles=300, reply_flits=reply_flits, engine=engine,
                      jobs=jobs)


def test_empty_grid_returns_empty():
    assert batched_vc_grid(vc_counts=()) == []


# ---------------------------------------------- property-based geometry

@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_property_lockstep_random_geometry(data):
    width = data.draw(st.integers(min_value=2, max_value=4), label="width")
    height = data.draw(st.integers(min_value=2, max_value=4),
                       label="height")
    arbiter = data.draw(st.sampled_from(["rr", "age"]), label="arbiter")
    lanes = data.draw(st.lists(
        st.tuples(st.integers(min_value=1, max_value=4),
                  st.integers(min_value=1, max_value=5),
                  st.integers(min_value=1, max_value=3)),
        min_size=1, max_size=3), label="lanes")
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 16),
                     label="seed")
    stages = data.draw(st.integers(min_value=1, max_value=2),
                       label="pipeline_stages")
    lockstep(width, height, lanes, cycles=120, traffic_seed=seed,
             arbiter=arbiter, pipeline_stages=stages)
