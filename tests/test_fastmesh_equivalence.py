"""Batched (fastmesh) vs scalar mesh engine: exact equivalence.

The batched engine must reproduce the golden one-VC ``VCMesh``
(``one_vc_mesh``) flit-for-flit
with identical statistics.  So every assertion here is ``==`` — no
tolerances.  Covered axes: mesh width/height, both arbiters, Bernoulli
and greedy sources, seeds, multi-flit wormhole packets, batch slicings
(one lane per config vs many lanes in one ``BatchedMesh``), and every
public entry-point pair (``sweep_load``, ``batched_load_curves``,
``run_fairness_experiment(s)``, ``run_reply_bottleneck``), with the
fairness lanes both in one kernel and one kernel each.

Mirrors ``tests/test_fastpath_equivalence.py``, which pins the
measurement-engine (``vectorized``) side of the same contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rng
from repro.errors import ConfigurationError, MeshConfigError
from repro.noc.mesh.fastmesh import (
    BatchedManyToFew,
    BatchedMesh,
    batched_fairness_experiment,
    batched_fairness_experiments,
    batched_load_curves,
    batched_reply_bottleneck,
    batched_sweep_load,
)
from repro.noc.mesh.flit import Packet, PacketKind
from repro.noc.mesh.interfaces import run_reply_bottleneck
from repro.noc.mesh.loadcurve import sweep_load
from repro.noc.mesh.routing import default_mc_nodes
from repro.noc.mesh.traffic import (
    ManyToFewTraffic,
    run_fairness_experiment,
    run_fairness_experiments,
)
from repro.noc.mesh.vc import one_vc_mesh

# (width, height, arbiter, injection_rate [None = greedy], seed, mc_nodes)
# The narrower meshes carry an explicit MC placement instead of the
# default one (columns 1, 3 and 5 of the top and bottom rows).
SPECS = [
    (6, 6, "rr", 0.05, 0, None),
    (6, 6, "rr", 0.3, 1, None),
    (6, 6, "rr", None, 0, None),
    (6, 6, "age", 0.05, 2, None),
    (6, 6, "age", 0.3, 0, None),
    (6, 6, "age", None, 1, None),
    (4, 3, "rr", 0.2, 7, (0, 3, 11)),
    (5, 5, "age", None, 3, (1, 3, 21, 23)),
    (3, 6, "rr", 0.15, 4, (1, 16)),
]

CYCLES = 500


def run_scalar(width, height, arbiter, rate, seed, cycles=CYCLES,
               mc_nodes=None, buffer_flits=8):
    """One scalar mesh run; returns the mesh for stats inspection."""
    mesh = one_vc_mesh(width, height, buffer_flits=buffer_flits,
                       arbiter_kind=arbiter)
    traffic = ManyToFewTraffic(
        mesh, mc_nodes if mc_nodes is not None
        else default_mc_nodes(width, height),
        seed=seed, injection_rate=rate, max_source_backlog=64)
    for _ in range(cycles):
        traffic.feed()
        mesh.step()
    return mesh


def run_batched_lane(width, height, arbiter, rate, seed, cycles=CYCLES,
                     mc_nodes=None, buffer_flits=8):
    """The same run as one lane of a batch-of-one ``BatchedMesh``."""
    mesh = BatchedMesh(width, height, batch=1, buffer_flits=buffer_flits,
                       arbiter_kinds=arbiter, source_capacity=65)
    source = BatchedManyToFew(
        mesh, 0, mc_nodes if mc_nodes is not None
        else default_mc_nodes(width, height),
        seed=seed, injection_rate=rate, max_source_backlog=64)
    for _ in range(cycles):
        source.feed()
        mesh.step()
    return mesh


def assert_stats_equal(scalar_mesh, batched_mesh, lane=0):
    """Every ``DeliveryStats`` field, flit count and occupancy: ``==``."""
    s = scalar_mesh.stats
    b = batched_mesh.lane_stats(lane)
    assert s.count == b.count
    assert s.latency_sum == b.latency_sum
    assert s.latency_min == b.latency_min
    assert s.latency_max == b.latency_max
    assert s.by_source == b.by_source
    assert s.latency_by_source == b.latency_by_source
    assert scalar_mesh.delivered_count() == int(
        batched_mesh.delivered_count[lane])
    assert scalar_mesh.flits_delivered == int(batched_mesh.flits_delivered[lane])
    assert scalar_mesh.buffer_occupancy() == batched_mesh.buffer_occupancy(lane)


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda: sweep_load([0.1], cycles=40, warmup=10, engine="turbo"),
    lambda: run_fairness_experiment(cycles=40, warmup=10, engine="turbo"),
    lambda: run_fairness_experiments(cycles=40, warmup=10, engine="turbo"),
    lambda: run_reply_bottleneck(cycles=40, window=10, engine="turbo"),
])
def test_entry_points_reject_unknown_engine(call):
    with pytest.raises(ConfigurationError, match="unknown engine"):
        call()


# ---------------------------------------------------------------------------
# Mesh-level parity (batch of one)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width,height,arbiter,rate,seed,mc", SPECS)
def test_single_lane_bit_identical(width, height, arbiter, rate, seed, mc):
    scalar = run_scalar(width, height, arbiter, rate, seed, mc_nodes=mc)
    batched = run_batched_lane(width, height, arbiter, rate, seed,
                               mc_nodes=mc)
    assert_stats_equal(scalar, batched)


def test_custom_mc_placement_and_buffer_depth():
    mc = [1, 3, 11, 13]
    scalar = run_scalar(5, 3, "rr", 0.25, 1, mc_nodes=mc, buffer_flits=4)
    batched = run_batched_lane(5, 3, "rr", 0.25, 1, mc_nodes=mc,
                               buffer_flits=4)
    assert_stats_equal(scalar, batched)


def test_lockstep_trace_matches_every_cycle():
    """Delivered count and occupancy agree at *every* cycle, not only at

    the end — the engines are in lockstep, not merely convergent."""
    scalar = one_vc_mesh(6, 6, arbiter_kind="age")
    st_traffic = ManyToFewTraffic(scalar, default_mc_nodes(6, 6), seed=5,
                                  injection_rate=0.3, max_source_backlog=64)
    batched = BatchedMesh(6, 6, batch=1, arbiter_kinds="age",
                          source_capacity=65)
    bt_traffic = BatchedManyToFew(batched, 0, default_mc_nodes(6, 6),
                                  seed=5, injection_rate=0.3,
                                  max_source_backlog=64)
    for cycle in range(300):
        st_traffic.feed()
        bt_traffic.feed()
        scalar.step()
        batched.step()
        assert scalar.delivered_count() == int(batched.delivered_count[0]), \
            cycle
        assert scalar.buffer_occupancy() == batched.buffer_occupancy(0), cycle


@pytest.mark.parametrize("arbiter", ["rr", "age"])
def test_multiflit_wormhole_matches(arbiter):
    """Multi-flit packets on a non-square mesh (body/tail lock paths),

    checked in lockstep at every cycle."""
    gen = rng.generator_for(3, "equivalence-multiflit")
    width, height = 5, 3
    n = width * height
    schedule = []           # (cycle, src, dst, size)
    for cycle in range(600):
        for _ in range(int(gen.integers(3))):
            src = int(gen.integers(n))
            dst = int(gen.integers(n))
            if src != dst:
                schedule.append((cycle, src, dst, 1 + int(gen.integers(4))))
    scalar = one_vc_mesh(width, height, buffer_flits=4, arbiter_kind=arbiter)
    batched = BatchedMesh(width, height, batch=1, buffer_flits=4,
                          arbiter_kinds=arbiter)
    pending = iter(schedule)
    event = next(pending, None)
    for cycle in range(900):
        while event is not None and event[0] == cycle:
            _, src, dst, size = event
            scalar.inject(Packet(src=src, dst=dst, size=size))
            batched.inject(0, src, dst, size)
            event = next(pending, None)
        scalar.step()
        batched.step()
        assert_stats_equal(scalar, batched)
    assert scalar.flits_delivered > len(schedule)   # multi-flit packets landed


@pytest.mark.parametrize("arbiters", [("rr",) * 3, ("age",) * 3,
                                      ("rr", "age", "rr")],
                         ids=["rr", "age", "rr-age-rr"])
def test_lockstep_bursts_bulk_flush(arbiters):
    """The burst schedule of ``tests/test_vcmesh_equivalence.py`` on

    ``BatchedMesh``, compared with one ``one_vc_mesh`` per lane at every
    cycle: 1-3 packets per source per cycle, sources in a fresh random
    node order each cycle with the lanes interleaved (one deferred flush
    holds several packets per queue, appended out of lane and queue
    order), 1- and 4-flit packets in one flush, source queues that start
    at two flits, and backlog reads between same-cycle injects.  The
    mixed rr/age batch is the fairness pair's run in small: wormhole
    locks and round-robin pointers written on every grant of every lane.
    The eject outputs' sentinel slot must stay empty throughout."""
    width, height, lanes = 3, 3, len(arbiters)
    scalars = [one_vc_mesh(width, height, buffer_flits=3,
                           arbiter_kind=arbiter) for arbiter in arbiters]
    batched = BatchedMesh(width, height, batch=lanes, buffer_flits=3,
                          arbiter_kinds=arbiters, source_capacity=2)
    n = width * height
    slots = n * 5
    gen = np.random.default_rng(11)
    for cycle in range(150):
        for node in gen.permutation(n).tolist():
            for lane, scalar in enumerate(scalars):
                if scalar.source_backlog(node) >= 12:
                    continue
                for _ in range(int(gen.integers(0, 4))):
                    dst = int(gen.integers(n - 1))
                    dst += dst >= node
                    reply = gen.random() < 0.5
                    size = 4 if gen.random() < 0.4 else 1
                    scalar.inject(Packet(src=node, dst=dst, size=size,
                                         kind=(PacketKind.REPLY if reply
                                               else PacketKind.REQUEST)))
                    batched.inject(lane, node, dst, size, reply=reply)
                    if gen.random() < 0.2:
                        assert scalar.source_backlog(node) == \
                            batched.source_backlog(lane, node), (cycle, lane)
        for scalar in scalars:
            scalar.step()
        batched.step()
        assert batched._ln[batched._g] == 0, cycle
        for lane, scalar in enumerate(scalars):
            assert len(batched.buffer_occupancy(lane)) == slots
            assert_stats_equal(scalar, batched, lane=lane)
            assert scalar.source_backlog(0) == \
                batched.source_backlog(lane, 0), (cycle, lane)


# ---------------------------------------------------------------------------
# Batch slicings: many configs in one BatchedMesh == one mesh per config
# ---------------------------------------------------------------------------

def test_mixed_arbiter_lanes_match_separate_scalar_runs():
    lanes = [("rr", 0.1, 0), ("age", 0.1, 0), ("rr", None, 1),
             ("age", 0.35, 2)]
    mesh = BatchedMesh(6, 6, batch=len(lanes),
                       arbiter_kinds=tuple(a for a, _r, _s in lanes),
                       source_capacity=65)
    feeds = [BatchedManyToFew(mesh, lane, default_mc_nodes(6, 6), seed=seed,
                              injection_rate=rate, max_source_backlog=64).feed
             for lane, (_arb, rate, seed) in enumerate(lanes)]
    for _ in range(CYCLES):
        for feed in feeds:
            feed()
        mesh.step()
    for lane, (arbiter, rate, seed) in enumerate(lanes):
        scalar = run_scalar(6, 6, arbiter, rate, seed)
        assert_stats_equal(scalar, mesh, lane=lane)


def test_lane_results_independent_of_batch_shape():
    """A lane's result must not depend on which other lanes share the

    batch: lane (rr, 0.2, seed 3) alone == the same lane packed with
    seven unrelated lanes."""
    alone = run_batched_lane(6, 6, "rr", 0.2, 3)

    kinds = ("age", "rr", "rr", "age", "rr", "age", "rr", "age")
    mesh = BatchedMesh(6, 6, batch=8, arbiter_kinds=kinds,
                       source_capacity=65)
    feeds = []
    for lane, arbiter in enumerate(kinds):
        rate = None if lane == 3 else 0.05 * (lane + 1)
        seed = 3 if lane == 2 else lane + 10
        if lane == 2:
            rate = 0.2
        feeds.append(BatchedManyToFew(mesh, lane, default_mc_nodes(6, 6),
                                      seed=seed, injection_rate=rate,
                                      max_source_backlog=64).feed)
    for _ in range(CYCLES):
        for feed in feeds:
            feed()
        mesh.step()
    a, b = alone.lane_stats(0), mesh.lane_stats(2)
    assert a == b
    assert int(alone.delivered_count[0]) == int(mesh.delivered_count[2])
    assert int(alone.flits_delivered[0]) == int(mesh.flits_delivered[2])


# ---------------------------------------------------------------------------
# Entry-point pairs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arbiter", ["rr", "age"])
def test_sweep_load_engines_identical(arbiter):
    rates = (0.02, 0.1, 0.3)
    scalar = sweep_load(rates, arbiter=arbiter, cycles=900, warmup=300,
                        engine="scalar")
    batched = sweep_load(rates, arbiter=arbiter, cycles=900, warmup=300,
                         engine="batched")
    twin = batched_sweep_load(rates, arbiter=arbiter, cycles=900, warmup=300)
    assert scalar == batched == twin


def test_batched_load_curves_match_per_config_scalar_sweeps():
    rates = (0.05, 0.25)
    arbiters = ("rr", "age")
    seeds = (0, 1)
    curves = batched_load_curves(rates, arbiters=arbiters, seeds=seeds,
                                 cycles=700, warmup=200)
    assert set(curves) == {(a, s) for a in arbiters for s in seeds}
    for (arbiter, seed), curve in curves.items():
        scalar = sweep_load(rates, arbiter=arbiter, seed=seed, cycles=700,
                            warmup=200, engine="scalar")
        assert curve == scalar


@pytest.mark.parametrize("arbiter,rate", [("rr", None), ("age", None),
                                          ("rr", 0.2)])
def test_fairness_experiment_engines_identical(arbiter, rate):
    scalar = run_fairness_experiment(arbiter, cycles=1000, warmup=200,
                                     injection_rate=rate, engine="scalar")
    batched = run_fairness_experiment(arbiter, cycles=1000, warmup=200,
                                      injection_rate=rate, engine="batched")
    twin = batched_fairness_experiment(arbiter, cycles=1000, warmup=200,
                                       injection_rate=rate)
    assert scalar == batched == twin
    assert scalar.unfairness == batched.unfairness


def test_fairness_pair_engines_identical():
    scalar = run_fairness_experiments(cycles=1000, warmup=200,
                                      engine="scalar")
    batched = run_fairness_experiments(cycles=1000, warmup=200,
                                       engine="batched")
    twin = batched_fairness_experiments(cycles=1000, warmup=200)
    assert scalar == batched == twin
    assert set(scalar) == {"rr", "age"}


@pytest.mark.parametrize("seed", [0, 3])
def test_reply_bottleneck_engines_identical(seed):
    scalar = run_reply_bottleneck(cycles=1200, window=100, seed=seed,
                                  engine="scalar")
    batched = run_reply_bottleneck(cycles=1200, window=100, seed=seed,
                                   engine="batched")
    twin = batched_reply_bottleneck(cycles=1200, window=100, seed=seed)
    for other in (batched, twin):
        assert np.array_equal(scalar.utilization, other.utilization)
        assert scalar.mean_utilization == other.mean_utilization
        assert scalar.peak_utilization == other.peak_utilization
        assert scalar.window == other.window


def _assert_same_bottleneck(a, b):
    assert np.array_equal(a.utilization, b.utilization)
    assert a.mean_utilization == b.mean_utilization
    assert a.peak_utilization == b.peak_utilization
    assert a.window == b.window


# (reply cycles, fairness arbiters, fairness cycles, warmup, rate)
SECTION_CASES = [
    (400, ("age",), 700, 150, None),
    (800, ("rr", "age"), 500, 150, None),
    # Bernoulli fairness lanes
    (600, ("rr", "age"), 600, 100, 0.2),
]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("reply_cycles,arbiters,cycles,warmup,rate",
                         SECTION_CASES,
                         ids=["reply-shorter", "reply-longer", "bernoulli"])
def test_fused_sections_match_scalar_and_separate_runs(
        reply_cycles, arbiters, cycles, warmup, rate, seed):
    """The batched twin of each report section equals its scalar run:
    the reply pair, and the fairness lanes both in one mesh and one mesh
    per arbiter."""
    _assert_same_bottleneck(
        batched_reply_bottleneck(cycles=reply_cycles, window=100, seed=seed),
        run_reply_bottleneck(cycles=reply_cycles, window=100, seed=seed,
                             engine="scalar"))
    kwargs = dict(cycles=cycles, warmup=warmup, seed=seed,
                  injection_rate=rate)
    scalar = run_fairness_experiments(arbiters, engine="scalar", **kwargs)
    fused = batched_fairness_experiments(arbiters, **kwargs)
    separate = {arbiter: batched_fairness_experiment(arbiter, **kwargs)
                for arbiter in arbiters}
    assert list(fused) == list(arbiters)
    assert fused == scalar == separate


def test_fused_sections_validate_each_section():
    """Each section's twin rejects its own run shape."""
    with pytest.raises(MeshConfigError, match="cycles >= window"):
        batched_reply_bottleneck(cycles=50, window=100)
    with pytest.raises(MeshConfigError, match="cycles >= window"):
        batched_reply_bottleneck(cycles=100, window=0)
    with pytest.raises(MeshConfigError, match="cycles must exceed warmup"):
        batched_fairness_experiments(cycles=100, warmup=100)
    assert batched_reply_bottleneck(cycles=100).utilization.size == 1


@pytest.mark.parametrize("engine", ["scalar", "batched"])
@pytest.mark.parametrize("call", [
    lambda engine: sweep_load([0.1], cycles=40, warmup=-5, engine=engine),
    lambda engine: run_fairness_experiment(cycles=40, warmup=-5,
                                           engine=engine),
    lambda engine: run_fairness_experiments(cycles=40, warmup=-5,
                                            engine=engine),
], ids=["sweep_load", "fairness", "fairness_pair"])
def test_entry_points_reject_negative_warmup(call, engine):
    with pytest.raises(MeshConfigError, match="warmup must be >= 0"):
        call(engine)


@pytest.mark.parametrize("call", [
    lambda arbiters: run_fairness_experiments(
        arbiters, cycles=100, warmup=10, engine="scalar"),
    lambda arbiters: run_fairness_experiments(
        arbiters, cycles=100, warmup=10, engine="batched"),
    lambda arbiters: batched_fairness_experiments(
        arbiters, cycles=100, warmup=10),
], ids=["scalar", "batched", "fastmesh"])
@pytest.mark.parametrize("arbiters", [("rr", "rr"), ("age", "rr", "age")])
def test_fairness_experiments_reject_repeated_arbiters(call, arbiters):
    # results are keyed by arbiter: a repeat would drop a simulated lane
    with pytest.raises(MeshConfigError, match="must be distinct"):
        call(arbiters)


# ---------------------------------------------------------------------------
# Property-based sweep over configurations
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_property_batched_matches_scalar(data):
    width = data.draw(st.integers(min_value=3, max_value=6), label="width")
    height = data.draw(st.integers(min_value=3, max_value=6), label="height")
    arbiter = data.draw(st.sampled_from(["rr", "age"]), label="arbiter")
    rate = data.draw(st.one_of(
        st.none(),
        st.floats(min_value=0.02, max_value=0.5, allow_nan=False)),
        label="rate")
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 16),
                     label="seed")
    cycles = data.draw(st.integers(min_value=50, max_value=300),
                       label="cycles")
    num_nodes = width * height
    mc = data.draw(st.lists(st.integers(min_value=0,
                                        max_value=num_nodes - 1),
                            min_size=1, max_size=max(1, num_nodes // 6),
                            unique=True),
                   label="mc_nodes")
    scalar = run_scalar(width, height, arbiter, rate, seed, cycles=cycles,
                        mc_nodes=mc)
    batched = run_batched_lane(width, height, arbiter, rate, seed,
                               cycles=cycles, mc_nodes=mc)
    assert_stats_equal(scalar, batched)
