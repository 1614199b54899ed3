"""Shared fixtures: Table I devices (session-scoped) and a tiny device.

The tiny spec exercises every code path (two partitions, CPC level,
dsmem, local L2 policy available via parametrisation) at a fraction of
the cost, so unit tests stay fast; calibration/integration tests use the
real Table I devices.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.gpu.device import SimulatedGPU
from repro.gpu.specs import GPUSpec

# Property tests must be reproducible in CI: derandomize draws the same
# example set on every run (seeded from the test name) and skips the
# local example database, so a run's verdict never depends on what a
# previous run happened to explore.
settings.register_profile("repro-ci", derandomize=True, database=None)
settings.load_profile("repro-ci")


TINY = GPUSpec(
    name="TINY",
    num_gpcs=2, tpcs_per_gpc=2,
    num_mps=2, slices_per_mp=2,
    l2_capacity_bytes=512 * 1024,
    mem_bandwidth_gbps=60.0,
    core_clock_hz=1.0e9,
    die_width_mm=10.0, die_height_mm=8.0,
    flow_cap_gbps=10.0, sm_mshr_bytes=4000.0, flow_mshr_bytes=3000.0,
    slice_bw_gbps=25.0, tpc_out_read_gbps=40.0, tpc_out_write_gbps=18.0,
    gpc_out_gbps=60.0, gpc_mp_channel_gbps=35.0, mp_input_gbps=60.0,
)

TINY_PARTITIONED = GPUSpec(
    name="TINY2P",
    num_gpcs=2, tpcs_per_gpc=2, tpcs_per_cpc=1,
    num_partitions=2,
    num_mps=2, slices_per_mp=2,
    l2_capacity_bytes=512 * 1024,
    mem_bandwidth_gbps=100.0,
    core_clock_hz=1.0e9,
    has_dsmem=True, local_l2_policy=False,
    die_width_mm=12.0, die_height_mm=8.0,
    partition_cross_oneway_cycles=40.0,
    flow_cap_gbps=20.0, sm_mshr_bytes=4000.0, flow_mshr_bytes=3000.0,
    noc_buffer_bytes=0.0,
    slice_bw_gbps=25.0, tpc_out_read_gbps=40.0, tpc_out_write_gbps=18.0,
    gpc_out_gbps=60.0, gpc_mp_channel_gbps=35.0, mp_input_gbps=60.0,
    partition_bridge_gbps=50.0,
)


@pytest.fixture
def tiny():
    return SimulatedGPU(TINY, seed=1)


@pytest.fixture
def tiny2p():
    return SimulatedGPU(TINY_PARTITIONED, seed=1)


@pytest.fixture(scope="session")
def v100():
    return SimulatedGPU("V100", seed=0)


@pytest.fixture(scope="session")
def a100():
    return SimulatedGPU("A100", seed=0)


@pytest.fixture(scope="session")
def h100():
    return SimulatedGPU("H100", seed=0)


@pytest.fixture(scope="session")
def v100_latency_matrix(v100):
    return v100.latency.latency_matrix()


@pytest.fixture(scope="session")
def a100_latency_matrix(a100):
    return a100.latency.latency_matrix()


@pytest.fixture(scope="session")
def h100_latency_matrix(h100):
    return h100.latency.latency_matrix()


@pytest.fixture(params=["compiled", "numpy"])
def mesh_step(request, monkeypatch):
    """Every ``BatchedMesh`` the test builds takes this step.

    ``"numpy"`` hides the compiled step from the loader for the test;
    ``"compiled"`` skips where this host has no compiled step.
    """
    from repro.noc.mesh import onevc_step
    if request.param == "numpy":
        monkeypatch.setattr(onevc_step, "kernel", lambda: None)
    elif onevc_step.kernel() is None:
        pytest.skip(f"no compiled step here ({onevc_step.status()})")
    return request.param
