"""Algorithm 1 microbenchmark against the simulated device."""

import numpy as np
import pytest

from repro.core.latency_bench import (measure_dsmem_latency,
                                      measure_l2_latency,
                                      measure_miss_penalty,
                                      measured_latency_matrix)
from repro.errors import LaunchError
from repro.gpu.device import SimulatedGPU


@pytest.fixture
def v100_fresh():
    return SimulatedGPU("V100", seed=2)


def test_measured_close_to_structural(v100_fresh):
    """Algorithm 1 should read back the device's structural latency plus
    the fixed LSU issue overhead."""
    gpu = v100_fresh
    measured = measure_l2_latency(gpu, sm=24, samples=4)
    structural = np.array([gpu.latency.hit_latency(24, s)
                           for s in gpu.hier.all_slices])
    offset = measured - structural
    assert 0 <= offset.mean() <= 15       # MEM_ISSUE_OVERHEAD + rounding
    assert offset.std() < 3               # measurement jitter only


def test_latency_nonuniform(v100_fresh):
    profile = measure_l2_latency(v100_fresh, sm=24)
    assert profile.max() - profile.min() > 40


def test_subset_of_slices(v100_fresh):
    out = measure_l2_latency(v100_fresh, sm=0, slices=[3, 9])
    assert out.shape == (2,)


def test_samples_validation(v100_fresh):
    with pytest.raises(LaunchError):
        measure_l2_latency(v100_fresh, sm=0, samples=0)


def test_matrix_shape(v100_fresh):
    m = measured_latency_matrix(v100_fresh, sms=[0, 1, 2], slices=[0, 1],
                                samples=1, engine="scalar")
    assert m.shape == (3, 2)


def test_miss_penalty_positive_and_constant(v100_fresh):
    penalties = measure_miss_penalty(v100_fresh, sm=0, slices=[0, 5, 17],
                                     samples=2)
    assert np.all(penalties > 150)
    assert penalties.max() - penalties.min() < 10


def test_miss_penalty_varies_on_h100():
    h100 = SimulatedGPU("H100", seed=2)
    local = h100.hier.slices_in_partition(0)[0]
    remote = h100.hier.slices_in_partition(1)[0]
    penalties = measure_miss_penalty(h100, sm=0, slices=[local, remote],
                                     samples=2)
    assert penalties[1] - penalties[0] > 100


def test_dsmem_latency_cpc_pairs():
    h100 = SimulatedGPU("H100", seed=2)
    table = measure_dsmem_latency(h100, gpc=0, samples=1)
    assert set(table) == {(a, b) for a in range(3) for b in range(3)}
    assert table[(0, 0)] < table[(2, 2)]
    assert table[(0, 0)] == pytest.approx(196, abs=6)


def test_dsmem_requires_h100(v100_fresh):
    with pytest.raises(LaunchError):
        measure_dsmem_latency(v100_fresh, gpc=0)
