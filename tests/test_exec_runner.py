"""Sharded sweep execution: determinism and serial/parallel identity.

The contract under test (DESIGN/ISSUE): for every sweep that takes a
``jobs`` argument, ``jobs=1`` and ``jobs=N`` produce *bit-identical*
results, because shard decomposition is fixed before the worker count is
chosen and every shard rebuilds its own device.  These tests run the
real process pool (with tiny workloads), so pickling of workers and
shard arguments is exercised for real.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.exec import (DEFAULT_SHARD_SMS, SweepRunner, chunk,
                        device_payload, rebuild_device)


def test_chunk_fixed_granularity():
    assert chunk(range(20), 8) == [(0, 1, 2, 3, 4, 5, 6, 7),
                                   (8, 9, 10, 11, 12, 13, 14, 15),
                                   (16, 17, 18, 19)]
    assert chunk([], 8) == []
    assert chunk(range(3)) == [(0, 1, 2)]          # default size
    assert DEFAULT_SHARD_SMS == 8
    with pytest.raises(ConfigurationError):
        chunk(range(3), 0)


def test_runner_rejects_bad_jobs():
    with pytest.raises(ConfigurationError):
        SweepRunner(0)
    assert SweepRunner(None).jobs == 1


def _square(args):
    return args * args


def test_runner_preserves_shard_order():
    serial = SweepRunner(1).map(_square, range(10))
    pooled = SweepRunner(3).map(_square, range(10))
    assert serial == pooled == [n * n for n in range(10)]


def test_device_payload_round_trip(tiny):
    spec_data, seed = device_payload(tiny)
    rebuilt = rebuild_device(spec_data, seed)
    assert rebuilt.spec == tiny.spec
    assert rebuilt.seed == tiny.seed
    assert rebuilt is not tiny


# --------------------------------------------------------------------------
# serial/parallel bit-identity of the instrumented sweeps
# --------------------------------------------------------------------------

def test_latency_matrix_jobs_identity(v100):
    from repro.core.latency_bench import measured_latency_matrix
    sms = list(range(20))                  # 3 shards of (8, 8, 4)
    one = measured_latency_matrix(v100, sms=sms, samples=1, jobs=1,
                                  engine="scalar")
    two = measured_latency_matrix(v100, sms=sms, samples=1, jobs=2,
                                  engine="scalar")
    four = measured_latency_matrix(v100, sms=sms, samples=1, jobs=4,
                                   engine="scalar")
    assert np.array_equal(one, two)
    assert np.array_equal(one, four)
    assert one.shape == (20, v100.num_slices)
    # legacy serial semantics (shared device) keeps shape and magnitude
    legacy = measured_latency_matrix(v100, sms=sms, samples=1, engine="scalar")
    assert legacy.shape == one.shape
    assert np.allclose(legacy.mean(), one.mean(), rtol=0.1)


def test_bandwidth_distribution_jobs_identity(v100):
    from repro.core.bandwidth_bench import slice_bandwidth_distribution
    sms = list(range(12))
    serial = slice_bandwidth_distribution(v100, 0, sms=sms, engine="scalar")
    one = slice_bandwidth_distribution(v100, 0, sms=sms, jobs=1,
                                       engine="scalar")
    two = slice_bandwidth_distribution(v100, 0, sms=sms, jobs=2,
                                       engine="scalar")
    # the flow solver is stateless: all three paths agree exactly
    assert np.array_equal(serial, one)
    assert np.array_equal(one, two)


def test_saturation_curve_jobs_identity(v100):
    from repro.core.bandwidth_bench import slice_saturation_curve
    sms = v100.hier.sms_in_gpc(0)
    counts = [1, 4, len(sms)]
    serial = slice_saturation_curve(v100, 0, sms, counts=counts,
                                    engine="scalar")
    pooled = slice_saturation_curve(v100, 0, sms, counts=counts, jobs=2,
                                    engine="scalar")
    assert serial == pooled
    assert list(serial) == counts


def test_report_jobs_and_cache_identity(tmp_path):
    from repro.exec import ResultCache
    from repro.report import generate_report
    serial = generate_report(seed=3, include_mesh=False)
    pooled = generate_report(seed=3, include_mesh=False, jobs=2)
    assert serial == pooled
    cache = ResultCache(tmp_path / "cache")
    cold = generate_report(seed=3, include_mesh=False, cache=cache)
    assert cold == serial
    assert cache.misses == 2 and cache.hits == 0
    warm = generate_report(seed=3, include_mesh=False, cache=cache)
    assert warm == serial
    assert cache.hits == 2
    # a different seed must not hit the seed=3 entries
    generate_report(seed=4, include_mesh=False, cache=cache)
    assert cache.misses == 4
