"""Algorithm 2 microbenchmark: paper-calibrated bandwidth values."""

import numpy as np
import pytest

from repro.analysis.stats import modality
from repro.core.bandwidth_bench import (aggregate_l2_bandwidth,
                                        aggregate_memory_bandwidth,
                                        group_to_slice_bandwidth,
                                        measure_bandwidth,
                                        single_sm_slice_bandwidth,
                                        slice_bandwidth_distribution,
                                        slice_saturation_curve)
from repro.errors import ConfigurationError


def test_v100_single_sm_to_slice_34(v100):
    """Fig 9b: ~34 GB/s from one SM to one slice."""
    assert single_sm_slice_bandwidth(v100, 0, 0, engine="scalar") == \
        pytest.approx(34.0, rel=0.03)


def test_v100_gpc_to_slice_85(v100):
    """Fig 9c: ~85 GB/s from one GPC to one slice, tight across GPCs."""
    values = [group_to_slice_bandwidth(v100, v100.hier.sms_in_gpc(g), 0,
                                       engine="scalar")
              for g in range(6)]
    assert np.mean(values) == pytest.approx(85.0, rel=0.03)
    assert np.std(values) < 1.0


def test_v100_slice_bw_uniform(v100):
    """Observation 8: per-slice bandwidth nearly uniform."""
    bw = slice_bandwidth_distribution(v100, 5,
                                      sms=range(0, v100.num_sms, 4),
                                      engine="scalar")
    assert bw.std() / bw.mean() < 0.02


def test_a100_near_far_bimodal(a100):
    """Fig 12/13a: near ~39.5, far ~26 GB/s."""
    sm_left = a100.hier.sms_in_partition(0)[0]
    near = single_sm_slice_bandwidth(a100, sm_left, 0, engine="scalar")
    far = single_sm_slice_bandwidth(a100, sm_left,
                                    a100.hier.slices_in_partition(1)[0],
                                    engine="scalar")
    assert near == pytest.approx(39.5, rel=0.03)
    assert far == pytest.approx(26.0, rel=0.08)
    dist = slice_bandwidth_distribution(a100, 0,
                                        sms=range(0, a100.num_sms, 2),
                                        engine="scalar")
    assert modality(dist) == 2


def test_h100_single_peak(h100):
    """Fig 13b: H100 local caching gives one bandwidth mode."""
    dist = slice_bandwidth_distribution(h100, 0,
                                        sms=range(0, h100.num_sms, 3),
                                        engine="scalar")
    assert modality(dist) == 1
    assert dist.max() > 40.0


def test_saturation_curve_monotone_then_flat(a100):
    """Fig 14: bandwidth grows with SMs, saturates by ~8."""
    near_pool = a100.hier.sms_in_partition(0)
    curve = slice_saturation_curve(a100, 0, near_pool,
                                   counts=[1, 2, 4, 8, 12], engine="scalar")
    values = [curve[n] for n in (1, 2, 4, 8, 12)]
    assert all(b >= a - 1e-6 for a, b in zip(values, values[1:]))
    assert values[4] < values[3] * 1.05     # flat after 8


def test_far_saturates_to_same_level(a100):
    """Fig 14: near/far converge once enough SMs stack their MSHRs."""
    near_pool = a100.hier.sms_in_partition(0)
    far_pool = a100.hier.sms_in_partition(1)
    slice_id = 0
    near8 = slice_saturation_curve(a100, slice_id, near_pool, counts=[8],
                                   engine="scalar")[8]
    far8 = slice_saturation_curve(a100, slice_id, far_pool, counts=[8],
                                  engine="scalar")[8]
    assert far8 == pytest.approx(near8, rel=0.1)


def test_aggregate_ratios(v100):
    """Fig 9a: L2 fabric 2-4x DRAM; DRAM ~87% of peak."""
    l2 = aggregate_l2_bandwidth(v100, engine="scalar")
    mem = aggregate_memory_bandwidth(v100, engine="scalar")
    assert 2.0 <= l2 / mem <= 4.0
    assert mem == pytest.approx(
        v100.spec.mem_bandwidth_gbps * v100.spec.dram_efficiency, rel=0.05)


def test_group_requires_sms(v100):
    with pytest.raises(ConfigurationError):
        group_to_slice_bandwidth(v100, [], 0, engine="scalar")


def test_saturation_curve_validation(v100):
    with pytest.raises(ConfigurationError):
        slice_saturation_curve(v100, 0, [0, 1], counts=[3], engine="scalar")
    with pytest.raises(ConfigurationError):
        slice_saturation_curve(v100, 0, [], engine="scalar")


def test_fig15_placement_effects(v100):
    """Fig 15(b,c): SM spreading matters, slice spreading does not."""
    hier = v100.hier
    mp0 = hier.slices_in_mp(0)
    contig = measure_bandwidth(
        v100, {sm: mp0 for sm in hier.sms_in_gpc(0) + hier.sms_in_gpc(1)})
    spread_sms = [hier.sm_id(g, t, s) for g in range(6)
                  for t in range(3) for s in range(2)][:28]
    distrib = measure_bandwidth(v100, {sm: mp0 for sm in spread_sms})
    degradation = 1 - contig.total_gbps / distrib.total_gbps
    assert 0.4 <= degradation <= 0.75        # paper: ~62%

    one_mp = measure_bandwidth(v100, {sm: mp0
                                      for sm in hier.sms_in_gpc(0)})
    four_mp = measure_bandwidth(v100, {sm: hier.all_slices
                                       for sm in hier.sms_in_gpc(0)})
    gain = four_mp.total_gbps / one_mp.total_gbps - 1
    assert 1.5 <= gain <= 3.0                # paper: +218%


def test_fig15a_slice_distribution_neutral(v100):
    """Fig 15a: contiguous vs distributed slices — near-identical."""
    hier = v100.hier
    n = 4
    contig = measure_bandwidth(
        v100, {sm: hier.slices_in_mp(0)[:n] for sm in hier.all_sms})
    spread = measure_bandwidth(
        v100, {sm: [hier.slice_id(m, 0) for m in range(n)]
               for sm in hier.all_sms})
    assert contig.total_gbps == pytest.approx(spread.total_gbps, rel=0.05)
