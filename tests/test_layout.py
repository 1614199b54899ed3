"""Spec-only device state: one shared layout per spec value."""

import numpy as np
import pytest

from repro.core.fastpath.latency import _route_table
from repro.core.latency_bench import measured_latency_matrix
from repro.gpu.device import SimulatedGPU
from repro.gpu.layout import spec_layout
from repro.gpu.serialization import spec_from_dict, spec_to_dict
from repro.gpu.specs import V100
from repro.noc.latency import LatencyModel


def test_devices_of_one_spec_share_one_layout():
    rebuilt = spec_from_dict(spec_to_dict(V100))
    assert rebuilt is not V100 and rebuilt == V100
    devices = [SimulatedGPU("V100", seed=1), SimulatedGPU(V100, seed=2),
               SimulatedGPU(rebuilt, seed=3)]
    layout = spec_layout(V100)
    assert spec_layout(rebuilt) is layout
    for gpu in devices:
        assert gpu.hier is layout.hier
        assert gpu.floorplan is layout.floorplan
        assert gpu.latency.crossbar.floorplan is layout.floorplan
    assert LatencyModel(rebuilt).hier is layout.hier
    assert spec_layout(rebuilt).arrays is layout.arrays


def test_shared_layout_is_read_only():
    layout = spec_layout(V100)
    assert isinstance(layout.hier.all_sms, tuple)
    assert isinstance(layout.hier.all_slices, tuple)
    with pytest.raises(ValueError):
        layout.arrays.sm_x[0] = 0.0


def test_different_seeds_keep_their_own_per_seed_state():
    a, b = SimulatedGPU("V100", seed=1), SimulatedGPU("V100", seed=2)
    a_alone = SimulatedGPU("V100", seed=1)
    matrix_a = measured_latency_matrix(a, sms=[0, 1], samples=2)
    matrix_b = measured_latency_matrix(b, sms=[0, 1], samples=2)
    # another seed's run through the shared layout changes nothing here
    assert (measured_latency_matrix(a_alone, sms=[0, 1], samples=2)
            == matrix_a).all()
    assert not (matrix_a == matrix_b).all()
    table_a, table_b = _route_table(a.latency), _route_table(b.latency)
    assert table_a is not table_b
    drawn = ~np.isnan(table_a)
    assert drawn.sum() == 2 * 32 and (drawn == ~np.isnan(table_b)).all()
    assert not (table_a[drawn] == table_b[drawn]).any()
    assert a.memory.l2 is not b.memory.l2
    b.memory.l2.invalidate()
    # one warm line per slice, however many SMs measured it
    assert sum(s.resident_lines for s in a.memory.l2.slices) == 32
    assert a.memory._access_seq == b.memory._access_seq == 2 * 32 * 3
