"""The fastmesh equivalence suites under each ``BatchedMesh`` step.

``tests/test_fastmesh_equivalence.py`` runs under whichever step this
host selects (the compiled one when a C compiler works).  The same
tests, unedited, are collected here a second time, once per step,
through the ``mesh_step`` fixture (``tests/conftest.py``).  The host's
own step is skipped here, as that module has just run it, so both
steps are held to the golden model on every host that can build the
compiled one, and no test runs twice under the same step.
"""

from __future__ import annotations

import pytest

from tests.test_fastmesh_equivalence import (  # noqa: F401  (re-collected)
    test_batched_load_curves_match_per_config_scalar_sweeps,
    test_custom_mc_placement_and_buffer_depth,
    test_fairness_experiment_engines_identical,
    test_fairness_pair_engines_identical,
    test_fused_sections_match_scalar_and_separate_runs,
    test_lane_results_independent_of_batch_shape,
    test_lockstep_bursts_bulk_flush,
    test_lockstep_trace_matches_every_cycle,
    test_mixed_arbiter_lanes_match_separate_scalar_runs,
    test_multiflit_wormhole_matches,
    test_property_batched_matches_scalar,
    test_reply_bottleneck_engines_identical,
    test_single_lane_bit_identical,
    test_sweep_load_engines_identical,
)
from repro.noc.mesh import onevc_step
from repro.noc.mesh.fastmesh import BatchedMesh

pytestmark = pytest.mark.usefixtures("mesh_step")


@pytest.fixture(autouse=True)
def _skip_the_host_step(request):
    """Runs before ``mesh_step`` hides anything from the loader."""
    host = "compiled" if onevc_step.kernel() is not None else "numpy"
    if request.node.callspec.params["mesh_step"] == host:
        pytest.skip("the host's own step: run by "
                    "tests/test_fastmesh_equivalence.py")


def test_fixture_selects_the_step(mesh_step):
    mesh = BatchedMesh(3, 3, batch=1)
    assert (mesh._c_tails is not None) == (mesh_step == "compiled")
