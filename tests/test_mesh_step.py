"""The compiled one-VC step (``onevc_step.c``) against the NumPy step.

``BatchedMesh`` steps either as NumPy array code or as one call of a C
function on the same arrays; both must leave every array bit-identical.
``tests/test_mesh_step_lockstep.py`` runs the equivalence suites under
each step; this module adds:

* a full-state comparison every cycle, including source rings that
  grow under greedy bursts, and the packet-id limit under both steps;
* the loader's fallbacks: no compiler, a compile error, an unusable or
  untrusted directory, an untrusted cached file and a self-check
  mismatch each leave the NumPy step in place with the same results;
  a compile error or mismatch is recorded, so no later process builds
  it again, and the build's name follows the layout it was built for;
* lane ids outside the batch fail at the call in both batched kernels.
"""

from __future__ import annotations

import os
from importlib import resources

import numpy as np
import pytest

from repro import engines
from repro.errors import MeshConfigError
from repro.noc.mesh import onevc_step
from repro.noc.mesh.fastmesh import (BatchedManyToFew, BatchedMesh,
                                     FairnessLane, ReplySection,
                                     batched_mesh_sections)
from repro.noc.mesh.flit import Packet
from repro.noc.mesh.routing import default_mc_nodes
from repro.noc.mesh.vcmesh_batched import BatchedVCMesh


def _uses_compiled(mesh: BatchedMesh) -> bool:
    return mesh._c_tails is not None


# ---------------------------------------------------------------------------
# Full state, every cycle
# ---------------------------------------------------------------------------

def _twins(**kwargs):
    gold = BatchedMesh(**kwargs)
    gold._bind(None)
    fast = BatchedMesh(**kwargs)
    fast._bind(onevc_step.kernel())
    return gold, fast


@pytest.mark.parametrize("arbiters", [("rr", "age", "rr"), ("age", "age")],
                         ids=["mixed", "age"])
def test_ring_growth_bursts_match_every_cycle(arbiters):
    """Greedy bursts into two-flit source rings: every ring grows several
    times, in the middle of runs of 5-flit replies and single-flit
    requests appended out of lane and queue order.  Every array of the
    two meshes (router state, rings, counters, tails) is compared after
    every step."""
    if onevc_step.kernel() is None:
        pytest.skip(f"no compiled step here ({onevc_step.status()})")
    width, height = 4, 4
    n = width * height
    gold, fast = _twins(width=width, height=height, batch=len(arbiters),
                        buffer_flits=4, arbiter_kinds=arbiters,
                        source_capacity=2)
    gen = np.random.default_rng(23)
    caps = []
    for cycle in range(400):
        if cycle < 250:
            for node in gen.permutation(n).tolist():
                for lane in gen.permutation(len(arbiters)).tolist():
                    for _ in range(int(gen.integers(0, 4))):
                        dst = int(gen.integers(n - 1))
                        dst += dst >= node
                        size = 5 if gen.random() < 0.3 else 1
                        reply = bool(gen.random() < 0.3)
                        for mesh in (gold, fast):
                            mesh.inject(lane, node, dst, size, reply=reply)
        gold.step()
        fast.step()
        assert onevc_step.same_state(gold, fast), cycle
        caps.append(fast._queues.cap)
    assert caps[-1] >= 64 and len(set(caps)) >= 5       # grew repeatedly
    assert int(gold._d_count.sum()) > 1000


def test_packet_id_limit_still_raises(mesh_step):
    mesh = BatchedMesh(3, 3, batch=2)
    mesh._queues.next_pid = (1 << 32) - 2
    mesh.inject(0, 0, 4, 1)
    mesh.inject(1, 2, 4, 1)
    mesh.step()                         # ids 2**32-2 and 2**32-1 fit
    mesh.inject(0, 1, 4, 1)
    with pytest.raises(MeshConfigError, match="packet ids"):
        mesh.step()


# ---------------------------------------------------------------------------
# Lane ids
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lane", [-1, 2])
def test_out_of_range_lane_fails_at_the_call(mesh_step, lane):
    """A lane id outside the batch used to land in another lane's queues
    (-1: the last lane's) or past the last one, and reads at -1 returned
    the last lane's numbers."""
    mesh = BatchedMesh(4, 4, batch=2)
    calls = [lambda: mesh.inject(lane, 3, 5, 1),
             lambda: mesh.source_backlog(lane, 3),
             lambda: mesh.lane_stats(lane),
             lambda: mesh.buffer_occupancy(lane),
             lambda: BatchedManyToFew(mesh, lane, default_mc_nodes(4, 4))]
    vc = BatchedVCMesh(4, 4, num_vcs=(2, 2), buffer_flits=4,
                       credit_latency=1)
    calls += [lambda: vc.inject(lane, Packet(src=3, dst=5, size=1)),
              lambda: vc.source_backlog(lane, 3),
              lambda: vc.add_sink(lane, 3, print),
              lambda: vc.delivered_count(lane),
              lambda: vc.delivered_flits(lane),
              lambda: vc.buffer_occupancy(lane),
              lambda: vc.credit_snapshot(lane)]
    for call in calls:
        with pytest.raises(MeshConfigError, match=f"lane {lane} outside"):
            call()
    mesh.step()
    vc.step()
    assert mesh.buffer_occupancy(1) == [0] * 80     # nothing leaked
    assert vc.buffer_occupancy(1) == [0] * 160


# ---------------------------------------------------------------------------
# Loader: build, cache, trust and fallbacks
# ---------------------------------------------------------------------------

def _sections():
    reply, lanes = batched_mesh_sections(
        ReplySection(cycles=300, window=100),
        [FairnessLane("rr", cycles=300, warmup=50),
         FairnessLane("age", cycles=300, warmup=50)], seed=3)
    return reply.utilization.tolist(), lanes


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A scratch build cache; :func:`_reload` then loads afresh from it.

    The process's own load happens first, from the real cache, so the
    reference results of a test never build into the scratch one.
    """
    onevc_step.kernel()
    cache = tmp_path / "cache"
    monkeypatch.setattr(onevc_step, "_build_dirs", lambda: [cache])
    return cache


def _reload(monkeypatch) -> str:
    """Forget this process's load result and load again: the status."""
    monkeypatch.setattr(onevc_step, "_RESULT", None)
    return onevc_step.status()


def _expect_numpy(monkeypatch, reason: str) -> None:
    assert _reload(monkeypatch) == f"numpy: {reason}"
    assert not _uses_compiled(BatchedMesh(3, 3, batch=1))


def test_fresh_build_is_checked_installed_and_reused(fresh_loader,
                                                      monkeypatch):
    if onevc_step._compiler() is None:
        pytest.skip("needs a host C compiler")
    assert _reload(monkeypatch) == "compiled"
    built = sorted(fresh_loader.iterdir())
    assert [path.suffix for path in built] == [".so"]   # no temp files left
    mode = built[0].stat().st_mode
    assert built[0].stat().st_uid == os.getuid() and not mode & 0o022
    # a second process finds the cached build and compiles nothing
    monkeypatch.setattr(onevc_step, "_build", None)
    assert _reload(monkeypatch) == "compiled"
    assert _uses_compiled(BatchedMesh(3, 3, batch=1))


def test_fallback_without_compiler(fresh_loader, monkeypatch):
    want = _sections()
    monkeypatch.setattr(onevc_step, "_compiler", lambda: None)
    _expect_numpy(monkeypatch, "no C compiler")
    assert _sections() == want


def test_fallback_on_compile_error(fresh_loader, monkeypatch):
    if onevc_step._compiler() is None:
        pytest.skip("needs a host C compiler")
    want = _sections()
    monkeypatch.setattr(onevc_step, "_source", lambda: b"not a C program")
    _expect_numpy(monkeypatch, "build failed")
    _expect_recorded(fresh_loader, monkeypatch, "build failed")
    assert _sections() == want


@pytest.mark.parametrize("kind", ["under-a-file", "others-can-write"])
def test_fallback_without_usable_directory(fresh_loader, monkeypatch,
                                           tmp_path, kind):
    if onevc_step._compiler() is None:
        pytest.skip("needs a host C compiler")
    want = _sections()
    if kind == "under-a-file":
        (tmp_path / "file").write_text("")
        bad = tmp_path / "file" / "cache"
    else:
        bad = tmp_path / "shared"
        bad.mkdir()
        bad.chmod(0o777)
    monkeypatch.setattr(onevc_step, "_build_dirs", lambda: [bad])
    _expect_numpy(monkeypatch, "no trusted build directory")
    assert _sections() == want


@pytest.mark.parametrize("kind", ["foreign-owner", "others-can-write"])
def test_untrusted_cached_file_is_never_loaded(fresh_loader, monkeypatch,
                                               kind):
    compiler = onevc_step._compiler()
    if compiler is None:
        pytest.skip("needs a host C compiler")
    if kind == "foreign-owner" and os.getuid() != 0:
        pytest.skip("giving a file away needs root")
    want = _sections()
    fresh_loader.mkdir(mode=0o700)
    planted = fresh_loader / onevc_step._build_name(onevc_step._source(),
                                                    compiler)
    planted.write_bytes(b"not a shared object")
    if kind == "foreign-owner":
        os.chown(planted, 1, 1)
        planted.chmod(0o755)
    else:
        planted.chmod(0o666)
    # "load failed" would mean the planted file was opened
    _expect_numpy(monkeypatch, "untrusted build file")
    assert planted.read_bytes() == b"not a shared object"
    assert _sections() == want


def test_fallback_on_self_check_mismatch(fresh_loader,
                                         monkeypatch):
    if onevc_step._compiler() is None:
        pytest.skip("needs a host C compiler")
    want = _sections()
    monkeypatch.setattr(onevc_step, "_self_check", lambda kernel: False)
    _expect_numpy(monkeypatch, "self-check mismatch")
    _expect_recorded(fresh_loader, monkeypatch, "self-check mismatch")
    assert _sections() == want


def _expect_recorded(cache, monkeypatch, reason: str) -> None:
    """A failed build left only its marker (no temp file, nothing
    installed), and a later process falls back without building."""
    marker, = cache.iterdir()
    assert marker.suffix == ".failed" and marker.read_text() == reason
    assert marker.stat().st_uid == os.getuid()
    monkeypatch.setattr(onevc_step, "_build", None)
    _expect_numpy(monkeypatch, reason)


def test_untrusted_failure_marker_is_not_believed(fresh_loader,
                                                  monkeypatch):
    compiler = onevc_step._compiler()
    if compiler is None:
        pytest.skip("needs a host C compiler")
    fresh_loader.mkdir(mode=0o700)
    name = onevc_step._build_name(onevc_step._source(), compiler)
    marker = onevc_step._marker(fresh_loader / name)
    marker.write_text("self-check mismatch")
    marker.chmod(0o666)
    _expect_numpy(monkeypatch, "untrusted build file")


def test_build_name_follows_what_the_build_was_checked_with(monkeypatch):
    """The C step takes the flit layout from ``lanes.py`` as ``-D``
    flags, and a cached build is trusted without a new self-check: a
    change to the layout, or to the text of the NumPy step, the layout
    module or the loader, must name (so build and check) a new object."""
    source, compiler = onevc_step._source(), ["cc"]
    name = onevc_step._build_name(source, compiler)
    assert "-DPEND_Q_SHIFT=43" in onevc_step._flags()
    with monkeypatch.context() as patch:
        patch.setattr(onevc_step.lanes, "_PEND_Q_SHIFT", 44)
        assert onevc_step._build_name(source, compiler) != name
    assert set(onevc_step._CHECKED_WITH) == {"fastmesh.py", "lanes.py",
                                            "onevc_step.py"}
    names = set()
    for dropped in onevc_step._CHECKED_WITH:
        monkeypatch.setattr(onevc_step, "_CHECKED_WITH", tuple(
            other for other in ("fastmesh.py", "lanes.py", "onevc_step.py")
            if other != dropped))
        names.add(onevc_step._build_name(source, compiler))
    assert len(names) == 3 and name not in names


class _DroppingKernel:
    """A wrong step: the real one, with every deferred packet dropped."""

    def __init__(self, real):
        self.context = real.context
        self.step = (lambda ctx, cycle, wormhole, codes, k, b0:
                     real.step(ctx, cycle, wormhole, None, 0, b0))


def test_self_check_rejects_a_wrong_step():
    real = onevc_step.kernel()
    if real is None:
        pytest.skip("needs the compiled step")
    assert onevc_step._self_check(real)
    assert not onevc_step._self_check(_DroppingKernel(real))


# ---------------------------------------------------------------------------
# Packaging and observability
# ---------------------------------------------------------------------------

def test_step_source_ships_as_package_data():
    source = resources.files("repro.noc.mesh").joinpath(onevc_step.SOURCE)
    assert source.is_file()
    assert b"onevc_step(" in source.read_bytes()


def test_engines_catalogue_names_the_step():
    entry, = [row for row in engines.describe()
              if (row["domain"], row["name"]) == ("mesh", "batched")]
    assert entry["step"] == onevc_step.status()
    assert entry["step"] == "compiled" or entry["step"].startswith("numpy: ")
