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
* lane ids outside the batch fail at the call in both batched kernels;
* the compiled run (sources, controllers and the cycle loop in C): its
  PCG64 draws against the real Generator, its state against the Python
  loop every cycle, the entry points' results under both steps, and the
  self-check rejecting a run that skips a draw or drops a reply;
* the batched and scalar engines agree on one-row meshes and on
  meshes too narrow for every default memory-controller column.
"""

from __future__ import annotations

import ctypes
import os
from importlib import resources
from unittest import mock

import numpy as np
import pytest

from repro import engines, rng
from repro.errors import MeshConfigError
from repro.noc.mesh import fastmesh, onevc_step
from repro.noc.mesh.fastmesh import (BatchedManyToFew, BatchedMesh,
                                     batched_fairness_experiment,
                                     batched_fairness_experiments,
                                     batched_load_curves,
                                     batched_reply_bottleneck)
from repro.noc.mesh.interfaces import run_reply_bottleneck
from repro.noc.mesh.lanes import _RawStream
from repro.noc.mesh.loadcurve import sweep_load
from repro.noc.mesh.flit import Packet
from repro.noc.mesh.routing import default_mc_nodes
from repro.noc.mesh.traffic import run_fairness_experiment
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
    reply = batched_reply_bottleneck(cycles=300, window=100, seed=3)
    lanes = batched_fairness_experiments(cycles=300, warmup=50, seed=3)
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


# ---------------------------------------------------------------------------
# Compiled run
# ---------------------------------------------------------------------------

def _needs_kernel():
    kernel = onevc_step.kernel()
    if kernel is None:
        pytest.skip(f"no compiled run here ({onevc_step.status()})")
    return kernel


def _words(position) -> np.ndarray:
    return np.array(fastmesh._stream_words(*position), np.uint64)


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_compiled_stream_replays_the_generator(seed):
    """The C stream draws what ``rng.generator_for`` draws: random() and
    integers(n) interleaved, for small n and for 3e9 (Lemire rejection),
    in calls of uneven length so the stashed high half-word crosses
    calls, and ends in the generator's own state."""
    kernel = _needs_kernel()
    gen = rng.generator_for(seed, "mesh-traffic")
    words = _words(_RawStream(seed, "mesh-traffic").position())
    plan = np.random.default_rng(seed).choice(
        [0, 1, 2, 3, 6, 3_000_000_000], size=3000)
    want = [float(gen.random()) if n == 0 else float(gen.integers(n))
            for n in plan.tolist()]
    got = []
    start = 0
    for count in [1, 2, 3, 5, 8, 13] * 100:
        ns = plan[start:start + count].astype(np.int64)
        out = np.zeros(ns.size)
        kernel.draws(words.ctypes.data, ns.ctypes.data, ns.size,
                     out.ctypes.data)
        got += out.tolist()
        start += count
        if start >= plan.size:
            break
    assert start >= plan.size and got == want
    state = gen.bit_generator.state
    assert fastmesh._stream_position(words.tolist()) == (
        state["state"]["state"], state["state"]["inc"],
        state["has_uint32"], state["uinteger"])


def _lockstep_runs(kernel):
    """Python loop and ``kernel``'s run on twin meshes: a Bernoulli
    lane, a greedy lane and a reply pair, with two-flit source rings."""
    runs = []
    for bound in (None, kernel):
        mesh = BatchedMesh(5, 4, batch=4, buffer_flits=4,
                           arbiter_kinds=("age", "rr", "rr", "age"),
                           source_capacity=2)
        mesh._bind(bound)
        mc_nodes = [1, 3, 15, 17, 19]
        sources = [BatchedManyToFew(mesh, 0, mc_nodes, seed=5,
                                    injection_rate=0.4),
                   BatchedManyToFew(mesh, 1, mc_nodes, seed=6,
                                    max_source_backlog=3)]
        pair = fastmesh._ReplyPair(mesh, mc_nodes, seed=7, window=25,
                                   reply_flits=4, request_lane=2)
        runs.append(fastmesh._MeshRun(mesh, sources, pair))
    return runs


def test_compiled_run_matches_the_python_loop_every_cycle():
    """One cycle per ``run`` call, compared after each: meshes, streams,
    controllers and windows.  Source rings grow inside the C loop (the
    call returns, the ring grows, the call resumes at the same cycle's
    step), and packets injected by hand before a run join the next
    step as they do on the Python loop (a reply-flagged one ejected
    at a controller on the request lane is not its work)."""
    kernel = _needs_kernel()
    cycles = 300
    gold, fast = _lockstep_runs(kernel)
    assert not gold.compiled and fast.compiled
    results = []
    real = fast._compiled._call

    def counting(*args):
        results.append(real(*args))
        return results[-1]

    fast._compiled._call = counting
    for cycle in range(cycles):
        if cycle % 37 == 11:
            for run in (gold, fast):
                run.mesh.inject(3, 7, 2, 3)
                run.mesh.inject(0, 4, 9, 1)
                # a reply-flagged packet on the request lane is no work
                run.mesh.inject(2, 8, 3, 1, reply=True)
        gold.run(cycle, cycle + 1)
        fast.run(cycle, cycle + 1)
        assert onevc_step.same_state(gold.mesh, fast.mesh), cycle
        assert gold.pair.controllers() == fast.pair.controllers(), cycle
        assert gold.pair.samples == fast.pair.samples, cycle
        assert onevc_step.same_run(gold, fast), cycle
    assert results.count(onevc_step.STEP_GROW) >= 3
    assert fast.mesh._queues.cap >= 16
    assert len(fast.pair.samples) == cycles // 25
    assert sum(c[3] for c in fast.pair.controllers()) > 50
    assert any(c[0] for c in fast.pair.controllers())   # a backlog


def test_compiled_run_in_long_stretches_matches():
    kernel = _needs_kernel()
    gold, fast = _lockstep_runs(kernel)
    for run in (gold, fast):
        run.run(0, 0)
        run.run(0, 123)
        run.run(123, 410)
    assert onevc_step.same_run(gold, fast)
    with pytest.raises(MeshConfigError, match="from cycle 410"):
        fast.run(400, 420)


def test_compiled_run_raises_at_the_packet_id_limit():
    kernel = _needs_kernel()
    for run in _lockstep_runs(kernel):
        run.mesh._queues.next_pid = (1 << 32) - 3
        with pytest.raises(MeshConfigError, match="packet ids"):
            run.run(0, 10)


def test_entry_points_give_the_same_results_under_both_steps(mesh_step):
    """The report's section twins and a load sweep under the fixture's
    step (and its loop) equal the Python loop on the NumPy step."""
    def both():
        return (batched_reply_bottleneck(cycles=700, window=50, seed=4),
                batched_fairness_experiments(cycles=500, warmup=100, seed=4),
                batched_fairness_experiment("age", cycles=800, warmup=0,
                                            seed=4, injection_rate=0.2),
                batched_load_curves([0.05, 0.3], seeds=(1, 2), cycles=600,
                                    warmup=150))

    got = both()
    with mock.patch.object(onevc_step, "kernel", lambda: None):
        want = both()
    reply, *rest = got
    want_reply, *want_rest = want
    assert reply.utilization.tolist() == want_reply.utilization.tolist()
    assert (reply.mean_utilization, reply.peak_utilization) == (
        want_reply.mean_utilization, want_reply.peak_utilization)
    assert rest == want_rest


class _WrongRun:
    """The real kernel, with its run corrupted once, at the fifth call:
    one draw of the first stream skipped, or one pending request (so
    its reply) dropped."""

    def __init__(self, real, how):
        self.context = real.context
        self.run_context = real.run_context
        self.step = real.step
        self.calls = 0

        def run(ctx, run_ctx, stop):
            res = real.run(ctx, run_ctx, stop)
            self.calls += 1
            if self.calls == 5:
                how(onevc_step._RunContext.from_address(run_ctx))
            return res

        self.run = run


def _skip_a_draw(run_ctx):
    words = (ctypes.c_uint64 * 6).from_address(run_ctx.stream)
    bg = np.random.PCG64(0)
    state, inc, _has32, _buf32 = fastmesh._stream_position(list(words))
    bg.state = {"bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0}
    bg.advance(1)
    inner = bg.state["state"]
    words[:4] = fastmesh._stream_words(inner["state"], inner["inc"],
                                       0, 0)[:4]


def _drop_a_reply(run_ctx):
    head = (ctypes.c_int64 * run_ctx.nmc).from_address(run_ctx.mc_head)
    tail = (ctypes.c_int64 * run_ctx.nmc).from_address(run_ctx.mc_tail)
    for m in range(run_ctx.nmc):
        if tail[m] > head[m]:
            head[m] += 1
            return
    raise AssertionError("no pending request to drop")


@pytest.mark.parametrize("how", [_skip_a_draw, _drop_a_reply],
                         ids=["skip-draw", "drop-reply"])
def test_self_check_rejects_a_wrong_run(how):
    real = _needs_kernel()
    assert onevc_step._self_check(real)
    wrong = _WrongRun(real, how)
    assert not onevc_step._self_check(wrong)
    assert wrong.calls >= 5


def test_fallback_on_run_self_check_mismatch(fresh_loader, monkeypatch):
    """A build whose step passes but whose run does not is not used at
    all: the NumPy step and the Python feeds run, with the same bytes."""
    if onevc_step._compiler() is None:
        pytest.skip("needs a host C compiler")
    want = _sections()
    monkeypatch.setattr(onevc_step, "_run_check", lambda kernel: False)
    _expect_numpy(monkeypatch, "self-check mismatch")
    mesh = BatchedMesh(6, 6, batch=1)
    assert not fastmesh._MeshRun(mesh, [BatchedManyToFew(
        mesh, 0, default_mc_nodes())]).compiled
    assert _sections() == want


# ---------------------------------------------------------------------------
# One-row and narrow meshes
# ---------------------------------------------------------------------------

def test_default_mc_nodes_lists_each_node_once():
    assert default_mc_nodes(6, 6) == [1, 3, 5, 31, 33, 35]
    assert default_mc_nodes(6, 1) == [1, 3, 5]
    assert default_mc_nodes(8, 1) == [1, 3, 5]


@pytest.mark.parametrize("width", [6, 8])
def test_one_row_mesh_engines_agree(mesh_step, width):
    """On a one-row mesh the two MC edges are one row: the scalar engine
    used to replace the first three controllers' delivery sinks (the
    probe never got work, utilisation 0) while the batched one ticked
    each controller twice."""
    shape = {"width": width, "height": 1}
    reply = [run_reply_bottleneck(cycles=400, window=100, seed=3,
                                  engine=engine, **shape)
             for engine in ("scalar", "batched")]
    assert reply[0].utilization.tolist() == reply[1].utilization.tolist()
    assert reply[0].mean_utilization > 0
    fair = [run_fairness_experiment("rr", cycles=400, warmup=100,
                                    engine=engine, **shape)
            for engine in ("scalar", "batched")]
    assert fair[0] == fair[1]
    curves = [sweep_load([0.1, 0.3], cycles=400, warmup=100, engine=engine,
                         **shape) for engine in ("scalar", "batched")]
    assert curves[0] == curves[1]


def test_default_mc_nodes_keep_the_columns_inside_the_mesh():
    assert default_mc_nodes(4, 4) == [1, 3, 13, 15]
    assert default_mc_nodes(5, 3) == [1, 3, 11, 13]
    assert default_mc_nodes(2, 2) == [1, 3]
    assert default_mc_nodes(7, 2) == [1, 3, 5, 8, 10, 12]
    with pytest.raises(MeshConfigError, match="1-wide mesh"):
        default_mc_nodes(1, 4)


@pytest.mark.parametrize("width,height", [(4, 4), (5, 3)])
def test_narrow_mesh_engines_agree(mesh_step, width, height):
    """Meshes narrower than six columns used to get a controller outside
    the mesh (``MC node 17 outside mesh`` on 4x4) on both engines."""
    shape = {"width": width, "height": height}
    reply = [run_reply_bottleneck(cycles=400, window=100, seed=3,
                                  engine=engine, **shape)
             for engine in ("scalar", "batched")]
    assert reply[0].utilization.tolist() == reply[1].utilization.tolist()
    assert reply[0].mean_utilization > 0
    fair = [run_fairness_experiment(arbiter, cycles=400, warmup=100,
                                    engine=engine, **shape)
            for arbiter in ("rr", "age") for engine in ("scalar", "batched")]
    assert fair[0] == fair[1] and fair[2] == fair[3]
    assert fair[0].total_throughput > 0


def test_replies_too_long_for_a_packed_code_raise(mesh_step):
    """The compiled run packs a reply's size into its code: a size past
    the field takes the Python loop, which rejects it at the inject."""
    from repro.noc.mesh.lanes import _MAX_PACKET_FLITS

    with pytest.raises(MeshConfigError, match="at most"):
        batched_reply_bottleneck(cycles=300, window=100,
                                 reply_flits=_MAX_PACKET_FLITS + 1)
