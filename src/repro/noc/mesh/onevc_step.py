"""Build, trust and load the compiled one-VC mesh step and run.

:class:`~repro.noc.mesh.fastmesh.BatchedMesh` runs each step either as
NumPy array code or as one call of the C function in ``onevc_step.c``
on the same arrays (through :mod:`ctypes`).  The results are the same
bit for bit; the C step makes one call where the NumPy step makes ~70.
The same build holds the compiled *run*: fastmesh's cycle loop (the
traffic sources with their PCG64 streams, the reply pair's memory
controllers, the step and the collect) for a stretch of cycles in one
call, where the Python loop pays ~20 µs of interpreter per cycle.
:func:`kernel` decides once per process which one runs:

* the C source ships as package data and is compiled with the host C
  compiler on first use, never at import;
* the flit and packed-code layout comes from :mod:`repro.noc.mesh.lanes`
  as ``-D`` flags (:func:`_flags`), so ``lanes.py`` alone holds it;
* the shared object is named by the sha256 of the source, the compiler
  command, the flags, the platform tag and the text of the Python
  modules its self-check ran against (:data:`_CHECKED_WITH`), so a
  change to any of them builds and self-checks afresh; it is cached in
  this package's ``__pycache__`` directory, or in a per-user temp
  directory when that one is unusable;
* a directory is used only when it is a real directory that the
  current user owns and no one else can write to, and a cached build is
  loaded only when the same holds for the file, so a shared object that
  someone else planted is never loaded;
* a fresh build is compiled under a unique temp name, checked in
  lockstep against the NumPy step and the Python loop
  (:func:`_self_check`) and only then moved into place with
  :func:`os.replace`, so workers that build at the same time never see
  each other's partial files;
* a build that fails to compile or fails its self-check leaves a
  ``.failed`` marker under the same name, so later processes take the
  NumPy step at once instead of compiling again (delete the marker to
  retry).

Anything that fails (no compiler, a build error, no usable directory, an
untrusted file, a self-check mismatch of the step or of the run) leaves
the NumPy step and the Python feeds in place, and :func:`status` says
why.  There is no option to pick a step: both give the same bytes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import tempfile
import threading
from importlib import resources
from pathlib import Path

import numpy as np

from repro.noc.mesh import lanes

SOURCE = "onevc_step.c"
CFLAGS = ("-O2", "-shared", "-fPIC", "-std=c99")
#: return code of ``onevc_step`` and ``onevc_run``: a source-queue ring
#: must grow first
STEP_GROW = -1
#: return code of ``onevc_run``: the cycle's packets need more packet ids
#: than are left
RUN_NO_IDS = -3
#: failures recorded beside the build name: they recur on every build
_RECORDED = ("build failed", "self-check mismatch")
#: the Python side of a build's self-check: the NumPy step it is checked
#: against, the layout it is built with, the ctypes context and the
#: check.  Their text enters the build's name, so a cached build is only
#: loaded next to the code that checked it.
_CHECKED_WITH = ("fastmesh.py", "lanes.py", "onevc_step.py")

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p


class _Context(ctypes.Structure):
    """The C ``onevc_ctx``: the mesh's sizes and array addresses."""
    _fields_ = ([(name, _I64) for name in (
        "slots", "n", "batch", "depth", "queues", "cap")]
        + [(name, _PTR) for name in (
            "rf_a", "rf_b", "hd", "ln", "h_a", "h_b", "h_out", "lock",
            "body_out", "arb_row", "nbr_g", "node_f", "rtbase_f", "lane_f",
            "route", "pick", "next_row",
            "qa", "qb", "qhd", "qln", "d_count", "d_lat_sum", "d_lat_min",
            "d_lat_max", "d_by_src", "d_lat_by_src", "flits_delivered",
            "need", "grants", "gmask", "touched", "tails")])


class _RunContext(ctypes.Structure):
    """The C ``onevc_run_ctx``: the run's position, sources, controllers."""
    _fields_ = ([(name, _I64) for name in (
        "cycle", "fed", "k", "b0", "next_pid", "wormhole", "ntails", "nsrc",
        "codes_cap", "nmc", "window", "reply_flits", "service", "limit",
        "reply_base", "request_lane", "pcap", "busy_in_window", "nsamples")]
        + [(name, _PTR) for name in (
            "src_maxb", "src_rate", "src_node_off", "node_q", "node_code",
            "src_mc_off", "mc_code", "stream", "mc_node", "mc_of_node",
            "mc_cool", "mc_busy", "mc_served", "mc_head", "mc_tail",
            "mc_pend", "samples", "codes", "qpend")])


_FLOAT_FIELDS = frozenset({"d_lat_sum", "d_lat_min", "d_lat_max",
                           "d_lat_by_src", "src_rate", "samples"})


def address(array: np.ndarray, name: str) -> int:
    """Data address of a C-contiguous array of the field's dtype."""
    dtype = np.float64 if name in _FLOAT_FIELDS else np.int64
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise TypeError(f"{name} must be a contiguous {np.dtype(dtype)} "
                        "array")
    return array.ctypes.data


def _filled(struct, fields: dict):
    """``struct`` with sizes (ints) and arrays (by field name) set."""
    for name, value in fields.items():
        setattr(struct, name, address(value, name)
                if isinstance(value, np.ndarray) else value)
    return struct


class Kernel:
    """A loaded build.

    ``step(ctx, cycle, wormhole, codes, k, b0)`` is one mesh step,
    ``run(ctx, run_ctx, stop)`` the cycle loop up to ``stop`` and
    ``draws(stream, ns, count, out)`` replays ``count`` draws of one
    traffic stream (``ns[i]`` 0: ``random()``, else ``integers(ns[i])``).
    """

    def __init__(self, lib: ctypes.CDLL):
        step = lib.onevc_step
        step.argtypes = (_PTR, _I64, _I64, _PTR, _I64, _I64)
        step.restype = _I64
        run = lib.onevc_run
        run.argtypes = (_PTR, _PTR, _I64)
        run.restype = _I64
        draws = lib.onevc_draws
        draws.argtypes = (_PTR, _PTR, _I64, _PTR)
        draws.restype = None
        self.step = step
        self.run = run
        self.draws = draws
        self._lib = lib

    @staticmethod
    def context(**fields) -> _Context:
        """A step context from sizes and arrays (by field name)."""
        return _filled(_Context(), fields)

    @staticmethod
    def run_context(**fields) -> _RunContext:
        """A run context from sizes and arrays (by field name)."""
        return _filled(_RunContext(), fields)


# ---------------------------------------------------------------------------
# Build, cache and trust
# ---------------------------------------------------------------------------

def _source() -> bytes:
    return resources.files(__package__).joinpath(SOURCE).read_bytes()


def _compiler() -> list | None:
    """The host C compiler command (Python's own ``CC`` first)."""
    # build-time modules load here, not with the mesh engine
    import shlex
    import sysconfig

    for command in (sysconfig.get_config_var("CC") or "", "cc", "gcc",
                    "clang"):
        argv = shlex.split(command)
        if argv and shutil.which(argv[0]):
            return argv
    return None


def _uid() -> int | None:
    getuid = getattr(os, "getuid", None)
    return getuid() if getuid is not None else None


def _build_dirs() -> list:
    """Cache directories in order of preference."""
    return [Path(__file__).resolve().parent / "__pycache__",
            Path(tempfile.gettempdir()) / f"repro-onevc-{_uid()}"]


def _flags() -> list:
    """Compile flags: :data:`CFLAGS`, the layout of ``lanes.py`` and the
    return codes."""
    layout = {
        "NUM_PORTS": lanes._NUM_PORTS, "F_HEAD": lanes._F_HEAD,
        "F_TAIL": lanes._F_TAIL, "A_DST_SHIFT": lanes._A_DST_SHIFT,
        "A_SRC_SHIFT": lanes._A_SRC_SHIFT, "A_SRC_MASK": lanes._A_SRC_MASK,
        "A_FLG_MASK": lanes._A_FLG_MASK,
        "PEND_SIZE_SHIFT": lanes._PEND_SIZE_SHIFT,
        "PEND_Q_SHIFT": lanes._PEND_Q_SHIFT, "F_REPLY": lanes._F_REPLY,
        "PID_LIMIT": lanes._PID_LIMIT, "STEP_GROW": STEP_GROW,
        "RUN_NO_IDS": RUN_NO_IDS}
    return [*CFLAGS, *(f"-D{name}={value}" for name, value in layout.items())]


def _build_name(source: bytes, compiler: list) -> str:
    import sysconfig

    package = resources.files(__package__)
    digest = hashlib.sha256()
    for part in (source, " ".join(compiler + _flags()).encode(),
                 sysconfig.get_platform().encode(),
                 *(package.joinpath(name).read_bytes()
                   for name in _CHECKED_WITH)):
        digest.update(part)
        digest.update(b"\0")
    return f"onevc_step-{digest.hexdigest()[:24]}.so"


def _trusted(path: Path, uid: int) -> bool:
    """Owned by ``uid``, writable by no one else, and not a symlink."""
    try:
        st = path.lstat()
    except OSError:
        return False
    return (st.st_uid == uid and not st.st_mode & 0o022
            and not stat.S_ISLNK(st.st_mode))


def _usable_dir(directory: Path, uid: int) -> bool:
    """A trusted directory this process can write to (made if missing)."""
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        return False
    return directory.is_dir() and _trusted(directory, uid) \
        and os.access(directory, os.W_OK | os.X_OK)


def _marker(path: Path) -> Path:
    """Where a failed build of ``path`` is recorded."""
    return path.with_suffix(".failed")


def _record_failure(path: Path, why: str) -> None:
    """Write ``why`` to the marker of ``path`` (temp file, then replace)."""
    marker = _marker(path)
    fd, tmp = tempfile.mkstemp(dir=marker.parent, prefix=marker.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as out:
            out.write(why)
        os.replace(tmp, marker)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build(source: bytes, compiler: list, path: Path) -> tuple:
    """Compile, self-check and install ``path``; ``(Kernel|None, status)``.

    A compile error or a self-check mismatch is recorded in the marker
    file; a compiler that cannot be run (or times out) is not, since
    the next process may well succeed.
    """
    import subprocess

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    os.close(fd)
    try:
        try:
            done = subprocess.run(
                [*compiler, *_flags(), "-x", "c", "-", "-o", tmp],
                input=source, capture_output=True, timeout=300,
                check=False)
        except (OSError, subprocess.SubprocessError):
            return None, "build failed"
        kernel = None
        if done.returncode == 0:
            os.chmod(tmp, 0o755)
            try:
                kernel = Kernel(ctypes.CDLL(tmp))
            except (OSError, AttributeError):
                pass
        if kernel is None:
            why = "build failed"
        elif not _self_check(kernel):
            why = "self-check mismatch"
        else:
            os.replace(tmp, path)
            return kernel, "compiled"
        _record_failure(path, why)
        return None, why
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> tuple:
    """Find, or build, a trusted build: ``(Kernel|None, status)``."""
    uid = _uid()
    if uid is None:
        return None, "no file ownership on this platform"
    try:
        source = _source()
    except OSError:
        return None, "step source missing"
    compiler = _compiler()
    if compiler is None:
        return None, "no C compiler"
    name = _build_name(source, compiler)
    for directory in _build_dirs():
        if not _usable_dir(directory, uid):
            continue
        path = directory / name
        marker = _marker(path)
        if os.path.lexists(marker):
            if not _trusted(marker, uid):
                return None, "untrusted build file"
            why = marker.read_text(errors="replace")
            return None, why if why in _RECORDED else "build failed"
        if not os.path.lexists(path):
            return _build(source, compiler, path)
        if not _trusted(path, uid):
            return None, "untrusted build file"
        try:
            return Kernel(ctypes.CDLL(str(path))), "compiled"
        except (OSError, AttributeError):
            return None, "load failed"
    return None, "no trusted build directory"


# (Kernel or None, status) once decided.  While the loading thread holds
# the lock, the placeholder gives its self-check meshes the NumPy step;
# other threads wait for the outcome
_RESULT: tuple | None = None
_LOADING = (None, "loading")
_LOCK = threading.RLock()


def kernel() -> Kernel | None:
    """The compiled step for this process, or None for the NumPy step."""
    global _RESULT
    if _RESULT is None or _RESULT is _LOADING:
        with _LOCK:
            if _RESULT is None:
                _RESULT = _LOADING
                try:
                    _RESULT = _load()
                except Exception as exc:    # any failure: the NumPy step
                    _RESULT = (None, f"load failed ({type(exc).__name__})")
    return _RESULT[0]


def status() -> str:
    """``"compiled"``, or ``"numpy: <why the C step is not used>"``."""
    kernel()
    found, why = _RESULT
    return "compiled" if found is not None else f"numpy: {why}"


# ---------------------------------------------------------------------------
# Lockstep self-check of a fresh build
# ---------------------------------------------------------------------------

_STATE = ("_ln", "_hd", "_rf_a", "_rf_b", "_h_a", "_h_b", "_h_out",
          "_lock", "_body_out", "_arb_row", "_d_count", "_d_lat_sum",
          "_d_lat_min", "_d_lat_max", "_d_by_src", "_d_lat_by_src",
          "_flits_delivered")
_QUEUE_STATE = ("a", "b", "hd", "ln")


def same_state(gold, fast) -> bool:
    """Every array of two :class:`BatchedMesh` meshes, bit for bit."""
    gold._flush_stats()
    fast._flush_stats()
    if (gold.cycle != fast.cycle
            or gold._queues.cap != fast._queues.cap
            or gold._queues.next_pid != fast._queues.next_pid
            or gold._queues.pend != fast._queues.pend):
        return False
    pairs = [(getattr(gold, name), getattr(fast, name)) for name in _STATE]
    pairs += [(getattr(gold._queues, name), getattr(fast._queues, name))
              for name in _QUEUE_STATE]
    pairs += list(zip(gold.last_ejected, fast.last_ejected))
    return all(np.array_equal(a, b) for a, b in pairs)


def _self_check(candidate: Kernel, cycles: int = 120) -> bool:
    """The step, then the run (:func:`_run_check`), against Python.

    The step: twin meshes, NumPy step vs ``candidate``, compared every
    cycle.  Mixed rr/age lanes, one- and five-flit packets (wormhole
    locks), requests and replies, bursts appended out of lane and queue
    order, and two-flit source rings that must grow.
    """
    return _step_check(candidate, cycles) and _run_check(candidate)


def _step_check(candidate: Kernel, cycles: int) -> bool:
    from repro import rng
    from repro.noc.mesh.fastmesh import BatchedMesh

    kinds = ("rr", "age", "rr")
    width, height = 4, 3
    n = width * height
    gold, fast = (BatchedMesh(width, height, batch=len(kinds),
                              buffer_flits=3, arbiter_kinds=kinds,
                              source_capacity=2) for _ in range(2))
    gold._bind(None)
    fast._bind(candidate)
    gen = rng.generator_for(0, "onevc-step-check")
    for _cycle in range(cycles):
        for node in gen.permutation(n).tolist():
            for lane in range(len(kinds)):
                if gold.source_backlog(lane, node) >= 12:
                    continue
                for _ in range(int(gen.integers(0, 3))):
                    dst = int(gen.integers(n - 1))
                    dst += dst >= node
                    size = 5 if gen.random() < 0.4 else 1
                    reply = bool(gen.random() < 0.5)
                    for mesh in (gold, fast):
                        mesh.inject(lane, node, dst, size, reply=reply)
        gold.step()
        fast.step()
        if not same_state(gold, fast):
            return False
    return int(gold._d_count.sum()) > 0 and gold._queues.cap > 2


def same_run(gold, fast) -> bool:
    """Two ``fastmesh._MeshRun`` runs, bit for bit: the meshes, every
    source's stream position, and the reply pair's controllers
    (pending requests, cooldown, busy and serviced counts) and window."""
    return same_state(gold.mesh, fast.mesh) and \
        _run_state(gold) == _run_state(fast)


def _run_state(run) -> tuple:
    sources = list(run.sources)
    pair = run.pair
    if pair is None:
        return [source.stream.position() for source in sources], None
    sources.append(pair.request)
    return ([source.stream.position() for source in sources],
            (pair.controllers(), pair.samples, pair._busy_in_window))


def _mixed_run(kernel: Kernel | None):
    """A Bernoulli lane, a greedy lane and a reply pair on one mesh.

    Two-flit source rings grow in the middle of runs, and ``kernel``
    None takes the Python loop.
    """
    from repro.noc.mesh.fastmesh import (BatchedManyToFew, BatchedMesh,
                                         _MeshRun, _ReplyPair)

    mesh = BatchedMesh(4, 3, batch=4, buffer_flits=3,
                       arbiter_kinds=("rr", "age", "age", "rr"),
                       source_capacity=2)
    mesh._bind(kernel)
    mc_nodes = [1, 3, 8, 10]
    # the Bernoulli lane often finds its backlog cap reached
    sources = [BatchedManyToFew(mesh, 0, mc_nodes, seed=1,
                                injection_rate=0.6, max_source_backlog=2),
               BatchedManyToFew(mesh, 1, mc_nodes, seed=2)]
    pair = _ReplyPair(mesh, mc_nodes, seed=3, window=10, request_lane=2)
    return _MeshRun(mesh, sources, pair)


def _run_check(candidate: Kernel, cycles: int = 120) -> bool:
    """:func:`_mixed_run` on the Python loop vs ``candidate``'s run,
    in stretches of 1 to 7 cycles up to ``cycles``, compared after each
    (:func:`same_run`)."""
    from repro.errors import MeshConfigError

    gold, fast = _mixed_run(None), _mixed_run(candidate)
    if not fast.compiled:
        return False
    cycle = 0
    for length in (1, 2, 1, 7) * (cycles // 11 + 1):
        if cycle >= cycles:
            break
        gold.run(cycle, cycle + length)
        try:
            fast.run(cycle, cycle + length)
        except MeshConfigError:     # an error code from the C run
            return False
        cycle += length
        if not same_run(gold, fast):
            return False
    return (gold.mesh._queues.cap > 2 and len(gold.pair.samples) > 2
            and any(served for *_rest, served in gold.pair.controllers()))
