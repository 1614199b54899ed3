"""Digest-verified shared-memory segments: the generic IPC core.

Two transports ride POSIX shared memory instead of pickling payloads
through ``multiprocessing`` pipes: the serve worker tier
(:mod:`repro.serve.workers`, canonical-JSON response bytes) and the
offline sweep path (:mod:`repro.exec.shm`, array-valued shard
results).  Both need exactly the same machinery — create a segment,
copy the payload in once, ship a tiny ``(name, size, digest)``
descriptor, attach on the other side, verify, unlink — so that
machinery lives here and the transports only add their policy (name
prefix, size floor, payload encoding).  Consumers pick one of two attach flavours: the copying,
whole-payload-verifying :func:`read_segment` (serve tier) or the
zero-copy :func:`map_segment`, which hands back a writable view over
the shared pages themselves (exec tier).

Segment layout (self-describing, so a leaked segment can be identified
without its descriptor)::

    [ 8 bytes  big-endian payload length ]
    [ 32 bytes raw SHA-256 of the payload ]
    [ payload ... ]

Ownership protocol: the consumer always unlinks.  The producer
unregisters the segment from its own ``resource_tracker`` (see
:func:`_untrack`) because otherwise the tracker of the *creating*
process would try to destroy the segment at exit — after the consumer
already unlinked it — and log spurious leak warnings.  A producer that
dies between creating a segment and its descriptor being consumed leaks
that one segment; :func:`sweep_orphans` removes such segments by
``(prefix, owner)`` name pattern when the owner's replacement spawns
(serve tier) or the pool tears down (exec tier).
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path

#: Bytes of header before the payload: length (8) + raw digest (32).
HEADER_BYTES = 40

_LENGTH = struct.Struct(">Q")

#: Where Linux exposes POSIX shared memory as files (orphan sweeping is
#: best-effort and skipped on platforms without it).
_SHM_DIR = Path("/dev/shm")

#: Distinguishes segments of one producer process (identical payloads
#: would otherwise collide on a digest-derived name).
_SEGMENT_COUNTER = itertools.count()


class SegmentError(RuntimeError):
    """The segment was missing or its content failed digest check."""


@dataclass(frozen=True)
class SegmentRef:
    """A handle to payload bytes parked in a shared-memory segment."""

    name: str
    size: int          # payload bytes (the header is not counted)
    sha256: str


def _shared_memory():
    """The SharedMemory class (imported lazily: not on the hot path)."""
    from multiprocessing import shared_memory
    return shared_memory.SharedMemory


def shm_available() -> bool:
    """Can this platform create shared-memory segments at all?

    ``multiprocessing.shared_memory`` needs ``_posixshmem`` (or the
    Windows equivalent); minimal builds ship without it.  Callers use
    this to pick the pickle fallback *before* touching segment code.
    """
    try:
        _shared_memory()
    except ImportError:
        return False
    return True


def _write_raw_segment(name: str, parts) -> None:
    """Write a segment as a raw ``/dev/shm`` file with ``os.writev``.

    Byte-compatible with a ``SharedMemory`` segment (same file, same
    naming — consumers attach identically), but far cheaper to produce:
    one scatter-gather syscall lets the kernel allocate and fill the
    tmpfs pages at copy speed, where mapping-then-storing pays a fault
    trap per page and ``SharedMemory`` adds two resource-tracker pipe
    round-trips (each a wakeup of the tracker process — a scheduling
    quantum on a busy single core).
    """
    fd = os.open(_SHM_DIR / name, os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                 0o600)
    try:
        pending = list(parts)
        while pending:
            written = os.writev(fd, pending[:1024])   # IOV_MAX batches
            while pending and written >= len(pending[0]):
                written -= len(pending[0])
                pending.pop(0)
            if written:          # partial part: resume mid-buffer
                pending[0] = memoryview(pending[0])[written:]
    except BaseException:
        os.close(fd)
        with contextlib.suppress(OSError):
            os.unlink(_SHM_DIR / name)
        raise
    os.close(fd)


def _untrack(shm) -> None:
    """Unregister ``shm`` from this process's resource tracker.

    The producer hands ownership to the consumer, who unlinks.  Without
    this, the producer-side tracker would unlink the segment again at
    process exit and warn about a leak that never happened.  Private
    API, so failures are tolerated — the worst case is a harmless
    warning at producer exit.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(shm._name, "shared_memory")
    except (ImportError, AttributeError, KeyError):
        pass


def share_segment(parts, *, prefix: str, owner: int = 0,
                  hash_parts: int | None = None) -> SegmentRef:
    """Producer side: park payload bytes in a fresh segment.

    ``parts`` is one buffer or a sequence of buffers (scatter-gather:
    the exec transport writes a pickle stream plus every extracted
    array buffer without first concatenating them).  Returns the
    descriptor to ship.

    ``hash_parts`` picks the trust model.  ``None`` (default) digests
    the whole payload, for consumers that re-verify every byte with
    :func:`read_segment` — the serve tier, whose response bytes outlive
    the worker that made them.  An integer digests only that many
    leading parts plus every part *length*: the exec transport passes
    ``1`` so the digest covers its pickle stream and the exact layout,
    while the bulk array bytes stay unhashed — they sit in kernel-
    coherent shared memory consumed once by :func:`map_segment`, the
    same trust domain as the ``multiprocessing`` pipe they replace
    (which checksums nothing).  Hashing is the single largest cost of
    the transport, so this is what makes big-array segments cheaper
    than pickling.  Partial-hash segments *fail* :func:`read_segment`'s
    whole-payload check by construction — loudly, not wrongly.
    """
    if isinstance(parts, (bytes, bytearray, memoryview)):
        parts = (parts,)
    views = [memoryview(part).cast("B") for part in parts]
    size = sum(len(view) for view in views)
    if size == 0:
        raise ValueError("cannot share an empty payload")
    digest = hashlib.sha256()
    for view in (views if hash_parts is None else views[:hash_parts]):
        digest.update(view)
    if hash_parts is not None:
        for view in views:
            digest.update(_LENGTH.pack(len(view)))
    hexdigest = digest.hexdigest()
    name = f"{prefix}-{owner}-{os.getpid()}-{next(_SEGMENT_COUNTER)}"
    header = _LENGTH.pack(size) + bytes.fromhex(hexdigest)
    if _SHM_DIR.is_dir():
        _write_raw_segment(name, [header, *views])
        return SegmentRef(name=name, size=size, sha256=hexdigest)
    segment = _shared_memory()(create=True, size=HEADER_BYTES + size,
                               name=name)
    try:
        segment.buf[:HEADER_BYTES] = header
        offset = HEADER_BYTES
        for view in views:
            segment.buf[offset:offset + len(view)] = view
            offset += len(view)
    finally:
        segment.close()
    _untrack(segment)
    return SegmentRef(name=segment.name, size=size, sha256=hexdigest)


def read_segment(ref: SegmentRef, *, mutable: bool = False):
    """Consumer side: read, verify, and *unlink* the segment.

    The header's length and digest must both match the descriptor, and
    the payload must hash to that digest — a truncated, torn, or
    swapped segment fails loudly instead of returning wrong bytes.
    ``mutable=True`` returns a ``bytearray`` (one copy either way), so
    NumPy views reconstructed over it are writable.
    """
    cls = _shared_memory()
    try:
        segment = cls(name=ref.name)
    except FileNotFoundError:
        raise SegmentError(
            f"shared segment {ref.name!r} vanished before it was read")
    try:
        header = bytes(segment.buf[:HEADER_BYTES])
        end = HEADER_BYTES + ref.size
        payload = (bytearray if mutable else bytes)(
            segment.buf[HEADER_BYTES:end])
    finally:
        segment.close()
        with contextlib.suppress(FileNotFoundError):
            segment.unlink()
    if (len(header) < HEADER_BYTES
            or _LENGTH.unpack(header[:8])[0] != ref.size
            or header[8:HEADER_BYTES].hex() != ref.sha256):
        raise SegmentError(
            f"shared segment {ref.name!r} header does not match its "
            "descriptor")
    if hashlib.sha256(payload).hexdigest() != ref.sha256:
        raise SegmentError(
            f"shared segment {ref.name!r} failed its digest check")
    return payload


def map_available() -> bool:
    """Can segments be *mapped* in place (:func:`map_segment`)?

    Mapping needs POSIX shared memory exposed as files (Linux
    ``/dev/shm``); elsewhere consumers fall back to the copying
    :func:`read_segment`.
    """
    return shm_available() and _SHM_DIR.is_dir()


def map_segment(ref: SegmentRef) -> memoryview:
    """Consumer side, zero-copy: map the segment and unlink its name.

    Returns a writable :class:`memoryview` of the payload backed
    directly by the shared pages — nothing is copied and the payload is
    never re-hashed, so consuming a segment costs the same few syscalls
    regardless of size.  The header's length and digest must match the
    descriptor (this rejects a swapped or truncated segment; whole-
    payload verification is :func:`read_segment`'s job, for transports
    that cannot trust the producer).

    The name is unlinked before returning: the kernel keeps the pages
    alive until the last view over the mapping is dropped (deferred
    free), so NumPy arrays built over the returned buffer own their
    storage for as long as they live, and a crashed consumer leaks no
    name for :func:`sweep_orphans` to find.
    """
    try:
        fd = os.open(_SHM_DIR / ref.name, os.O_RDWR)
    except OSError:
        raise SegmentError(
            f"shared segment {ref.name!r} vanished before it was mapped")
    try:
        mapped = mmap.mmap(fd, 0)
    finally:
        os.close(fd)
    header = bytes(mapped[:HEADER_BYTES])
    if (len(mapped) < HEADER_BYTES + ref.size
            or _LENGTH.unpack(header[:8])[0] != ref.size
            or header[8:HEADER_BYTES].hex() != ref.sha256):
        mapped.close()
        with contextlib.suppress(OSError):
            os.unlink(_SHM_DIR / ref.name)
        raise SegmentError(
            f"shared segment {ref.name!r} header does not match its "
            "descriptor")
    with contextlib.suppress(OSError):
        os.unlink(_SHM_DIR / ref.name)
    return memoryview(mapped)[HEADER_BYTES:HEADER_BYTES + ref.size]


def sweep_orphans(prefix: str, owner: int | None = None) -> int:
    """Unlink segments a dead producer left behind.

    ``owner=None`` sweeps every segment under ``prefix``; a specific
    owner id sweeps only that producer's segments (the serve tier's
    per-worker respawn).  Best-effort and Linux-only (``/dev/shm``);
    returns the number of segments removed.
    """
    if not _SHM_DIR.is_dir():
        return 0
    pattern = (f"{prefix}-*" if owner is None else f"{prefix}-{owner}-*")
    removed = 0
    for path in _SHM_DIR.glob(pattern):
        with contextlib.suppress(OSError):
            path.unlink()
            removed += 1
    return removed
