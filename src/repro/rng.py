"""Deterministic noise streams.

Real-hardware measurements carry run-to-run jitter; the simulated device
reproduces that with *deterministic* per-key noise so experiments are
repeatable (tests can assert exact statistics) while still exhibiting the
measurement spread visible in the paper's histograms.

Each logical noise source derives an independent :class:`numpy.random
.Generator` from a stable hash of (seed, key), so e.g. the jitter stream for
``("latency", sm_id, slice_id)`` never changes when unrelated streams are
consumed.

A stream's identity is the text ``repr((seed, key))``: :func:`key_text`
writes it for one key, :func:`render_keys` for a whole column batch of
keys of one shape (the batched fast paths), and :func:`text_digests`
hashes either into the stream seeds.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np


class _Column:
    """Placeholder for one integer column in a :func:`render_keys` shape."""

    def __repr__(self) -> str:
        # repr() of any str escapes NUL, so a raw NUL in a rendered shape
        # can only come from a column placeholder
        return "\0"


#: Marks the integer-column slots of a key shape (see :func:`render_keys`).
COLUMN = _Column()


def _plain(part):
    """``part`` with NumPy integers and bools as their Python values, in
    nested tuples too: ``repr(np.int64(0))`` is ``'np.int64(0)'``, not
    ``'0'``, so a NumPy id would otherwise key a different stream."""
    if isinstance(part, tuple):
        return tuple([_plain(p) for p in part])
    if isinstance(part, (np.integer, np.bool_)):
        return part.item()
    return part


def key_text(seed: int, key: Iterable) -> bytes:
    """The bytes a (seed, key) stream is digested from.

    NumPy integer and bool key parts render as the equal Python ``int``
    and ``bool``, so ``np.int64(3)`` and ``3`` key one stream.
    """
    return repr((int(seed), _plain(tuple(key)))).encode()


def render_keys(seed: int, shape: tuple, *columns) -> list:
    """:func:`key_text` of every key of one shape, from integer columns.

    ``shape`` is a key tuple whose :data:`COLUMN` entries are filled,
    in order, from ``columns``; row ``r`` is the key with the ``r``-th
    value of each column.  Columns must hold integers (a ``bool`` or
    ``float`` column would render as ``1``/``1.0``, not as its repr).
    """
    fmt = repr((int(seed), tuple(shape))).replace("%", "%%")
    if fmt.count("\0") != len(columns):
        raise ValueError(f"key shape has {fmt.count(chr(0))} columns, "
                         f"{len(columns)} given")
    fmt = fmt.replace("\0", "%d")
    values = []
    for column in columns:
        column = np.asarray(column)
        if column.size and column.dtype.kind not in "iu":
            raise TypeError(f"key columns must be integers, not "
                            f"{column.dtype}")
        values.append(column.tolist())
    rows = [fmt % row for row in zip(*values)]
    if not rows:
        return []
    # one encode for the batch: repr() escapes newlines, so a raw one
    # only ever separates two rows
    return "\n".join(rows).encode().split(b"\n")


def text_digests(texts) -> np.ndarray:
    """uint64 stream seeds of key texts: first 8 sha256 bytes, little-end.

    The whole 32-byte digests are joined and every fourth ``<u8`` taken,
    which skips slicing one ``bytes`` per text.
    """
    sha256 = hashlib.sha256
    return np.frombuffer(b"".join([sha256(text).digest() for text in texts]),
                         dtype="<u8")[::4]


def _digest(seed: int, key: Iterable) -> int:
    return int(text_digests([key_text(seed, key)])[0])


def generator_for(seed: int, *key) -> np.random.Generator:
    """Return an independent, reproducible Generator for (seed, key)."""
    return np.random.default_rng(_digest(seed, key))


def jitter(seed: int, *key, sigma: float = 1.0, n: int = 1) -> np.ndarray:
    """Gaussian jitter samples for a keyed stream (deterministic)."""
    return generator_for(seed, *key).normal(0.0, sigma, size=n)


def uniform_offset(seed: int, *key, low: float, high: float) -> float:
    """A single deterministic uniform draw for a keyed stream."""
    return float(generator_for(seed, *key).uniform(low, high))
