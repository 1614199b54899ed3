"""``repro.noc.mesh.lanes``: the parts both batched mesh kernels share.

The two kernels (``fastmesh.BatchedMesh`` and
``vcmesh_batched.BatchedVCMesh``) take the traffic-RNG replay, the flit
word format and the source queues from ``lanes`` and from nowhere else:
neither imports the other.  ``SourceQueues.flush`` must enqueue any
deferred batch exactly as one packet at a time would — its single-flit
fast path and its general path alike.
"""

from __future__ import annotations

import ast
import importlib.util
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from repro.errors import MeshConfigError
from repro.noc.mesh.lanes import (_F_HEAD, _F_TAIL, _PEND_A_MASK,
                                  _PEND_Q_SHIFT, _PEND_SIZE_MASK,
                                  _PEND_SIZE_SHIFT, SourceQueues)

KERNELS = ("repro.noc.mesh.fastmesh", "repro.noc.mesh.vcmesh_batched")


def _tree(module: str) -> ast.Module:
    path = Path(importlib.util.find_spec(module).origin)
    return ast.parse(path.read_text())


def _imports(module: str) -> tuple[set, set]:
    """Modules imported anywhere in ``module``, and the names taken."""
    modules, names = set(), set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
    return modules, names


def _private_definitions(module: str) -> set:
    """Top-level private names ``module`` defines itself."""
    defined = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in defined if name.startswith("_")}


@pytest.mark.parametrize("mine,other", [KERNELS, KERNELS[::-1]])
def test_kernels_share_only_through_lanes(mine, other):
    modules, names = _imports(mine)
    assert "repro.noc.mesh.lanes" in modules
    assert other not in modules
    assert not names & _private_definitions(other)


def _pack(queue: int, size: int, a: int) -> int:
    return (queue << _PEND_Q_SHIFT) | ((size - 1) << _PEND_SIZE_SHIFT) | a


def _contents(queues: SourceQueues, q: int) -> list:
    cap = queues.cap
    slots = [q * cap + (int(queues.hd[q]) + i) % cap
             for i in range(int(queues.ln[q]))]
    return [(int(queues.a[s]), int(queues.b[s])) for s in slots]


@pytest.mark.parametrize("kind", ["single-sorted", "single-shuffled",
                                  "trains", "trains-sorted"])
def test_flush_matches_one_packet_at_a_time(kind):
    """Random batches through every flush path, with pops in between,

    against a deque per queue filled one packet at a time ("trains-sorted"
    appends its packets in queue order, ties and all: the no-sort path)."""
    gen = np.random.default_rng(7)
    n_queues = 6
    queues = SourceQueues(n_queues, 2)
    model = [deque() for _ in range(n_queues)]
    pid = 0
    for cycle in range(60):
        if kind == "single-sorted":
            picked = np.flatnonzero(gen.random(n_queues) < 0.6).tolist()
            batch = [(q, 1) for q in picked]
        else:
            batch = [(int(gen.integers(n_queues)),
                      1 if kind == "single-shuffled"
                      else 1 + int(gen.integers(4)))
                     for _ in range(int(gen.integers(0, 7)))]
            if kind == "trains-sorted":
                batch.sort(key=lambda packet: packet[0])
        for q, size in batch:
            a = (q << 5) | int(gen.integers(4)) << 2     # any A bits
            queues.pend.append(_pack(q, size, a))
            for i in range(size):
                flags = (_F_HEAD if i == 0 else 0) | \
                    (_F_TAIL if i == size - 1 else 0)
                model[q].append((a | flags, (cycle << 32) | pid))
            pid += 1
        queues.flush(cycle)
        assert not queues.pend
        for q in range(n_queues):
            assert _contents(queues, q) == list(model[q]), (cycle, q)
        # pop the head of some queues, as a kernel's injection phase does
        for q in np.flatnonzero(gen.random(n_queues) < 0.5).tolist():
            if model[q]:
                model[q].popleft()
                queues.hd[q] = (queues.hd[q] + 1) % queues.cap
                queues.ln[q] -= 1
    assert queues.cap > 2                   # the flushes grew the rings


def test_backlog_counts_deferred_packets():
    queues = SourceQueues(4, 4)
    queues.defer(2, 3, 0)
    queues.defer(1, 1, 0)
    queues.defer(2, 1, 0)
    assert [queues.backlog(q) for q in range(4)] == [0, 1, 4, 0]
    queues.flush(0)
    assert [queues.backlog(q) for q in range(4)] == [0, 1, 4, 0]
    assert queues.ln.tolist() == [0, 1, 4, 0]
    # the packed code keeps every field apart
    code = _pack(3, 2, 0x5A5)
    assert code >> _PEND_Q_SHIFT == 3
    assert (code >> _PEND_SIZE_SHIFT) & _PEND_SIZE_MASK == 1
    assert code & _PEND_A_MASK == 0x5A5


def test_flush_refuses_packet_ids_past_32_bits():
    queues = SourceQueues(2, 4)
    queues.next_pid = (1 << 32) - 2
    queues.defer(0, 1, 0)
    queues.defer(1, 1, 0)
    queues.flush(7)                         # ids 2**32-2 and 2**32-1 fit
    heads = queues.b[np.arange(2) * queues.cap]
    assert heads.tolist() == [(7 << 32) | ((1 << 32) - 2),
                              (7 << 32) | ((1 << 32) - 1)]
    queues.defer(0, 1, 0)
    with pytest.raises(MeshConfigError, match="packet ids"):
        queues.flush(8)
