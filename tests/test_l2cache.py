"""Sliced L2 cache: hits, misses, LRU, warm-up."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.memory.l2cache import L2Slice, SlicedL2


def test_cold_miss_then_hit():
    s = L2Slice(capacity_bytes=16 * 128 * 4, line_bytes=128, ways=4)
    assert not s.access(0)
    assert s.access(0)
    assert s.hits == 1 and s.misses == 1


def test_same_line_different_offsets_hit():
    s = L2Slice(16 * 128 * 4, 128, 4)
    s.access(256)
    assert s.access(256 + 127)


def test_lru_eviction_order():
    s = L2Slice(capacity_bytes=128 * 2, line_bytes=128, ways=2)  # 1 set
    a, b, c = 0, 128 * 1, 128 * 2
    s.access(a)
    s.access(b)
    s.access(a)          # a most recent
    s.access(c)          # evicts b (LRU)
    assert s.probe(a)
    assert not s.probe(b)
    assert s.probe(c)
    assert s.evictions == 1


def test_probe_does_not_touch_state():
    s = L2Slice(128 * 2, 128, 2)
    s.access(0)
    hits, misses = s.hits, s.misses
    s.probe(0)
    s.probe(99999)
    assert (s.hits, s.misses) == (hits, misses)


def test_invalidate_clears():
    s = L2Slice(128 * 16, 128, 4)
    for i in range(8):
        s.access(i * 128)
    assert s.resident_lines == 8
    s.invalidate()
    assert s.resident_lines == 0
    assert not s.access(0)


def test_geometry_validation():
    with pytest.raises(ConfigurationError):
        L2Slice(0, 128, 4)
    with pytest.raises(ConfigurationError):
        L2Slice(100, 128, 4)      # not divisible by way size


def test_sliced_l2_independent_slices():
    l2 = SlicedL2(num_slices=4, capacity_bytes=4 * 128 * 64)
    l2.access(0, 0)
    assert not l2.access(1, 0)    # same address, other slice: cold
    assert l2.access(0, 0)


def test_sliced_l2_warm():
    l2 = SlicedL2(4, 4 * 128 * 64)
    addresses = [i * 128 for i in range(16)]
    l2.warm(2, addresses)
    assert all(l2.slice(2).probe(a) for a in addresses)


def test_sliced_l2_counters():
    l2 = SlicedL2(2, 2 * 128 * 64)
    l2.access(0, 0)
    l2.access(0, 0)
    l2.access(1, 128)
    assert l2.total_misses == 2
    assert l2.total_hits == 1


def test_slice_bounds():
    l2 = SlicedL2(2, 2 * 128 * 64)
    with pytest.raises(ConfigurationError):
        l2.access(2, 0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
def test_working_set_within_capacity_never_evicts(lines):
    """Any reuse within a capacity-sized working set must hit."""
    ways = 4
    num_sets = 16
    s = L2Slice(128 * ways * num_sets, 128, ways)
    seen = set()
    for line in lines:
        # map lines so that no set exceeds its ways (line % sets spreads)
        address = (line % (ways * num_sets)) * 128
        hit = s.access(address)
        expected = address in seen
        assert hit == expected
        seen.add(address)
    assert s.evictions == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=300))
def test_hits_plus_misses_equals_accesses(addresses):
    s = L2Slice(128 * 4 * 8, 128, 4)
    for a in addresses:
        s.access(a)
    assert s.hits + s.misses == len(addresses)
    assert s.resident_lines <= 4 * 8


class EagerL2Slice:
    """The set-per-list L2 slice every set allocated up front: the
    reference the first-touch :class:`L2Slice` must match exactly."""

    def __init__(self, capacity_bytes, line_bytes, ways):
        from collections import OrderedDict
        self.line_bytes, self.ways = line_bytes, ways
        self.num_sets = capacity_bytes // (line_bytes * ways)
        self._sets = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = self.misses = self.evictions = 0

    def _locate(self, address):
        line = address // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def access(self, address):
        set_idx, tag = self._locate(address)
        entry = self._sets[set_idx]
        if tag in entry:
            entry.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        if len(entry) >= self.ways:
            entry.popitem(last=False)
            self.evictions += 1
        entry[tag] = None
        return False

    def probe(self, address):
        set_idx, tag = self._locate(address)
        return tag in self._sets[set_idx]

    def invalidate(self):
        for entry in self._sets:
            entry.clear()

    @property
    def resident_lines(self):
        return sum(len(entry) for entry in self._sets)


_OPS = st.one_of(
    st.tuples(st.sampled_from(("access", "probe")),
              st.integers(0, 128 * 4 * 8 * 6)),
    st.just(("invalidate", 0)))


@settings(max_examples=60, deadline=None)
@given(st.lists(_OPS, max_size=300))
def test_first_touch_sets_match_eager_allocation(trace):
    """Allocating sets on first touch changes no hit, miss, eviction,
    LRU order, probe or residency of the eager model."""
    lazy, eager = L2Slice(128 * 4 * 8, 128, 4), EagerL2Slice(128 * 4 * 8,
                                                            128, 4)
    for op, address in trace:
        if op == "invalidate":
            lazy.invalidate()
            eager.invalidate()
        else:
            assert getattr(lazy, op)(address) == getattr(eager, op)(address)
        assert (lazy.hits, lazy.misses, lazy.evictions,
                lazy.resident_lines) == (eager.hits, eager.misses,
                                         eager.evictions,
                                         eager.resident_lines)
    # LRU order, most recent last, set by set
    assert [list(lazy._sets.get(i, ())) for i in range(lazy.num_sets)] \
        == [list(entry) for entry in eager._sets]


def test_sets_allocated_on_first_touch():
    s = L2Slice(1024 * 128 * 16, 128, 16)
    assert s.num_sets == 1024 and s.resident_lines == 0
    assert not s.probe(0)
    s.access(0)
    s.access(128 * 1024)          # same set, another tag
    assert len(s._sets) == 1 and s.resident_lines == 2
