"""Sliced, set-associative L2 cache model.

Each memory partition contains multiple L2 slices; a slice is a standard
set-associative cache with LRU replacement.  The latency microbenchmark
(Algorithm 1) warms the L2 so every timed access hits; the miss-penalty
experiment (Fig 8 bottom) deliberately reads cold lines.  This model
provides exactly that hit/miss truth, per slice.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ConfigurationError


class L2Slice:
    """One L2 slice: set-associative with true-LRU replacement."""

    def __init__(self, capacity_bytes: int, line_bytes: int = 128,
                 ways: int = 16):
        if capacity_bytes <= 0 or line_bytes <= 0 or ways <= 0:
            raise ConfigurationError("cache geometry must be positive")
        if capacity_bytes % (line_bytes * ways):
            raise ConfigurationError(
                f"capacity {capacity_bytes} not divisible by way-size "
                f"{line_bytes * ways}")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = capacity_bytes // (line_bytes * ways)
        # per-set LRU: OrderedDict tag -> None, most recent last; a set
        # is allocated on first access (most sets of a big L2 never are)
        self._sets: dict[int, OrderedDict] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def access(self, address: int) -> bool:
        """Access a byte address; returns True on hit.  Misses allocate."""
        set_idx, tag = self._locate(address)
        entry = self._sets.get(set_idx)
        if entry is None:
            entry = self._sets[set_idx] = OrderedDict()
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

    def probe(self, address: int) -> bool:
        """Check residency without touching LRU state or counters."""
        set_idx, tag = self._locate(address)
        entry = self._sets.get(set_idx)
        return entry is not None and tag in entry

    def invalidate(self) -> None:
        """Drop all lines (used to force cold misses)."""
        self._sets.clear()

    @property
    def resident_lines(self) -> int:
        return sum(len(entry) for entry in self._sets.values())


class SlicedL2:
    """The full L2: one :class:`L2Slice` per slice id."""

    def __init__(self, num_slices: int, capacity_bytes: int,
                 line_bytes: int = 128, ways: int = 16):
        if num_slices <= 0:
            raise ConfigurationError("num_slices must be positive")
        per_slice = capacity_bytes // num_slices
        # round per-slice capacity down to a whole number of ways
        way_bytes = line_bytes * ways
        per_slice -= per_slice % way_bytes
        if per_slice <= 0:
            raise ConfigurationError("capacity too small for slice geometry")
        self.num_slices = num_slices
        self.line_bytes = line_bytes
        self.slices = [L2Slice(per_slice, line_bytes, ways)
                       for _ in range(num_slices)]

    def slice(self, slice_id: int) -> L2Slice:
        if not 0 <= slice_id < self.num_slices:
            raise ConfigurationError(f"slice {slice_id} out of range")
        return self.slices[slice_id]

    def access(self, slice_id: int, address: int) -> bool:
        return self.slice(slice_id).access(address)

    def warm(self, slice_id: int, addresses) -> None:
        """Load addresses into a slice (Algorithm 1's warm-up loop)."""
        target = self.slice(slice_id)
        for address in addresses:
            target.access(address)

    def invalidate(self) -> None:
        for s in self.slices:
            s.invalidate()

    @property
    def total_hits(self) -> int:
        return sum(s.hits for s in self.slices)

    @property
    def total_misses(self) -> int:
        return sum(s.misses for s in self.slices)
