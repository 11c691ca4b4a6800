"""Branch target buffer (BTB).

Table 1 of the paper specifies an 8-way set-associative 2K-entry BTB.  The
BTB caches the most recent target of taken branches; a taken branch whose
target is absent or stale counts as a (target) misprediction even when the
direction was predicted correctly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = ["BranchTargetBuffer"]


class BranchTargetBuffer:
    """A set-associative branch target buffer with LRU replacement."""

    def __init__(self, entries: int = 2048, associativity: int = 8) -> None:
        if entries <= 0 or associativity <= 0:
            raise ValueError("BTB entries and associativity must be positive")
        if entries % associativity:
            raise ValueError("BTB entries must be a multiple of associativity")
        self.entries = entries
        self.associativity = associativity
        self.num_sets = entries // associativity
        # Each set is an ordered list of (tag, target); index 0 is LRU,
        # the last element is the most recently used entry.  Sets are
        # allocated on first update; a ``None`` set misses every lookup.
        self._sets: List[Optional[List[Tuple[int, int]]]] = [None] * self.num_sets

    def _index_tag(self, pc: int) -> Tuple[int, int]:
        """Split a branch PC into set index and tag."""
        word = pc >> 2
        return word % self.num_sets, word // self.num_sets

    def lookup(self, pc: int) -> Optional[int]:
        """Return the predicted target for ``pc``, or ``None`` on a BTB miss."""
        index, tag = self._index_tag(pc)
        entry_set = self._sets[index]
        if entry_set is None:
            return None
        for position, (entry_tag, target) in enumerate(entry_set):
            if entry_tag == tag:
                # Move to MRU position.
                entry_set.append(entry_set.pop(position))
                return target
        return None

    def update(self, pc: int, target: int) -> None:
        """Record the actual target of a taken branch."""
        index, tag = self._index_tag(pc)
        entry_set = self._sets[index]
        if entry_set is None:
            entry_set = self._sets[index] = []
        for position, (entry_tag, _) in enumerate(entry_set):
            if entry_tag == tag:
                entry_set.pop(position)
                break
        entry_set.append((tag, target))
        if len(entry_set) > self.associativity:
            entry_set.pop(0)

    def flush(self) -> None:
        """Invalidate the entire BTB."""
        self._sets = [None] * self.num_sets
