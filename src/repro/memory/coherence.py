"""MOESI cache-coherence protocol over a snooping bus.

The paper's baseline CMP keeps the per-core L1 data caches coherent with a
MOESI protocol (Table 1).  This module implements the protocol controller:
it owns references to every core's L1 data cache and resolves read and write
requests by snooping the other caches, applying the MOESI state transitions
and reporting whether the request was satisfied by a cache-to-cache transfer
(a *coherence miss*, which the interval model treats as a long-latency event)
and how many remote copies had to be invalidated.

A request snoops only the cores in the line's *sharer mask*: a dict from L1d
block number to a bitmask of the cores that may hold the line, visited in
ascending core order (the order of a broadcast over every cache, so the
first supplier and every state transition and counter match one).  The
invariant is that the mask is a superset of residency: every valid line in
core *r*'s L1d has bit *r* set.  Three places keep it:

* :meth:`SetAssociativeCache.fill` sets the filling core's bit and clears
  the bit of the victim it evicts (the map stays no larger than the number
  of resident lines plus stale bits);
* :meth:`CoherenceController.write_request` clears every remote bit it
  invalidates;
* a snoop whose probe finds nothing clears that stale bit.  Stale bits are
  left by ``drop_line``, ``flush`` and fault corruption, which remove lines
  behind the controller's back; probing such a core was a no-op anyway.

The mask is only kept when the snoop is non-trivial (more than one cache and
a protocol other than ``"NONE"``); otherwise every request trivially finds no
remote sharers and the caches fill through ``fill_cold``.

A simpler MESI and MSI mode are provided as well (selected through
``MemoryConfig.coherence_protocol``) so protocol trade-offs can be explored;
they differ only in which states are reachable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .cache import CoherenceState, SetAssociativeCache

__all__ = ["SnoopResult", "CoherenceStats", "CoherenceController"]


@dataclass(slots=True)
class SnoopResult:
    """Outcome of a coherence request.

    Attributes
    ----------
    supplied_by_cache:
        ``True`` when another core's cache supplied the data
        (cache-to-cache transfer).
    supplier_core:
        Core that supplied the data, or ``None``.
    invalidations:
        Number of remote copies invalidated (write requests only).
    had_remote_sharers:
        ``True`` when at least one other cache held the line.
    writeback_to_memory:
        ``True`` when a dirty remote copy had to be written back.
    """

    supplied_by_cache: bool = False
    supplier_core: Optional[int] = None
    invalidations: int = 0
    had_remote_sharers: bool = False
    writeback_to_memory: bool = False


@dataclass
class CoherenceStats:
    """Protocol-level statistics."""

    read_requests: int = 0
    write_requests: int = 0
    upgrades: int = 0
    cache_to_cache_transfers: int = 0
    invalidations_sent: int = 0
    writebacks: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.read_requests = 0
        self.write_requests = 0
        self.upgrades = 0
        self.cache_to_cache_transfers = 0
        self.invalidations_sent = 0
        self.writebacks = 0


#: Shared immutable "no remote sharers" snoop outcome, returned when the snoop
#: is trivial or the line's sharer mask names no other core.  Callers only
#: read SnoopResult fields.
_NO_SNOOP = SnoopResult()


class CoherenceController:
    """Snooping-bus MOESI/MESI/MSI coherence controller for the private L1Ds."""

    def __init__(
        self,
        l1d_caches: Sequence[SetAssociativeCache],
        protocol: str = "MOESI",
        epochs: Optional[List[int]] = None,
    ) -> None:
        if protocol not in ("MOESI", "MESI", "MSI", "NONE"):
            raise ValueError(f"unsupported coherence protocol: {protocol!r}")
        self._caches: List[SetAssociativeCache] = list(l1d_caches)
        self.protocol = protocol
        self.stats = CoherenceStats()
        # Per-core coherence epochs, shared with the hierarchy when provided:
        # epochs[r] is bumped whenever this controller mutates core r's L1d
        # behind that core's back (snoop invalidation or downgrade), which
        # invalidates any memo core r holds of its own L1d state (the
        # hierarchy's D-side fast path checks the epoch before trusting its
        # memo).
        self.epochs: List[int] = (
            epochs if epochs is not None else [0] * len(self._caches)
        )
        # With a single cache (or no protocol) every snoop trivially finds no
        # remote sharers; requests then return a shared, never-mutated result
        # instead of allocating one per miss.
        self._trivial = len(self._caches) <= 1 or protocol == "NONE"
        # Sharer mask: L1d block number -> bitmask of the cores that may hold
        # the line (a superset of residency; see the module docstring).
        self._sharers: Dict[int, int] = {}
        self._offset_bits = 0
        if not self._trivial:
            self._offset_bits = self._caches[0]._offset_bits
            for core_id, cache in enumerate(self._caches):
                cache.track_sharers(self._sharers, core_id)
        # Degraded-interconnect fault state (see
        # repro.faults.injector.LinkFaultState), installed by the fault
        # injector after functional warm-up; None in fault-free runs.  The
        # hierarchy consults it at its cache-to-cache penalty sites, so
        # in-window coherence transfers pay the loss/latency-multiplied
        # overhead while the protocol state transitions stay untouched.
        self.link_faults = None

    def install_link_faults(self, state) -> None:
        """Arm degraded-link fault windows on the coherence interconnect."""
        self.link_faults = state

    @property
    def num_cores(self) -> int:
        """Number of caches kept coherent."""
        return len(self._caches)

    # -- requests ----------------------------------------------------------------

    def read_request(self, core_id: int, line_address: int) -> SnoopResult:
        """Resolve a read miss from ``core_id`` for ``line_address``.

        Snoops the other L1 data caches in the line's sharer mask.  If a
        remote cache holds the line in a state that can supply data, a
        cache-to-cache transfer happens and the supplier is downgraded (M→O,
        E→S under MOESI; M→S with a memory write-back under MESI/MSI).
        Returns the snoop outcome; the caller decides the resulting state of
        the requester's line (:meth:`requester_read_state`).
        """
        self.stats.read_requests += 1
        if self._trivial:
            return _NO_SNOOP
        sharers = self._sharers
        block = line_address >> self._offset_bits
        entry = sharers.get(block, 0)
        remote = entry & ~(1 << core_id)
        if not remote:
            return _NO_SNOOP
        caches = self._caches
        epochs = self.epochs
        result = SnoopResult()
        stale = 0
        while remote:
            bit = remote & -remote
            remote ^= bit
            remote_id = bit.bit_length() - 1
            line = caches[remote_id].probe(line_address)
            if line is None:
                stale |= bit
                continue
            result.had_remote_sharers = True
            if line.state.can_supply and not result.supplied_by_cache:
                result.supplied_by_cache = True
                result.supplier_core = remote_id
                self.stats.cache_to_cache_transfers += 1
                epochs[remote_id] += 1
                if self.protocol == "MOESI":
                    # Dirty suppliers keep ownership (O); clean ones become S.
                    if line.state == CoherenceState.MODIFIED:
                        line.state = CoherenceState.OWNED
                    elif line.state == CoherenceState.EXCLUSIVE:
                        line.state = CoherenceState.SHARED
                else:
                    # MESI/MSI: dirty data is written back to memory and the
                    # supplier keeps a Shared copy.
                    if line.state.is_dirty:
                        result.writeback_to_memory = True
                        self.stats.writebacks += 1
                    line.state = CoherenceState.SHARED
            elif line.state == CoherenceState.EXCLUSIVE:
                line.state = CoherenceState.SHARED
                epochs[remote_id] += 1
        if stale:
            entry &= ~stale
            if entry:
                sharers[block] = entry
            else:
                del sharers[block]
        return result

    def write_request(
        self, core_id: int, line_address: int, already_resident: bool
    ) -> SnoopResult:
        """Resolve a write (store) from ``core_id`` needing ownership.

        Invalidate every remote copy.  ``already_resident`` distinguishes an
        upgrade (the requester already holds the line in S/O) from a write
        miss; both invalidate remote sharers, but an upgrade does not need a
        data transfer unless a remote cache held the only dirty copy.  Only
        the requester's bit survives in the line's sharer mask.
        """
        self.stats.write_requests += 1
        if already_resident:
            self.stats.upgrades += 1
        if self._trivial:
            return _NO_SNOOP
        sharers = self._sharers
        block = line_address >> self._offset_bits
        entry = sharers.get(block, 0)
        own = entry & (1 << core_id)
        remote = entry ^ own
        if not remote:
            return _NO_SNOOP
        if own:
            sharers[block] = own
        else:
            del sharers[block]
        caches = self._caches
        epochs = self.epochs
        result = SnoopResult()
        while remote:
            bit = remote & -remote
            remote ^= bit
            remote_id = bit.bit_length() - 1
            cache = caches[remote_id]
            line = cache.probe(line_address)
            if line is None:
                continue
            result.had_remote_sharers = True
            if line.state.is_dirty and not result.supplied_by_cache:
                # The remote dirty copy supplies the data to the writer.
                result.supplied_by_cache = True
                result.supplier_core = remote_id
                self.stats.cache_to_cache_transfers += 1
            line.state = CoherenceState.INVALID
            cache.stats.invalidations_received += 1
            epochs[remote_id] += 1
            result.invalidations += 1
            self.stats.invalidations_sent += 1
        return result

    # -- state decisions ---------------------------------------------------------

    def requester_read_state(self, snoop: SnoopResult) -> CoherenceState:
        """State the requester installs after a read, given the snoop result."""
        if self.protocol == "NONE":
            return CoherenceState.EXCLUSIVE
        if snoop.had_remote_sharers:
            return CoherenceState.SHARED
        if self.protocol == "MSI":
            return CoherenceState.SHARED
        return CoherenceState.EXCLUSIVE

    def requester_write_state(self) -> CoherenceState:
        """State the requester installs after a write (always Modified)."""
        return CoherenceState.MODIFIED

    def evict_notification(self, line_state: CoherenceState) -> bool:
        """Whether evicting a line in ``line_state`` requires a memory write-back."""
        if line_state.is_dirty:
            self.stats.writebacks += 1
            return True
        return False
