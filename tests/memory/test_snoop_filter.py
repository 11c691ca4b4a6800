"""The coherence controller's sharer-mask snoop filter against a broadcast.

:class:`~repro.memory.coherence.CoherenceController` snoops only the cores
whose bit is set in the line's sharer mask.  The reference here is the
broadcast it replaced: a loop that probes every other L1d in core order.
A seeded random stream of reads, writes (misses, fills and upgrades),
``drop_line`` and ``flush`` runs over eight L1ds through both, and after
every step the snoop results, the epochs, the controller statistics and
every line of every cache must be equal.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.common.config import CacheConfig, default_machine_config
from repro.memory.cache import CoherenceState, SetAssociativeCache
from repro.memory.coherence import CoherenceController, CoherenceStats, SnoopResult

NUM_CORES = 8
#: Four sets of two ways: lines conflict and evict constantly.
CONFIG = CacheConfig(size_bytes=512, associativity=2, line_size=64)
#: Enough distinct lines to overflow every cache, few enough to share.
ADDRESSES = [line * 64 for line in range(24)]
STEPS = 3000


class BroadcastController:
    """The broadcast snoop: every request probes every other L1d in order."""

    def __init__(self, caches, protocol):
        self._caches = caches
        self.protocol = protocol
        self.stats = CoherenceStats()
        self.epochs = [0] * len(caches)

    def read_request(self, core_id, line_address):
        self.stats.read_requests += 1
        result = SnoopResult()
        for remote_id, cache in enumerate(self._caches):
            if remote_id == core_id:
                continue
            line = cache.probe(line_address)
            if line is None or not line.valid:
                continue
            result.had_remote_sharers = True
            if line.state.can_supply and not result.supplied_by_cache:
                result.supplied_by_cache = True
                result.supplier_core = remote_id
                self.stats.cache_to_cache_transfers += 1
                self.epochs[remote_id] += 1
                if self.protocol == "MOESI":
                    if line.state == CoherenceState.MODIFIED:
                        line.state = CoherenceState.OWNED
                    elif line.state == CoherenceState.EXCLUSIVE:
                        line.state = CoherenceState.SHARED
                else:
                    if line.state.is_dirty:
                        result.writeback_to_memory = True
                        self.stats.writebacks += 1
                    line.state = CoherenceState.SHARED
            elif line.state == CoherenceState.EXCLUSIVE:
                line.state = CoherenceState.SHARED
                self.epochs[remote_id] += 1
        return result

    def write_request(self, core_id, line_address, already_resident):
        self.stats.write_requests += 1
        if already_resident:
            self.stats.upgrades += 1
        result = SnoopResult()
        for remote_id, cache in enumerate(self._caches):
            if remote_id == core_id:
                continue
            line = cache.probe(line_address)
            if line is None or not line.valid:
                continue
            result.had_remote_sharers = True
            if line.state.is_dirty and not result.supplied_by_cache:
                result.supplied_by_cache = True
                result.supplier_core = remote_id
                self.stats.cache_to_cache_transfers += 1
            cache.invalidate_line(line_address)
            self.epochs[remote_id] += 1
            result.invalidations += 1
            self.stats.invalidations_sent += 1
        return result

    requester_read_state = CoherenceController.requester_read_state


def access(controller, caches, core_id, address, is_write):
    """One L1d access the way the memory hierarchy resolves it.

    Returns the snoop result, or ``None`` when no request was needed.
    """
    cache = caches[core_id]
    line = cache.lookup(address)
    if line is not None:
        if not is_write:
            return None
        if line.state in (CoherenceState.SHARED, CoherenceState.OWNED):
            snoop = controller.write_request(core_id, address, already_resident=True)
        else:
            snoop = None
        line.state = CoherenceState.MODIFIED
        return snoop
    if is_write:
        snoop = controller.write_request(core_id, address, already_resident=False)
        state = CoherenceState.MODIFIED
    else:
        snoop = controller.read_request(core_id, address)
        state = controller.requester_read_state(snoop)
    victim = cache.fill(address, state)
    if victim is not None and victim.state.is_dirty:
        controller.stats.writebacks += 1
    return snoop


def cache_image(cache):
    """Every line (invalid husks included) and the statistics of a cache."""
    lines = [
        None if entry_set is None else [(line.tag, line.state) for line in entry_set]
        for entry_set in cache._sets
    ]
    return lines, cache.stats


@pytest.mark.parametrize("protocol", ["MOESI", "MESI", "MSI"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_filtered_snoop_matches_broadcast(protocol, seed, coherence_invariants):
    rng = random.Random(seed)
    caches = [SetAssociativeCache(CONFIG, name=f"l1d{i}") for i in range(NUM_CORES)]
    # Some lines are resident before the controller exists: registration
    # must enter them in the sharer mask.
    for address in rng.sample(ADDRESSES, 6):
        caches[rng.randrange(NUM_CORES)].fill(address, CoherenceState.SHARED)
    reference_caches = copy.deepcopy(caches)
    filtered = CoherenceController(caches, protocol)
    reference = BroadcastController(reference_caches, protocol)

    kinds = ("read", "write", "drop", "flush")
    for step in range(STEPS):
        kind = rng.choices(kinds, weights=(55, 35, 9, 1))[0]
        core_id = rng.randrange(NUM_CORES)
        address = rng.choice(ADDRESSES)
        if kind == "drop":
            results = (
                caches[core_id].drop_line(address),
                reference_caches[core_id].drop_line(address),
            )
        elif kind == "flush":
            caches[core_id].flush()
            reference_caches[core_id].flush()
            results = (None, None)
        else:
            is_write = kind == "write"
            results = (
                access(filtered, caches, core_id, address, is_write),
                access(reference, reference_caches, core_id, address, is_write),
            )
        context = f"step {step}: {kind} core {core_id} {address:#x}"
        assert results[0] == results[1], context
        assert filtered.epochs == reference.epochs, context
        assert filtered.stats == reference.stats, context
        for mine, theirs in zip(caches, reference_caches):
            assert cache_image(mine) == cache_image(theirs), context
        coherence_invariants(caches, filtered)
    # The stream exercised every path the filter changes.
    assert filtered.stats.cache_to_cache_transfers > 100
    assert filtered.stats.invalidations_sent > 100
    assert filtered.stats.upgrades > 10


def test_sharer_mask_shrinks_with_residency():
    """Evictions clear bits, so the mask stays within resident lines."""
    caches = [SetAssociativeCache(CONFIG, name=f"l1d{i}") for i in range(4)]
    controller = CoherenceController(caches, "MOESI")
    for address in range(0, 64 * 1000, 64):
        caches[address // 64 % 4].fill(address, CoherenceState.EXCLUSIVE)
    resident = sum(cache.occupancy for cache in caches)
    assert len(controller._sharers) <= resident


def test_write_leaves_only_the_writers_bit():
    caches = [SetAssociativeCache(CONFIG, name=f"l1d{i}") for i in range(4)]
    controller = CoherenceController(caches, "MOESI")
    for cache in caches:
        cache.fill(0x1000, CoherenceState.SHARED)
    caches[3].drop_line(0x1000)
    block = 0x1000 >> 6
    assert controller._sharers[block] == 0b1111
    snoop = controller.write_request(2, 0x1000, already_resident=True)
    assert snoop.invalidations == 2
    assert controller._sharers[block] == 0b0100


def test_stale_bit_is_cleared_by_the_snoop_that_finds_nothing():
    caches = [SetAssociativeCache(CONFIG, name=f"l1d{i}") for i in range(2)]
    controller = CoherenceController(caches, "MOESI")
    caches[1].fill(0x1000, CoherenceState.MODIFIED)
    caches[1].drop_line(0x1000)
    block = 0x1000 >> 6
    assert controller._sharers[block] == 0b10
    snoop = controller.read_request(0, 0x1000)
    assert not snoop.had_remote_sharers
    assert block not in controller._sharers


@pytest.mark.parametrize("num_cores,protocol", [(1, "MOESI"), (4, "NONE")])
def test_trivial_snoop_keeps_no_mask(num_cores, protocol):
    machine = default_machine_config(num_cores)
    caches = [
        SetAssociativeCache(machine.memory.l1d, name=f"l1d{i}")
        for i in range(num_cores)
    ]
    controller = CoherenceController(caches, protocol)
    caches[0].fill(0x1000, CoherenceState.EXCLUSIVE)
    assert all(cache._sharers is None for cache in caches)
    assert controller._sharers == {}


def test_manycore_snoop_probes_at_most_one_per_request(monkeypatch):
    """A deterministic work counter for the filter on 64-core canneal.

    A broadcast makes 63 probes per request at 64 cores; the filter probes
    only holders of the line, which the workload's low coherence traffic
    keeps to well under one per request.
    """
    from repro.api.session import run_spec
    from repro.api.spec import SweepSpec, WorkloadSpec

    counts = {"probes": 0, "requests": 0}
    probe = SetAssociativeCache.probe
    read_request = CoherenceController.read_request
    write_request = CoherenceController.write_request

    def counting_probe(self, address):
        if self.name.endswith(".l1d"):
            counts["probes"] += 1
        return probe(self, address)

    def counting_read(self, *args):
        counts["requests"] += 1
        return read_request(self, *args)

    def counting_write(self, *args, **kwargs):
        counts["requests"] += 1
        return write_request(self, *args, **kwargs)

    monkeypatch.setattr(SetAssociativeCache, "probe", counting_probe)
    monkeypatch.setattr(CoherenceController, "read_request", counting_read)
    monkeypatch.setattr(CoherenceController, "write_request", counting_write)
    workload = WorkloadSpec(
        kind="multithreaded", benchmark="canneal", copies=64, instructions=16_000, seed=0
    )
    result = run_spec(
        SweepSpec(
            simulator="interval",
            workload=workload,
            machine=default_machine_config(64),
            warmup_instructions=100,
        )
    )
    assert result.stats.total_instructions > 0
    assert counts["requests"] > 1000
    assert counts["probes"] <= counts["requests"], counts
