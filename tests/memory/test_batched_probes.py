"""Batched/allocation-free hierarchy probes must mirror the per-access API.

The interval kernel relies on three guarantees:

* :meth:`~repro.memory.hierarchy.MemoryHierarchy.instruction_probe` /
  :meth:`~repro.memory.hierarchy.MemoryHierarchy.data_probe` have exactly the
  observable effects of ``instruction_access`` / ``data_access`` (state, LRU
  order, statistics), returning ``None`` instead of a penalty-free result;
* :meth:`~repro.memory.hierarchy.MemoryHierarchy.access_block` commits hit
  after hit and stops *before* the first access that would miss, leaving
  that access untouched for the caller to charge at the right time;
* :meth:`~repro.memory.hierarchy.MemoryHierarchy.warm_block` performs every
  access, completing misses in place.

These tests pin the equivalences by running mirrored hierarchies side by
side: hand-written streams against the per-access API, randomized streams
and whole simulations against ``PerAccessHierarchy`` (``tests/conftest.py``),
which performs every fetch and data access one at a time with no memo.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Session
from repro.common.config import default_machine_config
from repro.memory.hierarchy import MemoryHierarchy


def _fresh_pair():
    config = default_machine_config(num_cores=1)
    return MemoryHierarchy(config), MemoryHierarchy(config)


def _fetch_state(hierarchy):
    return {
        "l1i_accesses": hierarchy.l1i[0].stats.accesses,
        "l1i_misses": hierarchy.l1i[0].stats.misses,
        "itlb": (hierarchy.itlb[0].stats.accesses, hierarchy.itlb[0].stats.misses),
        "l2": (hierarchy.l2.stats.accesses, hierarchy.l2.stats.misses),
        "dram": hierarchy.dram.stats.accesses,
        "lines": sorted(
            (index, line.tag) for index, line in hierarchy.l1i[0].resident_lines()
        ),
    }


#: A fetch stream with line reuse (hot loop), a line transition and a far jump.
FETCH_STREAM = (
    [0x40_0000 + 4 * i for i in range(24)]      # straight-line code, two lines
    + [0x40_0000 + 4 * (i % 8) for i in range(16)]  # hot loop on line one
    + [0x80_0000, 0x80_0004, 0x40_0000]         # jump far away and back
)


class TestInstructionProbe:
    def test_probe_matches_access_on_every_fetch(self):
        probing, reference = _fresh_pair()
        for pc in FETCH_STREAM:
            result = probing.instruction_probe(0, pc, 0)
            mirror = reference.instruction_access(0, pc, now=0)
            if result is None:
                assert not mirror.l1_miss and not mirror.tlb_miss
            else:
                assert (result.l1_miss, result.tlb_miss, result.penalty) == (
                    mirror.l1_miss, mirror.tlb_miss, mirror.penalty
                )
            assert _fetch_state(probing) == _fetch_state(reference)

    def test_probe_returns_none_only_on_full_hits(self):
        hierarchy, _ = _fresh_pair()
        first = hierarchy.instruction_probe(0, 0x40_0000, 0)
        assert first is not None and first.l1_miss and first.tlb_miss
        assert hierarchy.instruction_probe(0, 0x40_0000, 0) is None

    def test_memoized_repeat_fetches_still_count_accesses(self):
        hierarchy, _ = _fresh_pair()
        hierarchy.instruction_probe(0, 0x40_0000, 0)
        for _ in range(5):
            assert hierarchy.instruction_probe(0, 0x40_0004, 0) is None
        assert hierarchy.l1i[0].stats.accesses == 6
        assert hierarchy.itlb[0].stats.accesses == 6
        assert hierarchy.l1i[0].stats.misses == 1


class TestAccessBlock:
    def test_stops_before_the_first_miss_without_touching_it(self):
        batched, reference = _fresh_pair()
        pcs = [0x40_0000 + 4 * i for i in range(8)] + [0x90_0000]
        # Warm the first line in both hierarchies.
        batched.instruction_probe(0, pcs[0], 0)
        reference.instruction_access(0, pcs[0], now=0)

        stop_at = batched.access_block(0, pcs, 1, len(pcs))
        assert stop_at == 8  # 0x90_0000 would miss
        # The reference performs the same hits one at a time.
        for pc in pcs[1:8]:
            reference.instruction_access(0, pc, now=0)
        assert _fetch_state(batched) == _fetch_state(reference)
        # Completing the miss through the normal path converges the two.
        batched.instruction_probe(0, pcs[8], 0)
        reference.instruction_access(0, pcs[8], now=0)
        assert _fetch_state(batched) == _fetch_state(reference)

    def test_flagged_positions_are_skipped_entirely(self):
        batched, reference = _fresh_pair()
        pcs = [0x40_0000, 0x40_0004, 0x40_0008]
        flags = bytearray([0, 1, 0])
        batched.instruction_probe(0, pcs[0], 0)
        reference.instruction_access(0, pcs[0], now=0)
        assert batched.access_block(0, pcs, 0, 3, flags, 1) == 3
        reference.instruction_access(0, pcs[0], now=0)
        reference.instruction_access(0, pcs[2], now=0)
        assert _fetch_state(batched) == _fetch_state(reference)

    def test_returns_stop_when_everything_hits(self):
        hierarchy, _ = _fresh_pair()
        pcs = [0x40_0000 + 4 * i for i in range(4)]
        hierarchy.instruction_probe(0, pcs[0], 0)
        assert hierarchy.access_block(0, pcs, 0, 4) == 4


    def test_matches_per_fetch_reference_on_a_random_stream(
        self, per_access_hierarchy
    ):
        config = default_machine_config(num_cores=1)
        batched = MemoryHierarchy(config)
        reference = per_access_hierarchy(config)
        pcs, flags = _random_fetch_stream(6000, seed=5)
        rng = random.Random(6)
        position = misses = 0
        while position < len(pcs):
            # Uneven block bounds carry the memo across calls.
            stop = min(len(pcs), position + rng.randrange(1, 400))
            got = batched.access_block(0, pcs, position, stop, flags, FLAG)
            assert got == reference.access_block(0, pcs, position, stop, flags, FLAG)
            assert _fetch_state(batched) == _fetch_state(reference)
            position = got
            if got < stop:
                # Charge the miss event through the probe, as the kernels do.
                result = batched.instruction_probe(0, pcs[got], position)
                mirror = reference.instruction_probe(0, pcs[got], position)
                assert result is not None and mirror is not None
                assert (result.l1_miss, result.tlb_miss, result.penalty) == (
                    mirror.l1_miss, mirror.tlb_miss, mirror.penalty
                )
                misses += 1
                position += 1
        # The stream must exercise both the stop and the evicting refill.
        assert misses > 50
        assert batched.l1i[0].stats.evictions > 0
        assert _fetch_state(batched) == _fetch_state(reference)


#: Flag bit the randomized streams mark as "never fetched".
FLAG = 8


def _random_fetch_stream(count, seed):
    """Mostly sequential fetches with hot loops and far jumps.

    Jumps land anywhere in a 256 KiB region (several times the L1i and
    spanning many I-TLB pages), so the stream evicts lines and misses in
    the I-TLB as well as re-hitting the memoized line.  About one position
    in forty carries :data:`FLAG`.
    """
    rng = random.Random(seed)
    pcs = []
    pc = 0x40_0000
    loop_start = pc
    for _ in range(count):
        pcs.append(pc)
        roll = rng.random()
        if roll < 0.04:
            pc = 0x40_0000 + (rng.randrange(1 << 18) & ~0x3)
            loop_start = pc
        elif roll < 0.10:
            pc = loop_start
        else:
            pc += 4
    flags = bytearray(FLAG if rng.random() < 0.025 else 0 for _ in range(count))
    return pcs, flags


class TestWarmBlock:
    def test_completes_misses_in_place_and_counts_accesses(self):
        warmed, reference = _fresh_pair()
        pcs = [0x40_0000, 0x40_0004, 0x90_0000, 0x90_0004]
        performed = warmed.warm_block(0, pcs, 0, 4, 0)
        assert performed == 4
        for pc in pcs:
            reference.instruction_access(0, pc, now=0)
        assert _fetch_state(warmed) == _fetch_state(reference)

    def test_matches_per_fetch_reference_on_a_random_stream(
        self, per_access_hierarchy
    ):
        config = default_machine_config(num_cores=1)
        warmed = MemoryHierarchy(config)
        reference = per_access_hierarchy(config)
        pcs, flags = _random_fetch_stream(6000, seed=9)
        rng = random.Random(10)
        position = 0
        while position < len(pcs):
            stop = min(len(pcs), position + rng.randrange(1, 400))
            performed = warmed.warm_block(0, pcs, position, stop, position, flags, FLAG)
            assert performed == reference.warm_block(
                0, pcs, position, stop, position, flags, FLAG
            )
            assert performed == sum(
                1 for index in range(position, stop) if not flags[index] & FLAG
            )
            assert _fetch_state(warmed) == _fetch_state(reference)
            position = stop
        assert warmed.l1i[0].stats.evictions > 0
        assert warmed.itlb[0].stats.misses > 0


class TestDataProbe:
    def test_probe_matches_access_for_loads_and_stores(self):
        probing, reference = _fresh_pair()
        pattern = [
            (0x10_0000, False), (0x10_0008, False), (0x10_0000, True),
            (0x20_0000, True), (0x10_0000, False), (0x30_0000, False),
            (0x20_0000, False),
        ]
        for address, is_write in pattern:
            result = probing.data_probe(0, address, is_write, 0)
            mirror = reference.data_access(0, address, is_write=is_write, now=0)
            if result is None:
                assert mirror.penalty == 0 and not mirror.is_miss
            else:
                assert (
                    result.l1_miss, result.tlb_miss, result.coherence_miss,
                    result.penalty, result.long_latency,
                ) == (
                    mirror.l1_miss, mirror.tlb_miss, mirror.coherence_miss,
                    mirror.penalty, mirror.long_latency,
                )
        assert probing.collect_stats() == reference.collect_stats()

    def test_store_upgrade_still_sets_modified_state(self):
        hierarchy, _ = _fresh_pair()
        hierarchy.data_probe(0, 0x10_0000, False, 0)  # load -> Exclusive
        assert hierarchy.data_probe(0, 0x10_0000, True, 0) is None  # E -> M, free
        line = hierarchy.l1d[0].probe(0x10_0000)
        assert line is not None and line.state.is_dirty


class TestFetchMemoSafety:
    def test_reset_fetch_memo_recovers_from_external_flush(self):
        hierarchy, _ = _fresh_pair()
        hierarchy.instruction_probe(0, 0x40_0000, 0)
        hierarchy.l1i[0].flush()
        hierarchy.reset_fetch_memo()
        result = hierarchy.instruction_probe(0, 0x40_0000, 0)
        assert result is not None and result.l1_miss


# ---------------------------------------------------------------------------
# Whole simulations against the per-access reference
# ---------------------------------------------------------------------------


def _run_gcc(simulator: str):
    return (
        Session()
        .simulator(simulator)
        .workload("gcc", instructions=3000, seed=4)
        .warmup(1000)
        .max_cycles(50_000_000)
        .run()
    )


@pytest.mark.parametrize("simulator", ["interval", "oneipc", "detailed"])
def test_memoized_run_matches_per_access_reference(simulator, request):
    """Warm-up and timing through the memos equal the one-at-a-time run."""
    memoized = _run_gcc(simulator)
    request.getfixturevalue("per_access_hierarchy")
    reference = _run_gcc(simulator)
    assert reference.stats.memory_stats["l1i_misses"] > 0
    assert (
        memoized.stats.deterministic_dict() == reference.stats.deterministic_dict()
    )
