"""The D-side epoch memo must be fast on repeats and sound under coherence.

:meth:`repro.memory.hierarchy.MemoryHierarchy.data_probe` memoizes the most
recently accessed (L1d line, D-TLB page) per core and fast-paths repeat hits
to the same block.  Unlike the I-side memo, this is only sound while no
*remote* core has touched this core's L1d: a remote write invalidates the
line, a remote read downgrades its state.  The hierarchy therefore keeps a
per-core coherence epoch, bumped by the controller on any remote
invalidation or downgrade, and the memo is trusted only while the epoch is
unchanged.

These tests pin both halves: the fast path actually fires (no structure
scans on repeat hits), and the epoch guard defeats the unsound-memo trap.
Whole simulations are then held against the memo-less reference
(``MemolessHierarchy`` in ``tests/conftest.py``, which forgets the memo
before every access): every golden workload, a crafted same-line workload
under all three models, two threads sharing that line with and without
functional warm-up, and a two-core drive where a remote write lands on the
memoized line between ``simulate_interval`` calls must reproduce it bit for
bit.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.api import Session
from repro.branch import create_branch_predictor
from repro.common.config import default_machine_config
from repro.common.isa import Instruction, InstructionClass
from repro.common.stats import CoreStats
from repro.core.interval_core import IntervalCore
from repro.memory.cache import CoherenceState
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.stream import ThreadTrace, Workload

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "regression")
)
from golden_corpus import GOLDEN_PATH, corpus_specs  # noqa: E402

with open(GOLDEN_PATH, "r", encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


def _hierarchy(num_cores: int = 1) -> MemoryHierarchy:
    return MemoryHierarchy(default_machine_config(num_cores=num_cores))


BLOCK = 0x1_0000  # line- and page-aligned data address


class TestFastPathFires:
    def test_repeat_load_skips_the_structure_scans(self):
        hierarchy = _hierarchy(1)
        hierarchy.data_probe(0, BLOCK, False, 0)  # miss: installs line + memo

        calls = []
        original_lookup = hierarchy.l1d[0].lookup
        original_access = hierarchy.dtlb[0].access
        hierarchy.l1d[0].lookup = lambda *a, **k: calls.append("l1d") or original_lookup(*a, **k)
        hierarchy.dtlb[0].access = lambda *a, **k: calls.append("dtlb") or original_access(*a, **k)

        accesses_before = hierarchy.l1d[0].stats.accesses
        for offset in (0, 8, 16, 56):
            assert hierarchy.data_probe(0, BLOCK + offset, False, 0) is None
        # The memoized fast path touched neither structure's scan path...
        assert calls == []
        # ...while still counting every access.
        assert hierarchy.l1d[0].stats.accesses == accesses_before + 4

    def test_repeat_store_on_modified_line_fast_paths(self):
        hierarchy = _hierarchy(1)
        hierarchy.data_probe(0, BLOCK, True, 0)  # write miss: installs Modified
        original_lookup = hierarchy.l1d[0].lookup
        calls = []
        hierarchy.l1d[0].lookup = lambda *a, **k: calls.append("l1d") or original_lookup(*a, **k)
        assert hierarchy.data_probe(0, BLOCK + 8, True, 0) is None
        assert calls == []

    def test_store_after_load_memo_is_not_trusted(self):
        # A load installs Exclusive: a following store must take the slow
        # path (E -> M transition), not the memoized one.
        hierarchy = _hierarchy(1)
        hierarchy.data_probe(0, BLOCK, False, 0)
        assert hierarchy.data_probe(0, BLOCK, True, 0) is None
        line = hierarchy.l1d[0].probe(BLOCK)
        assert line is not None and line.state == CoherenceState.MODIFIED

    def test_different_block_misses_the_memo(self):
        hierarchy = _hierarchy(1)
        hierarchy.data_probe(0, BLOCK, False, 0)
        far = BLOCK + 0x10_0000
        result = hierarchy.data_probe(0, far, False, 0)
        assert result is not None and result.l1_miss


class TestCoherenceEpochGuard:
    def test_remote_write_invalidates_the_memo(self):
        # The unsound-memo trap: core 0 memoizes a hit on block X, core 1
        # writes X (invalidating core 0's copy).  Core 0's next access must
        # NOT be served from the memo — it is a real miss again.
        hierarchy = _hierarchy(2)
        assert hierarchy.data_probe(0, BLOCK, False, 0) is not None  # cold miss
        assert hierarchy.data_probe(0, BLOCK, False, 0) is None      # memo hit

        hierarchy.data_probe(1, BLOCK, True, 0)  # remote write: invalidate

        result = hierarchy.data_probe(0, BLOCK, False, 0)
        assert result is not None and result.l1_miss
        # The data comes from core 1's Modified copy: a coherence miss.
        assert result.coherence_miss

    def test_remote_read_downgrade_defeats_the_store_memo(self):
        # Core 0 holds X in Modified (store memo valid).  Core 1 reads X,
        # downgrading core 0's copy to Owned.  Core 0's next store must take
        # the slow path and upgrade (invalidating core 1's copy) — the memo
        # would have silently skipped the required coherence action.
        hierarchy = _hierarchy(2)
        hierarchy.data_probe(0, BLOCK, True, 0)
        assert hierarchy.data_probe(0, BLOCK, True, 0) is None  # memoized M hit

        hierarchy.data_probe(1, BLOCK, False, 0)  # remote read: M -> O
        line = hierarchy.l1d[0].probe(BLOCK)
        assert line is not None and line.state == CoherenceState.OWNED

        invalidations_before = hierarchy.coherence.stats.invalidations_sent
        hierarchy.data_probe(0, BLOCK, True, 0)
        assert hierarchy.coherence.stats.invalidations_sent == invalidations_before + 1
        line = hierarchy.l1d[0].probe(BLOCK)
        assert line is not None and line.state == CoherenceState.MODIFIED
        assert hierarchy.l1d[1].probe(BLOCK) is None

    def test_epoch_counts_remote_actions(self):
        hierarchy = _hierarchy(2)
        hierarchy.data_probe(0, BLOCK, True, 0)
        epoch_before = hierarchy.coherence.epochs[0]
        hierarchy.data_probe(1, BLOCK, False, 0)  # downgrade core 0's line
        assert hierarchy.coherence.epochs[0] == epoch_before + 1
        hierarchy.data_probe(1, BLOCK, True, 0)  # upgrade: invalidate core 0
        assert hierarchy.coherence.epochs[0] == epoch_before + 2

    def test_reset_data_memo_clears_in_place(self):
        hierarchy = _hierarchy(2)
        memo_block = hierarchy._data_memo_block
        memo_page = hierarchy._data_memo_page
        memo_epoch = hierarchy._data_memo_epoch
        memo_writable = hierarchy._data_memo_writable
        hierarchy.data_probe(0, BLOCK, True, 0)
        assert memo_block[0] != -1 and memo_writable[0]
        hierarchy.reset_data_memo()
        # The same list objects observe the cleared state.
        assert hierarchy._data_memo_block is memo_block
        assert memo_block == [-1, -1]
        assert memo_page == [-1, -1]
        assert memo_epoch == [-1, -1]
        assert memo_writable == [False, False]

    def test_reset_data_memo_forces_the_slow_path(self):
        hierarchy = _hierarchy(1)
        hierarchy.data_probe(0, BLOCK, False, 0)
        hierarchy.l1d[0].flush()
        hierarchy.reset_data_memo()
        result = hierarchy.data_probe(0, BLOCK, False, 0)
        assert result is not None and result.l1_miss


class TestProbeEquivalence:
    """data_probe (with the memo) must mirror data_access exactly."""

    #: Two cores' interleaved access stream: repeats (memo territory), block
    #: transitions, read/write mixes and cross-core conflicts.
    STREAM = (
        [(0, BLOCK + 8 * i, False) for i in range(8)]           # repeat loads
        + [(0, BLOCK, True), (0, BLOCK + 16, True)]             # E->M, M repeats
        + [(1, BLOCK, False)] + [(0, BLOCK + 8, True)]          # downgrade, upgrade
        + [(1, BLOCK, True)] + [(0, BLOCK + 24, False)]         # invalidate, re-miss
        + [(0, BLOCK + 0x2000 * i, False) for i in range(6)]    # page walk misses
        + [(1, BLOCK + 0x2000 * i, True) for i in range(6)]     # remote writes
        + [(0, BLOCK + 8 * i, False) for i in range(8)]         # repeats again
    )

    def _state(self, hierarchy):
        return {
            "l1d": [
                sorted(
                    (index, line.tag, int(line.state))
                    for index, line in cache.resident_lines()
                )
                for cache in hierarchy.l1d
            ],
            "l1d_stats": [
                (c.stats.accesses, c.stats.misses, c.stats.evictions, c.stats.writebacks)
                for c in hierarchy.l1d
            ],
            "dtlb": [(t.stats.accesses, t.stats.misses) for t in hierarchy.dtlb],
            "l2": (hierarchy.l2.stats.accesses, hierarchy.l2.stats.misses),
            "coherence": (
                hierarchy.coherence.stats.read_requests,
                hierarchy.coherence.stats.write_requests,
                hierarchy.coherence.stats.upgrades,
                hierarchy.coherence.stats.cache_to_cache_transfers,
                hierarchy.coherence.stats.invalidations_sent,
                hierarchy.coherence.stats.writebacks,
            ),
            "dram": hierarchy.dram.stats.accesses,
        }

    def test_probe_matches_access_on_interleaved_stream(self):
        probing, reference = _hierarchy(2), _hierarchy(2)
        for core, address, is_write in self.STREAM:
            result = probing.data_probe(core, address, is_write, 0)
            mirror = reference.data_access(core, address, is_write, now=0)
            if result is None:
                assert mirror.penalty == 0 and not mirror.tlb_miss
            else:
                assert (result.l1_miss, result.tlb_miss, result.coherence_miss,
                        result.penalty) == (
                    mirror.l1_miss, mirror.tlb_miss, mirror.coherence_miss,
                    mirror.penalty)
            assert self._state(probing) == self._state(reference)

    def test_warm_data_matches_probe_state(self):
        # warm_data skips timing (DRAM reservations) but must leave the
        # caches, TLBs and coherence state/stats exactly like data_probe.
        warming, reference = _hierarchy(2), _hierarchy(2)
        for core, address, is_write in self.STREAM:
            warming.warm_data(core, address, is_write)
            reference.data_probe(core, address, is_write, 0)
        warming_state = self._state(warming)
        reference_state = self._state(reference)
        # DRAM is excluded: both models reset it after warm-up anyway.
        warming_state.pop("dram")
        reference_state.pop("dram")
        assert warming_state == reference_state


# ---------------------------------------------------------------------------
# Whole simulations against the memo-less reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", sorted(dict(corpus_specs())))
def test_memoless_reference_reproduces_golden_stats(key, memoless_hierarchy):
    """Every golden workload, replayed without the memo, matches the pins.

    ``tests/regression/test_golden_stats.py`` pins the memoized path against
    the same file, so the memo and the per-access path are transitively
    bit-identical on single-threaded, multi-program, multi-threaded and
    many-core workloads alike.
    """
    session = dict(corpus_specs())[key]
    assert session.run().stats.deterministic_dict() == GOLDEN[key]


def _same_line_trace(count: int, thread_id: int = 0, base: int = 0x8000) -> ThreadTrace:
    """ALU/memory mix whose memory ops all live on one L1d line.

    Every odd position is a memory op on the ``base`` line, one store per
    eight, so the memo serves long stretches of repeat loads and stores
    through both the read-only and the Modified-upgrade paths.
    """
    instructions = []
    for seq in range(count):
        pc = 0x1000 + 4 * (seq % 64)
        if seq % 2 == 0:
            instructions.append(
                Instruction(seq=seq, pc=pc, klass=InstructionClass.INT_ALU, dst_reg=1)
            )
        else:
            klass = (
                InstructionClass.STORE if seq % 16 == 7 else InstructionClass.LOAD
            )
            instructions.append(
                Instruction(seq=seq, pc=pc, klass=klass, mem_addr=base + 4 * (seq % 8))
            )
    return ThreadTrace(instructions, thread_id=thread_id)


def _run_crafted(simulator: str):
    workload = Workload(name="same-line", traces=[_same_line_trace(4000)])
    return (
        Session()
        .simulator(simulator)
        .workload(workload)
        .max_cycles(50_000_000)
        .run()
    )


@pytest.mark.parametrize("simulator", ["interval", "oneipc", "detailed"])
def test_same_line_workload_matches_memoless_reference(simulator, request):
    memoized = _run_crafted(simulator)
    request.getfixturevalue("memoless_hierarchy")
    reference = _run_crafted(simulator)
    assert (
        memoized.stats.deterministic_dict() == reference.stats.deterministic_dict()
    )


def _run_shared_line(simulator: str, warmup: int = 0):
    """Two threads on two cores, both loading and storing one line."""
    workload = Workload(
        name="shared-line",
        traces=[
            _same_line_trace(3000, thread_id=0),
            _same_line_trace(3000, thread_id=1, base=0x8020),
        ],
        kind="multithreaded",
    )
    return (
        Session()
        .cores(2)
        .simulator(simulator)
        .workload(workload)
        .warmup(warmup)
        .max_cycles(50_000_000)
        .run()
    )


@pytest.mark.parametrize("simulator", ["interval", "oneipc", "detailed"])
def test_shared_line_threads_match_memoless_reference(simulator, request):
    """Remote stores keep invalidating the memoized line mid-run."""
    memoized = _run_shared_line(simulator)
    assert memoized.stats.memory_stats["coherence_invalidations"] > 10
    request.getfixturevalue("memoless_hierarchy")
    reference = _run_shared_line(simulator)
    assert (
        memoized.stats.deterministic_dict() == reference.stats.deterministic_dict()
    )


@pytest.mark.parametrize("simulator", ["interval", "oneipc", "detailed"])
def test_shared_line_warmup_matches_memoless_reference(simulator, request):
    """Functional warm-up (``warm_data``) hands the timing run the same state."""
    memoized = _run_shared_line(simulator, warmup=1500)
    request.getfixturevalue("memoless_hierarchy")
    reference = _run_shared_line(simulator, warmup=1500)
    assert (
        memoized.stats.deterministic_dict() == reference.stats.deterministic_dict()
    )


def _remote_writer_trace() -> ThreadTrace:
    """A brief thread that stores to core 0's memoized line mid-flight."""
    instructions = [
        Instruction(seq=seq, pc=0x9000 + 4 * seq, klass=InstructionClass.INT_ALU, dst_reg=1)
        for seq in range(100)
    ]
    instructions.append(
        Instruction(seq=100, pc=0x9190, klass=InstructionClass.STORE, mem_addr=0x8000)
    )
    for seq in range(101, 140):
        instructions.append(
            Instruction(seq=seq, pc=0x9000 + 4 * seq, klass=InstructionClass.INT_ALU, dst_reg=1)
        )
    return ThreadTrace(instructions, thread_id=1)


def _drive_two_cores(hierarchy_class):
    """Manually interleave two interval cores in small driver slices.

    Core 0 hammers one line; core 1 idles briefly, then stores to it.
    Slicing ``simulate_interval`` at a few cycles lands the remote write
    (and its epoch bump) *between* core 0's slices while core 0's memo
    still names the line — the case the epoch compare exists for.
    """
    config = default_machine_config(num_cores=2)
    hierarchy = hierarchy_class(config)
    traces = [_same_line_trace(4000, thread_id=0), _remote_writer_trace()]
    cores = []
    for core_id, trace in enumerate(traces):
        core = IntervalCore(
            core_id=core_id,
            config=config,
            hierarchy=hierarchy,
            predictor=create_branch_predictor(
                config.core.branch_predictor,
                perfect=config.perfect.branch_predictor,
            ),
            stats=CoreStats(core_id=core_id),
            sync=None,
        )
        core.bind_thread(trace.cursor(), core_id)
        cores.append(core)
    run_until = 0
    while not all(core.finished for core in cores):
        run_until += 3
        assert run_until < 100_000, "two-core drive failed to terminate"
        for core in cores:
            if not core.finished:
                core.simulate_interval(run_until)
    return cores, hierarchy


def _snapshot(cores, hierarchy):
    """Every core's statistics plus the D-side structures' state."""
    return {
        "cores": [core.stats.as_dict() for core in cores],
        "l1d": [
            sorted(
                (index, line.tag, int(line.state))
                for index, line in cache.resident_lines()
            )
            for cache in hierarchy.l1d
        ],
        "l1d_stats": [
            (c.stats.accesses, c.stats.misses, c.stats.evictions, c.stats.writebacks)
            for c in hierarchy.l1d
        ],
        "dtlb": [(t.stats.accesses, t.stats.misses) for t in hierarchy.dtlb],
        "l2": (hierarchy.l2.stats.accesses, hierarchy.l2.stats.misses),
        "coherence": (
            hierarchy.coherence.stats.read_requests,
            hierarchy.coherence.stats.write_requests,
            hierarchy.coherence.stats.upgrades,
            hierarchy.coherence.stats.cache_to_cache_transfers,
            hierarchy.coherence.stats.invalidations_sent,
            hierarchy.coherence.stats.writebacks,
        ),
        "epochs": list(hierarchy.coherence.epochs),
        "dram": hierarchy.dram.stats.accesses,
    }


def test_remote_write_between_slices_matches_memoless_reference(memoless_hierarchy):
    memo_cores, memo_hierarchy = _drive_two_cores(MemoryHierarchy)
    # The remote store invalidated core 0's line (bumping its epoch) after
    # core 0 had memoized it: core 0 must have missed on it again.
    assert memo_hierarchy.coherence.epochs[0] >= 1
    assert memo_cores[0].stats.l1d_misses >= 2
    ref_cores, ref_hierarchy = _drive_two_cores(memoless_hierarchy)
    assert _snapshot(memo_cores, memo_hierarchy) == _snapshot(
        ref_cores, ref_hierarchy
    )

