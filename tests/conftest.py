"""Shared pytest fixtures for the repro test-suite."""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.common.config import MachineConfig, default_machine_config
from repro.memory.cache import CoherenceState
from repro.memory.hierarchy import MemoryHierarchy
from repro.multicore import simulator as simulator_module
from repro.trace.profiles import spec_profile
from repro.trace.synthetic import SyntheticTraceGenerator
from repro.trace.workloads import single_threaded_workload


@pytest.fixture
def single_core_machine() -> MachineConfig:
    """The Table-1 baseline machine with one core."""
    return default_machine_config(num_cores=1)


@pytest.fixture
def quad_core_machine() -> MachineConfig:
    """The Table-1 baseline machine with four cores."""
    return default_machine_config(num_cores=4)


@pytest.fixture
def small_gcc_workload():
    """A small single-threaded workload for fast simulator tests."""
    return single_threaded_workload("gcc", instructions=3_000, seed=7)


@pytest.fixture
def gcc_generator():
    """A deterministic trace generator for the gcc stand-in profile."""
    return SyntheticTraceGenerator(spec_profile("gcc"), seed=3)


def check_coherence_invariants(l1d_caches, controller) -> None:
    """Assert the coherence invariants over a set of private L1d caches.

    * The controller's sharer mask is a superset of residency: every valid
      line in core *r*'s L1d has bit *r* set (checked only when the snoop
      is non-trivial, the only case that keeps a mask).
    * MOESI single-writer/multi-reader, per block: at most one M or E copy,
      and if there is one no other valid copy; at most one O copy (checked
      for every protocol but ``"NONE"``, which keeps no copies coherent).
    """
    holders = defaultdict(list)
    for core_id, cache in enumerate(l1d_caches):
        num_sets = cache._num_sets
        for index, line in cache.resident_lines():
            block = line.tag * num_sets + index
            holders[block].append((core_id, line.state))
            if not controller._trivial:
                assert controller._sharers.get(block, 0) >> core_id & 1, (
                    f"block {block:#x}: core {core_id} holds it in "
                    f"{line.state.name} but its sharer bit is clear"
                )
    if controller.protocol == "NONE":
        return
    exclusive_states = (CoherenceState.MODIFIED, CoherenceState.EXCLUSIVE)
    for block, copies in holders.items():
        writers = [core for core, state in copies if state in exclusive_states]
        owners = [core for core, state in copies if state == CoherenceState.OWNED]
        assert len(writers) <= 1, f"block {block:#x}: M/E copies {copies}"
        assert not writers or len(copies) == 1, f"block {block:#x}: {copies}"
        assert len(owners) <= 1, f"block {block:#x}: O copies {copies}"


@pytest.fixture
def recorded_hierarchies(monkeypatch):
    """Every ``MemoryHierarchy`` a multicore simulation builds, in order."""
    created = []

    class RecordingHierarchy(MemoryHierarchy):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(simulator_module, "MemoryHierarchy", RecordingHierarchy)
    return created


class MemolessHierarchy(MemoryHierarchy):
    """A hierarchy whose D-side accesses never take the epoch-memo shortcut.

    Forgetting the memoized line before every :meth:`data_probe` /
    :meth:`warm_data` call sends each access down the full TLB/L1d/coherence
    path, so a run through this class is the per-access reference the memo
    must reproduce bit for bit.
    """

    def data_probe(self, core_id, address, is_write, now=0):
        self._data_memo_block[core_id] = -1
        return super().data_probe(core_id, address, is_write, now)

    def warm_data(self, core_id, address, is_write):
        self._data_memo_block[core_id] = -1
        super().warm_data(core_id, address, is_write)


@pytest.fixture
def memoless_hierarchy(monkeypatch):
    """Build every multicore simulation's hierarchy as :class:`MemolessHierarchy`."""
    monkeypatch.setattr(simulator_module, "MemoryHierarchy", MemolessHierarchy)
    return MemolessHierarchy


class PerAccessHierarchy(MemolessHierarchy):
    """A hierarchy that also performs every fetch one at a time, memo-less.

    :meth:`access_block` and :meth:`warm_block` become plain per-address
    loops over :meth:`instruction_probe`, which forgets the memoized fetch
    line before every call, so both the I-side MRU memo and the batched
    memo loops are out of the picture.  A run through this class is the
    per-access reference for the whole hierarchy.
    """

    def instruction_probe(self, core_id, pc, now=0):
        self._fetch_memo_block[core_id] = -1
        return super().instruction_probe(core_id, pc, now)

    def access_block(
        self, core_id, addresses, start=0, stop=None, flags=None, flag_mask=0
    ):
        if stop is None:
            stop = len(addresses)
        for index in range(start, stop):
            if flags is not None and flags[index] & flag_mask:
                continue
            pc = addresses[index]
            if not self._perfect_itlb and not self.itlb[core_id].probe(pc):
                return index
            if not self._perfect_l1i and self.l1i[core_id].probe(pc) is None:
                return index
            assert self.instruction_probe(core_id, pc) is None
        return stop

    def warm_block(
        self, core_id, addresses, start=0, stop=None, now=0, flags=None, flag_mask=0
    ):
        if stop is None:
            stop = len(addresses)
        performed = 0
        for index in range(start, stop):
            if flags is not None and flags[index] & flag_mask:
                continue
            self.instruction_probe(core_id, addresses[index], now)
            performed += 1
        return performed


@pytest.fixture
def per_access_hierarchy(monkeypatch):
    """Build every multicore simulation's hierarchy as :class:`PerAccessHierarchy`."""
    monkeypatch.setattr(simulator_module, "MemoryHierarchy", PerAccessHierarchy)
    return PerAccessHierarchy


@pytest.fixture
def coherence_invariants():
    """:func:`check_coherence_invariants`, for tests in any directory."""
    return check_coherence_invariants
