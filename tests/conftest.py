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


@pytest.fixture
def coherence_invariants():
    """:func:`check_coherence_invariants`, for tests in any directory."""
    return check_coherence_invariants
