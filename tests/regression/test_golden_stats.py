"""Golden-stats kernel regression tests.

The interval-at-a-time kernel, the batched memory probes and the event-heap
driver are *performance* refactors: they must not change a single simulated
number.  These tests pin the complete deterministic statistics
(:meth:`repro.common.stats.SimulationStats.deterministic_dict` — per-core
IPC/CPI, every miss-event counter, CPI-stack components and the shared
memory-hierarchy counters) of a seeded workload corpus and assert bit-for-bit
equality, so a divergence in any miss event, its ordering, or a cycle count
fails loudly with the exact counter that moved.

After an *intentional* model change, regenerate the pinned file with::

    PYTHONPATH=src python tests/regression/regenerate_golden.py
"""

from __future__ import annotations

import json

import pytest

from golden_corpus import GOLDEN_PATH, corpus_specs

with open(GOLDEN_PATH, "r", encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

CORPUS = dict(corpus_specs())


def test_corpus_and_golden_file_agree() -> None:
    """Every corpus entry is pinned and every pinned entry still exists."""
    assert sorted(CORPUS) == sorted(GOLDEN)


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_stats_match_golden_bit_for_bit(
    key: str, recorded_hierarchies, coherence_invariants
) -> None:
    session = CORPUS[key]
    produced = session.run().stats.deterministic_dict()
    expected = GOLDEN[key]
    if produced != expected:  # pragma: no cover - failure diagnostics only
        diffs = _flat_diff(produced, expected)
        raise AssertionError(
            f"{key}: simulated statistics diverged from the golden corpus "
            f"({len(diffs)} differing leaves):\n" + "\n".join(diffs[:40])
        )
    # The run ends with a coherent chip: sharer mask and MOESI invariants.
    (hierarchy,) = recorded_hierarchies
    coherence_invariants(hierarchy.l1d, hierarchy.coherence)


def _flat_diff(got, want, path=""):
    """Flatten nested dict/list differences into 'path: got != want' lines."""
    if isinstance(got, dict) and isinstance(want, dict):
        lines = []
        for key in sorted(set(got) | set(want)):
            lines.extend(_flat_diff(got.get(key), want.get(key), f"{path}.{key}"))
        return lines
    if isinstance(got, list) and isinstance(want, list):
        lines = []
        for index in range(max(len(got), len(want))):
            got_item = got[index] if index < len(got) else "<missing>"
            want_item = want[index] if index < len(want) else "<missing>"
            lines.extend(_flat_diff(got_item, want_item, f"{path}[{index}]"))
        return lines
    if got != want:
        return [f"  {path}: {got!r} != {want!r}"]
    return []
