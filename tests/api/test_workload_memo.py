"""run_spec's one-entry workload memo: sharing a built trace is invisible.

Back-to-back jobs on one WorkloadSpec share a single built Workload (and its
cached TraceBatch).  These tests pin down that every timing model, with and
without an armed fault plan, produces exactly what it produces on a freshly
built workload, that no run writes to the shared trace, and that the memo
never holds more than one workload.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api import Session, SweepSpec, WorkloadSpec
from repro.api import session as session_module
from repro.api.registry import DEFAULT_REGISTRY
from repro.api.session import run_spec
from repro.common.isa import Instruction
from repro.faults.plan import FaultPlan
from repro.trace.columnar import TraceBatch
from repro.trace.stream import Workload

FAULTS = FaultPlan.from_dict(
    {
        "seed": 7,
        "specs": [
            {"kind": "drop_line", "period": 400},
            {"kind": "flaky_dram", "rate": 0.1},
        ],
    }
)


def _single_specs():
    base = Session().workload("mcf", instructions=4_000, seed=3).warmup(1_000)
    return _model_specs(base)


def _multithreaded_specs():
    base = (
        Session()
        .multithreaded("fluidanimate", threads=2, total_instructions=4_000, seed=1)
        .warmup(500)
    )
    return _model_specs(base)


def _model_specs(base: Session):
    specs = [base.simulator(name).spec() for name in ("interval", "oneipc", "detailed")]
    specs.append(base.simulator("interval").faults(FAULTS).spec())
    return specs


def _fresh_run(spec: SweepSpec):
    """What run_spec computed before the memo: a new workload per job."""
    simulator = DEFAULT_REGISTRY.create(spec.simulator, spec.machine, **spec.options)
    return simulator.run(
        spec.workload.build(),
        max_cycles=spec.max_cycles,
        warmup_instructions=spec.warmup_instructions,
        fault_plan=spec.faults,
    )


def _snapshot(workload: Workload):
    """Every field of the workload, its traces, instructions and batches.

    The batch's lazily built caches are snapshotted too; a run may add
    entries to them but must never change one that already exists.
    """
    traces = []
    for trace in workload.traces:
        batch = trace.batch()
        traces.append(
            (
                trace.thread_id,
                trace.name,
                len(trace),
                [
                    tuple(getattr(ins, slot) for slot in Instruction.__slots__)
                    for ins in trace
                ],
                {
                    slot: _copy(getattr(batch, slot))
                    for slot in TraceBatch.__slots__
                    if slot != "instructions"
                },
                [id(ins) for ins in batch.instructions],
            )
        )
    return (
        workload.name,
        workload.kind,
        list(workload.core_assignment),
        workload.num_barriers,
        traces,
    )


def _copy(value):
    if isinstance(value, dict):
        return {key: list(column) for key, column in value.items()}
    if isinstance(value, (list, bytearray)):
        return type(value)(value)
    return value


def _assert_unchanged(before, after):
    assert before[:4] == after[:4]
    for trace_before, trace_after in zip(before[4], after[4], strict=True):
        assert trace_before[:4] == trace_after[:4]
        assert trace_before[5] == trace_after[5]
        columns_before, columns_after = trace_before[4], trace_after[4]
        for slot, value in columns_before.items():
            if slot.startswith("_"):
                # Lazy caches: a run may fill them, never rewrite them.
                if isinstance(value, dict):
                    for key, column in value.items():
                        assert columns_after[slot][key] == column, (slot, key)
                elif value is not None:
                    assert columns_after[slot] == value, slot
            else:
                assert columns_after[slot] == value, slot


@pytest.fixture(autouse=True)
def _empty_memo(monkeypatch):
    monkeypatch.setattr(session_module, "_last_workload", None)


@pytest.mark.parametrize(
    "specs", [_single_specs(), _multithreaded_specs()], ids=["single", "multithreaded"]
)
def test_shared_workload_matches_fresh_build(specs):
    workload_spec = specs[0].workload
    assert all(spec.workload == workload_spec for spec in specs)
    shared = session_module._memoized_workload(workload_spec)
    for spec in specs:
        before = _snapshot(shared)
        result = run_spec(spec)
        assert session_module._last_workload[1] is shared
        _assert_unchanged(before, _snapshot(shared))
        expected = _fresh_run(spec)
        assert result.stats.deterministic_dict() == expected.deterministic_dict(), (
            spec.simulator,
            spec.faults,
        )


def test_memo_holds_one_entry_and_drops_it_before_building(monkeypatch):
    original_build = WorkloadSpec.build
    built = []
    held_during_build = []
    alive_during_build = []
    previous = []

    def counting_build(self):
        held_during_build.append(session_module._last_workload)
        gc.collect()
        alive_during_build.append([ref() is not None for ref in previous])
        built.append(self)
        workload = original_build(self)
        previous.append(weakref.ref(workload))
        return workload

    monkeypatch.setattr(WorkloadSpec, "build", counting_build)
    a = Session().workload("gcc", instructions=2_000).warmup(500).spec()
    b = Session().workload("gcc", instructions=2_000, seed=1).warmup(500).spec()
    for spec in (a, a, b):
        run_spec(spec)
    assert built == [a.workload, b.workload]
    assert session_module._last_workload[0] == b.workload
    run_spec(a)
    assert built == [a.workload, b.workload, a.workload]
    assert held_during_build == [None, None, None]
    assert alive_during_build == [[], [False], [False, False]]
    assert session_module._last_workload[0] == a.workload


def test_build_still_returns_a_fresh_workload():
    spec = WorkloadSpec(kind="single", benchmark="gcc", instructions=2_000)
    first = session_module._memoized_workload(spec)
    assert session_module._memoized_workload(spec) is first
    assert spec.build() is not first
    assert spec.build() is not spec.build()
