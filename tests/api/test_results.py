"""Tests for result serialization: stats and RunResult JSON round-trips."""

from __future__ import annotations

import json

import pytest

from repro.api import RunResult, Session, load_results, save_results
from repro.common.stats import CoreStats, SimulationStats


def _small_run() -> RunResult:
    return (
        Session()
        .simulator("interval")
        .workload("gcc", instructions=4_000, seed=3)
        .warmup(1_000)
        .label("unit")
        .run()
    )


class TestCoreStatsRoundTrip:
    def test_round_trip_equality(self):
        stats = CoreStats(core_id=2, instructions=100, cycles=400, l1d_misses=7,
                          branch_mispredictions=3, base_cycles=90)
        rebuilt = CoreStats.from_dict(json.loads(json.dumps(stats.as_dict())))
        assert rebuilt == stats

    def test_derived_keys_are_ignored(self):
        data = CoreStats(instructions=10, cycles=20).as_dict()
        assert "ipc" in data  # as_dict exports derived rates...
        rebuilt = CoreStats.from_dict(data)  # ...from_dict recomputes them
        assert rebuilt.ipc == pytest.approx(0.5)


class TestSimulationStatsRoundTrip:
    def test_real_run_round_trips(self):
        stats = _small_run().stats
        rebuilt = SimulationStats.from_dict(json.loads(json.dumps(stats.as_dict())))
        assert rebuilt == stats

    def test_deterministic_dict_drops_wall_clock(self):
        stats = _small_run().stats
        deterministic = stats.deterministic_dict()
        assert "wall_clock_seconds" not in deterministic
        assert deterministic["total_cycles"] == stats.total_cycles


class TestRunResultRoundTrip:
    def test_retired_counter_keys_still_load(self):
        # Results stored before the D-side run counters were removed carry
        # them in every core dict; they must load and be dropped.
        result = _small_run()
        stored = json.loads(json.dumps(result.as_dict()))
        for core in stored["stats"]["cores"]:
            core.update(
                data_runs_committed=5, data_run_aborts=1, runs_aborted_by_fault=1
            )
        rebuilt = RunResult.from_dict(stored)
        assert rebuilt.stats == result.stats
        assert "data_run_aborts" not in rebuilt.stats.cores[0].as_dict()

    def test_dict_round_trip(self):
        result = _small_run()
        rebuilt = RunResult.from_dict(json.loads(json.dumps(result.as_dict())))
        assert rebuilt.simulator == "interval"
        assert rebuilt.workload == "gcc"
        assert rebuilt.label == "unit"
        assert rebuilt.stats == result.stats
        assert rebuilt.parameters == result.parameters

    def test_json_string_round_trip(self):
        result = _small_run()
        rebuilt = RunResult.from_json(result.to_json())
        assert rebuilt.stats == result.stats

    def test_save_and_load_results_file(self, tmp_path):
        result = _small_run()
        path = tmp_path / "results.json"
        save_results([result, result], path)
        reloaded = load_results(path)
        assert len(reloaded) == 2
        assert all(r.stats == result.stats for r in reloaded)

    def test_load_rejects_unknown_format_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99, "results": []}')
        with pytest.raises(ValueError):
            load_results(path)
