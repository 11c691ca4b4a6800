"""Tests for the benchmark's own arithmetic and tracing."""

from __future__ import annotations

import json
import os
import statistics

import pytest

from bench_metrics import (
    covered_length,
    fail_ratio,
    ipc_error_pct,
    ipc_error_summary,
    kips,
    per_kilo,
    relative_spread,
    result_line,
    self_times,
    validate_metric_name,
)
from bench_spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestSelfTime:
    def test_leaf_span_keeps_its_whole_duration(self):
        assert self_times([(0.0, 2.0, None)]) == [2.0]

    def test_children_are_subtracted_from_the_parent(self):
        spans = [(0.0, 10.0, None), (1.0, 3.0, 0), (5.0, 6.0, 0)]
        assert self_times(spans) == [7.0, 2.0, 1.0]

    def test_overlapping_children_count_once(self):
        # Two children on different threads cover [1, 5] together.
        spans = [(0.0, 10.0, None), (1.0, 4.0, 0), (2.0, 5.0, 0)]
        assert self_times(spans)[0] == pytest.approx(6.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [(0.0, 4.0, None), (3.0, 9.0, 0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_grandchildren_only_reduce_their_own_parent(self):
        spans = [(0.0, 10.0, None), (2.0, 8.0, 0), (3.0, 4.0, 1)]
        assert self_times(spans) == pytest.approx([4.0, 5.0, 1.0])

    def test_covered_length_merges_touching_intervals(self):
        assert covered_length([(0, 1), (1, 2), (4, 5)], 0, 10) == 3


class TestIpcError:
    def test_error_is_relative_to_detailed(self):
        assert ipc_error_pct(1.1, 1.0) == pytest.approx(10.0)
        assert ipc_error_pct(0.9, 1.0) == pytest.approx(10.0)

    def test_summary_is_average_and_maximum(self):
        average, maximum = ipc_error_summary([(1.1, 1.0), (2.0, 2.0), (1.5, 2.0)])
        assert average == pytest.approx((10.0 + 0.0 + 25.0) / 3)
        assert maximum == pytest.approx(25.0)

    def test_no_pairs_or_zero_detailed_ipc_is_an_error(self):
        with pytest.raises(ValueError):
            ipc_error_summary([])
        with pytest.raises(ValueError):
            ipc_error_pct(1.0, 0.0)


class TestRatios:
    def test_fail_ratio(self):
        assert fail_ratio(0, 12) == 0.0
        assert fail_ratio(3, 12) == 0.25

    @pytest.mark.parametrize("failed, attempted", [(1, 0), (-1, 4), (5, 4)])
    def test_fail_ratio_rejects_impossible_counts(self, failed, attempted):
        with pytest.raises(ValueError):
            fail_ratio(failed, attempted)

    def test_rates(self):
        assert per_kilo(5, 2000) == 2.5
        assert kips(40_000, 0.5) == 80.0

    def test_relative_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 12.0, 8.0, 10.0, 10.2]
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert relative_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


class TestMetricNames:
    @pytest.mark.parametrize(
        "name", ["setup_s", "trace.synth_kips", "interval.us_per_event", "9lives", "a-b.c_d"]
    )
    def test_legal_names_pass(self, name):
        assert validate_metric_name(name) == name

    @pytest.mark.parametrize(
        "name", ["", "_lead", ".lead", "has space", "slash/name", "x" * 65, "ümlaut"]
    )
    def test_illegal_names_are_rejected(self, name):
        with pytest.raises(ValueError):
            validate_metric_name(name)

    def test_result_line_checks_every_name(self):
        good = {"setup_s": {"value": 1.0, "unit": "s"}}
        assert result_line(True, 3, 0, good)["metrics"] == good
        with pytest.raises(ValueError):
            result_line(True, 3, 0, {"bad name": {"value": 1.0, "unit": "s"}})

    def test_benchmark_json_lists_exactly_the_reported_metrics(self):
        from bench_report import END_TO_END, PER_LAYER

        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            declared = json.load(handle)
        for key, catalog in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            assert [(m["name"], m["unit"], m["better"]) for m in declared[key]] == list(catalog)
            for name, _, _ in catalog:
                validate_metric_name(name)


class _Layer:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 41


class TestTracer:
    def test_spans_nest_and_the_originals_come_back(self):
        original = _Layer.__dict__["inner"]
        tracer = Tracer()
        tracer.wrap(_Layer, "outer", "outer")
        tracer.wrap(_Layer, "inner", "inner", lambda span, args, result: span.attrs.update(r=result))
        tracer.active = True
        with tracer.job("j1"):
            assert _Layer().outer() == 42
        tracer.active = False
        _Layer().inner()  # inactive: not recorded
        tracer.close()

        assert [span.name for span in tracer.spans] == ["job", "outer", "inner"]
        job, outer, inner = tracer.spans
        assert (job.parent, outer.parent, inner.parent) == (None, 0, 1)
        assert {span.job for span in tracer.spans} == {"j1"}
        assert inner.attrs == {"r": 41}
        assert tracer.counts == {"job": 1, "outer": 1, "inner": 1}
        assert _Layer.__dict__["inner"] is original
        totals = tracer.self_time_by_name({"j1"})
        assert sum(totals.values()) == pytest.approx(job.end - job.start)


class TestRounds:
    def test_plan_makes_two_rounds_and_traces_the_even_ones(self):
        from bench_workloads import RoundPlan

        assert list(RoundPlan(0.0, trace=True)) == [(0, True), (1, False)]
        assert list(RoundPlan(0.0, trace=False)) == [(0, False), (1, False)]

    def test_accuracy_round_seed_is_fixed_and_later_seeds_are_distinct(self):
        from bench_workloads import round_seed

        assert round_seed(3, 0) == round_seed(9, 0)
        later = {round_seed(seed, index) for seed in range(5) for index in range(1, 50)}
        assert len(later) == 5 * 49 and round_seed(0, 0) not in later

    def test_shared_spec_fraction_counts_workloads_already_run(self):
        from bench_workloads import WORKLOADS, Job, Round, shared_spec_fraction

        for name, expected in (("spec-sweep", 2 / 3), ("manycore-64", 2 / 3), ("service-sweep", 0)):
            rounds = []
            for index in range(2):
                specs = WORKLOADS[name].make_specs(index + 1)
                jobs = [Job(f"r{index}.j{n}", spec, "sweep") for n, spec in enumerate(specs)]
                rounds.append(Round(index=index, traced=False, jobs=jobs))
            assert shared_spec_fraction(rounds) == pytest.approx(expected)
