"""Metric catalog and the arithmetic that turns a run's records into metrics.

End-to-end metrics come from untraced rounds; per-layer metrics come from
traced rounds (spans) and from the statistics every job returns (the
deterministic counters, which need no tracing at all).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.canonical import canonical_dumps

from bench_metrics import ipc_error_summary, kips, median, metric, per_kilo
from bench_spans import Tracer
from bench_workloads import Job, Round, RunLog

MODELS = ("interval", "oneipc", "detailed")

#: ``(name, unit, better)`` of every end-to-end metric.  Host time unless the
#: name says ``ipc_err`` (simulated, deterministic for a seed).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("end_to_end_kips", "kips", "higher"),
    ("job_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ipc_err_avg_pct", "%", "lower"),
    ("ipc_err_max_pct", "%", "lower"),
)

#: ``(name, unit, better)`` of every per-layer metric, named after modules.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("trace.synth_s", "s", "lower"),
    ("trace.synth_kips", "kips", "higher"),
    ("trace.batch_s", "s", "lower"),
    ("trace.builds_per_job", "count", "lower"),
    ("api.shared_spec_fraction", "ratio", "higher"),
    ("api.package_s", "s", "lower"),
    ("multicore.setup_warmup_s", "s", "lower"),
    ("multicore.heap_pops_per_ki", "count/ki", "lower"),
    ("multicore.cores_parked", "count", "lower"),
    *(
        entry
        for model in MODELS
        for entry in (
            (f"{model}.timed_s", "s", "lower"),
            (f"{model}.timed_kips", "kips", "higher"),
            (f"{model}.events_per_ki", "count/ki", "lower"),
            (f"{model}.us_per_event", "us", "lower"),
        )
    ),
    ("detailed.issue_wakeups_per_ki", "count/ki", "lower"),
    ("interval.speedup_vs_detailed_timed", "x", "higher"),
    ("interval.speedup_vs_detailed_e2e", "x", "higher"),
    ("memory.l1d_mpki", "count/ki", "lower"),
    ("memory.l2_mpki", "count/ki", "lower"),
    ("memory.dram_per_ki", "count/ki", "lower"),
    ("memory.coherence_inval_per_ki", "count/ki", "lower"),
    ("memory.data_runs_committed", "count", "higher"),
    ("service.cached_sweep_ms", "ms", "lower"),
    ("service.store_put_ms", "ms", "lower"),
    ("service.store_get_ms", "ms", "lower"),
    ("service.result_bytes_per_job", "B", "lower"),
    ("service.first_result_s", "s", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("bench.tracing_overhead_kips", "kips", "higher"),
)

#: Span names of the wrapped entry points.
SPAN_BUILD = "trace.WorkloadSpec.build"
SPAN_BATCH = "trace.ThreadTrace.batch"
SPAN_RUN = "multicore.MulticoreSimulator.run"
SPAN_PACKAGE = "api.RunResult.as_dict"
SPAN_HASH = "api.SweepSpec.content_hash"
SPAN_GET = "service.ResultStore.get_dict"
SPAN_PUT = "service.ResultStore.put_dict"


def _ok_jobs(rounds: Sequence[Round]) -> List[Job]:
    return [job for round_ in rounds for job in round_.jobs if job.result is not None]


def _local_jobs(log: RunLog, jobs: Sequence[Job]) -> List[Job]:
    """The jobs whose layers ran in this process: on the service workload
    only the reference runs, since pool workers are untraced."""
    return [job for job in jobs if job.role == "reference" or not log.workload.service]


def interval_detailed_pairs(log: RunLog, rounds: Sequence[Round]) -> List[Tuple[Job, Job]]:
    """``(interval, detailed)`` jobs that ran the same WorkloadSpec in one round.

    On the service workload these are the in-process reference runs, since
    the served sweep never repeats a WorkloadSpec.
    """
    role = "reference" if log.workload.service else "sweep"
    pairs = []
    for round_ in rounds:
        detailed = {
            job.spec.workload: job
            for job in round_.jobs
            if job.role == role and job.result is not None and job.spec.simulator == "detailed"
        }
        pairs.extend(
            (job, detailed[job.spec.workload])
            for job in round_.jobs
            if job.role == role
            and job.result is not None
            and job.spec.simulator == "interval"
            and job.spec.workload in detailed
        )
    return pairs


def pooled_kips(rounds: Sequence[Round]) -> float:
    """Trace instructions of all ``rounds`` over their summed windows."""
    return kips(sum(r.trace_instructions for r in rounds), sum(r.window_s for r in rounds))


def cached_sweep_ms(rounds: Sequence[Round]) -> float:
    """Median time to serve a round's sweep again from the result store.

    Not an end-to-end metric: it takes milliseconds, so the host's drift
    spreads it by 0.3 between quartiles of ten runs, beyond the largest
    bound the benchmark may set.
    """
    return median([ms for r in rounds for ms in r.cached_sweep_ms])


def end_to_end(log: RunLog, setup_s: float, peak_rss_mb: float) -> Dict[str, Dict[str, object]]:
    """Every end-to-end metric, from the run's untraced rounds.

    The IPC error comes from the accuracy round (round 0) alone, whose
    inputs do not depend on the seed.
    """
    rounds = [round_ for round_ in log.rounds if not round_.traced]
    pairs = interval_detailed_pairs(log, [r for r in log.rounds if r.index == 0])
    err_avg, err_max = ipc_error_summary(
        (interval.result.ipc, detailed.result.ipc) for interval, detailed in pairs
    )
    # Host speed drifts on a scale of seconds, so every timing pools all of
    # the run's rounds: throughput over their summed windows, latencies as
    # one sample set.
    latencies = [job.latency_s for round_ in rounds for job in round_.sweep_jobs()]
    values = {
        "setup_s": setup_s,
        "end_to_end_kips": pooled_kips(rounds),
        "job_p50_s": median(latencies),
        "peak_rss_mb": peak_rss_mb,
        "ipc_err_avg_pct": err_avg,
        "ipc_err_max_pct": err_max,
    }
    return {name: metric(values[name], unit) for name, unit, _ in END_TO_END}


def _stats_sum(jobs: Sequence[Job], read) -> float:
    return sum(read(job.result.stats) for job in jobs)


def per_layer(log: RunLog, tracer: Tracer) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric, from the traced rounds and the jobs' stats."""
    traced = [round_ for round_ in log.rounds if round_.traced]
    untraced = [round_ for round_ in log.rounds if not round_.traced]
    jobs = _ok_jobs(traced)
    local = _local_jobs(log, jobs)
    local_ids = {job.job_id for job in local}
    self_time = tracer.self_time_by_name(local_ids)
    spans = [span for span in tracer.spans if span.job in local_ids]
    n_local = len(local)

    builds = [span for span in spans if span.name == SPAN_BUILD]
    build_s = self_time.get(SPAN_BUILD, 0.0)
    built_instructions = sum(span.attrs.get("instructions", 0) for span in builds)
    run_spans = [span for span in spans if span.name == SPAN_RUN]
    run_self = self_time.get(SPAN_RUN, 0.0)
    run_timed = sum(span.attrs.get("timed_s", 0.0) for span in run_spans)

    instructions = _stats_sum(jobs, lambda s: s.total_instructions)
    values: Dict[str, float] = {
        "trace.synth_s": build_s / n_local,
        "trace.synth_kips": kips(built_instructions, build_s),
        "trace.batch_s": self_time.get(SPAN_BATCH, 0.0) / n_local,
        "trace.builds_per_job": len(builds) / n_local,
        "api.shared_spec_fraction": log.shared_spec_fraction,
        "api.package_s": self_time.get(SPAN_PACKAGE, 0.0) / n_local,
        "multicore.setup_warmup_s": (run_self - run_timed) / n_local,
        "multicore.heap_pops_per_ki": per_kilo(
            _stats_sum(jobs, lambda s: s.driver_stats.get("events_popped", 0)), instructions
        ),
        "multicore.cores_parked": _stats_sum(
            jobs, lambda s: s.driver_stats.get("cores_parked", 0)
        ) / len(jobs),
    }
    for model in MODELS:
        mine = [job for job in jobs if job.spec.simulator == model]
        timed = _stats_sum(mine, lambda s: s.wall_clock_seconds)
        count = _stats_sum(mine, lambda s: s.total_instructions)
        events = _stats_sum(mine, lambda s: s.total_miss_events)
        values[f"{model}.timed_s"] = timed / len(mine)
        values[f"{model}.timed_kips"] = kips(count, timed)
        values[f"{model}.events_per_ki"] = per_kilo(events, count)
        values[f"{model}.us_per_event"] = timed / events * 1e6
        if model == "detailed":
            values["detailed.issue_wakeups_per_ki"] = per_kilo(
                _stats_sum(mine, lambda s: s.issue_wakeups), count
            )
    pairs = interval_detailed_pairs(log, traced)
    values["interval.speedup_vs_detailed_timed"] = sum(
        d.result.stats.wall_clock_seconds for _, d in pairs
    ) / sum(i.result.stats.wall_clock_seconds for i, _ in pairs)
    values["interval.speedup_vs_detailed_e2e"] = sum(
        d.latency_s for _, d in pairs
    ) / sum(i.latency_s for i, _ in pairs)

    # The hierarchy counts warm-up and timed accesses alike, so its counters
    # are per thousand trace instructions (warm-up included).
    trace_instructions = sum(job.trace_instructions for job in jobs)

    def memory(key: str) -> float:
        return per_kilo(
            _stats_sum(jobs, lambda s: s.memory_stats.get(key, 0)), trace_instructions
        )

    values["memory.l1d_mpki"] = memory("l1d_misses")
    values["memory.l2_mpki"] = memory("l2_misses")
    values["memory.dram_per_ki"] = memory("dram_accesses")
    values["memory.coherence_inval_per_ki"] = memory("coherence_invalidations")
    values["memory.data_runs_committed"] = _stats_sum(jobs, lambda s: s.data_runs_committed)

    puts = [span for span in tracer.spans if span.name == SPAN_PUT]
    hits = [span for span in tracer.spans if span.name == SPAN_GET and span.attrs.get("hit")]
    sweep_payloads = [job.payload for job in jobs if job.role == "sweep" and job.payload]
    values["service.cached_sweep_ms"] = cached_sweep_ms(untraced)
    values["service.store_put_ms"] = sum(s.end - s.start for s in puts) / len(puts) * 1000.0
    values["service.store_get_ms"] = sum(s.end - s.start for s in hits) / len(hits) * 1000.0
    values["service.result_bytes_per_job"] = sum(
        len(canonical_dumps(payload).encode("utf-8")) for payload in sweep_payloads
    ) / len(sweep_payloads)
    values["service.first_result_s"] = median([r.first_result_s for r in traced])
    values["service.cache_hit_ratio"] = sum(r.cache_hits for r in traced) / sum(
        r.cache_lookups for r in traced
    )
    values["bench.tracing_overhead_kips"] = pooled_kips(traced) - pooled_kips(untraced)
    return {name: metric(values[name], unit) for name, unit, _ in PER_LAYER}


def phase_shares(log: RunLog, tracer: Tracer) -> Dict[str, float]:
    """Share of in-process job time per phase, from the traced rounds."""
    jobs = _local_jobs(log, _ok_jobs([r for r in log.rounds if r.traced]))
    ids = {job.job_id for job in jobs}
    self_time = tracer.self_time_by_name(ids)
    total = sum(job.latency_s for job in jobs)
    timed = sum(job.result.stats.wall_clock_seconds for job in jobs)
    shares = {
        "synthesis": self_time.get(SPAN_BUILD, 0.0) / total,
        "batch": self_time.get(SPAN_BATCH, 0.0) / total,
        "setup_warmup": (self_time.get(SPAN_RUN, 0.0) - timed) / total,
        "timed": timed / total,
        "packaging": self_time.get(SPAN_PACKAGE, 0.0) / total,
    }
    shares["other"] = 1.0 - sum(shares.values())
    return shares
