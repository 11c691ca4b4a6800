"""The repository benchmark: spec-to-result throughput of the simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload spec-sweep --seed 1 --seconds 24 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` traces every
other round, writes the spans to
``.perfbench/spans-<workload>-seed<seed>.jsonl`` and prints every per-layer
metric.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every line before it
is a human-readable report.  The exit code is 0 only when every job ran and
passed its output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb(include_children: bool) -> float:
    """High-water RSS of this process, plus its largest reaped child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def host_fingerprint() -> dict:
    """Python version, usable cores and whether numpy's fast path is active."""
    try:
        from repro.common import fastpath

        fast = fastpath.numpy is not None
    except ImportError:
        fast = False
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy_fast_path": fast,
    }


def _install_spans(tracer) -> None:
    """Wrap the layers' public entry points (spans are recorded only while
    the tracer is active)."""
    from repro.api.results import RunResult
    from repro.api.spec import SweepSpec, WorkloadSpec
    from repro.multicore.simulator import MulticoreSimulator
    from repro.service.store import ResultStore
    from repro.trace.stream import ThreadTrace

    import bench_report as report

    def built(span, args, workload):
        if workload is not None:
            span.attrs["instructions"] = sum(len(trace) for trace in workload.traces)

    def ran(span, args, stats):
        if stats is not None:
            span.attrs["timed_s"] = stats.wall_clock_seconds

    def looked_up(span, args, payload):
        span.attrs["hit"] = payload is not None

    tracer.wrap(WorkloadSpec, "build", report.SPAN_BUILD, built)
    tracer.wrap(ThreadTrace, "batch", report.SPAN_BATCH)
    tracer.wrap(MulticoreSimulator, "run", report.SPAN_RUN, ran)
    tracer.wrap(RunResult, "as_dict", report.SPAN_PACKAGE)
    tracer.wrap(SweepSpec, "content_hash", report.SPAN_HASH)
    tracer.wrap(ResultStore, "get_dict", report.SPAN_GET, looked_up)
    tracer.wrap(ResultStore, "put_dict", report.SPAN_PUT)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Pool workers and set-up probes import repro from this checkout too.
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")

    import bench_report as report
    from bench_metrics import fail_ratio, result_line
    from bench_spans import Tracer
    from bench_workloads import WORKLOADS, RoundPlan, run_workload

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2

    tracer = Tracer()
    if args.trace:
        _install_spans(tracer)
    try:
        log = run_workload(
            workload,
            args.seed,
            RoundPlan(args.seconds, bool(args.trace)),
            tracer,
            os.path.join(OUT_DIR, f"work-{os.getpid()}"),
        )
    finally:
        tracer.close()

    jobs = [job for round_ in log.rounds for job in round_.jobs]
    failed = [job for job in jobs if job.failures]
    for job in failed:
        print(f"FAILED {job.job_id} {job.spec.simulator} {job.spec.workload.display_name}:",
              file=sys.stderr)
        for failure in job.failures:
            print("  " + failure.rstrip().replace("\n", "\n  "), file=sys.stderr)
    attempted = len(jobs)

    print(f"# workload {workload.name}: {workload.why}")
    print(f"# host {json.dumps(host_fingerprint(), sort_keys=True)}")
    print(f"# rounds {len(log.rounds)} ({sum(r.traced for r in log.rounds)} traced), "
          f"jobs {attempted}, job_fail_ratio {fail_ratio(len(failed), attempted):.4f}")
    if failed:
        print(json.dumps(result_line(False, attempted, len(failed), {})))
        return 1

    setup_s = statistics.median(log.import_samples)
    if log.server_samples:
        setup_s += statistics.median(log.server_samples)
    peak = _peak_rss_mb(include_children=workload.service)
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl")
        tracer.write(path, {
            "workload": workload.name,
            "seed": args.seed,
            "host": host_fingerprint(),
            "untraced": "job-server pool workers" if workload.service else "nothing",
        })
        print(f"# spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        if workload.service:
            print("# pool workers run untraced: trace.*, api.package_s and "
                  "multicore.setup_warmup_s come from the in-process reference runs")
        shares = report.phase_shares(log, tracer)
        print("# phase shares of job time " + json.dumps(
            {name: round(share, 3) for name, share in shares.items()}))
        metrics = report.per_layer(log, tracer)
    else:
        metrics = report.end_to_end(log, setup_s, peak)
        print(f"# cached_sweep_ms {report.cached_sweep_ms(log.rounds):.6g} ms "
              "(not gated: reported per layer as service.cached_sweep_ms)")
    print("# round end_to_end_kips " + " ".join(
        f"{r.kips:.1f}{'t' if r.traced else ''}" for r in log.rounds))
    print("# round job_p50_s " + " ".join(
        f"{statistics.median(j.latency_s for j in r.sweep_jobs()):.3f}" for r in log.rounds))
    print("# setup samples s: import " + " ".join(f"{s:.3f}" for s in log.import_samples)
          + (" server " + " ".join(f"{s:.3f}" for s in log.server_samples)
             if log.server_samples else ""))
    for name, record in metrics.items():
        print(f"# {name} {record['value']:.6g} {record['unit']}")
    print(json.dumps(result_line(True, attempted, 0, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
