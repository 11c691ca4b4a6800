"""The benchmark's workloads and how each one runs.

Every workload is a closed loop from this process: the next job starts only
when the previous one (or, for the job server, the previous sweep) has
finished.  A run executes *rounds* for the measuring time it is given (see
:class:`RoundPlan`); each round submits the workload's whole sweep.

Round 0 is the *accuracy round*: its trace seeds are fixed, so the
interval-vs-detailed error measured on it is the same on every run of a
commit (a ratchet, not a sample).  Every later round draws its trace seeds
from ``(seed, round)``, so no round reuses another's inputs and a run is a
pure function of its seed and round count.

Jobs enter through the public front doors only: ``Session.run()`` for the
in-process sweeps, ``run_spec`` for the service workload's in-process
reference runs, and ``JobServer`` + ``ServiceClient`` for the service.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.api.results import RunResult
from repro.api.session import Session, run_spec
from repro.api.spec import SweepSpec, WorkloadSpec
from repro.common.config import default_machine_config
from repro.service.client import ServiceClient
from repro.service.server import JobServer
from repro.service.store import ResultStore

from bench_spans import Tracer

#: Worker processes and connections never exceed the host's cores, nor two.
POOL_WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))

#: Interpreter start-ups timed before every round.  Host speed drifts in
#: regimes of tens of seconds, so set-up is sampled across the whole run and
#: the median of the samples reported.
IMPORT_PROBES = 2

#: A cached sweep takes milliseconds, so each service round resubmits it
#: this many times.
CACHED_REPEATS = 25


class RoundPlan:
    """Yields ``(round index, traced)`` for as long as a run measures.

    A run makes at least two rounds, then starts another only while one as
    long as the last still ends within ``seconds``.  A traced run traces the
    even rounds, so traced and untraced rounds interleave in time and the
    tracing overhead compares inputs of the same shape.
    """

    def __init__(self, seconds: float, trace: bool) -> None:
        self.seconds = seconds
        self.trace = trace

    def __iter__(self):
        start = time.perf_counter()
        index, last = 0, 0.0
        while index < 2 or time.perf_counter() - start + last <= self.seconds:
            began = time.perf_counter()
            yield index, self.trace and index % 2 == 0
            last = time.perf_counter() - began
            index += 1


# -- workload definitions ------------------------------------------------------


@dataclass(frozen=True)
class WorkloadDef:
    """One named workload: its sweep, and whether it goes through the server."""

    name: str
    why: str
    make_specs: Callable[[int], List[SweepSpec]]
    service: bool = False


def _spec_sweep(round_seed: int) -> List[SweepSpec]:
    machine = default_machine_config(num_cores=1)
    specs = []
    for benchmark in ("gcc", "mcf", "art", "swim"):
        workload = WorkloadSpec(
            kind="single", benchmark=benchmark, instructions=32_000, seed=round_seed
        )
        for model in ("interval", "oneipc", "detailed"):
            specs.append(
                SweepSpec(
                    simulator=model,
                    workload=workload,
                    machine=machine,
                    warmup_instructions=16_000,
                )
            )
    return specs


def _manycore_sweep(round_seed: int) -> List[SweepSpec]:
    machine = default_machine_config(num_cores=64)
    specs = []
    for benchmark in ("canneal", "fluidanimate"):
        workload = WorkloadSpec(
            kind="multithreaded",
            benchmark=benchmark,
            copies=64,
            instructions=16_000,
            seed=round_seed,
        )
        for model in ("interval", "oneipc", "detailed"):
            specs.append(
                SweepSpec(
                    simulator=model,
                    workload=workload,
                    machine=machine,
                    warmup_instructions=100,
                )
            )
    return specs


#: Eight SPEC stand-ins of differing memory intensity; with the model
#: cycling interval/oneipc/detailed no WorkloadSpec repeats in a sweep.
_SERVICE_BENCHMARKS = ("gcc", "mcf", "art", "swim", "bzip2", "equake", "twolf", "vpr")
_SERVICE_MODELS = ("interval", "oneipc", "detailed")


def _service_sweep(round_seed: int) -> List[SweepSpec]:
    machine = default_machine_config(num_cores=1)
    return [
        SweepSpec(
            simulator=_SERVICE_MODELS[index % len(_SERVICE_MODELS)],
            workload=WorkloadSpec(
                kind="single",
                benchmark=benchmark,
                instructions=40_000,
                seed=round_seed * 16 + index,
            ),
            machine=machine,
            warmup_instructions=20_000,
        )
        for index, benchmark in enumerate(_SERVICE_BENCHMARKS)
    ]


WORKLOADS: Dict[str, WorkloadDef] = {
    definition.name: definition
    for definition in (
        WorkloadDef(
            name="spec-sweep",
            why="figure-5-shaped design sweep: 4 SPEC stand-ins x 3 models on 1 core; "
            "synthesis dominates and each WorkloadSpec is shared by 3 jobs",
            make_specs=_spec_sweep,
        ),
        WorkloadDef(
            name="manycore-64",
            why="canneal and fluidanimate x 3 models on 64 cores; the event-heap "
            "driver, coherence, parking and warm-up dominate, synthesis does not",
            make_specs=_manycore_sweep,
        ),
        WorkloadDef(
            name="service-sweep",
            why="repro-submit path: 8 unique specs through JobServer and a 2-worker "
            "pool, then the same sweep again from the result store",
            make_specs=_service_sweep,
            service=True,
        ),
    )
}


def round_seed(seed: int, round_index: int) -> int:
    """Trace seed of round ``round_index`` of a run started with ``seed``.

    Round 0, the accuracy round, always uses seed 0; later rounds use seeds
    no other (seed, round) pair of a non-negative ``seed`` shares.
    """
    if round_index == 0:
        return 0
    return seed * 1000 + round_index


# -- records -------------------------------------------------------------------


@dataclass
class Job:
    """One simulation job and what it returned."""

    job_id: str
    spec: SweepSpec
    role: str  # "sweep" (the workload) or "reference" (in-process checks)
    latency_s: float = 0.0
    trace_instructions: int = 0
    result: Optional[RunResult] = None
    payload: Optional[Dict[str, object]] = None
    failures: List[str] = field(default_factory=list)


@dataclass
class Round:
    """One round: its sweep jobs, reference jobs and timings."""

    index: int
    traced: bool
    jobs: List[Job] = field(default_factory=list)
    window_s: float = 0.0
    trace_instructions: int = 0
    first_result_s: float = 0.0
    cached_sweep_ms: List[float] = field(default_factory=list)
    cache_hits: int = 0
    cache_lookups: int = 0

    @property
    def kips(self) -> float:
        return self.trace_instructions / self.window_s / 1000.0

    def sweep_jobs(self) -> List[Job]:
        return [job for job in self.jobs if job.role == "sweep"]


@dataclass
class RunLog:
    """Everything one benchmark run measured."""

    workload: WorkloadDef
    rounds: List[Round] = field(default_factory=list)
    import_samples: List[float] = field(default_factory=list)
    server_samples: List[float] = field(default_factory=list)
    shared_spec_fraction: float = 0.0


# -- checks --------------------------------------------------------------------


class TraceFacts:
    """Trace lengths per WorkloadSpec, for instruction accounting and checks.

    A single-threaded trace is exactly its instruction budget long; a
    multithreaded workload adds initialization and sync pseudo-ops, so its
    per-thread lengths come from one extra build, made outside every timed
    window and with tracing paused.
    """

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._lengths: Dict[WorkloadSpec, List[int]] = {}

    def lengths(self, workload: WorkloadSpec) -> List[int]:
        if workload not in self._lengths:
            if workload.kind == "single":
                self._lengths[workload] = [int(workload.instructions)]
            else:
                active, self._tracer.active = self._tracer.active, False
                try:
                    built = workload.build()
                finally:
                    self._tracer.active = active
                self._lengths[workload] = [len(trace) for trace in built.traces]
        return self._lengths[workload]

    def trace_instructions(self, spec: SweepSpec) -> int:
        return sum(self.lengths(spec.workload))

    def expected_timed(self, spec: SweepSpec) -> int:
        """Instructions the timed region must commit: warm-up takes at most
        ``warmup_instructions`` and at most half of each thread's trace."""
        warmup = spec.warmup_instructions
        return sum(n - min(warmup, n // 2) for n in self.lengths(spec.workload))


def check_job(job: Job, facts: TraceFacts) -> None:
    """Record a failure unless the job returned and committed its count."""
    job.trace_instructions = facts.trace_instructions(job.spec)
    if job.result is None:
        if not job.failures:
            job.failures.append("no result")
        return
    expected = facts.expected_timed(job.spec)
    committed = job.result.stats.total_instructions
    if committed != expected:
        job.failures.append(
            f"committed {committed} timed instructions, expected {expected}"
        )


def _same_stats(first: RunResult, second: RunResult) -> bool:
    """Bit-identical simulated statistics (host timings excluded)."""
    return first.stats.deterministic_dict() == second.stats.deterministic_dict()


def import_probe() -> float:
    """Wall time of a fresh interpreter importing repro and its registry."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro; repro.simulator_names()"], check=True
    )
    return time.perf_counter() - start


# -- in-process execution ------------------------------------------------------


def _execute(job: Job, tracer: Tracer, through_session: bool) -> None:
    """Run one job to a packaged payload, recording latency and any error."""
    spec = job.spec
    start = time.perf_counter()
    try:
        with tracer.job(job.job_id):
            if through_session:
                result = (
                    Session(spec.machine)
                    .simulator(spec.simulator, **dict(spec.options))
                    .workload(spec.workload)
                    .warmup(spec.warmup_instructions)
                    .run()
                )
            else:
                result = run_spec(spec)
            job.payload = result.as_dict()
        job.result = result
    except Exception:  # a failing job is counted, reported, and the run goes on
        job.failures.append(traceback.format_exc(limit=4))
    job.latency_s = time.perf_counter() - start


def _replay(jobs: List[Job], store: ResultStore, round_: Round) -> List[Optional[RunResult]]:
    """Serve the sweep of ``jobs`` once from ``store``, timing it into ``round_``.

    This is the result-store read path of a repeated sweep — content hash,
    store lookup, result decode — with no simulation.
    """
    start = time.perf_counter()
    replayed = []
    for job in jobs:
        payload = store.get_dict(job.spec.content_hash())
        replayed.append(None if payload is None else RunResult.from_dict(payload))
    round_.cached_sweep_ms.append((time.perf_counter() - start) * 1000.0)
    round_.cache_lookups += len(jobs)
    round_.cache_hits += sum(result is not None for result in replayed)
    return replayed


def _run_inprocess(
    log: RunLog, seed: int, plan: RoundPlan, tracer: Tracer, workdir: str
) -> None:
    facts = TraceFacts(tracer)
    for index, traced in plan:
        log.import_samples.extend(import_probe() for _ in range(IMPORT_PROBES))
        specs = log.workload.make_specs(round_seed(seed, index))
        round_ = Round(index=index, traced=traced)
        round_.jobs = [
            Job(job_id=f"r{index}.j{n}", spec=spec, role="sweep")
            for n, spec in enumerate(specs)
        ]
        tracer.active = traced
        start = time.perf_counter()
        for job in round_.jobs:
            _execute(job, tracer, through_session=True)
            if not round_.first_result_s:
                round_.first_result_s = time.perf_counter() - start
        round_.window_s = time.perf_counter() - start
        store = ResultStore(os.path.join(workdir, f"store-{index}"))
        for job in round_.jobs:
            if job.payload is not None:
                store.put_dict(job.spec.content_hash(), job.payload, spec=job.spec.to_dict())
        replayed = _replay(round_.jobs, store, round_)
        tracer.active = False
        for job, cached in zip(round_.jobs, replayed):
            if job.result is None:
                continue
            if cached is None:
                job.failures.append("result missing from the store on replay")
            elif not _same_stats(cached, job.result):
                job.failures.append("replayed result differs from the executed one")
        round_.trace_instructions = sum(facts.trace_instructions(s) for s in specs)
        for job in round_.jobs:
            check_job(job, facts)
        log.rounds.append(round_)


# -- job-server execution ------------------------------------------------------


class ArrivalClock:
    """Stamps the host time at which the client packages each arriving result.

    ``ServiceClient.submit`` turns every streamed result payload into a
    :class:`RunResult` with ``RunResult.from_dict`` as it arrives, and keeps
    the payload in ``SubmitOutcome.result_dicts``; while armed, this clock
    wraps that classmethod and records when each call returns, keyed by the
    payload object's ``id``.
    """

    def __init__(self) -> None:
        self.stamps: Dict[int, float] = {}

    def __enter__(self) -> "ArrivalClock":
        original = RunResult.__dict__["from_dict"]
        stamps = self.stamps

        def stamped(cls, data):
            result = original.__func__(cls, data)
            stamps[id(data)] = time.perf_counter()
            return result

        self._original = original
        RunResult.from_dict = classmethod(stamped)
        return self

    def __exit__(self, *exc_info: object) -> None:
        RunResult.from_dict = self._original


def _reap_children(timeout: float = 30.0) -> None:
    """Wait for every pool worker this process started; stop stragglers."""
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)


def _warm_spec(index: int) -> SweepSpec:
    return SweepSpec(
        simulator="oneipc",
        workload=WorkloadSpec(kind="single", benchmark="gcc", instructions=2_000, seed=index),
        machine=default_machine_config(num_cores=1),
        warmup_instructions=500,
    )


async def _run_service(
    log: RunLog, seed: int, plan: RoundPlan, tracer: Tracer, workdir: str
) -> None:
    loop = asyncio.get_running_loop()
    facts = TraceFacts(tracer)
    for index, traced in plan:
        for _ in range(IMPORT_PROBES):
            log.import_samples.append(await loop.run_in_executor(None, import_probe))
        # Every round gets its own server and store, so every round samples
        # set-up: server start, lazy pool spawn and one untimed warm job.
        server: Optional[JobServer] = None
        try:
            start = time.perf_counter()
            store = ResultStore(os.path.join(workdir, f"server-{index}"))
            server = JobServer(store=store, host="127.0.0.1", port=0, local_workers=POOL_WORKERS)
            host, port = await server.start()
            client = ServiceClient(host, port, timeout=170.0)
            await loop.run_in_executor(None, client.submit, [_warm_spec(index)])
            log.server_samples.append(time.perf_counter() - start)
            round_ = await loop.run_in_executor(
                None, _service_round, client, log.workload, seed, index, traced, tracer, facts
            )
        finally:
            tracer.active = False
            if server is not None:
                await server.stop()
            await loop.run_in_executor(None, _reap_children)
        log.rounds.append(round_)


def _service_round(
    client: ServiceClient,
    workload: WorkloadDef,
    seed: int,
    index: int,
    traced: bool,
    tracer: Tracer,
    facts: TraceFacts,
) -> Round:
    specs = workload.make_specs(round_seed(seed, index))
    round_ = Round(index=index, traced=traced)
    sweep = [
        Job(job_id=f"r{index}.j{n}", spec=spec, role="sweep")
        for n, spec in enumerate(specs)
    ]
    round_.jobs = list(sweep)

    def fail_sweep(message: str) -> None:
        for job in sweep:
            job.failures.append(message)

    tracer.active = traced
    first = None
    start = time.perf_counter()
    try:
        with ArrivalClock() as clock:
            first = client.submit(specs)
        stamps = [clock.stamps[id(payload)] for payload in first.result_dicts]
    except Exception:
        first = None
        fail_sweep(traceback.format_exc(limit=4))
    if first is not None:
        round_.window_s = max(stamps) - start
        round_.first_result_s = min(stamps) - start
        for job, stamp, result, payload in zip(
            sweep, stamps, first.results, first.result_dicts
        ):
            job.latency_s = stamp - start
            job.result, job.payload = result, payload
        if first.executed != len(specs):
            fail_sweep(f"first submission executed {first.executed} of {len(specs)}")
        again = None
        for _ in range(CACHED_REPEATS):
            start = time.perf_counter()
            try:
                again = client.submit(specs)
            except Exception:
                fail_sweep(traceback.format_exc(limit=4))
                again = None
                break
            round_.cached_sweep_ms.append((time.perf_counter() - start) * 1000.0)
            round_.cache_lookups += again.total
            round_.cache_hits += again.cached
            if again.executed or again.cached != len(specs):
                fail_sweep(
                    f"resubmission executed {again.executed} and served "
                    f"{again.cached} of {len(specs)} from the store"
                )
        if again is not None:
            for job, payload, result in zip(sweep, again.result_dicts, again.results):
                if payload != job.payload or not _same_stats(result, job.result):
                    job.failures.append("cached result differs from the executed one")

    # In-process references, in the accuracy round only: each interval job
    # again through run_spec, which must match the served result bit for
    # bit, and its detailed twin for the IPC error.
    for job in sweep if index == 0 else ():
        if job.spec.simulator != "interval":
            continue
        for spec in (job.spec, job.spec.with_simulator("detailed")):
            reference = Job(
                job_id=f"{job.job_id}.{spec.simulator}",
                spec=spec,
                role="reference",
            )
            _execute(reference, tracer, through_session=False)
            round_.jobs.append(reference)
            if (
                spec is job.spec
                and job.result is not None
                and reference.result is not None
                and not _same_stats(reference.result, job.result)
            ):
                job.failures.append("in-process run_spec differs from the served result")
    tracer.active = False
    round_.trace_instructions = sum(facts.trace_instructions(s) for s in specs)
    for job in round_.jobs:
        check_job(job, facts)
    return round_


# -- entry point ---------------------------------------------------------------


def shared_spec_fraction(rounds: List[Round]) -> float:
    """Share of sweep jobs whose WorkloadSpec an earlier job already ran."""
    seen = set()
    shared = total = 0
    for round_ in rounds:
        for job in round_.sweep_jobs():
            total += 1
            shared += job.spec.workload in seen
            seen.add(job.spec.workload)
    return shared / total if total else 0.0


def run_workload(
    workload: WorkloadDef,
    seed: int,
    plan: RoundPlan,
    tracer: Tracer,
    workdir: str,
) -> RunLog:
    """Execute every round of ``workload`` and return what was measured."""
    log = RunLog(workload=workload)
    os.makedirs(workdir, exist_ok=True)
    try:
        if workload.service:
            asyncio.run(_run_service(log, seed, plan, tracer, workdir))
        else:
            _run_inprocess(log, seed, plan, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    log.shared_spec_fraction = shared_spec_fraction(log.rounds)
    return log
