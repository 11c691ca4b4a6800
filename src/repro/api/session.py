"""The `Session` front door: build, run and fan out simulation jobs.

This module is the canonical way to run anything in the repository.  A
:class:`Session` is a fluent builder over the simulator registry and the
declarative spec layer::

    from repro.api import Session

    result = (
        Session(machine)
        .simulator("interval", use_old_window=False)
        .workload("gcc", instructions=60_000)
        .warmup(30_000)
        .run()
    )
    print(result.ipc)

Design-space sweeps fan the same specs out across worker processes::

    specs = [session.spec().with_simulator(name) for name in ("interval", "detailed")]
    results = Session.run_batch(specs, workers=4)

Batch execution is deterministic: each job's workload is a pure function of
its :class:`~repro.api.spec.WorkloadSpec`, built in the process that runs the
job, so the returned statistics are bit-identical to a sequential run of the
same specs (modulo wall-clock time — compare with
:meth:`repro.common.stats.SimulationStats.deterministic_dict`).

Sweeps are built workload-major (one trace, many timing models or machine
configurations), so :func:`run_spec` keeps a one-entry memo of the last built
workload, keyed by the frozen ``WorkloadSpec``: back-to-back jobs on the same
spec synthesize the trace once and share it, columnar batch included.  This
is exact because no timing model, the multicore driver or the fault injector
writes to a ``Workload``, ``ThreadTrace``, ``Instruction`` or ``TraceBatch``
after it is built.  A miss drops the old entry before building, so at most one
memoized workload is alive per process; that last workload, with its cached
columns, stays alive after its jobs return, until the next miss replaces it.  :meth:`WorkloadSpec.build` itself is
unchanged and still returns a fresh, caller-owned workload.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..common.config import MachineConfig, default_machine_config
from ..common.stats import SimulationStats
from ..faults.plan import FaultPlan
from ..trace.stream import Workload
from .registry import DEFAULT_REGISTRY, SimulatorRegistry
from .results import RunResult
from .spec import SweepSpec, WorkloadSpec

__all__ = ["Session", "run_spec", "run_specs"]

# The last workload run_spec built, with the spec it was built from.
_last_workload: Optional[Tuple[WorkloadSpec, Workload]] = None


def _memoized_workload(spec: WorkloadSpec) -> Workload:
    """Return the workload for ``spec``, building it only on a memo miss."""
    global _last_workload
    # Read the entry once: a thread that replaces it between the key check
    # and the return must not hand this caller another spec's workload.
    entry = _last_workload
    if entry is not None and entry[0] == spec:
        return entry[1]
    # Drop the old entry, this frame's reference included, before building,
    # so two built workloads are never alive at once.
    entry = _last_workload = None
    workload = spec.build()
    _last_workload = (spec, workload)
    return workload


def run_spec(spec: SweepSpec, registry: Optional[SimulatorRegistry] = None) -> RunResult:
    """Execute one job described by ``spec`` and package the result.

    This is the single execution path shared by :meth:`Session.run`,
    :meth:`Session.run_batch` workers and the CLI — everything that runs a
    simulator funnels through here.
    """
    active_registry = registry if registry is not None else DEFAULT_REGISTRY
    simulator = active_registry.create(spec.simulator, spec.machine, **spec.options)
    workload = _memoized_workload(spec.workload)
    stats = simulator.run(
        workload,
        max_cycles=spec.max_cycles,
        warmup_instructions=spec.warmup_instructions,
        fault_plan=spec.faults,
    )
    return RunResult(
        simulator=spec.simulator,
        workload=spec.workload.display_name,
        stats=stats,
        parameters=spec.describe(),
        label=spec.label,
    )


def run_specs(
    specs: Sequence[SweepSpec], workers: int = 1
) -> List[RunResult]:
    """Execute ``specs`` in order, optionally across worker processes.

    With ``workers <= 1`` the jobs run sequentially in this process.  With
    more workers a :mod:`multiprocessing` pool executes them; results are
    returned in spec order either way, and the statistics are identical to
    the sequential run because every worker builds its workloads from their
    specs (no shared mutable state crosses the process boundary).  Each
    process memoizes only its last built workload (see the module docstring),
    so workload-major spec orders synthesize each trace once per process.
    """
    jobs = list(specs)
    if workers <= 1 or len(jobs) <= 1:
        return [run_spec(spec) for spec in jobs]
    processes = min(workers, len(jobs))
    with multiprocessing.Pool(processes=processes) as pool:
        return pool.map(run_spec, jobs)


class Session:
    """Fluent builder for simulation jobs on top of the simulator registry.

    Every setter returns ``self`` so calls chain; :meth:`run` executes the
    configured job, :meth:`spec` freezes it into a picklable
    :class:`~repro.api.spec.SweepSpec` for batching.
    """

    def __init__(
        self,
        machine: Optional[MachineConfig] = None,
        registry: Optional[SimulatorRegistry] = None,
    ) -> None:
        self._machine = machine if machine is not None else default_machine_config()
        self._registry = registry if registry is not None else DEFAULT_REGISTRY
        self._simulator = "interval"
        self._options: Dict[str, object] = {}
        self._workload_spec: Optional[WorkloadSpec] = None
        self._workload_obj: Optional[Workload] = None
        self._warmup = 0
        self._max_cycles: Optional[int] = None
        self._label = ""
        self._faults: Optional[FaultPlan] = None

    # -- builder setters ---------------------------------------------------------

    def machine(self, machine: MachineConfig) -> "Session":
        """Set the machine configuration to simulate."""
        self._machine = machine
        return self

    def cores(self, num_cores: int) -> "Session":
        """Resize the current machine to ``num_cores`` cores."""
        self._machine = self._machine.with_cores(num_cores)
        return self

    def simulator(self, name: str, **options: object) -> "Session":
        """Select the timing model by registry name, with model options.

        The name and options are validated against the registry immediately,
        so mistakes fail at build time rather than mid-sweep.
        """
        entry = self._registry.get(name)
        self._options = entry.validate_options(dict(options))
        self._simulator = name
        return self

    def workload(
        self,
        workload: Union[str, Workload, WorkloadSpec],
        instructions: Optional[int] = None,
        seed: int = 0,
    ) -> "Session":
        """Set the workload: a benchmark name, a spec, or a built Workload.

        A benchmark name builds a single-threaded workload; use
        :meth:`multiprogram` / :meth:`multithreaded` for the other shapes, or
        pass a :class:`~repro.api.spec.WorkloadSpec` directly.
        """
        if isinstance(workload, Workload):
            self._workload_obj = workload
            self._workload_spec = None
        elif isinstance(workload, WorkloadSpec):
            self._workload_spec = workload
            self._workload_obj = None
        else:
            self._workload_spec = WorkloadSpec(
                kind="single",
                benchmark=workload,
                instructions=instructions,
                seed=seed,
            )
            self._workload_obj = None
        return self

    def multiprogram(
        self,
        benchmark: str,
        copies: int,
        instructions: Optional[int] = None,
        seed: int = 0,
    ) -> "Session":
        """Run ``copies`` independent instances of ``benchmark``, one per core."""
        self._workload_spec = WorkloadSpec(
            kind="multiprogram",
            benchmark=benchmark,
            copies=copies,
            instructions=instructions,
            seed=seed,
        )
        self._workload_obj = None
        if self._machine.num_cores < copies:
            self._machine = self._machine.with_cores(copies)
        return self

    def multithreaded(
        self,
        benchmark: str,
        threads: int,
        total_instructions: Optional[int] = None,
        seed: int = 0,
    ) -> "Session":
        """Run one PARSEC-like parallel program across ``threads`` cores."""
        self._workload_spec = WorkloadSpec(
            kind="multithreaded",
            benchmark=benchmark,
            copies=threads,
            instructions=total_instructions,
            seed=seed,
        )
        self._workload_obj = None
        if self._machine.num_cores < threads:
            self._machine = self._machine.with_cores(threads)
        return self

    def warmup(self, instructions: int) -> "Session":
        """Set the functional cache/predictor warm-up length per thread."""
        self._warmup = instructions
        return self

    def max_cycles(self, cycles: Optional[int]) -> "Session":
        """Set the simulated-time safety bound."""
        self._max_cycles = cycles
        return self

    def label(self, text: str) -> "Session":
        """Attach a free-form tag carried into the result."""
        self._label = text
        return self

    def faults(self, plan: Optional[FaultPlan]) -> "Session":
        """Arm a deterministic fault schedule (``None`` disarms it).

        The plan travels with the frozen spec, so faulted jobs batch, hash,
        cache and serve exactly like fault-free ones — an empty plan is
        normalized to ``None`` so it cannot perturb the spec's content hash.
        """
        if plan is not None and plan.is_empty:
            plan = None
        self._faults = plan
        return self

    # -- execution ---------------------------------------------------------------

    def spec(self) -> SweepSpec:
        """Freeze the session into a picklable job description.

        Raises when the workload was supplied as a pre-built
        :class:`~repro.trace.stream.Workload` object: those are not
        reproducible-by-seed, so they cannot be shipped to batch workers.
        """
        if self._workload_spec is None:
            if self._workload_obj is not None:
                raise ValueError(
                    "cannot freeze a Session built around a materialized "
                    "Workload object; describe the workload declaratively "
                    "(benchmark name / WorkloadSpec) to batch it"
                )
            raise ValueError("no workload configured; call .workload(...) first")
        return SweepSpec(
            simulator=self._simulator,
            workload=self._workload_spec,
            machine=self._machine,
            options=dict(self._options),
            warmup_instructions=self._warmup,
            max_cycles=self._max_cycles,
            label=self._label,
            faults=self._faults,
        )

    def run(self) -> RunResult:
        """Execute the configured job in this process."""
        if self._workload_obj is not None:
            simulator = self._registry.create(
                self._simulator, self._machine, **self._options
            )
            stats = simulator.run(
                self._workload_obj,
                max_cycles=self._max_cycles,
                warmup_instructions=self._warmup,
                fault_plan=self._faults,
            )
            return RunResult(
                simulator=self._simulator,
                workload=self._workload_obj.name,
                stats=stats,
                parameters={
                    "simulator": self._simulator,
                    # Mirror SweepSpec.describe()'s shape so consumers can
                    # always read parameters["workload"]; a prebuilt Workload
                    # is not seed-reproducible, which "prebuilt" records.
                    "workload": {
                        "kind": "prebuilt",
                        "name": self._workload_obj.name,
                    },
                    "options": dict(self._options),
                    "warmup_instructions": self._warmup,
                    "max_cycles": self._max_cycles,
                    "num_cores": self._machine.num_cores,
                    "label": self._label,
                    **(
                        {"faults": self._faults.as_dict()}
                        if self._faults is not None
                        else {}
                    ),
                },
                label=self._label,
            )
        return run_spec(self.spec(), registry=self._registry)

    def stats(self) -> SimulationStats:
        """Execute the configured job and return only its statistics."""
        return self.run().stats

    def run_remote(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: Optional[float] = 600.0,
        connect_timeout: Optional[float] = None,
        connect_retries: int = 0,
        retry_backoff: float = 0.1,
    ) -> RunResult:
        """Execute the configured job on a running ``repro serve`` instance.

        The job is frozen via :meth:`spec`, shipped to the server, dedup'd
        against its content-addressed result store and executed only if no
        cached result exists — because runs are bit-reproducible from their
        spec, a cache hit returns *exactly* what an execution would.

        ``connect_timeout`` bounds each connection attempt separately from
        the request ``timeout``; ``connect_retries`` extra attempts are made
        with exponential backoff (``retry_backoff * 2**attempt`` seconds)
        when the server is not accepting yet — useful when the client races
        a server that is still binding its socket.
        """
        return Session.run_batch_remote(
            [self.spec()],
            host=host,
            port=port,
            timeout=timeout,
            connect_timeout=connect_timeout,
            connect_retries=connect_retries,
            retry_backoff=retry_backoff,
        )[0]

    @staticmethod
    def run_batch_remote(
        specs: Sequence[Union[SweepSpec, "Session"]],
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: Optional[float] = 600.0,
        connect_timeout: Optional[float] = None,
        connect_retries: int = 0,
        retry_backoff: float = 0.1,
    ) -> List[RunResult]:
        """Execute many jobs on a running ``repro serve`` instance.

        The remote counterpart of :meth:`run_batch`: results come back in
        input order and are bit-identical to a local sequential run of the
        same specs.  Repeat submissions are served from the server's result
        store without executing anything.  See :meth:`run_remote` for the
        connection-robustness parameters.
        """
        from ..service.client import ServiceClient
        from ..service.protocol import DEFAULT_HOST, DEFAULT_PORT

        jobs = [job.spec() if isinstance(job, Session) else job for job in specs]
        client = ServiceClient(
            host=host if host is not None else DEFAULT_HOST,
            port=port if port is not None else DEFAULT_PORT,
            timeout=timeout,
            connect_timeout=connect_timeout,
            connect_retries=connect_retries,
            retry_backoff=retry_backoff,
        )
        return client.submit(jobs).results

    @staticmethod
    def run_batch(
        specs: Sequence[Union[SweepSpec, "Session"]], workers: int = 1
    ) -> List[RunResult]:
        """Execute many jobs, fanning out over ``workers`` processes.

        Accepts :class:`~repro.api.spec.SweepSpec` objects or (declarative)
        sessions, which are frozen via :meth:`spec`.  Results come back in
        input order with statistics identical to a sequential run.

        Sessions built on a custom registry keep it when the batch runs
        sequentially; fanning them out over worker processes raises, because
        a custom registry cannot cross the process boundary (bare specs
        always resolve through the default registry).
        """
        jobs: List[SweepSpec] = []
        registries: List[Optional[SimulatorRegistry]] = []
        for job in specs:
            if isinstance(job, Session):
                jobs.append(job.spec())
                registries.append(job._registry)
            else:
                jobs.append(job)
                registries.append(None)
        if workers <= 1 or len(jobs) <= 1:
            return [
                run_spec(spec, registry=registry)
                for spec, registry in zip(jobs, registries)
            ]
        custom = [
            spec.simulator
            for spec, registry in zip(jobs, registries)
            if registry is not None and registry is not DEFAULT_REGISTRY
        ]
        if custom:
            raise ValueError(
                "sessions with a custom SimulatorRegistry cannot be fanned out "
                f"across worker processes (jobs: {custom}); register the "
                "simulators in the default registry or run with workers=1"
            )
        return run_specs(jobs, workers=workers)
