"""Statistics collection for the simulators.

Every simulator in the package (interval, detailed, one-IPC) records its
activity into a :class:`CoreStats` per simulated core plus a
:class:`SimulationStats` aggregate.  The statistics are intentionally
simulator-agnostic: accuracy comparisons in the experiment harness only need
cycles, instruction counts and miss-event counts from both simulators.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Mapping, Optional

__all__ = [
    "Counter",
    "CoreStats",
    "SimulationStats",
    "Stopwatch",
]


class Counter:
    """A named event counter with convenience accumulation helpers."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` to the counter."""
        self.value += amount

    def reset(self) -> None:
        """Reset the counter to zero."""
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Counter({self.name!r}, {self.value})"


@dataclass
class CoreStats:
    """Per-core statistics recorded by a timing simulator.

    The miss-event counters follow the interval taxonomy of the paper:
    I-cache/I-TLB misses, branch mispredictions, long-latency loads and
    serializing instructions; these are the events that delimit intervals.
    """

    core_id: int = 0
    instructions: int = 0
    cycles: int = 0
    # Miss events (interval delimiters).
    icache_misses: int = 0
    itlb_misses: int = 0
    branch_lookups: int = 0
    branch_mispredictions: int = 0
    dcache_accesses: int = 0
    l1d_misses: int = 0
    dtlb_misses: int = 0
    long_latency_loads: int = 0
    serializing_instructions: int = 0
    # Second-order / overlap bookkeeping (interval simulator only).
    overlapped_icache_accesses: int = 0
    overlapped_branches: int = 0
    overlapped_loads: int = 0
    # Synchronization behaviour (multi-threaded workloads).
    sync_stall_cycles: int = 0
    barrier_waits: int = 0
    lock_acquisitions: int = 0
    lock_contended: int = 0
    # Miscellaneous.
    dispatch_stall_cycles: int = 0
    committed_stores: int = 0
    committed_loads: int = 0
    # Issue-queue observability (detailed model only).  These measure
    # host-side scheduler traffic — how many wake notifications the
    # event-driven issue queue delivered, how many per-cycle ready scans it
    # avoided, and the largest ready set it ever popped in one cycle — not
    # simulated behavior, so like the driver counters they are excluded from
    # deterministic comparisons (the scan and event-driven issue paths
    # produce identical simulated statistics but different traffic).
    issue_wakeups: int = 0
    issue_scans_skipped: int = 0
    ready_bucket_peak: int = 0
    # Fault-injection observability (populated only when a fault plan is
    # armed).  These count injected fault events, the re-fetches they forced,
    # and flaky-DRAM retries and the extra cycles those retries (plus
    # degraded links) charged.  They describe the injection machinery rather
    # than the simulated machine, so they are excluded from deterministic
    # comparisons.
    faults_injected: int = 0
    refetches_forced: int = 0
    dram_retries: int = 0
    retry_cycles: int = 0
    # CPI-stack components (cycles attributed to each penalty class by the
    # interval model; the detailed model leaves them at zero).
    base_cycles: int = 0
    icache_penalty_cycles: int = 0
    branch_penalty_cycles: int = 0
    long_load_penalty_cycles: int = 0
    serializing_penalty_cycles: int = 0

    @property
    def ipc(self) -> float:
        """Instructions per cycle committed by this core."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def cpi(self) -> float:
        """Cycles per instruction committed by this core."""
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions

    @property
    def branch_misprediction_rate(self) -> float:
        """Mispredictions per executed branch."""
        if self.branch_lookups == 0:
            return 0.0
        return self.branch_mispredictions / self.branch_lookups

    @property
    def miss_events(self) -> int:
        """Total miss events (interval delimiters) this core saw.

        The interval taxonomy of the paper: I-cache and I-TLB misses, branch
        mispredictions, long-latency loads and serializing instructions.
        This is the event count the interval-at-a-time kernel pays real work
        for — everything between two events is charged arithmetically — so
        ``miss_events / instructions`` is the lever behind simulation speed.
        """
        return (
            self.icache_misses
            + self.itlb_misses
            + self.branch_mispredictions
            + self.long_latency_loads
            + self.serializing_instructions
        )

    @property
    def l1d_miss_rate(self) -> float:
        """L1 D-cache misses per data-cache access."""
        if self.dcache_accesses == 0:
            return 0.0
        return self.l1d_misses / self.dcache_accesses

    def merge(self, other: "CoreStats") -> None:
        """Accumulate another core's statistics into this one."""
        for field_name in (
            "instructions",
            "cycles",
            "icache_misses",
            "itlb_misses",
            "branch_lookups",
            "branch_mispredictions",
            "dcache_accesses",
            "l1d_misses",
            "dtlb_misses",
            "long_latency_loads",
            "serializing_instructions",
            "overlapped_icache_accesses",
            "overlapped_branches",
            "overlapped_loads",
            "sync_stall_cycles",
            "barrier_waits",
            "lock_acquisitions",
            "lock_contended",
            "dispatch_stall_cycles",
            "committed_stores",
            "committed_loads",
            "issue_wakeups",
            "issue_scans_skipped",
            "faults_injected",
            "refetches_forced",
            "dram_retries",
            "retry_cycles",
            "base_cycles",
            "icache_penalty_cycles",
            "branch_penalty_cycles",
            "long_load_penalty_cycles",
            "serializing_penalty_cycles",
        ):
            setattr(self, field_name, getattr(self, field_name) + getattr(other, field_name))
        # The peak is a high-water mark, not a flow: merge by max.
        self.ready_bucket_peak = max(self.ready_bucket_peak, other.ready_bucket_peak)

    def as_dict(self) -> Dict[str, float]:
        """Return a flat dictionary of all counters plus derived rates."""
        result = {
            "core_id": self.core_id,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "cpi": self.cpi,
            "icache_misses": self.icache_misses,
            "itlb_misses": self.itlb_misses,
            "branch_lookups": self.branch_lookups,
            "branch_mispredictions": self.branch_mispredictions,
            "branch_misprediction_rate": self.branch_misprediction_rate,
            "dcache_accesses": self.dcache_accesses,
            "l1d_misses": self.l1d_misses,
            "l1d_miss_rate": self.l1d_miss_rate,
            "dtlb_misses": self.dtlb_misses,
            "long_latency_loads": self.long_latency_loads,
            "serializing_instructions": self.serializing_instructions,
            "overlapped_icache_accesses": self.overlapped_icache_accesses,
            "overlapped_branches": self.overlapped_branches,
            "overlapped_loads": self.overlapped_loads,
            "sync_stall_cycles": self.sync_stall_cycles,
            "barrier_waits": self.barrier_waits,
            "lock_acquisitions": self.lock_acquisitions,
            "lock_contended": self.lock_contended,
            "dispatch_stall_cycles": self.dispatch_stall_cycles,
            "committed_stores": self.committed_stores,
            "committed_loads": self.committed_loads,
            "issue_wakeups": self.issue_wakeups,
            "issue_scans_skipped": self.issue_scans_skipped,
            "ready_bucket_peak": self.ready_bucket_peak,
            "faults_injected": self.faults_injected,
            "refetches_forced": self.refetches_forced,
            "dram_retries": self.dram_retries,
            "retry_cycles": self.retry_cycles,
            "base_cycles": self.base_cycles,
            "icache_penalty_cycles": self.icache_penalty_cycles,
            "branch_penalty_cycles": self.branch_penalty_cycles,
            "long_load_penalty_cycles": self.long_load_penalty_cycles,
            "serializing_penalty_cycles": self.serializing_penalty_cycles,
        }
        return result

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CoreStats":
        """Rebuild per-core statistics from an :meth:`as_dict` dictionary.

        Derived keys (``ipc``, ``cpi``, rate fields) present in the
        dictionary are ignored — they are recomputed from the counters.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})

    def cpi_stack(self) -> Dict[str, float]:
        """Per-instruction cycle breakdown (CPI stack) recorded by the model.

        Only meaningful for simulators that attribute penalties to miss-event
        classes (the interval and one-IPC models); components are normalized
        by the committed instruction count.
        """
        if self.instructions == 0:
            return {}
        return {
            "base": self.base_cycles / self.instructions,
            "icache": self.icache_penalty_cycles / self.instructions,
            "branch": self.branch_penalty_cycles / self.instructions,
            "memory": self.long_load_penalty_cycles / self.instructions,
            "serializing": self.serializing_penalty_cycles / self.instructions,
            "sync": self.sync_stall_cycles / self.instructions,
        }


@dataclass
class SimulationStats:
    """Aggregate statistics of one simulation run.

    Attributes
    ----------
    cores:
        Per-core statistics, indexed by core id.
    total_cycles:
        Multi-core simulated time (cycles) at the end of the run.
    wall_clock_seconds:
        Host wall-clock time taken by the simulation — used for the
        Figure 9/10 simulation-speedup experiments.
    simulator:
        Name of the simulator that produced the run ("interval", "detailed",
        "oneipc"), recorded so result tables can label their rows.
    driver_stats:
        Event-driver observability counters (``events_popped``,
        ``cores_parked``, ``park_cycles_skipped``).  They quantify host-side
        heap traffic, not simulated behavior — like wall-clock time they are
        excluded from :meth:`deterministic_dict` (the spin and parked
        drivers produce identical simulated statistics but very different
        heap-pop counts).
    """

    cores: List[CoreStats] = field(default_factory=list)
    total_cycles: int = 0
    wall_clock_seconds: float = 0.0
    simulator: str = ""
    memory_stats: Dict[str, int] = field(default_factory=dict)
    driver_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def num_cores(self) -> int:
        """Number of cores in the simulated machine."""
        return len(self.cores)

    @property
    def total_instructions(self) -> int:
        """Total instructions committed across all cores."""
        return sum(core.instructions for core in self.cores)

    @property
    def aggregate_ipc(self) -> float:
        """Chip-level IPC: total instructions over multi-core cycles."""
        if self.total_cycles == 0:
            return 0.0
        return self.total_instructions / self.total_cycles

    def core_ipcs(self) -> List[float]:
        """Per-core IPC values."""
        return [core.ipc for core in self.cores]

    def per_core_cycles(self) -> List[int]:
        """Per-core cycle counts (completion time of each core)."""
        return [core.cycles for core in self.cores]

    def simulated_kips(self) -> float:
        """Simulation throughput in thousands of simulated instructions/second."""
        if self.wall_clock_seconds <= 0:
            return 0.0
        return self.total_instructions / self.wall_clock_seconds / 1000.0

    @property
    def total_miss_events(self) -> int:
        """Total miss events (interval delimiters) across all cores."""
        return sum(core.miss_events for core in self.cores)

    @property
    def events_per_instruction(self) -> float:
        """Miss events per committed instruction (the interval density)."""
        instructions = self.total_instructions
        if instructions == 0:
            return 0.0
        return self.total_miss_events / instructions

    @property
    def issue_wakeups(self) -> int:
        """Total issue-queue wake notifications across all cores.

        Nonzero only for the detailed model's event-driven issue queue;
        host-side observability (excluded from :meth:`deterministic_dict`).
        """
        return sum(core.issue_wakeups for core in self.cores)

    @property
    def issue_scans_skipped(self) -> int:
        """Total issue-stage cycles skipped without scanning, across cores."""
        return sum(core.issue_scans_skipped for core in self.cores)

    @property
    def ready_bucket_peak(self) -> int:
        """Largest same-cycle ready set any core's issue stage ever merged."""
        return max(
            (core.ready_bucket_peak for core in self.cores), default=0
        )

    @property
    def data_runs_committed(self) -> int:
        """Always 0: the D-side run commits this counted no longer exist.

        Kept only because the repository benchmark's per-layer report
        (``perfbench/bench_report.py``, metric ``memory.data_runs_committed``)
        still reads it; remove it together with that metric.
        """
        return 0

    @property
    def faults_injected(self) -> int:
        """Total fault events applied by the injector, all cores.

        Nonzero only when a fault plan was armed; host-side observability
        (excluded from :meth:`deterministic_dict`).
        """
        return sum(core.faults_injected for core in self.cores)

    @property
    def refetches_forced(self) -> int:
        """Total cache lines dropped/corrupted that forced a re-fetch."""
        return sum(core.refetches_forced for core in self.cores)

    @property
    def dram_retries(self) -> int:
        """Total flaky-DRAM retry rounds charged across all cores."""
        return sum(core.dram_retries for core in self.cores)

    @property
    def retry_cycles(self) -> int:
        """Total extra cycles charged by DRAM retries and degraded links."""
        return sum(core.retry_cycles for core in self.cores)

    def as_dict(self) -> Dict[str, object]:
        """Flatten the run's statistics for reporting."""
        return {
            "simulator": self.simulator,
            "num_cores": self.num_cores,
            "total_cycles": self.total_cycles,
            "total_instructions": self.total_instructions,
            "aggregate_ipc": self.aggregate_ipc,
            "wall_clock_seconds": self.wall_clock_seconds,
            "cores": [core.as_dict() for core in self.cores],
            "memory": dict(self.memory_stats),
            "driver": dict(self.driver_stats),
        }

    def deterministic_dict(self) -> Dict[str, object]:
        """:meth:`as_dict` without host-dependent timing or driver traffic.

        Wall-clock time varies run to run even for identical simulations,
        and the driver counters measure host-side heap traffic (which the
        parked and spin drivers trade off differently while producing
        identical simulated results), so reproducibility checks (e.g.
        parallel-versus-sequential sweeps, the golden corpus, the
        spin/parked equivalence rig) compare this dictionary instead of
        :meth:`as_dict`.
        """
        result = self.as_dict()
        result.pop("wall_clock_seconds", None)
        result.pop("driver", None)
        # Per-core issue-queue traffic counters are host-side observability,
        # not simulated behavior (scan vs event-driven issue differ here).
        for core in result["cores"]:
            core.pop("issue_wakeups", None)
            core.pop("issue_scans_skipped", None)
            core.pop("ready_bucket_peak", None)
            # Fault-injection observability: injector bookkeeping, not
            # simulated behavior.
            core.pop("faults_injected", None)
            core.pop("refetches_forced", None)
            core.pop("dram_retries", None)
            core.pop("retry_cycles", None)
        return result

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SimulationStats":
        """Rebuild run statistics from an :meth:`as_dict` dictionary."""
        return cls(
            cores=[CoreStats.from_dict(core) for core in data.get("cores", [])],
            total_cycles=int(data.get("total_cycles", 0)),
            wall_clock_seconds=float(data.get("wall_clock_seconds", 0.0)),
            simulator=str(data.get("simulator", "")),
            memory_stats={
                str(key): int(value)
                for key, value in dict(data.get("memory", {})).items()
            },
            driver_stats={
                str(key): int(value)
                for key, value in dict(data.get("driver", {})).items()
            },
        )


class Stopwatch:
    """Wall-clock stopwatch used for simulation-speed measurements."""

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def start(self) -> None:
        """Start (or restart) the stopwatch."""
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop the stopwatch and return the accumulated elapsed time."""
        if self._start is not None:
            self.elapsed += time.perf_counter() - self._start
            self._start = None
        return self.elapsed
