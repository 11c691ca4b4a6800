"""Arithmetic of the benchmark: errors, ratios, self time, metric records.

Nothing here imports :mod:`repro`, so the benchmark's own tests exercise
these functions without running a simulation.
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Metric names: a letter or digit first, then letters, digits, ``_ . -``.
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Units: letters, digits, ``_ / % . -``.
_UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def validate_metric_name(name: str) -> str:
    """Return ``name`` if it is a legal metric name, else raise ValueError."""
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ValueError(f"illegal metric name {name!r}")
    return name


def validate_unit(unit: str) -> str:
    """Return ``unit`` if it is a legal unit, else raise ValueError."""
    if not isinstance(unit, str) or not _UNIT_RE.fullmatch(unit):
        raise ValueError(f"illegal metric unit {unit!r}")
    return unit


def ipc_error_pct(interval_ipc: float, detailed_ipc: float) -> float:
    """Relative IPC error of the interval model against the detailed one, in %.

    The paper's definition: ``|IPC_interval - IPC_detailed| / IPC_detailed``.
    Both runs commit the same instructions, so this is also the error in
    simulated execution time relative to the interval run's cycles.
    """
    if detailed_ipc <= 0:
        raise ValueError("detailed IPC must be positive")
    return abs(interval_ipc - detailed_ipc) / detailed_ipc * 100.0


def ipc_error_summary(pairs: Iterable[Tuple[float, float]]) -> Tuple[float, float]:
    """``(average, maximum)`` IPC error in % over ``(interval, detailed)`` pairs."""
    errors = [ipc_error_pct(interval, detailed) for interval, detailed in pairs]
    if not errors:
        raise ValueError("no interval/detailed pairs to compare")
    return sum(errors) / len(errors), max(errors)


def fail_ratio(failed: int, attempted: int) -> float:
    """Failed jobs over attempted jobs."""
    if attempted <= 0:
        raise ValueError("no jobs attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def per_kilo(count: float, instructions: float) -> float:
    """``count`` per thousand instructions."""
    if instructions <= 0:
        raise ValueError("instruction count must be positive")
    return count * 1000.0 / instructions


def kips(instructions: float, seconds: float) -> float:
    """Thousand instructions per host second."""
    if seconds <= 0:
        raise ValueError("elapsed time must be positive")
    return instructions / seconds / 1000.0


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median.

    Quartiles are :func:`statistics.quantiles` with ``n=4`` (its default
    "exclusive" method), the figure a steadiness check compares to a bound.
    """
    if len(values) < 2:
        raise ValueError("need at least two values for a spread")
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    if middle == 0:
        raise ValueError("spread of values whose median is 0")
    return (third - first) / abs(middle)


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    covered = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for start, end in clipped:
        if run_start is None or start > run_end:
            if run_start is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_start is not None:
        covered += run_end - run_start
    return covered


def self_times(
    spans: Sequence[Tuple[float, float, Optional[int]]]
) -> List[float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` holds ``(start, end, parent_index)`` tuples.  Children may
    overlap each other (a parent whose children run on several threads), so
    the covered part is the union of the children's intervals, clipped to
    the parent.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered_length(children.get(index, ()), start, end)
        for index, (start, end, _) in enumerate(spans)
    ]


def metric(value: float, unit: str) -> Dict[str, object]:
    """One metric record as the result line carries it."""
    return {"value": float(value), "unit": validate_unit(unit)}


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Dict[str, object]],
) -> Dict[str, object]:
    """The benchmark's final JSON object, with every metric name checked."""
    for name in metrics:
        validate_metric_name(name)
    if attempted < 1:
        raise ValueError("a run attempts at least one job")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
