"""Timing harness shared by all experiment drivers (Section 5).

The paper reports wall-clock times averaged over repeated trials.  The
helpers here do the same: :func:`timed` measures one call, :func:`average_time`
repeats it, :func:`quartiles` reduces repeated samples to a median with its
spread, and :func:`format_table` renders the result rows the way the
figures report them (one row per sweep point).

Experiment output goes through :func:`report`, which logs on the
``repro.experiments`` logger instead of printing: the library stays silent
by default (``repro`` installs a ``NullHandler``), and the CLI entry points
install a stdout handler via :func:`repro.obs.install_cli_handler`.
Machine-readable output (``--json``) still prints — it is the program's
result, not a progress report.
"""

from __future__ import annotations

import logging
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

LOGGER = logging.getLogger(__name__)


def report(message: str = "") -> None:
    """Emit one line of human-readable experiment output.

    Routed through the ``repro.experiments.runner`` logger so that library
    users never see driver chatter unless a handler is installed; the
    drivers' ``main()`` functions install one
    (:func:`repro.obs.install_cli_handler`) so command-line behaviour is
    unchanged.
    """
    LOGGER.info("%s", message)


@dataclass
class Measurement:
    """One timed call: the wall-clock seconds and the call's return value."""

    seconds: float
    result: object = None


def timed(function: Callable[[], object]) -> Measurement:
    """Run ``function`` once and measure its wall-clock time."""
    started = time.perf_counter()
    result = function()
    return Measurement(seconds=time.perf_counter() - started, result=result)


def average_time(
    function: Callable[[], object], repeats: int = 3, warmup: int = 0
) -> float:
    """Average wall-clock seconds of ``function`` over ``repeats`` runs."""
    for _ in range(max(warmup, 0)):
        function()
    samples = [timed(function).seconds for _ in range(max(repeats, 1))]
    return statistics.fmean(samples)


def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """The 25th percentile, median and 75th percentile of ``samples``.

    Inclusive quartiles (the samples are the whole population); a single
    sample is its own spread.
    """
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    p25, median, p75 = statistics.quantiles(samples, n=4, method="inclusive")
    return p25, median, p75


def per_unit(seconds: float, units: int) -> float:
    """Seconds per size unit, the normalization quoted in Section 5."""
    if units <= 0:
        return math.nan
    return seconds / units


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.6f}",
) -> str:
    """Render result rows as a fixed-width text table."""
    if not rows:
        return "(no data)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column)
            if value is None:
                cells.append("-")
            elif isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [max(len(line[i]) for line in rendered) for i in range(len(columns))]
    lines = []
    for index, line in enumerate(rendered):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def log_log_slope(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x).

    A slope near 1 indicates linear scaling, near 2 quadratic scaling — the
    summary statistic the experiment write-ups quote alongside the tables.
    """
    filtered = [(x, y) for x, y in points if x > 0 and y > 0]
    if len(filtered) < 2:
        return math.nan
    xs = [math.log(x) for x, _ in filtered]
    ys = [math.log(y) for _, y in filtered]
    mean_x = statistics.fmean(xs)
    mean_y = statistics.fmean(ys)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        return math.nan
    return numerator / denominator


def doubling_ratios(points: Sequence[Tuple[float, float]]) -> List[float]:
    """Ratios ``t[i+1] / t[i]`` between consecutive sweep points.

    Roughly constant ratios (for geometric sweeps) indicate polynomial
    scaling; rapidly growing ratios indicate exponential scaling — the visual
    argument of Figures 5 and 8 turned into a number.
    """
    ratios = []
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if y0 > 0:
            ratios.append(y1 / y0)
    return ratios


def gather_balance(per_worker_seconds: Sequence[float]) -> float:
    """Load balance of a scatter/gather run: mean over max worker seconds.

    A gather waits for its slowest worker, so the achievable speedup over
    sequential execution is ``sum/max`` and this ratio (``mean/max``, in
    ``(0, 1]``) measures how much of it the partitioning delivers: 1.0 means
    perfectly balanced shards, values near ``1/n`` mean one shard carries
    essentially all the work.  Used by the Figure 8c shard sweep.
    """
    seconds = [s for s in per_worker_seconds if s >= 0]
    if not seconds:
        return math.nan
    slowest = max(seconds)
    if slowest == 0:
        return 1.0
    return statistics.fmean(seconds) / slowest
