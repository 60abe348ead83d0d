"""Incremental maintenance: single-belief updates vs. full re-resolution.

The acceptance claim of the incremental engine (ISSUE 4): on the Figure
8a/8b network families, one belief update applied through
``DeltaResolver`` + the delta store path must be at least **10x** faster
than a full re-resolution plus store reload at the largest benchmarked
size, with the final ``POSS`` relation byte-identical.  The shape
assertions here lock that claim; the measured numbers are merged into
``BENCH_resolution.json`` under ``fig8_incremental/…`` keys.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import full_sweep, record_scenario
from repro.core.resolution import resolve
from repro.experiments import fig8_incremental
from repro.experiments.runner import format_table
from repro.incremental.deltas import SetBelief
from repro.incremental.resolver import DeltaResolver
from repro.workloads.oscillators import clusters_for_size, oscillator_network
from repro.workloads.updates import generate_update_stream

SIZES = (2_000, 10_000, 50_000) if not full_sweep() else (2_000, 10_000, 50_000, 200_000)
#: The web family is slower to build; sweep one decade less.
WEB_SIZES = (2_000, 10_000) if not full_sweep() else (2_000, 10_000, 50_000)

COLUMNS = [
    "size",
    "dirty_region",
    "recomputed",
    "incremental_seconds",
    "full_resolve_seconds",
    "delta_apply_seconds",
    "store_reload_seconds",
    "speedup_total",
    "byte_identical",
]


def _record(bench_json_records, workload: str, rows) -> None:
    for row in rows:
        record_scenario(
            bench_json_records,
            f"fig8_incremental/{workload}/size={row['size']}",
            seconds=row["delta_apply_seconds"],
            full_seconds=round(
                row["full_resolve_seconds"] + row["store_reload_seconds"], 6
            ),
            speedup_vs_full=round(row["speedup_total"], 1),
            dirty_region=row["dirty_region"],
            rows_touched=row["rows_touched"],
            byte_identical=row["byte_identical"],
        )


@pytest.mark.parametrize("workload,sizes", [("fig8a", SIZES), ("fig8b", WEB_SIZES)])
def test_incremental_single_belief_update(
    workload, sizes, bench_json_records, bench_report_lines
):
    """Incremental single-belief update: byte-identical and >=10x at the top."""
    rows = fig8_incremental.run(sizes=sizes, workload=workload)
    summary = fig8_incremental.summarize(rows)
    bench_report_lines.append(
        f"Figure 8 ({workload}) — incremental single-belief update vs. full path"
    )
    bench_report_lines.append(format_table(rows, columns=COLUMNS))
    bench_report_lines.append(f"summary: {summary}")
    _record(bench_json_records, workload, rows)
    assert summary["all_byte_identical"], summary
    assert summary["meets_10x_at_largest"], summary


def test_incremental_dirty_region_is_constant_on_fig8a():
    """On disconnected clusters the dirty region never grows with |U|+|E|."""
    regions = set()
    for size in (80, 2_000):
        network = oscillator_network(clusters_for_size(size))
        resolver = DeltaResolver(network)
        log = resolver.apply(SetBelief("c0.x3", "fresh"))
        regions.add(log.dirty_region)
        assert resolver.possible == resolve(network).possible
    assert len(regions) == 1, regions


def test_incremental_update_stream_throughput(bench_json_records):
    """A 100-op stream stays far cheaper than 100 full re-resolutions."""
    import time

    network = oscillator_network(clusters_for_size(10_000))
    stream = generate_update_stream(
        network, n_ops=100, seed=3, weights={"remove_user": 0.0}
    )
    resolver = DeltaResolver(network)
    started = time.perf_counter()
    for delta in stream:
        resolver.apply(delta)
    incremental_seconds = time.perf_counter() - started
    started = time.perf_counter()
    full = resolve(network)
    one_full_resolve = time.perf_counter() - started
    assert resolver.possible == full.possible
    record_scenario(
        bench_json_records,
        "fig8_incremental/stream/ops=100",
        seconds=incremental_seconds,
        full_seconds=round(one_full_resolve * len(stream), 6),
        speedup_vs_full=round(
            (one_full_resolve * len(stream)) / max(incremental_seconds, 1e-9), 1
        ),
        ops=len(stream),
    )
    # The stream of 100 updates must beat even 100x one full resolution.
    assert incremental_seconds < one_full_resolve * len(stream), (
        incremental_seconds,
        one_full_resolve,
    )


def test_engine_batch_apply_sweep(bench_json_records, bench_report_lines):
    """The engine-path batching experiment: a 50-op overlapping burst
    applied as one coalesced batch (ResolutionEngine.apply — net-effect
    dedupe + one merged-region recompute) vs. op-at-a-time application.
    Relations must be byte-identical with fewer recomputes than ops."""
    rows = fig8_incremental.run_batch_sweep(
        sizes=(2_000, 10_000), workload="fig8a", ops=50
    )
    summary = fig8_incremental.summarize_batch_sweep(rows)
    assert summary["all_byte_identical"], summary
    assert summary["fewer_recomputes_than_ops"], summary
    bench_report_lines.append(
        "Engine batch apply (coalesced, one recompute) vs. op-at-a-time"
    )
    bench_report_lines.append(
        format_table(
            rows,
            columns=[
                "size",
                "ops",
                "coalesced_to",
                "recomputes",
                "op_at_a_time_seconds",
                "batched_seconds",
                "speedup",
            ],
        )
    )
    bench_report_lines.append(f"summary: {summary}")
    for row in rows:
        record_scenario(
            bench_json_records,
            f"engine/fig8_incremental/batch/size={row['size']}",
            seconds=row["batched_seconds"],
            op_at_a_time_seconds=round(row["op_at_a_time_seconds"], 6),
            speedup_vs_op_at_a_time=round(row["speedup"], 1),
            ops=row["ops"],
            coalesced_to=row["coalesced_to"],
            recomputes=row["recomputes"],
            byte_identical=row["byte_identical"],
        )
