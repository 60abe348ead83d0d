"""Figure 8c: bulk inserts — resolution time vs. number of objects.

The fixed 7-user / 12-mapping network of Figure 19 is resolved over a growing
number of objects through the SQL bulk path.  The shape checks assert the
paper's result: the bulk running time is linear in the number of objects and
independent of the number of conflicting objects, while per-object baselines
fall behind quickly.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import full_sweep, record_scenario
from repro.bulk.executor import BulkResolver
from repro.experiments import fig8c_bulk
from repro.experiments.runner import format_table, log_log_slope
from repro.obs import NullTracer, Tracer
from repro.workloads.bulkload import (
    BELIEF_USERS,
    chain_network,
    figure19_network,
    generate_objects,
)

OBJECT_COUNTS = (100, 1_000, 10_000) if not full_sweep() else (100, 1_000, 10_000, 100_000)


def run_bulk(n_objects: int, conflict_probability: float = 0.5) -> float:
    network = figure19_network()
    resolver = BulkResolver(network, explicit_users=BELIEF_USERS)
    resolver.load_beliefs(
        generate_objects(n_objects, conflict_probability=conflict_probability, seed=11)
    )
    report = resolver.run()
    resolver.store.close()
    return report.elapsed_seconds


@pytest.mark.parametrize("n_objects", OBJECT_COUNTS)
def test_fig8c_bulk_sql_resolution(benchmark, n_objects):
    benchmark.extra_info["figure"] = "8c"
    benchmark.extra_info["objects"] = n_objects
    benchmark.pedantic(lambda: run_bulk(n_objects), rounds=1, iterations=1)


def test_fig8c_shape_linear_in_objects(benchmark, bench_report_lines):
    rows = benchmark.pedantic(
        lambda: fig8c_bulk.run(
            object_counts=OBJECT_COUNTS, lp_max_objects=10, ra_max_objects=1_000
        ),
        rounds=1,
        iterations=1,
    )
    summary = fig8c_bulk.summarize(rows)
    bench_report_lines.append("Figure 8c — bulk inserts over the Figure 19 network")
    bench_report_lines.append(format_table(rows))
    bench_report_lines.append(f"summary: {summary}")
    assert summary["bulk_linear_in_objects"], summary


def test_fig8c_statement_counts(bench_json_records):
    """Statements stay linear in plan steps (one per copy group / flood group).

    Records the executed-statement count so BENCH_resolution.json tracks the
    grouped-copy and multi-member flood batching; the run must execute as a
    single transaction.
    """
    n_objects = OBJECT_COUNTS[1]
    network = figure19_network()
    resolver = BulkResolver(network, explicit_users=BELIEF_USERS)
    resolver.load_beliefs(
        generate_objects(n_objects, conflict_probability=0.5, seed=11)
    )
    report = resolver.run()
    assert report.statements == resolver.plan.statement_count()
    assert report.transactions == 1
    record_scenario(
        bench_json_records,
        f"fig8c_bulk/objects={n_objects}",
        seconds=report.elapsed_seconds,
        statements=report.statements,
        rows_inserted=report.rows_inserted,
        transactions=report.transactions,
    )
    resolver.store.close()


def test_fig8c_shard_sweep(bench_json_records, bench_report_lines):
    """The shard experiment: the identical plan runs on every shard of a
    key-partitioned store, so statements-per-shard stays at the unsharded
    plan's count (6 for Figure 19) for every shard count, with one
    all-or-nothing transaction per shard.  Each row is the median of
    ``SHARD_SWEEP_REPEATS`` runs with its quartiles."""
    unsharded_plan_statements = None
    sweep = fig8c_bulk.run_shard_sweep(
        object_counts=OBJECT_COUNTS[:2], shard_counts=(1, 2, 4)
    )
    summary = fig8c_bulk.summarize_shard_sweep(sweep)
    assert summary["statements_per_shard_fixed"], summary
    assert summary["one_transaction_per_shard"], summary
    for row in sweep:
        if row["shards"] == 1:
            unsharded_plan_statements = row["statements_per_shard"]
    assert summary["statements_per_shard_observed"] == [unsharded_plan_statements]
    bench_report_lines.append(
        "Figure 8c — shard sweep (same plan run on every shard)"
    )
    bench_report_lines.append(
        format_table(
            sweep,
            columns=[
                "shards",
                "objects",
                "seconds",
                "seconds_p25",
                "seconds_p75",
                "statements_per_shard",
                "transactions",
                "dag_stages",
            ],
        )
    )
    bench_report_lines.append(f"summary: {summary}")
    for row in sweep:
        record_scenario(
            bench_json_records,
            f"fig8c_bulk/shards={row['shards']}/objects={row['objects']}",
            seconds=row["seconds"],
            seconds_p25=row["seconds_p25"],
            seconds_p75=row["seconds_p75"],
            statements=row["statements"],
            statements_per_shard=row["statements_per_shard"],
            transactions=row["transactions"],
            shards=row["shards"],
            dag_stages=row["dag_stages"],
            max_shard_seconds=round(row["max_shard_seconds"], 6),
            shard_balance=row["shard_balance"],
        )


def test_fig8c_compiled_sweep(bench_json_records, bench_report_lines):
    """The compiled-execution experiment: whole acyclic regions pushed into
    the engine as one ancestor-join statement each vs. statement-at-a-time
    replay, on the deep chain workload the compiler targets.  The
    structural invariants are hard gates (every cell compiles its regions
    and executes strictly fewer statements than replay); the measured
    wall-clock win is recorded in BENCH_resolution.json
    (fig8c_bulk/compiled/..., 2.8x on 2 shards and 4.6x on 4 shards on a
    2-vCPU host; the mean over both cells read 3.3-3.7x in three warm runs
    there).  The speedup gate is a sanity bound rather than >1.0: on an
    oversubscribed CI runner
    statement-dispatch overhead shrinks relative to I/O noise, and flaking
    the suite on that would gate merges on machine weather, not on code."""
    sweep = fig8c_bulk.run_compiled_sweep(
        depth=1600, n_objects=10, shard_counts=(2, 4)
    )
    summary = fig8c_bulk.summarize_compiled_sweep(sweep)
    assert summary["all_regions_compiled"], summary
    assert summary["statements_always_below_replay"], summary
    assert summary["total_statements_saved"] > 0, summary
    assert summary["mean_speedup_vs_replay"] > 0.8, summary
    bench_report_lines.append(
        "Figure 8c — compiled sweep (ancestor-join copy regions vs. replay)"
    )
    bench_report_lines.append(
        format_table(
            sweep,
            columns=[
                "shards",
                "depth",
                "compiled_seconds",
                "replay_seconds",
                "speedup_vs_replay",
                "statements",
                "statements_saved",
            ],
        )
    )
    bench_report_lines.append(f"summary: {summary}")
    for row in sweep:
        record_scenario(
            bench_json_records,
            f"fig8c_bulk/compiled/shards={row['shards']}",
            seconds=row["compiled_seconds"],
            replay_seconds=round(row["replay_seconds"], 6),
            speedup_vs_replay=round(row["speedup_vs_replay"], 3),
            statements=row["statements"],
            replay_statements=row["replay_statements"],
            statements_saved=row["statements_saved"],
            regions_compiled=row["regions_compiled"],
            depth=row["depth"],
            objects=row["objects"],
        )


def test_fig8c_observability_overhead(bench_json_records, bench_report_lines):
    """Tracing must not tax the hot path.  Three timed variants of the
    depth-1600 compiled chain: the default untraced run, a run with an
    explicit no-op tracer (the NULL_TRACER code path every call site takes
    when tracing is off), and a run with a live recording tracer.  Targets:
    no-op <= 2%, active <= 10%.  As with every timing gate in this file the
    assert carries a small absolute slack so a cold CI runner's machine
    weather cannot flake a sub-second measurement; the measured ratios are
    recorded in BENCH_resolution.json as fig8c_bulk/obs/overhead."""
    depth, n_objects, repeats = 1600, 10, 3

    def run_once(tracer=None):
        network = chain_network(depth)
        resolver = BulkResolver(
            network,
            explicit_users=BELIEF_USERS,
            scheduler="compiled",
            tracer=tracer,
        )
        resolver.load_beliefs(generate_objects(n_objects, seed=11))
        report = resolver.run()
        resolver.store.close()
        assert report.scheduler == "compiled", report
        return report.elapsed_seconds

    untraced = min(run_once() for _ in range(repeats))
    noop = min(run_once(NullTracer()) for _ in range(repeats))
    active = min(run_once(Tracer()) for _ in range(repeats))

    slack = 0.010  # absolute seconds: timer noise floor on a busy runner
    noop_ratio = noop / max(untraced, 1e-9)
    active_ratio = active / max(untraced, 1e-9)
    assert noop <= untraced * 1.02 + slack, (untraced, noop, noop_ratio)
    assert active <= untraced * 1.10 + slack, (untraced, active, active_ratio)

    bench_report_lines.append(
        "Figure 8c — observability overhead (depth-1600 compiled chain): "
        f"untraced {untraced:.6f}s, no-op {noop:.6f}s ({noop_ratio:.3f}x), "
        f"active {active:.6f}s ({active_ratio:.3f}x)"
    )
    record_scenario(
        bench_json_records,
        "fig8c_bulk/obs/overhead",
        seconds=active,
        untraced_seconds=round(untraced, 6),
        noop_seconds=round(noop, 6),
        noop_ratio=round(noop_ratio, 3),
        active_ratio=round(active_ratio, 3),
        depth=depth,
        objects=n_objects,
    )


def test_fig8c_skeptic_compiled_sweep(bench_json_records, bench_report_lines):
    """The Skeptic compiled-execution experiment: blocked floods pushed down
    as one anti-joined DISTINCT statement each (plus the ⊥ branch) against the
    two-statement-per-constrained-group replay.  Structural invariants are
    hard gates; the wall-clock win is recorded under
    fig8c_bulk/compiled/skeptic/... with the usual >0.8 sanity bound (see
    test_fig8c_compiled_sweep for why the bound is not >1.0)."""
    sweep = fig8c_bulk.run_skeptic_compiled_sweep(
        depth=400, n_objects=50, shard_counts=(1, 2, 4)
    )
    summary = fig8c_bulk.summarize_skeptic_compiled_sweep(sweep)
    assert summary["blocked_floods_compiled"], summary
    assert summary["statements_always_saved"], summary
    assert summary["mean_speedup_vs_replay"] > 0.8, summary
    bench_report_lines.append(
        "Figure 8c — Skeptic compiled sweep (blocked floods vs. replay)"
    )
    bench_report_lines.append(
        format_table(
            sweep,
            columns=[
                "shards",
                "depth",
                "compiled_seconds",
                "replay_seconds",
                "speedup_vs_replay",
                "statements_saved",
                "regions_compiled",
            ],
        )
    )
    bench_report_lines.append(f"summary: {summary}")
    for row in sweep:
        record_scenario(
            bench_json_records,
            f"fig8c_bulk/compiled/skeptic/shards={row['shards']}",
            seconds=row["compiled_seconds"],
            replay_seconds=round(row["replay_seconds"], 6),
            speedup_vs_replay=round(row["speedup_vs_replay"], 3),
            statements=row["statements"],
            replay_statements=row["replay_statements"],
            statements_saved=row["statements_saved"],
            regions_compiled=row["regions_compiled"],
            blocked_users=row["blocked_users"],
            depth=row["depth"],
            objects=row["objects"],
        )


def test_fig8c_pg_parallel_sweep(bench_json_records, bench_report_lines):
    """The PostgreSQL parallel-query experiment: the deep-chain compiled run
    under SET max_parallel_workers_per_gather = {0, 2, 4}.  Gated on
    REPRO_PG_DSN (plus psycopg) like the rest of the postgres suite; the CI
    service-container job runs it, local runs without a server skip."""
    sweep = fig8c_bulk.run_pg_parallel_sweep()
    if sweep is None:
        pytest.skip("set REPRO_PG_DSN (and install psycopg) for the pg sweep")
    summary = fig8c_bulk.summarize_pg_parallel_sweep(sweep)
    assert summary["all_regions_compiled"], summary
    bench_report_lines.append(
        "Figure 8c — PostgreSQL parallel sweep (max_parallel_workers_per_gather)"
    )
    bench_report_lines.append(
        format_table(
            sweep,
            columns=[
                "parallel_workers",
                "depth",
                "seconds",
                "statements",
                "statements_saved",
            ],
        )
    )
    bench_report_lines.append(f"summary: {summary}")
    for row in sweep:
        record_scenario(
            bench_json_records,
            f"fig8c_bulk/compiled/pg/parallel_workers={row['parallel_workers']}",
            seconds=row["seconds"],
            statements=row["statements"],
            regions_compiled=row["regions_compiled"],
            statements_saved=row["statements_saved"],
            depth=row["depth"],
            objects=row["objects"],
        )


def test_fig8c_bulk_time_independent_of_conflicts(benchmark):
    """The paper: bulk resolution time does not depend on how many objects conflict."""
    n_objects = OBJECT_COUNTS[1]
    no_conflicts = benchmark.pedantic(
        lambda: run_bulk(n_objects, conflict_probability=0.0), rounds=1, iterations=1
    )
    all_conflicts = run_bulk(n_objects, conflict_probability=1.0)
    none_conflicts = run_bulk(n_objects, conflict_probability=0.0)
    # Within a factor of three of each other (noise allowance on small runs).
    assert all_conflicts < 3 * max(none_conflicts, 1e-4)


def test_fig8c_fault_machinery_overhead(bench_json_records, bench_report_lines):
    """Fault-machinery-off overhead: a disabled FaultInjectingBackend wrap
    (plus the always-on retry funnel) must be nearly free.  Target <5%; the
    hard gate is the regression-guard bound (2x), because a cold CI runner
    can double any sub-millisecond measurement on machine weather alone."""
    from repro.bulk.backends import SqliteMemoryBackend
    from repro.bulk.store import PossStore
    from repro.faults import FaultInjectingBackend, FaultPolicy

    n_objects = OBJECT_COUNTS[1]

    def run_once(backend=None):
        network = figure19_network()
        store = PossStore(backend=backend) if backend is not None else PossStore()
        resolver = BulkResolver(network, store=store, explicit_users=BELIEF_USERS)
        resolver.load_beliefs(generate_objects(n_objects, seed=11))
        report = resolver.run()
        store.close()
        return report.elapsed_seconds

    bare = min(run_once() for _ in range(3))
    wrapped = min(
        run_once(FaultInjectingBackend(SqliteMemoryBackend(), FaultPolicy()))
        for _ in range(3)
    )
    overhead = wrapped / max(bare, 1e-9)
    assert overhead < 2.0, (bare, wrapped)
    bench_report_lines.append(
        "Figure 8c — fault machinery off: "
        f"bare {bare:.6f}s, wrapped {wrapped:.6f}s ({overhead:.3f}x)"
    )
    record_scenario(
        bench_json_records,
        "engine/fig8c_faults/machinery_off_overhead",
        seconds=wrapped,
        bare_seconds=round(bare, 6),
        overhead_vs_bare=round(overhead, 3),
        objects=n_objects,
    )


def test_fig8c_fault_sweep(bench_json_records, bench_report_lines):
    """The fault-injection experiment: seeded transient chaos is absorbed by
    the retry loop (relation byte-identical to the fault-free twin), and a
    crashed checkpointed run resumes from the journal."""
    # fault_seed=2 fires a few times inside the ~dozen statements of this
    # short data-independent plan (seeds draw per-statement, so most of a
    # seed's schedule lands beyond a short run).
    sweep = fig8c_bulk.run_fault_sweep(
        object_counts=OBJECT_COUNTS[:2], probability=0.2, fault_seed=2
    )
    summary = fig8c_bulk.summarize_fault_sweep(sweep)
    assert summary["all_runs_byte_identical"], summary
    assert summary["all_faults_absorbed"], summary
    assert summary["total_faults_injected"] > 0, summary
    bench_report_lines.append(
        "Figure 8c — fault-injection sweep (p=0.2, seeded schedule)"
    )
    bench_report_lines.append(
        format_table(
            sweep,
            columns=[
                "objects",
                "clean_seconds",
                "faulted_seconds",
                "retries",
                "faults_injected",
                "byte_identical",
            ],
        )
    )
    bench_report_lines.append(f"summary: {summary}")
    for row in sweep:
        record_scenario(
            bench_json_records,
            f"engine/fig8c_faults/p={row['probability']}/objects={row['objects']}",
            seconds=row["faulted_seconds"],
            clean_seconds=round(row["clean_seconds"], 6),
            overhead_vs_clean=round(row["overhead"], 3),
            retries=row["retries"],
            faults_injected=row["faults_injected"],
        )

    demo = fig8c_bulk.run_crash_resume_demo(n_objects=OBJECT_COUNTS[0])
    assert demo["interrupted"], demo
    assert demo["byte_identical"], demo
    assert demo["nodes_skipped"] > 0, demo
    bench_report_lines.append(f"crash/resume demo: {demo}")
    record_scenario(
        bench_json_records,
        "engine/fig8c_faults/crash_resume",
        seconds=demo["resume_seconds"],
        crash_at=demo["crash_at"],
        nodes_total=demo["nodes_total"],
        nodes_skipped=demo["nodes_skipped"],
        objects=demo["objects"],
    )
