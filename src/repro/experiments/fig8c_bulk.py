"""Figure 8c: bulk inserts — resolution time vs. number of objects.

The trust network is fixed (7 users, 12 mappings, 2 users with explicit
beliefs — Figure 19); the number of objects grows, and about half of the
objects carry conflicting beliefs.  Bulk resolution translates the one-time
resolution plan into SQL statements over ``POSS(X, K, V)``, so its running
time is linear in the number of objects and independent of how many of them
conflict; resolving each object separately with the logic-program baseline is
exponential in the number of conflicting objects' combined program and serves
as the contrast series for small object counts.

Besides the headline sweep, :func:`run_shard_sweep` scales the *data*
side: the same plan is replayed on every shard of a key-partitioned store
(:class:`~repro.bulk.store.ShardedPossStore`), so the per-shard
statement count stays at the unsharded plan's count while each shard only
touches its slice of the objects.  :func:`run_compiled_sweep` measures
the compiled scheduler against statement-at-a-time replay on a deep chain
workload: the acyclic run is pushed into the engine as a handful of
copy-region statements per shard, shedding the per-statement round trip
that replay pays ``depth`` times over.  Two satellites extend it:
:func:`run_skeptic_compiled_sweep` (blocked floods pushed down as one
anti-joined ``DISTINCT`` statement each, against the two-statement Skeptic
replay) and :func:`run_pg_parallel_sweep` (``SET max_parallel_workers_per_gather`` on
big region statements, gated on ``REPRO_PG_DSN``).

Finally, :func:`run_fault_sweep` and :func:`run_crash_resume_demo` exercise
the fault-tolerant execution layer on this same workload: seeded transient
faults injected into the statement stream are absorbed by the store's retry
loop (the relation stays byte-identical to the fault-free run), and a forced
mid-plan crash of a checkpointed run resumes from the statement journal,
re-running only the unfinished plan steps.

CLI::

    python -m repro.experiments.fig8c_bulk [--quick] [--objects N [N ...]]
                                           [--shards N [N ...]]
                                           [--sweep-compiled] [--skeptic]
                                           [--faults P] [--fault-seed N]
                                           [--seed N] [--json]
                                           [--trace PATH] [--metrics]

``--trace PATH`` additionally records one traced sharded compiled run
(the acceptance scenario of the observability layer) and exports it as
Chrome ``trace_event`` JSON — load PATH in Perfetto to see the per-shard
replay lanes overlap; ``--metrics`` prints the traced run's aggregated
counters and latency histograms (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from repro.bulk.backends import DbApiBackend, SqliteFileBackend, SqliteMemoryBackend
from repro.bulk.executor import (
    BulkResolver,
    BulkRunReport,
    SkepticBulkResolver,
)
from repro.bulk.store import PossStore, ShardedPossStore
from repro.core.errors import BackendUnavailable
from repro.faults import FaultInjectingBackend, FaultPolicy, RetryPolicy, ScriptedFault
from repro.core.resolution import resolve
from repro.experiments.runner import (
    average_time,
    format_table,
    gather_balance,
    log_log_slope,
    quartiles,
    report,
)
from repro.logicprog.solver import solve_network
from repro.obs import Tracer, export_chrome_trace, install_cli_handler
from repro.workloads.bulkload import (
    BELIEF_USERS,
    chain_network,
    figure19_network,
    generate_objects,
    skeptic_chain_network,
)


def _bulk_report(n_objects: int, seed: int) -> BulkRunReport:
    """One bulk run over the Figure 19 network, returning its full report."""
    resolver = BulkResolver(figure19_network(), explicit_users=BELIEF_USERS)
    resolver.load_beliefs(generate_objects(n_objects, seed=seed))
    report = resolver.run()
    resolver.store.close()
    return report


def _bulk_once(n_objects: int, seed: int) -> float:
    """Seconds for one bulk run (default store configuration)."""
    return _bulk_report(n_objects, seed).elapsed_seconds


def _per_object_ra(n_objects: int, seed: int) -> float:
    """Resolve every object separately with Algorithm 1 (no SQL batching)."""
    from repro.core.binarize import binarize

    network = figure19_network()
    rows = generate_objects(n_objects, seed=seed)
    by_key: Dict[str, List] = {}
    for user, key, value in rows:
        by_key.setdefault(key, []).append((user, value))
    total = 0.0
    for key, beliefs in by_key.items():
        per_object = network.copy()
        for user, value in beliefs:
            per_object.set_explicit_belief(user, value)
        binarized = binarize(per_object).btn
        total += average_time(lambda: resolve(binarized), repeats=1)
    return total


def _per_object_lp(n_objects: int, seed: int) -> float:
    """Resolve every object separately with the logic-program baseline."""
    network = figure19_network()
    rows = generate_objects(n_objects, seed=seed)
    by_key: Dict[str, List] = {}
    for user, key, value in rows:
        by_key.setdefault(key, []).append((user, value))
    total = 0.0
    for key, beliefs in by_key.items():
        per_object = network.copy()
        for user, value in beliefs:
            per_object.set_explicit_belief(user, value)
        total += average_time(
            lambda: solve_network(per_object, semantics="brave"), repeats=1
        )
    return total


def run(
    object_counts: Sequence[int] = (10, 100, 1_000, 10_000, 50_000),
    lp_max_objects: int = 20,
    ra_max_objects: int = 2_000,
    seed: int = 11,
) -> List[Dict[str, object]]:
    """One row per object count; bulk SQL always, per-object baselines capped."""
    rows: List[Dict[str, object]] = []
    for count in object_counts:
        bulk_seconds = _bulk_once(count, seed)
        ra_seconds = _per_object_ra(count, seed) if count <= ra_max_objects else None
        lp_seconds = _per_object_lp(count, seed) if count <= lp_max_objects else None
        rows.append(
            {
                "objects": count,
                "bulk_sql_seconds": bulk_seconds,
                "per_object_ra_seconds": ra_seconds,
                "per_object_lp_seconds": lp_seconds,
            }
        )
    return rows


def summarize(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Shape summary of the headline sweep (linearity in the object count)."""
    points = [(row["objects"], row["bulk_sql_seconds"]) for row in rows]
    slope = log_log_slope(points)
    return {
        "bulk_log_log_slope": round(slope, 2) if len(points) > 1 else None,
        "bulk_linear_in_objects": len(points) > 1 and slope < 1.4,
        "largest_object_count": max((row["objects"] for row in rows), default=0),
    }


def _sharded_report(n_objects: int, shards: int, seed: int) -> BulkRunReport:
    """One sharded bulk run over the Figure 19 network."""
    network = figure19_network()
    resolver = BulkResolver(
        network, store=ShardedPossStore(shards), explicit_users=BELIEF_USERS
    )
    resolver.load_beliefs(generate_objects(n_objects, seed=seed))
    report = resolver.run()
    resolver.store.close()
    return report


#: Runs per shard-sweep cell: a Figure 19 cell takes 1-14 ms, so one run
#: cannot tell a shard-layer change from timer and scheduler noise.
SHARD_SWEEP_REPEATS = 5


def run_shard_sweep(
    object_counts: Sequence[int] = (1_000, 10_000),
    shard_counts: Sequence[int] = (1, 2, 4),
    seed: int = 11,
) -> List[Dict[str, object]]:
    """The shard experiment: shard counts × object counts.

    Every run executes the identical compiled plan once per shard of a
    key-partitioned store, so ``statements_per_shard`` must equal the
    unsharded plan's statement count for every row — the Section 4
    invariant carried over to the sharded store — while each shard only
    stores and resolves its hash slice of the objects (one transaction per
    shard, all-or-nothing).  Each cell runs :data:`SHARD_SWEEP_REPEATS`
    times, the rounds interleaved across cells so every cell sees the same
    machine load; ``seconds`` and ``max_shard_seconds`` are medians, and
    ``seconds_p25`` / ``seconds_p75`` give the spread.
    """
    cells = [(shards, count) for shards in shard_counts for count in object_counts]
    reports: Dict[tuple, List[BulkRunReport]] = {cell: [] for cell in cells}
    for _ in range(SHARD_SWEEP_REPEATS):
        for shards, count in cells:
            reports[shards, count].append(_sharded_report(count, shards, seed))
    rows: List[Dict[str, object]] = []
    for shards, count in cells:
        runs = reports[shards, count]
        p25, median, p75 = quartiles([report.elapsed_seconds for report in runs])
        report = runs[0]
        rows.append(
            {
                "shards": shards,
                "objects": count,
                "seconds": median,
                "seconds_p25": p25,
                "seconds_p75": p75,
                "statements": report.statements,
                "statements_per_shard": report.statements_per_shard(),
                "transactions": report.transactions,
                "dag_stages": report.dag_stages,
                "rows_inserted": report.rows_inserted,
                "max_shard_seconds": statistics.median(
                    max(run.per_shard_seconds.values(), default=0.0) for run in runs
                ),
                "shard_balance": round(
                    statistics.median(
                        gather_balance(list(run.per_shard_seconds.values()))
                        for run in runs
                    ),
                    3,
                ),
            }
        )
    return rows


def summarize_shard_sweep(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Invariants of the shard sweep: fixed per-shard statements, 1 txn/shard."""
    per_shard = {row["statements_per_shard"] for row in rows}
    txn_per_shard = {row["transactions"] == row["shards"] for row in rows}
    balances = [
        row["shard_balance"] for row in rows if row["shards"] > 1
    ]
    return {
        "statements_per_shard_observed": sorted(per_shard),
        "statements_per_shard_fixed": len(per_shard) == 1,
        "one_transaction_per_shard": txn_per_shard == {True},
        "dag_stages": sorted({row["dag_stages"] for row in rows}),
        "largest_shard_count": max((row["shards"] for row in rows), default=0),
        "mean_shard_balance": (
            round(sum(balances) / len(balances), 3) if balances else None
        ),
    }


def _scheduler_report(
    depth: int,
    n_objects: int,
    shards: int,
    scheduler: str,
    seed: int,
    directory: str,
) -> BulkRunReport:
    """One chain-workload run on file-backed shards under one scheduler."""
    network = chain_network(depth)
    os.makedirs(directory, exist_ok=True)
    backends = [
        SqliteFileBackend(
            os.path.join(directory, f"{scheduler}-s{shards}-{i}.db")
        )
        for i in range(shards)
    ]
    store = ShardedPossStore(shards, backends=backends)
    resolver = BulkResolver(
        network,
        store=store,
        explicit_users=BELIEF_USERS,
        scheduler=scheduler,
    )
    resolver.load_beliefs(generate_objects(n_objects, seed=seed))
    report = resolver.run()
    store.close()
    return report


def run_compiled_sweep(
    depth: int = 1600,
    n_objects: int = 10,
    shard_counts: Sequence[int] = (2, 4),
    seed: int = 11,
    repeats: int = 3,
) -> List[Dict[str, object]]:
    """The compiled-execution experiment: pushed-down regions vs. replay.

    The workload is a ``depth``-stage chain (:func:`chain_network`): under
    replay it costs ``depth`` copy statements per shard, under
    the ``compiled`` scheduler the acyclic run collapses into a handful of
    copy regions (one statement per region of at most ``max_copy_edges``
    edges, sized from the store's bind limit), so the wall
    clock drops by the per-statement scheduling overhead times ``depth``.
    The defaults pick the regime the compiler targets — deep plans over
    modest row volumes, where statement dispatch (not row insertion)
    dominates and compiled runs about 1.3-2.2x faster than replay (depth
    1600 on 2-4 file shards, 2-vCPU host); at shallow
    depths or large ``n_objects`` the irreducible insert work levels the
    two schedulers.  Best-of-``repeats`` per cell smooths scheduler noise.
    """
    rows: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory(prefix="repro-compiled-") as directory:
        for shards in shard_counts:
            cells: Dict[str, BulkRunReport] = {}
            for scheduler in ("replay", "compiled"):
                best: Optional[BulkRunReport] = None
                for attempt in range(repeats):
                    report = _scheduler_report(
                        depth,
                        n_objects,
                        shards,
                        scheduler,
                        seed,
                        os.path.join(directory, f"r{attempt}"),
                    )
                    if best is None or report.elapsed_seconds < best.elapsed_seconds:
                        best = report
                cells[scheduler] = best
            compiled = cells["compiled"]
            replay = cells["replay"]
            rows.append(
                {
                    "shards": shards,
                    "depth": depth,
                    "objects": n_objects,
                    "compiled_seconds": compiled.elapsed_seconds,
                    "replay_seconds": replay.elapsed_seconds,
                    "speedup_vs_replay": replay.elapsed_seconds
                    / max(compiled.elapsed_seconds, 1e-9),
                    "statements": compiled.statements,
                    "replay_statements": replay.statements,
                    "statements_saved": compiled.statements_saved,
                    "regions_compiled": compiled.regions_compiled,
                }
            )
    return rows


def summarize_compiled_sweep(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Invariants of the compiled sweep: regions collapse, statements shrink."""
    return {
        "all_regions_compiled": all(row["regions_compiled"] > 0 for row in rows),
        "statements_always_below_replay": all(
            row["statements"] < row["replay_statements"] for row in rows
        ),
        "total_statements_saved": sum(row["statements_saved"] for row in rows),
        "mean_speedup_vs_replay": (
            round(sum(row["speedup_vs_replay"] for row in rows) / len(rows), 3)
            if rows
            else None
        ),
    }


def run_skeptic_compiled_sweep(
    depth: int = 400,
    n_objects: int = 50,
    shard_counts: Sequence[int] = (1, 2, 4),
    seed: int = 11,
    repeats: int = 3,
) -> List[Dict[str, object]]:
    """The Skeptic compiled-execution experiment: blocked floods pushed down.

    The workload is a constrained chain (:func:`skeptic_chain_network`):
    copy steps interleaved with flood components whose members carry
    blocked values, so under replay every constrained group costs two
    statements (filtered values plus the ⊥ rows) while the ``compiled``
    scheduler pushes each run of blocked floods down as one anti-joined
    ``DISTINCT`` statement.  Rows record both scheduler times plus the compiled
    run's region and statement accounting — ``regions_compiled > 0`` and
    ``statements_saved > 0`` are the acceptance invariants.
    """
    network, constraints = skeptic_chain_network(depth)
    rng = random.Random(seed)
    rows_in = [
        (user, f"k{index}", rng.choice([f"a{index % depth}", f"b{index}"]))
        for index in range(n_objects)
        for user in BELIEF_USERS
    ]
    rows: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory(prefix="repro-skeptic-") as directory:
        for shards in shard_counts:
            cells: Dict[str, BulkRunReport] = {}
            for scheduler in ("replay", "compiled"):
                best: Optional[BulkRunReport] = None
                for attempt in range(repeats):
                    base = os.path.join(directory, f"r{attempt}")
                    os.makedirs(base, exist_ok=True)
                    backends = [
                        SqliteFileBackend(
                            os.path.join(base, f"{scheduler}-s{shards}-{i}.db")
                        )
                        for i in range(shards)
                    ]
                    store: "PossStore | ShardedPossStore"
                    if shards == 1:
                        store = PossStore(backend=backends[0])
                    else:
                        store = ShardedPossStore(shards, backends=backends)
                    resolver = SkepticBulkResolver(
                        network,
                        positive_users=BELIEF_USERS,
                        negative_constraints=constraints,
                        store=store,
                        scheduler=scheduler,
                    )
                    resolver.load_beliefs(rows_in)
                    report = resolver.run()
                    store.close()
                    if (
                        best is None
                        or report.elapsed_seconds < best.elapsed_seconds
                    ):
                        best = report
                cells[scheduler] = best
            compiled = cells["compiled"]
            replay = cells["replay"]
            rows.append(
                {
                    "shards": shards,
                    "depth": depth,
                    "objects": n_objects,
                    "blocked_users": len(constraints),
                    "compiled_seconds": compiled.elapsed_seconds,
                    "replay_seconds": replay.elapsed_seconds,
                    "speedup_vs_replay": replay.elapsed_seconds
                    / max(compiled.elapsed_seconds, 1e-9),
                    "statements": compiled.statements,
                    "replay_statements": replay.statements,
                    "statements_saved": compiled.statements_saved,
                    "regions_compiled": compiled.regions_compiled,
                }
            )
    return rows


def summarize_skeptic_compiled_sweep(
    rows: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """Invariants of the Skeptic sweep: blocked floods compile, statements drop."""
    return {
        "blocked_floods_compiled": all(
            row["regions_compiled"] > 0 for row in rows
        ),
        "statements_always_saved": all(
            row["statements_saved"] > 0 for row in rows
        ),
        "mean_speedup_vs_replay": (
            round(sum(row["speedup_vs_replay"] for row in rows) / len(rows), 3)
            if rows
            else None
        ),
    }


def run_pg_parallel_sweep(
    depth: int = 1600,
    n_objects: int = 10,
    worker_counts: Sequence[int] = (0, 2, 4),
    seed: int = 11,
    repeats: int = 3,
) -> Optional[List[Dict[str, object]]]:
    """The PostgreSQL parallel-query experiment on big region statements.

    Gated on ``REPRO_PG_DSN`` (and an importable psycopg): returns ``None``
    when either is missing so callers can skip the series gracefully.  Each
    cell materializes the deep-chain workload through the ``compiled``
    scheduler on a psycopg backend whose sessions run under ``SET
    max_parallel_workers_per_gather = N`` — 0 disables parallel plans and
    is the baseline the other cells compare against.
    """
    dsn = os.environ.get("REPRO_PG_DSN", "")
    if not dsn:
        return None
    try:
        import psycopg  # type: ignore[import-not-found]
    except ImportError:
        return None
    network = chain_network(depth)
    rows: List[Dict[str, object]] = []
    for workers in worker_counts:

        def connect(gather_workers: int = workers):
            connection = psycopg.connect(dsn)
            with connection.cursor() as cursor:
                cursor.execute("CREATE SCHEMA IF NOT EXISTS fig8c_parallel")
                cursor.execute("SET search_path TO fig8c_parallel")
                cursor.execute(
                    f"SET max_parallel_workers_per_gather = {int(gather_workers)}"
                )
            connection.commit()
            return connection

        backend = DbApiBackend(
            connect,
            paramstyle="format",
            name=f"pg-parallel-{workers}",
            dialect="postgres",
        )
        best: Optional[BulkRunReport] = None
        for _attempt in range(repeats):
            store = PossStore(backend=backend)
            store.clear()
            resolver = BulkResolver(
                network,
                store=store,
                explicit_users=BELIEF_USERS,
                scheduler="compiled",
            )
            resolver.load_beliefs(generate_objects(n_objects, seed=seed))
            report = resolver.run()
            store.clear()
            store.close()
            backend = DbApiBackend(
                connect,
                paramstyle="format",
                name=f"pg-parallel-{workers}",
                dialect="postgres",
            )
            if best is None or report.elapsed_seconds < best.elapsed_seconds:
                best = report
        rows.append(
            {
                "parallel_workers": workers,
                "depth": depth,
                "objects": n_objects,
                "seconds": best.elapsed_seconds,
                "statements": best.statements,
                "regions_compiled": best.regions_compiled,
                "statements_saved": best.statements_saved,
            }
        )
    return rows


def summarize_pg_parallel_sweep(
    rows: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """Invariants of the PostgreSQL sweep: same plan, every cell compiled."""
    return {
        "all_regions_compiled": all(row["regions_compiled"] > 0 for row in rows),
        "statement_counts_observed": sorted(
            {row["statements"] for row in rows}
        ),
        "baseline_seconds": next(
            (
                row["seconds"]
                for row in rows
                if row["parallel_workers"] == 0
            ),
            None,
        ),
    }


#: Retries without real sleeping, for the fault experiments.
_FAST_RETRY = RetryPolicy(max_attempts=8, base_delay=0.0, max_delay=0.0)


def run_fault_sweep(
    object_counts: Sequence[int] = (1_000, 10_000),
    probability: float = 0.05,
    fault_seed: int = 42,
    seed: int = 11,
) -> List[Dict[str, object]]:
    """The fault-injection experiment: seeded transient chaos vs. a clean twin.

    Every faulted run injects :class:`~repro.faults.FaultPolicy`-scheduled
    transient failures (probability ``probability`` per statement, seeded so
    the schedule is reproducible) and must finish with the exact relation of
    the fault-free twin — the retries are transparent; the rows record how
    many faults fired and what the retries cost in wall clock.
    """
    rows: List[Dict[str, object]] = []
    for count in object_counts:
        clean = _bulk_report(count, seed)
        network = figure19_network()
        policy = FaultPolicy(
            seed=fault_seed,
            probability=probability,
            sites=("execute", "executemany"),
        )
        store = PossStore(
            backend=FaultInjectingBackend(SqliteMemoryBackend(), policy),
            retry_policy=_FAST_RETRY,
        )
        resolver = BulkResolver(network, store=store, explicit_users=BELIEF_USERS)
        resolver.load_beliefs(generate_objects(count, seed=seed))
        report = resolver.run()
        identical = sorted(store.possible_table()) == sorted(
            _replay_clean_table(count, seed)
        )
        store.close()
        rows.append(
            {
                "objects": count,
                "probability": probability,
                "clean_seconds": clean.elapsed_seconds,
                "faulted_seconds": report.elapsed_seconds,
                "overhead": report.elapsed_seconds
                / max(clean.elapsed_seconds, 1e-9),
                "retries": report.retries,
                "faults_injected": report.faults_injected,
                "timed_out_statements": report.timed_out_statements,
                "byte_identical": identical,
            }
        )
    return rows


def _replay_clean_table(n_objects: int, seed: int):
    """The fault-free POSS relation for the standard workload (the oracle)."""
    network = figure19_network()
    resolver = BulkResolver(network, explicit_users=BELIEF_USERS)
    resolver.load_beliefs(generate_objects(n_objects, seed=seed))
    resolver.run()
    table = resolver.store.possible_table()
    resolver.store.close()
    return table


def summarize_fault_sweep(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Invariants of the fault sweep: chaos absorbed, relation unchanged."""
    return {
        "all_runs_byte_identical": all(row["byte_identical"] for row in rows),
        "all_faults_absorbed": all(
            row["timed_out_statements"] == 0 for row in rows
        ),
        "total_faults_injected": sum(row["faults_injected"] for row in rows),
        "total_retries": sum(row["retries"] for row in rows),
        "max_overhead_vs_clean": (
            round(max(row["overhead"] for row in rows), 3) if rows else None
        ),
    }


def run_crash_resume_demo(
    n_objects: int = 1_000,
    crash_at: int = 11,
    seed: int = 11,
) -> Dict[str, object]:
    """Crash a checkpointed run mid-plan, then resume it.

    A scripted unavailability kills statement ``crash_at`` of a
    file-backed checkpointed run; the resume with the same run id skips the
    journaled plan steps and finishes the rest, and the final relation is
    byte-identical to an undisturbed run.  Returns the recovery wall clock
    and how much journaled work the resume skipped.
    """
    network = figure19_network()
    objects = generate_objects(n_objects, seed=seed)
    expected = sorted(_replay_clean_table(n_objects, seed))
    run_id = "fig8c-crash-demo"
    with tempfile.TemporaryDirectory(prefix="repro-crash-") as directory:
        policy = FaultPolicy(
            schedule=[ScriptedFault("execute", crash_at, kind="unavailable")],
            max_faults=1,
        )
        backend = FaultInjectingBackend(
            SqliteFileBackend(os.path.join(directory, "crash.db")), policy
        )
        store = PossStore(backend=backend)
        crashing = BulkResolver(
            network, store=store, explicit_users=BELIEF_USERS, checkpoint=run_id
        )
        interrupted = False
        try:
            crashing.load_beliefs(objects)
            crashing.run()
        except BackendUnavailable:
            interrupted = True
        policy.schedule = ()  # the crash fired; the resume runs clean
        resumed = BulkResolver(
            network, store=store, explicit_users=BELIEF_USERS, checkpoint=run_id
        )
        started = time.perf_counter()
        resumed.load_beliefs(objects)
        report = resumed.run()
        resume_seconds = time.perf_counter() - started
        identical = sorted(store.possible_table()) == expected
        store.close()
    return {
        "objects": n_objects,
        "crash_at": crash_at,
        "interrupted": interrupted,
        "nodes_total": len(resumed.plan.steps),
        "nodes_skipped": report.nodes_skipped,
        "resume_seconds": resume_seconds,
        "byte_identical": identical,
    }


def traced_run(
    n_objects: int = 200, seed: int = 11, shards: int = 2
) -> Tracer:
    """One traced sharded compiled run — the observability demo/acceptance.

    File-backed shards (in-memory sqlite shards serialize their replay), so
    the exported trace's ``shard{i}`` lanes genuinely overlap in Perfetto.
    Returns the :class:`~repro.obs.Tracer` holding the recorded span tree.
    """
    network = figure19_network()
    tracer = Tracer()
    with tempfile.TemporaryDirectory(prefix="fig8c-trace-") as directory:
        backends = [
            SqliteFileBackend(os.path.join(directory, f"trace-shard{i}.db"))
            for i in range(shards)
        ]
        store = ShardedPossStore(shards, backends=backends)
        resolver = BulkResolver(
            network,
            store=store,
            explicit_users=BELIEF_USERS,
            scheduler="compiled",
            tracer=tracer,
        )
        resolver.load_beliefs(generate_objects(n_objects, seed=seed))
        resolver.run()
        store.close()
    return tracer


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point (exercised by the docs job)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--objects",
        type=int,
        nargs="+",
        default=None,
        help="object counts to sweep (default: the Figure 8c sweep)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sweep for smoke runs (overridden by --objects)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="also run the shard sweep over these shard counts",
    )
    parser.add_argument(
        "--sweep-compiled",
        action="store_true",
        help="also run the compiled (pushed-down regions) vs. replay sweep",
    )
    parser.add_argument(
        "--skeptic",
        action="store_true",
        help="with --sweep-compiled: also run the Skeptic blocked-flood "
        "compiled sweep",
    )
    parser.add_argument(
        "--faults",
        type=float,
        default=None,
        metavar="P",
        help="also run the fault-injection sweep (transient-fault probability "
        "per statement) and the crash/resume demo",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=42,
        metavar="N",
        help="seed for the injected-fault schedule (default: 42)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=11,
        help="workload seed, for reproducible runs (default: 11)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document instead of tables",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a traced sharded compiled run and export Chrome "
        "trace_event JSON to PATH (open in Perfetto)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="also run the traced demo and print its aggregated metrics",
    )
    args = parser.parse_args(argv)
    if not args.json:
        install_cli_handler()
    if args.objects is not None:
        counts: Sequence[int] = tuple(args.objects)
    elif args.quick:
        counts = (10, 100, 1_000)
    else:
        counts = (10, 100, 1_000, 10_000, 50_000)
    lp_cap = 10 if args.quick else 20
    ra_cap = 500 if args.quick else 2_000

    document: Dict[str, object] = {"seed": args.seed}
    rows = run(
        object_counts=counts,
        lp_max_objects=lp_cap,
        ra_max_objects=ra_cap,
        seed=args.seed,
    )
    document["fig8c"] = {"rows": rows, "summary": summarize(rows)}
    if not args.json:
        report("Figure 8c — bulk inserts over the fixed 7-user / 12-mapping network")
        report(
            format_table(
                rows,
                columns=[
                    "objects",
                    "bulk_sql_seconds",
                    "per_object_ra_seconds",
                    "per_object_lp_seconds",
                ],
            )
        )
        report(f"summary: {summarize(rows)}")

    if args.shards:
        sweep = run_shard_sweep(
            object_counts=counts, shard_counts=args.shards, seed=args.seed
        )
        document["shard_sweep"] = {
            "rows": sweep,
            "summary": summarize_shard_sweep(sweep),
        }
        if not args.json:
            report("\nFigure 8c — shard sweep (same plan run on every shard)")
            report(
                format_table(
                    sweep,
                    columns=[
                        "shards",
                        "objects",
                        "seconds",
                        "statements_per_shard",
                        "transactions",
                        "dag_stages",
                    ],
                )
            )
            report(f"summary: {summarize_shard_sweep(sweep)}")

    if args.sweep_compiled:
        sweep = run_compiled_sweep(
            depth=200 if args.quick else 1600,
            n_objects=5 if args.quick else 10,
            seed=args.seed,
        )
        document["compiled_sweep"] = {
            "rows": sweep,
            "summary": summarize_compiled_sweep(sweep),
        }
        if not args.json:
            report(
                "\nFigure 8c — compiled sweep (pushed-down SQL regions vs. "
                "statement-at-a-time replay)"
            )
            report(
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
            report(f"summary: {summarize_compiled_sweep(sweep)}")

    if args.sweep_compiled and args.skeptic:
        sweep = run_skeptic_compiled_sweep(
            depth=100 if args.quick else 400,
            n_objects=10 if args.quick else 50,
            seed=args.seed,
        )
        document["skeptic_compiled_sweep"] = {
            "rows": sweep,
            "summary": summarize_skeptic_compiled_sweep(sweep),
        }
        if not args.json:
            report(
                "\nFigure 8c — Skeptic compiled sweep (blocked floods pushed "
                "down vs. two-statement replay)"
            )
            report(
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
            report(f"summary: {summarize_skeptic_compiled_sweep(sweep)}")

    if args.sweep_compiled:
        sweep = run_pg_parallel_sweep(
            depth=200 if args.quick else 1600,
            n_objects=5 if args.quick else 10,
            seed=args.seed,
        )
        if sweep is None:
            if not args.json:
                report(
                    "\nFigure 8c — PostgreSQL parallel sweep skipped "
                    "(set REPRO_PG_DSN and install psycopg to run it)"
                )
        else:
            document["pg_parallel_sweep"] = {
                "rows": sweep,
                "summary": summarize_pg_parallel_sweep(sweep),
            }
            if not args.json:
                report(
                    "\nFigure 8c — PostgreSQL parallel sweep "
                    "(SET max_parallel_workers_per_gather)"
                )
                report(
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
                report(f"summary: {summarize_pg_parallel_sweep(sweep)}")

    if args.faults is not None:
        sweep = run_fault_sweep(
            object_counts=counts[:2],
            probability=args.faults,
            fault_seed=args.fault_seed,
            seed=args.seed,
        )
        demo = run_crash_resume_demo(
            n_objects=min(counts), seed=args.seed
        )
        document["fault_sweep"] = {
            "rows": sweep,
            "summary": summarize_fault_sweep(sweep),
            "crash_resume": demo,
        }
        if not args.json:
            report(
                "\nFigure 8c — fault-injection sweep "
                f"(p={args.faults}, fault seed {args.fault_seed})"
            )
            report(
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
            report(f"summary: {summarize_fault_sweep(sweep)}")
            report(f"crash/resume demo: {demo}")

    if args.trace or args.metrics:
        tracer = traced_run(n_objects=min(counts), seed=args.seed)
        if args.trace:
            events = export_chrome_trace(tracer, args.trace)
            report(f"trace: wrote {events} trace_event records to {args.trace}")
        if args.metrics:
            report(tracer.metrics.format())

    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True, default=str))


if __name__ == "__main__":  # pragma: no cover
    main()
