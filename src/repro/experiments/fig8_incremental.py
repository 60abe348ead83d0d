"""Incremental vs. full re-resolution on the Figure 8a/8b network families.

The ROADMAP's north star is a service absorbing continuous updates from
millions of users; there, re-resolving the whole network per changed belief
is the dominant cost.  This experiment quantifies the alternative: a
single-belief update applied through the incremental engine
(:class:`~repro.incremental.resolver.DeltaResolver` for the in-memory
state, :class:`~repro.incremental.session.IncrementalSession` + delta
``DELETE``/``INSERT`` for the ``POSS`` store) against the batch path (full
:func:`~repro.core.resolution.resolve` + full store reload).

Per sweep point the rows record both costs, the dirty-region size the
update could reach (``dirty_region``, its descendant count), how many of
those users the resolver actually recomputed (``recomputed``), and a
``byte_identical`` flag asserting the incremental result equals the
from-scratch one — the correctness contract of the engine.  On the
many-cycle family (Figure 8a) an update touches one oscillator cluster, so
the dirty region is constant while the network grows; on the sampled web
family (Figure 8b) the experiment updates the belief root with the
smallest descendant region (the locality a real per-user update exhibits),
reported explicitly as ``dirty_region``.

Besides the single-update sweep, :func:`run_batch_sweep` measures the
engine path (:class:`repro.engine.ResolutionEngine`): a burst of updates
applied as one coalesced batch — net-effect dedupe plus a single merged
dirty-region recomputation per key — against op-at-a-time application
through the legacy session.

CLI::

    python -m repro.experiments.fig8_incremental [--quick]
        [--sizes N [N ...]] [--workload fig8a fig8b]
        [--sweep-batches] [--seed N] [--json]
        [--trace PATH] [--metrics]

``--trace PATH`` records one traced engine run (materialize plus a batched
apply) and exports it as Chrome ``trace_event`` JSON for Perfetto;
``--metrics`` prints the traced run's aggregated counters and latency
histograms (see :mod:`repro.obs` and ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import argparse
import json
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bulk.store import PossStore
from repro.core.network import TrustNetwork, User
from repro.core.resolution import resolve
from repro.engine import ResolutionEngine
from repro.experiments.runner import format_table, report
from repro.incremental.deltas import SetBelief
from repro.incremental.resolver import DeltaResolver
from repro.incremental.session import IncrementalSession
from repro.obs import Tracer, export_chrome_trace, install_cli_handler
from repro.workloads.oscillators import clusters_for_size, oscillator_network
from repro.workloads.powerlaw import WebWorkloadConfig, web_trust_network

DEFAULT_SIZES = (2_000, 10_000, 50_000)
QUICK_SIZES = (80, 400, 2_000)


def _build_network(workload: str, size: int, seed: int) -> TrustNetwork:
    if workload == "fig8a":
        return oscillator_network(clusters_for_size(size))
    if workload == "fig8b":
        config = WebWorkloadConfig(n_domains=max(size // 3, 8), seed=seed)
        return web_trust_network(config)
    raise ValueError(f"unknown workload {workload!r}; known: fig8a, fig8b")


def _descendant_count(network: TrustNetwork, user: User) -> int:
    """How many users a single-user update could reach (itself included)."""
    return len(network.descendants((user,)))


def _pick_update_target(network: TrustNetwork, workload: str, seed: int) -> User:
    """The belief root a single-user update targets.

    Figure 8a updates the first cluster's belief user (every cluster is
    identical).  Figure 8b samples belief roots and picks the one with the
    smallest descendant region — the locality of a typical per-user edit;
    the experiment reports the region size alongside the timings.
    """
    believers = sorted(
        (user for user in network.users if network.has_explicit_belief(user)),
        key=str,
    )
    if not believers:
        raise ValueError("the workload network carries no explicit beliefs")
    if workload == "fig8a":
        return believers[0]
    rng = random.Random(seed)
    sample = rng.sample(believers, min(len(believers), 20))
    return min(sample, key=lambda user: (_descendant_count(network, user), str(user)))


def _serialized(store: PossStore) -> bytes:
    rows = sorted(store.possible_table())
    return "\n".join(f"{r.user}|{r.key}|{r.value}" for r in rows).encode()


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    workload: str = "fig8a",
    seed: int = 7,
) -> List[Dict[str, object]]:
    """One row per sweep point comparing the incremental and batch paths."""
    rows: List[Dict[str, object]] = []
    for size in sizes:
        network = _build_network(workload, size, seed)
        target = _pick_update_target(network, workload, seed)
        new_value = f"updated-{target}"
        # The session gets its own copy holding the pre-update state; the
        # in-memory resolver below mutates `network` when it applies.
        session_network = network.copy()

        # In-memory path: one belief update through the delta resolver vs.
        # a from-scratch resolve of the (already mutated) network.
        resolver = DeltaResolver(network)
        descendants = _descendant_count(network, target)
        started = time.perf_counter()
        log = resolver.apply(SetBelief(target, new_value))
        incremental_seconds = time.perf_counter() - started
        started = time.perf_counter()
        full = resolve(network)
        full_resolve_seconds = time.perf_counter() - started
        byte_identical = full.possible == resolver.possible

        # Store path: delta DELETE/INSERT through a session vs. a full
        # clear-and-reload of an equally loaded store.
        session = IncrementalSession(session_network, store=PossStore())
        report = session.apply(SetBelief(target, new_value))
        full_rows = [
            (user, "k0", value)
            for user, values in full.possible.items()
            for value in values
        ]
        reload_store = PossStore()
        reload_store.insert_rows(full_rows)  # a live relation to replace
        started = time.perf_counter()
        reload_store.clear()
        reload_store.insert_rows(full_rows)
        store_reload_seconds = time.perf_counter() - started
        store_identical = _serialized(session.store) == _serialized(reload_store)
        session.close()
        reload_store.close()

        full_total = full_resolve_seconds + store_reload_seconds
        delta_total = max(report.seconds, 1e-9)
        rows.append(
            {
                "workload": workload,
                "size": network.size,
                "dirty_region": descendants,
                "recomputed": log.recomputed,
                "pruned": descendants - log.recomputed,
                "incremental_seconds": incremental_seconds,
                "full_resolve_seconds": full_resolve_seconds,
                "delta_apply_seconds": report.seconds,
                "store_reload_seconds": store_reload_seconds,
                "rows_touched": report.rows_deleted + report.rows_inserted,
                "speedup_memory": full_resolve_seconds
                / max(incremental_seconds, 1e-9),
                "speedup_total": full_total / delta_total,
                "byte_identical": byte_identical and store_identical,
            }
        )
    return rows


def summarize(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Headline claims: identical output, order-of-magnitude update speedup."""
    largest = max(rows, key=lambda row: row["size"]) if rows else None
    return {
        "all_byte_identical": all(row["byte_identical"] for row in rows),
        "largest_size": largest["size"] if largest else 0,
        "speedup_total_at_largest": (
            round(largest["speedup_total"], 1) if largest else None
        ),
        "speedup_memory_at_largest": (
            round(largest["speedup_memory"], 1) if largest else None
        ),
        "meets_10x_at_largest": bool(largest) and largest["speedup_total"] >= 10,
        "max_dirty_region": max((row["dirty_region"] for row in rows), default=0),
    }


def run_batch_sweep(
    sizes: Sequence[int] = (2_000, 10_000),
    workload: str = "fig8a",
    ops: int = 50,
    targets: int = 3,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """The engine-path sweep: one coalesced batch vs. op-at-a-time.

    A burst of ``ops`` belief flips round-robins over ``targets`` belief
    roots (an overlapping high-rate stream).  The engine applies it as one
    batch — coalescing collapses the burst to one net write per target and
    the merged dirty region recomputes **once** — while the baseline
    session applies it op by op, paying one regional recomputation and one
    store round trip per op.  Both relations must come out byte-identical.
    """
    rows: List[Dict[str, object]] = []
    for size in sizes:
        network = _build_network(workload, size, seed)
        believers = sorted(
            (u for u in network.users if network.has_explicit_belief(u)), key=str
        )
        chosen = believers[: max(1, min(targets, len(believers)))]
        stream = [
            SetBelief(chosen[i % len(chosen)], f"burst-{i}") for i in range(ops)
        ]

        baseline = IncrementalSession(network.copy(), store=PossStore())
        started = time.perf_counter()
        baseline_recomputes = 0
        for delta in stream:
            baseline_recomputes += baseline.apply(delta).recomputes
        op_at_a_time_seconds = time.perf_counter() - started

        engine = ResolutionEngine.open(network.copy(), store=PossStore())
        engine.materialize()
        started = time.perf_counter()
        report = engine.apply(*stream)
        batched_seconds = time.perf_counter() - started

        identical = _serialized(engine.store) == _serialized(baseline.store)
        rows.append(
            {
                "workload": workload,
                "size": network.size,
                "ops": ops,
                "coalesced_to": report.deltas,
                "recomputes": report.recomputes,
                "baseline_recomputes": baseline_recomputes,
                "op_at_a_time_seconds": op_at_a_time_seconds,
                "batched_seconds": batched_seconds,
                "speedup": op_at_a_time_seconds / max(batched_seconds, 1e-9),
                "byte_identical": identical,
            }
        )
        baseline.close()
        engine.close()
    return rows


def summarize_batch_sweep(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Headline claims of the batch path: identical output, fewer recomputes."""
    return {
        "all_byte_identical": all(row["byte_identical"] for row in rows),
        "fewer_recomputes_than_ops": all(
            row["recomputes"] < row["ops"] for row in rows
        ),
        "max_speedup": (
            round(max(row["speedup"] for row in rows), 1) if rows else None
        ),
        "largest_size": max((row["size"] for row in rows), default=0),
    }


def traced_demo(seed: int = 7) -> Tracer:
    """One traced engine run — materialize plus a batched apply.

    Small enough for smoke runs; returns the :class:`~repro.obs.Tracer`
    holding the recorded span tree (the ``--trace`` / ``--metrics`` flags
    export or summarize it).
    """
    network = _build_network("fig8a", QUICK_SIZES[0], seed)
    tracer = Tracer()
    engine = ResolutionEngine.open(network, tracer=tracer)
    engine.materialize()
    target = _pick_update_target(network, "fig8a", seed)
    engine.apply(
        SetBelief(target, f"updated-{target}-1"),
        SetBelief(target, f"updated-{target}-2"),
    )
    engine.close()
    return tracer


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point (exercised by the docs job)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="network sizes (|U|+|E|) to sweep",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small sweep for smoke runs"
    )
    parser.add_argument(
        "--workload",
        nargs="+",
        choices=("fig8a", "fig8b"),
        default=("fig8a", "fig8b"),
        help="network families to sweep",
    )
    parser.add_argument(
        "--sweep-batches",
        action="store_true",
        help="also run the engine-path batched/coalesced apply sweep",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="workload seed, for reproducible runs (default: 7)",
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
        help="record a traced demo run (materialize + batched apply) and "
        "export Chrome trace_event JSON to PATH (open in Perfetto)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="also run the traced demo and print its aggregated metrics",
    )
    args = parser.parse_args(argv)
    if not args.json:
        install_cli_handler()
    if args.sizes is not None:
        sizes: Sequence[int] = tuple(args.sizes)
    elif args.quick:
        sizes = QUICK_SIZES
    else:
        sizes = DEFAULT_SIZES
    document: Dict[str, object] = {"seed": args.seed, "workloads": {}}
    for workload in args.workload:
        rows = run(sizes=sizes, workload=workload, seed=args.seed)
        entry: Dict[str, object] = {"rows": rows, "summary": summarize(rows)}
        if not args.json:
            report(
                f"Figure 8 ({workload}) — single-belief update: "
                "incremental vs. full re-resolution + reload"
            )
            report(
                format_table(
                    rows,
                    columns=[
                        "size",
                        "dirty_region",
                        "recomputed",
                        "incremental_seconds",
                        "full_resolve_seconds",
                        "delta_apply_seconds",
                        "store_reload_seconds",
                        "speedup_total",
                        "byte_identical",
                    ],
                )
            )
            report(f"summary: {summarize(rows)}")
        if args.sweep_batches:
            batch_rows = run_batch_sweep(
                sizes=sizes[: max(1, len(sizes) - 1)],
                workload=workload,
                ops=20 if args.quick else 50,
                seed=args.seed,
            )
            entry["batch_sweep"] = {
                "rows": batch_rows,
                "summary": summarize_batch_sweep(batch_rows),
            }
            if not args.json:
                report(
                    f"\nFigure 8 ({workload}) — engine batch apply "
                    "(coalesced, one recompute) vs. op-at-a-time"
                )
                report(
                    format_table(
                        batch_rows,
                        columns=[
                            "size",
                            "ops",
                            "coalesced_to",
                            "recomputes",
                            "op_at_a_time_seconds",
                            "batched_seconds",
                            "speedup",
                            "byte_identical",
                        ],
                    )
                )
                report(f"summary: {summarize_batch_sweep(batch_rows)}")
        document["workloads"][workload] = entry
    if args.trace or args.metrics:
        tracer = traced_demo(args.seed)
        if args.trace:
            events = export_chrome_trace(tracer, args.trace)
            report(f"trace: wrote {events} trace_event records to {args.trace}")
        if args.metrics:
            report(tracer.metrics.format())
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True, default=str))


if __name__ == "__main__":  # pragma: no cover
    main()
