"""Execution of bulk resolution plans against the ``POSS`` store (Section 4).

The executor replays a :class:`~repro.bulk.planner.ResolutionPlan` as SQL
statements inside **one transaction per run**:

* a :class:`~repro.bulk.planner.GroupedCopyStep` becomes one multi-child
  ``INSERT … SELECT`` (a plain :class:`~repro.bulk.planner.CopyStep`, as
  emitted by ungrouped plans, becomes one single-child statement);
* a :class:`~repro.bulk.planner.FloodStep` becomes one multi-member
  ``INSERT … SELECT`` per group of members sharing the same constraint set —
  for plain Algorithm-1 plans that is a single statement per flood step,
  regardless of component size.

The number of statements is therefore linear in the number of plan steps
and — crucially for Figure 8c — independent of the number of objects and of
the number of conflicts among them.  Because the whole run is one
transaction, a mid-run :class:`~repro.core.errors.BulkProcessingError` rolls
the relation back to its pre-run state (the loaded explicit beliefs commit
separately and survive).

Scheduling (the pipelined stage scheduler)
------------------------------------------

Every resolver replays the plan through its dependency DAG
(:class:`~repro.bulk.planner.PlanDag`): a statement becomes *ready* the
moment the statements it depends on have finished, independent of how much
of its stage is still outstanding.  This is a **work-queue** over DAG
nodes, not a stage-barrier loop — a node of stage 3 may execute while a
slower, independent node of stage 1 is still running (on another shard, or
on another worker thread of the same store).  Replaying the nodes in any
dependency-satisfied order produces the byte-identical relation (each
user's rows are written by exactly one node and read only after that node
finished — see :class:`~repro.bulk.planner.PlanDag`), which the property
suite locks on hundreds of randomized networks.

* Single store, one worker (the default): the ready queue pops nodes in
  plan order — exactly the sequential replay, now with per-node stage
  instrumentation (``stages_overlapped``).
* Single store, ``workers=N``: worker threads pull ready nodes
  concurrently.  Where the backend's driver serializes concurrent
  statements on one connection internally
  (``supports_concurrent_statements``: sqlite-file on serialized builds,
  opted-in DB-API drivers), the workers issue them directly; otherwise a
  lock serializes the statements while the *scheduling* still overlaps.
  Requires ``supports_concurrent_replay`` (the connection may move across
  threads); stores without it fall back to one worker.
* Sharded store (:class:`ConcurrentBulkResolver`): one thread per shard
  replays the DAG in dependency order with **no cross-shard
  synchronization** — shard A may be three stages ahead of shard B.  The
  ``stage-barrier`` scheduler (``threading.Barrier`` per stage, all shards
  in lockstep) is kept as the measured baseline the pipelined default is
  benchmarked against.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.beliefs import Value
from repro.core.binarize import binarize
from repro.core.errors import (
    BackendUnavailable,
    BulkProcessingError,
    TransientBackendError,
)
from repro.core.network import TrustNetwork, User
from repro.bulk.backends import ShardSpec
from repro.bulk.compile import (
    CompiledPlan,
    CompiledRegion,
    RegionLimits,
    compile_plan,
)
from repro.faults.retry import RetryPolicy
from repro.obs.trace import NULL_TRACER, interval_union
from repro.bulk.planner import (
    CopyStep,
    FloodStep,
    GroupedCopyStep,
    PlanDag,
    ResolutionPlan,
    plan_resolution,
    plan_skeptic_resolution,
)
from repro.bulk.store import BOTTOM_VALUE, PossStore, ShardedPossStore

#: The scheduler names a run report may carry.  ``compiled`` executes the
#: plan region by region (recursive CTEs / window passes pushed into the
#: engine, see :mod:`repro.bulk.compile`); the other two replay the DAG
#: statement-at-a-time.
SCHEDULERS = ("pipelined", "stage-barrier", "compiled")

#: Journal marker for "the explicit beliefs of this run are loaded".
#: DAG node ids are non-negative, so -1 can never collide with one.
JOURNAL_BELIEFS_NODE = -1


@dataclass
class BulkRunReport:
    """Instrumentation of one bulk resolution run.

    Beyond the Figure 8c headline numbers (``objects``, ``statements``,
    ``elapsed_seconds``) the report records the execution configuration so a
    benchmark sweep can attribute timing differences: ``phase_seconds``
    splits the run into the Step-1 copy phase and the Step-2 flood phase of
    Algorithm 1, ``transactions`` counts transactions committed during the
    run (1 by construction — the one-transaction-per-run model of
    Section 4), and ``index_strategy`` / ``backend`` name the store's
    physical design and engine.

    The scheduler fields describe *how* the DAG was replayed:
    ``scheduler`` names the replay discipline (``pipelined`` work-queue or
    the ``stage-barrier`` baseline), ``workers`` the number of threads that
    executed statements per store, and ``stages_overlapped`` how many
    statements began while a statement of a strictly earlier stage was
    still outstanding — 0 under a stage barrier by construction.
    """

    objects: int
    statements: int
    rows_inserted: int
    elapsed_seconds: float
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    transactions: int = 1
    index_strategy: str = "covering"
    backend: str = "sqlite-memory"
    grouped_plan: bool = True
    #: Number of data partitions the run executed over (1 = unsharded).
    shards: int = 1
    #: Wall-clock seconds each shard spent replaying the plan, keyed
    #: ``"shard<i>"``; empty for single-store runs.
    per_shard_seconds: Dict[str, float] = field(default_factory=dict)
    #: Critical-path length of the DAG the run replayed.
    dag_stages: int = 0
    #: Replay discipline: ``pipelined`` (dependency work-queue, the
    #: default) or ``stage-barrier`` (lockstep baseline).
    scheduler: str = "pipelined"
    #: Statement-executing threads per store (1 = serial replay).
    workers: int = 1
    #: Statements that began before every statement of all strictly
    #: earlier stages had finished (counted across shards/workers).
    stages_overlapped: int = 0
    #: Statement retries the store's retry funnel performed during the run.
    retries: int = 0
    #: Statements abandoned because their per-statement deadline elapsed.
    timed_out_statements: int = 0
    #: Faults a fault-injecting backend raised during the run (0 otherwise).
    faults_injected: int = 0
    #: Whether the run journaled per-node checkpoints (one transaction per
    #: DAG node instead of one per run; see ``nodes_skipped``).
    checkpointed: bool = False
    #: DAG nodes skipped because a previous (interrupted) run of the same
    #: checkpoint id had already committed them.
    nodes_skipped: int = 0
    #: Plan regions the ``compiled`` scheduler pushed into the engine as a
    #: single statement (regions that fell back to replay do not count).
    regions_compiled: int = 0
    #: Statements the compiled run avoided versus statement-at-a-time
    #: replay of the same plan, summed across shards (0 for replay runs).
    statements_saved: int = 0
    #: Per-worker pooled connections the run executed over (0 = the run
    #: used the store's single primary connection).
    pool_workers: int = 0
    #: Pooled-connection checkouts the run performed.
    pool_checkouts: int = 0
    #: Most pooled connections simultaneously checked out during the run.
    pool_in_use_peak: int = 0
    #: Total seconds checkouts waited on an exhausted pool during the run.
    pool_wait_seconds: float = 0.0
    #: The :class:`~repro.obs.trace.Tracer` that observed the run, or
    #: ``None`` for untraced runs.  When present, the scalar fields above
    #: are asserted consistent with the recorded spans/metrics.
    trace: Optional[object] = field(default=None, repr=False, compare=False)

    def statements_per_shard(self) -> int:
        """Statements one shard's replay issued (the Section 4 invariant).

        Every shard replays the identical plan, so this equals the
        unsharded plan's statement count regardless of ``shards``.
        """
        return self.statements // max(self.shards, 1)


def _replay_step(store, step) -> Tuple[int, str]:
    """Execute one plan step against a store; returns (rows, phase name).

    This is the single step dispatcher shared by every executor (sequential
    and sharded), so sequential and scatter/gather replays cannot drift
    apart.  The flood dispatch is plan-driven: a step carrying blocked
    values (only Skeptic plans emit those) uses the ⊥-aware statement.
    """
    if isinstance(step, GroupedCopyStep):
        return store.copy_to_children(step.parent, step.children), "copy"
    if isinstance(step, CopyStep):
        return store.copy_from_parent(step.child, step.parent), "copy"
    if isinstance(step, FloodStep):
        if step.blocked:
            return (
                store.flood_component_skeptic(
                    step.members, step.parents, step.blocked_map()
                ),
                "flood",
            )
        return store.flood_component(step.members, step.parents), "flood"
    raise BulkProcessingError(f"unknown plan step {step!r}")


class _PhaseClock:
    """Thread-safe per-phase interval collector.

    Every executing lane (worker thread, shard thread, serial loop) records
    the ``(start, end)`` interval of each copy/flood step it runs;
    :meth:`seconds` unions the intervals per phase.  The union — not the
    sum — is the wall-clock attribution: two workers flooding concurrently
    for 1s each over the same second is 1s of flood time, which is what
    keeps ``sum(phase_seconds.values()) <= elapsed`` true under every
    scheduler.  For serial replay intervals never overlap, so the union
    degenerates to the old per-step sum exactly.
    """

    __slots__ = ("_lock", "_intervals")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._intervals: Dict[str, List[Tuple[float, float]]] = {
            "copy": [],
            "flood": [],
        }

    def add(self, phase: str, started: float, ended: float) -> None:
        with self._lock:
            self._intervals.setdefault(phase, []).append((started, ended))

    def seconds(self) -> Dict[str, float]:
        with self._lock:
            return {
                phase: interval_union(intervals)
                for phase, intervals in self._intervals.items()
            }


def _region_supported(store, region: CompiledRegion) -> bool:
    """Whether ``store``'s dialect can evaluate this region as one statement."""
    dialect = getattr(store, "compiled_dialect", None)
    if dialect is None:
        return False
    if region.kind == "copy":
        return bool(region.edges) and dialect.supports_copy_regions
    if region.kind == "flood":
        return bool(region.pairs) and dialect.supports_flood_stages
    if region.kind == "blocked_flood":
        return bool(region.pairs) and getattr(
            dialect, "supports_blocked_floods", False
        )
    return False


def _execute_region(
    store, region: CompiledRegion, clock: "_PhaseClock"
) -> Tuple[int, bool]:
    """Execute one compiled region on one store; returns (rows, compiled?).

    Capability dispatch happens here, per region and per store: a region
    the store's dialect can evaluate runs as one pushed-down statement;
    anything else — ``replay`` regions, dialect gaps — replays the
    region's steps statement-at-a-time through the shared
    :func:`_replay_step` dispatcher.  Either way the region's effect on the
    relation is identical, which is what the differential suite locks.
    Fence-only flood regions (members closed without any closed parent —
    no pairs to flood) insert nothing under replay too, so they complete
    in zero statements regardless of dialect, matching their
    ``statement_count()`` of 0.
    """
    tracer = getattr(store, "tracer", NULL_TRACER)
    if region.kind in ("flood", "blocked_flood") and not region.pairs:
        return 0, True
    if tracer.enabled:
        region_span = tracer.start(
            "region", kind=region.kind, shard=store.trace_shard
        )
    try:
        if _region_supported(store, region):
            started = time.perf_counter()
            if region.kind == "copy":
                rows = store.copy_region(
                    region.edges, fingerprint=region.fingerprint
                )
                phase = "copy"
            elif region.kind == "blocked_flood":
                rows = store.blocked_flood(
                    region.pairs, region.blocked, fingerprint=region.fingerprint
                )
                phase = "flood"
            else:
                rows = store.flood_stage(
                    region.pairs, fingerprint=region.fingerprint
                )
                phase = "flood"
            clock.add(phase, started, time.perf_counter())
            compiled = True
        else:
            rows = 0
            for step in region.steps:
                started = time.perf_counter()
                step_rows, phase = _replay_step(store, step)
                rows += step_rows
                clock.add(phase, started, time.perf_counter())
            compiled = False
    except BaseException:
        if tracer.enabled:
            tracer.finish(region_span.tag(outcome="error"))
        raise
    if tracer.enabled:
        tracer.finish(region_span.tag(rows=rows, compiled=compiled))
        tracer.metrics.counter("bulk.rows", rows)
    return rows, compiled


class _OverlapTracker:
    """Counts statements that ran ahead of a stage barrier.

    ``stages`` is any longest-path layering — the plan DAG's step stages,
    or a compiled plan's region stages.  ``lanes`` is the number of
    independent replays of the same DAG sharing the tracker (shards, or 1
    for a single store): a node of stage *s* counts as overlapped when it
    starts while any node of a strictly earlier stage — in any lane — has
    not finished.  Under a stage-barrier schedule the count is 0 by
    construction, so the counter directly measures how much barrier-free
    scheduling reordered the replay.
    """

    def __init__(self, stages: Sequence[Sequence[int]], lanes: int) -> None:
        self._lock = threading.Lock()
        self._open = [len(stage) * lanes for stage in stages]
        self.overlapped = 0

    def started(self, stage: int) -> None:
        with self._lock:
            if any(self._open[level] for level in range(stage)):
                self.overlapped += 1

    def finished(self, stage: int) -> None:
        with self._lock:
            self._open[stage] -= 1


class _WorkQueue:
    """Dependency-satisfied scheduling of DAG nodes (min-index order).

    ``depends_on`` lists each node's dependency indices — plan DAG nodes
    or compiled regions, the queue does not care.  A node becomes ready
    when every node it depends on has been marked :meth:`done`;
    :meth:`get` blocks until a node is ready, all nodes have drained, or
    the queue was aborted by a failing worker.  Popping the smallest ready
    index keeps single-worker replay identical to the sequential plan
    order (dependencies always point backwards).
    """

    def __init__(self, depends_on: Sequence[Sequence[int]]) -> None:
        self._cond = threading.Condition()
        self._pending = [len(deps) for deps in depends_on]
        self._dependents: List[List[int]] = [[] for _ in depends_on]
        for index, deps in enumerate(depends_on):
            for dep in deps:
                self._dependents[dep].append(index)
        self._ready = [
            index for index, count in enumerate(self._pending) if count == 0
        ]
        heapq.heapify(self._ready)
        self._unfinished = len(depends_on)
        self._aborted = False

    def get(self) -> Optional[int]:
        """Next ready node index, or ``None`` once drained or aborted."""
        with self._cond:
            while True:
                if self._aborted or not self._unfinished:
                    return None
                if self._ready:
                    return heapq.heappop(self._ready)
                self._cond.wait()

    def done(self, index: int) -> None:
        """Mark a node finished, readying its now-unblocked dependents."""
        with self._cond:
            self._unfinished -= 1
            for dependent in self._dependents[index]:
                self._pending[dependent] -= 1
                if not self._pending[dependent]:
                    heapq.heappush(self._ready, dependent)
            self._cond.notify_all()

    def abort(self) -> None:
        """Wake every waiting worker; the run is over."""
        with self._cond:
            self._aborted = True
            self._cond.notify_all()


def _execute_node(store, node, tracker, clock, lock) -> int:
    """Execute one DAG node with stage/phase instrumentation; returns rows."""
    tracer = getattr(store, "tracer", NULL_TRACER)
    if tracker is not None:
        tracker.started(node.stage)
    if tracer.enabled:
        node_span = tracer.start(
            "node", stage=node.stage, shard=store.trace_shard
        )
    step_started = time.perf_counter()
    try:
        if lock is not None:
            with lock:
                rows, phase = _replay_step(store, node.step)
        else:
            rows, phase = _replay_step(store, node.step)
    except BaseException:
        if tracer.enabled:
            tracer.finish(node_span.tag(outcome="error"))
        raise
    clock.add(phase, step_started, time.perf_counter())
    if tracker is not None:
        tracker.finished(node.stage)
    if tracer.enabled:
        tracer.finish(node_span.tag(phase=phase, rows=rows))
        tracer.metrics.counter("bulk.rows", rows)
    return rows


def replay_dag(
    store: PossStore,
    dag: PlanDag,
    workers: int = 1,
    tracker: Optional[_OverlapTracker] = None,
    stage_barrier: bool = False,
) -> Tuple[int, Dict[str, float]]:
    """Replay every node of ``dag`` on one store; returns (rows, phases).

    The caller owns the surrounding run transaction.  With one worker the
    replay is serial — dependency order for the pipelined scheduler (which
    coincides with the sequential plan order), stage order under the
    barrier discipline.  With several workers, ready nodes are pulled from
    the shared :class:`_WorkQueue` (pipelined) or executed stage by stage
    with a join between stages (barrier); statements are issued directly
    when the store's driver serializes concurrent statements internally and
    behind a shared lock otherwise.
    """
    if workers > 1 and not store.supports_concurrent_replay:
        workers = 1
    lock = (
        None
        if workers == 1 or store.supports_concurrent_statements
        else threading.Lock()
    )
    clock = _PhaseClock()
    if workers == 1:
        nodes = dag.topological_order() if stage_barrier else dag.nodes
        rows = 0
        for node in nodes:
            rows += _execute_node(store, node, tracker, clock, None)
        return rows, clock.seconds()

    tracer = getattr(store, "tracer", NULL_TRACER)
    # Cross-thread parent edge: worker spans attach to whatever span is
    # open on the spawning thread (the run span), captured here because
    # the thread-local nesting cannot see across threads.
    parent = tracer.current() if tracer.enabled else None
    totals = [0] * workers
    errors: List[BaseException] = []

    if stage_barrier:
        for stage in dag.stages:
            _run_stage_on_workers(
                store, dag, stage, workers, tracker, totals, clock, errors, lock, parent
            )
            if errors:
                raise errors[0]
    else:
        queue = _WorkQueue([node.depends_on for node in dag.nodes])

        def pull(slot: int) -> None:
            if tracer.enabled:
                worker_span = tracer.start("worker", parent=parent, slot=slot)
            try:
                while True:
                    index = queue.get()
                    if index is None:
                        return
                    node = dag.nodes[index]
                    try:
                        totals[slot] += _execute_node(
                            store, node, tracker, clock, lock
                        )
                    except BaseException as error:  # re-raised on the caller
                        errors.append(error)
                        queue.abort()
                        return
                    queue.done(index)
            finally:
                if tracer.enabled:
                    tracer.finish(worker_span)

        threads = [
            threading.Thread(target=pull, args=(slot,), name=f"worker{slot}")
            for slot in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    return sum(totals), clock.seconds()


def _run_stage_on_workers(
    store, dag, stage, workers, tracker, totals, clock, errors, lock, parent=None
) -> None:
    """Barrier discipline: execute one stage's nodes, join, move on."""
    position = {"next": 0}
    guard = threading.Lock()
    tracer = getattr(store, "tracer", NULL_TRACER)

    def pull(slot: int) -> None:
        if tracer.enabled:
            worker_span = tracer.start("worker", parent=parent, slot=slot)
        try:
            while True:
                with guard:
                    if errors or position["next"] >= len(stage):
                        return
                    index = stage[position["next"]]
                    position["next"] += 1
                node = dag.nodes[index]
                try:
                    totals[slot] += _execute_node(store, node, tracker, clock, lock)
                except BaseException as error:
                    errors.append(error)
                    return
        finally:
            if tracer.enabled:
                tracer.finish(worker_span)

    threads = [
        threading.Thread(target=pull, args=(slot,), name=f"stage-worker{slot}")
        for slot in range(min(workers, len(stage)))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class _PlanExecutor:
    """Shared run loop: replay a plan's DAG inside one store transaction.

    Subclasses bind the plan (plain Algorithm 1 vs. Skeptic); step → SQL
    dispatch is shared via :func:`_replay_step` and scheduling via
    :func:`replay_dag`, so the three resolvers cannot drift apart.
    """

    store: PossStore
    plan: ResolutionPlan

    def __init__(
        self,
        workers: int = 1,
        scheduler: str = "pipelined",
        retry_policy: Optional[RetryPolicy] = None,
        checkpoint: Optional[str] = None,
        compiled_plan: Optional[CompiledPlan] = None,
        tracer=None,
        pool_workers: Optional[int] = None,
    ) -> None:
        if scheduler not in SCHEDULERS:
            raise BulkProcessingError(
                f"unknown scheduler {scheduler!r}; known: {SCHEDULERS}"
            )
        if workers < 1:
            raise BulkProcessingError("workers must be >= 1")
        if pool_workers is None:
            # The chaos/CI switch: REPRO_POOL_WORKERS=N routes every
            # compiled run on a poolable single store through the pooled
            # per-region-transaction path without any call site opting in.
            env = os.environ.get("REPRO_POOL_WORKERS", "").strip()
            pool_workers = int(env) if env else 0
        if pool_workers < 0:
            raise BulkProcessingError("pool_workers must be >= 0")
        self._loaded_objects: set = set()
        self._workers = workers
        self._scheduler = scheduler
        self._retry_policy = retry_policy
        self._checkpoint = checkpoint
        self._pool_workers = pool_workers
        self._dag: Optional[PlanDag] = None
        self._compiled_plan = compiled_plan
        self.tracer = NULL_TRACER if tracer is None else tracer

    def _attach_store(self, store) -> None:
        """Bind the store, applying the caller's retry policy if any."""
        self.store = store
        if self._retry_policy is not None:
            # The retry loop lives at the store's statement funnel (one
            # retry site, BEGIN included); the executor only configures it.
            store.retry_policy = self._retry_policy
        if self.tracer.enabled:
            # One tracer observes every layer: the store's statement funnel
            # (and its fault-injecting backend, if any) emits into the same
            # collection the executor's run/region/node spans land in.
            store.tracer = self.tracer

    def _trace_begin(self, **tags):
        """Open the run span and snapshot the metrics counters.

        Returns ``(span, counters)`` — both ``None`` when tracing is off.
        Call at the same point the run snapshots the store's statement
        counters, so the metric deltas line up with the report fields.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return None, None
        store = self.store
        shards = len(store.shards) if isinstance(store, ShardedPossStore) else 1
        span = tracer.start(
            "bulk.run",
            scheduler=self._scheduler,
            shards=shards,
            checkpoint=self._checkpoint,
            **tags,
        )
        return span, tracer.metrics.counters()

    def _trace_finish(
        self, span, counters_before, report: BulkRunReport, check_rows: bool = True
    ) -> BulkRunReport:
        """Close the run span, attach the trace, and verify consistency.

        The tracer's metrics were incremented at the *same sites* the
        store's report counters were (statement funnel, fault check, row
        accumulation), so after a successful run the metric deltas must
        equal the report fields exactly — any mismatch means an
        instrumentation seam was missed and is raised loudly.
        ``check_rows=False`` relaxes the row check for runs that may
        quarantine a shard mid-run (its executed rows are traced but
        excluded from the gathered report).
        """
        tracer = self.tracer
        if span is None or not tracer.enabled:
            return report
        tracer.finish(
            span.tag(
                statements=report.statements,
                rows=report.rows_inserted,
                workers=report.workers,
            )
        )
        delta = tracer.metrics.delta(counters_before)
        checks = [
            ("poss.statements.bulk", report.statements),
            ("poss.retries", report.retries),
            ("poss.timeouts", report.timed_out_statements),
            ("faults.injected", report.faults_injected),
            # Unpooled runs: 0 expected, and the metric never moved.
            ("pool.checkouts", report.pool_checkouts),
        ]
        if check_rows:
            checks.append(("bulk.rows", report.rows_inserted))
        for name, expected in checks:
            observed = delta.get(name, 0)
            if observed != expected:
                raise BulkProcessingError(
                    f"trace/report mismatch: metric {name} recorded "
                    f"{observed} but the run report says {expected}"
                )
        for phase, seconds in report.phase_seconds.items():
            tracer.metrics.histogram(f"phase.{phase}", seconds)
        report.trace = tracer
        return report

    def _trace_abort(self, span) -> None:
        """Close the run span on a failed run (keeps the stack balanced)."""
        if span is not None and self.tracer.enabled:
            self.tracer.finish(span.tag(outcome="error"))

    @property
    def dag(self) -> PlanDag:
        """The plan's dependency DAG (lowered once, cached)."""
        if self._dag is None:
            self._dag = self.plan.dag()
        return self._dag

    def _dag_stages(self) -> int:
        """Critical-path length of the plan's step DAG, for the run report.

        Compiled runs read it from the compiled plan, which caches it;
        replay runs lower the DAG anyway to schedule it.
        """
        if self._scheduler == "compiled":
            return self.compiled.dag_stages
        return self.dag.stage_count

    @property
    def compiled(self) -> CompiledPlan:
        """The plan's region partition (compiled once, cached).

        A caller-maintained :class:`~repro.bulk.compile.CompiledPlan` (the
        engine's incrementally spliced one) takes precedence; otherwise the
        plan compiles on first use by the ``compiled`` scheduler, with
        region sizes derived from the attached store's probed
        bound-parameter capacity (``store.max_bind_params``) so deep
        chains compile into fewer, larger regions on modern engines.
        """
        if self._compiled_plan is None or self._compiled_plan.plan is not self.plan:
            self._compiled_plan = compile_plan(self.plan, limits=self.region_limits)
        return self._compiled_plan

    @property
    def region_limits(self) -> RegionLimits:
        """Bind-parameter budget of the attached store's backend."""
        capacity = getattr(self.store, "max_bind_params", None)
        if capacity is None:
            return RegionLimits()
        return RegionLimits.for_bind_params(capacity)

    def _counters_before(self) -> Dict[str, int]:
        store = self.store
        return {
            "retries": store.retries,
            "timed_out": store.timed_out_statements,
            "faults": store.faults_injected,
        }

    def _fault_fields(self, before: Dict[str, int]) -> Dict[str, int]:
        store = self.store
        return {
            "retries": store.retries - before["retries"],
            "timed_out_statements": store.timed_out_statements
            - before["timed_out"],
            "faults_injected": store.faults_injected - before["faults"],
        }

    def run(self) -> BulkRunReport:
        """Execute the plan in a single transaction and return instrumentation.

        On any error the transaction is rolled back before the exception
        propagates, leaving the relation exactly as loaded.  With a
        ``checkpoint`` run id the execution model changes to one
        transaction *per DAG node*, journaled, resumable (see
        :meth:`_run_checkpointed`).
        """
        store = self.store
        # Run-start health check: heal a died-while-idle connection (one
        # reconnect attempt) before the first statement of the run.
        store.ensure_available()
        if self._scheduler == "compiled":
            if self._checkpoint is not None:
                return self._run_compiled_checkpointed()
            return self._run_compiled()
        if self._checkpoint is not None:
            return self._run_checkpointed()
        started = time.perf_counter()
        statements_before = store.bulk_statements
        transactions_before = store.transactions
        fault_counters = self._counters_before()
        run_span, metrics_before = self._trace_begin()
        dag = self.dag
        workers = self._workers
        if workers > 1 and not store.supports_concurrent_replay:
            workers = 1
        tracker = _OverlapTracker(dag.stages, lanes=1)
        try:
            with store.transaction():
                rows, phase_seconds = replay_dag(
                    store,
                    dag,
                    workers=workers,
                    tracker=tracker,
                    stage_barrier=self._scheduler == "stage-barrier",
                )
        except BaseException:
            self._trace_abort(run_span)
            raise
        elapsed = time.perf_counter() - started
        report = BulkRunReport(
            objects=len(self._loaded_objects),
            statements=store.bulk_statements - statements_before,
            rows_inserted=rows,
            elapsed_seconds=elapsed,
            phase_seconds=phase_seconds,
            transactions=store.transactions - transactions_before,
            index_strategy=store.index_strategy.name,
            backend=store.backend_name,
            grouped_plan=self.plan.grouped,
            dag_stages=dag.stage_count,
            scheduler=self._scheduler,
            workers=workers,
            stages_overlapped=tracker.overlapped,
            **self._fault_fields(fault_counters),
        )
        return self._trace_finish(run_span, metrics_before, report)

    def _run_checkpointed(self) -> BulkRunReport:
        """Journaled replay: one transaction per DAG node, resumable.

        Each node's rows and its ``POSS_JOURNAL`` record commit atomically;
        nodes already journaled under this run id are skipped.  A crash (or
        exhausted retries) therefore loses at most the one in-flight node,
        and re-running with the same checkpoint id completes exactly the
        remaining nodes.  Sound because resolution is deterministic and a
        node's output rows depend only on its (already final) inputs —
        the resumed relation is byte-identical to an uninterrupted run.
        """
        store = self.store
        run_id = self._checkpoint
        started = time.perf_counter()
        statements_before = store.bulk_statements
        transactions_before = store.transactions
        fault_counters = self._counters_before()
        run_span, metrics_before = self._trace_begin()
        dag = self.dag
        clock = _PhaseClock()
        rows = 0
        skipped = 0
        try:
            completed = store.journal_completed(run_id)
            for node in dag.nodes:
                if node.index in completed:
                    skipped += 1
                    continue
                with store.transaction():
                    rows += _execute_node(store, node, None, clock, None)
                    store.journal_record(run_id, node.index)
        except BaseException:
            self._trace_abort(run_span)
            raise
        elapsed = time.perf_counter() - started
        report = BulkRunReport(
            objects=len(self._loaded_objects),
            statements=store.bulk_statements - statements_before,
            rows_inserted=rows,
            elapsed_seconds=elapsed,
            phase_seconds=clock.seconds(),
            transactions=store.transactions - transactions_before,
            index_strategy=store.index_strategy.name,
            backend=store.backend_name,
            grouped_plan=self.plan.grouped,
            dag_stages=dag.stage_count,
            scheduler=self._scheduler,
            workers=1,
            checkpointed=True,
            nodes_skipped=skipped,
            **self._fault_fields(fault_counters),
        )
        return self._trace_finish(run_span, metrics_before, report)

    def _region_workers(self) -> int:
        """Worker threads a compiled run may schedule regions on.

        Concurrent region execution on a *single* store is gated on the
        driver serializing concurrent statements internally
        (``supports_concurrent_statements``) — the same capability the
        pipelined scheduler requires for lock-free statement overlap.
        Sharded stores parallelize by shard lane instead
        (:class:`ConcurrentBulkResolver`), never by fan-out statement, so
        they always report one driving worker here.
        """
        store = self.store
        if self._workers <= 1 or isinstance(store, ShardedPossStore):
            return 1
        if not (
            store.supports_concurrent_replay
            and store.supports_concurrent_statements
        ):
            return 1
        return max(1, min(self._workers, self.compiled.region_count))

    # ------------------------------------------------------------------ #
    # pooled (connection-per-worker) compiled execution                    #
    # ------------------------------------------------------------------ #

    def _pooled_active(self) -> bool:
        """Whether this run executes on per-worker pooled connections.

        Requires the ``compiled`` scheduler (per-region transactions only
        make sense at region granularity), a *single* store (sharded
        stores already parallelize one lane per shard) and a backend whose
        pooled connections share the database
        (``store.supports_pooling`` — notably False for the in-memory
        sqlite backend, whose every connection is a private database).
        ``pool_workers=1`` still counts: it exercises the same pooled
        per-region-transaction model, which is what the benchmark's
        1-vs-4 comparison isolates.
        """
        if self._pool_workers < 1 or self._scheduler != "compiled":
            return False
        store = self.store
        if isinstance(store, ShardedPossStore):
            return False
        return bool(getattr(store, "supports_pooling", False))

    def _rollback_pooled_run(self, run_id: str) -> None:
        """Compensate a failed non-resumable pooled run: undo whole regions.

        Committed regions of the failed run are exactly the journaled
        ones, and a region only ever inserts rows for the users it
        *closes* — derived users with no pre-run rows (explicit beliefs
        are loaded for plan sources, never for closed users).  Deleting
        those users' rows and the journal therefore restores the pre-run
        relation.  A failure *inside* the compensation is swallowed: the
        original run error is the one that matters, and the surviving
        journal entries remain as evidence that rollback is incomplete.
        """
        store = self.store
        try:
            completed = store.journal_completed(run_id)
            if completed:
                users: set = set()
                for region, marker in zip(
                    self.compiled.regions, self.compiled.journal_markers()
                ):
                    if marker in completed:
                        users.update(region.closed_users())
                if users:
                    store.discard_user_rows(sorted(users))
            store.journal_clear(run_id)
        except Exception:
            pass

    def _pooled_region_once(
        self, session, region, marker: int, run_id: str, token, clock
    ) -> Tuple[int, bool]:
        """One attempt at one region on one pooled session.

        Single-writer backends (``token`` is a lock) run dialect-supported
        regions *staged*: the region SELECT evaluates into a private temp
        table outside the token (concurrent with other workers' reads and
        the current writer), and only the short ``INSERT … SELECT FROM
        stage`` plus the journal marker run inside token + transaction.
        Everything else — MVCC backends, replay regions, dialect gaps,
        fence-only floods — runs whole inside its per-region transaction
        (under the token when one exists).  Either way the journal write
        commits atomically with the region's rows.
        """
        guard = token if token is not None else contextlib.nullcontext()
        tracer = self.tracer
        if (
            token is not None
            and region.kind != "replay"
            and region.fingerprint is not None
            and _region_supported(session, region)
        ):
            stage = session.stage_region(region)
            if stage is not None:
                phase = "copy" if region.kind == "copy" else "flood"
                span = None
                if tracer.enabled:
                    span = tracer.start(
                        "region",
                        kind=region.kind,
                        shard=session.trace_shard,
                        staged=True,
                    )
                try:
                    started = time.perf_counter()
                    try:
                        with guard:
                            with session.transaction():
                                rows = session.apply_stage(stage)
                                session.journal_record(run_id, marker)
                    finally:
                        clock.add(phase, started, time.perf_counter())
                        session.drop_stage(stage)
                except BaseException:
                    if span is not None:
                        tracer.finish(span.tag(outcome="error"))
                    raise
                if span is not None:
                    tracer.finish(span.tag(rows=rows, compiled=True))
                if tracer.enabled:
                    tracer.metrics.counter("bulk.rows", rows)
                return rows, True
        with guard:
            with session.transaction():
                rows, used_compiled = _execute_region(session, region, clock)
                session.journal_record(run_id, marker)
        return rows, used_compiled

    def _execute_pooled_region(
        self, session, region, marker: int, run_id: str, token, clock
    ) -> Tuple[int, bool]:
        """One region with region-level retry around its transaction.

        The statement funnel already retries transient faults per
        statement; this outer loop additionally retries the *whole region
        transaction* when a transient failure escapes it (exhausted
        statement retries, a failed ``BEGIN``, an ambiguous commit).  Safe
        to re-run: a rolled-back region applied nothing, and even a
        commit that succeeded before its acknowledgment was lost only
        makes the re-run insert duplicate rows — logically invisible
        (every read is ``SELECT DISTINCT``) — and a duplicate journal
        marker, which :meth:`PossStore.journal_completed` deduplicates.
        """
        policy = self.store.retry_policy
        attempt = 1
        while True:
            try:
                return self._pooled_region_once(
                    session, region, marker, run_id, token, clock
                )
            except TransientBackendError:
                if attempt >= policy.max_attempts:
                    raise
                time.sleep(policy.delay(attempt))
                attempt += 1

    def _run_compiled_pooled(self) -> BulkRunReport:
        """Connection-per-worker compiled execution, per-region transactions.

        Every worker thread checks a connection out of the store's pool
        (:meth:`PossStore.pooled_session`) and pulls ready regions off the
        shared dependency queue; each region commits its own short
        transaction with its ``POSS_JOURNAL`` marker inside it.  The
        single writer of sqlite is respected through a write token, with
        the region SELECTs staged outside it (see
        :meth:`_pooled_region_once`) — that staging is where the
        wall-clock overlap comes from.

        All-or-nothing semantics survive the loss of the single run
        transaction: a failed run either rolls its committed regions back
        by run id (:meth:`_rollback_pooled_run`) or — when the caller
        named a checkpoint — leaves the journal in place and resumes,
        skipping the journaled regions exactly like the serial
        checkpointed scheduler.
        """
        store = self.store
        resumable = self._checkpoint is not None
        run_id = (
            self._checkpoint
            if resumable
            else f"__pool__{uuid.uuid4().hex}"
        )
        started = time.perf_counter()
        statements_before = store.bulk_statements
        transactions_before = store.transactions
        fault_counters = self._counters_before()
        pool_counters = (store.pool_checkouts, store.pool_wait_seconds)
        run_span, metrics_before = self._trace_begin(compiled=True, pooled=True)
        compiled = self.compiled
        schedule = compiled.schedule
        markers = compiled.journal_markers()
        stage_of = [0] * schedule.region_count
        for level, stage in enumerate(schedule.stages):
            for index in stage:
                stage_of[index] = level
        pool_workers = max(
            1, min(self._pool_workers, max(schedule.region_count, 1))
        )
        tracker = _OverlapTracker(schedule.stages, lanes=1)
        clock = _PhaseClock()
        tracer = self.tracer
        token = (
            None
            if getattr(store, "supports_concurrent_writes", False)
            else threading.Lock()
        )
        try:
            completed = store.journal_completed(run_id) if resumable else frozenset()
            skipped = sum(
                len(region.steps)
                for region, marker in zip(compiled.regions, markers)
                if marker in completed
            )
            totals = [0] * pool_workers
            compiled_counts = [0] * pool_workers
            errors: List[BaseException] = []
            queue = _WorkQueue(schedule.depends_on)

            def pull(slot: int) -> None:
                try:
                    with store.pooled_session(
                        slot=slot, size=pool_workers, parent_span=run_span
                    ) as session:
                        while True:
                            index = queue.get()
                            if index is None:
                                return
                            if markers[index] in completed:
                                queue.done(index)
                                continue
                            tracker.started(stage_of[index])
                            try:
                                region_rows, used_compiled = (
                                    self._execute_pooled_region(
                                        session,
                                        compiled.regions[index],
                                        markers[index],
                                        run_id,
                                        token,
                                        clock,
                                    )
                                )
                            except BaseException as error:  # re-raised below
                                errors.append(error)
                                queue.abort()
                                return
                            tracker.finished(stage_of[index])
                            totals[slot] += region_rows
                            compiled_counts[slot] += int(used_compiled)
                            queue.done(index)
                except BaseException as error:  # checkout/checkin failure
                    errors.append(error)
                    queue.abort()

            threads = [
                threading.Thread(
                    target=pull, args=(slot,), name=f"pool-worker{slot}"
                )
                for slot in range(pool_workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]
            if not resumable:
                # A successful one-shot pooled run leaves no journal behind
                # (its run id is private, so nothing could ever resume it).
                store.journal_clear(run_id)
        except BaseException:
            self._trace_abort(run_span)
            if not resumable:
                # Mid-run worker death must not leave a partially visible
                # run: undo the committed regions by run id.  Checkpointed
                # runs instead keep the journal and resume.
                self._rollback_pooled_run(run_id)
            raise
        elapsed = time.perf_counter() - started
        statements = store.bulk_statements - statements_before
        report = BulkRunReport(
            objects=len(self._loaded_objects),
            statements=statements,
            rows_inserted=sum(totals),
            elapsed_seconds=elapsed,
            phase_seconds=clock.seconds(),
            transactions=store.transactions - transactions_before,
            index_strategy=store.index_strategy.name,
            backend=store.backend_name,
            grouped_plan=self.plan.grouped,
            dag_stages=compiled.dag_stages,
            scheduler=self._scheduler,
            workers=pool_workers,
            stages_overlapped=tracker.overlapped,
            checkpointed=resumable,
            nodes_skipped=skipped,
            regions_compiled=sum(compiled_counts),
            statements_saved=max(
                0, compiled.replay_statement_count() - statements
            ),
            pool_workers=pool_workers,
            pool_checkouts=store.pool_checkouts - pool_counters[0],
            pool_in_use_peak=store.pool_in_use_peak,
            pool_wait_seconds=store.pool_wait_seconds - pool_counters[1],
            **self._fault_fields(fault_counters),
        )
        return self._trace_finish(run_span, metrics_before, report)

    def _run_compiled(self) -> BulkRunReport:
        """Region-at-a-time execution: one pushed-down statement per region.

        The plan's region partition (:attr:`compiled`) executes inside the
        usual single run transaction — in plan order with one worker, or
        concurrently over the region dependency DAG (``compiled.schedule``)
        with ``workers=N`` on stores whose driver serializes concurrent
        statements.  Any dependency-respecting order is byte-identical (a
        region only reads users closed by regions it depends on).  Regions
        the store's dialect cannot evaluate fall back to
        statement-at-a-time replay individually, so the run always
        completes with the byte-identical relation; ``statements_saved``
        reports the round trips the capable regions actually avoided.  A
        transient fault inside a region is retried at the store's
        statement funnel — the region *is* one statement, so statement
        retry and region retry coincide.
        """
        if self._pooled_active():
            return self._run_compiled_pooled()
        store = self.store
        started = time.perf_counter()
        statements_before = store.bulk_statements
        transactions_before = store.transactions
        fault_counters = self._counters_before()
        run_span, metrics_before = self._trace_begin(compiled=True)
        compiled = self.compiled
        schedule = compiled.schedule
        stage_of = [0] * schedule.region_count
        for level, stage in enumerate(schedule.stages):
            for index in stage:
                stage_of[index] = level
        workers = self._region_workers()
        tracker = _OverlapTracker(schedule.stages, lanes=1)
        clock = _PhaseClock()
        tracer = self.tracer
        rows = 0
        regions_compiled = 0
        try:
            with store.transaction():
                if workers == 1:
                    for index, region in enumerate(compiled.regions):
                        tracker.started(stage_of[index])
                        region_rows, used_compiled = _execute_region(
                            store, region, clock
                        )
                        tracker.finished(stage_of[index])
                        rows += region_rows
                        regions_compiled += int(used_compiled)
                else:
                    queue = _WorkQueue(schedule.depends_on)
                    totals = [0] * workers
                    compiled_counts = [0] * workers
                    errors: List[BaseException] = []

                    def pull(slot: int) -> None:
                        if tracer.enabled:
                            worker_span = tracer.start(
                                "region.worker", parent=run_span, slot=slot
                            )
                        try:
                            while True:
                                index = queue.get()
                                if index is None:
                                    return
                                tracker.started(stage_of[index])
                                try:
                                    region_rows, used_compiled = _execute_region(
                                        store, compiled.regions[index], clock
                                    )
                                except BaseException as error:  # re-raised below
                                    errors.append(error)
                                    queue.abort()
                                    return
                                tracker.finished(stage_of[index])
                                totals[slot] += region_rows
                                compiled_counts[slot] += int(used_compiled)
                                queue.done(index)
                        finally:
                            if tracer.enabled:
                                tracer.finish(worker_span)

                    threads = [
                        threading.Thread(
                            target=pull, args=(slot,), name=f"region-worker{slot}"
                        )
                        for slot in range(workers)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    if errors:
                        raise errors[0]
                    rows = sum(totals)
                    regions_compiled = sum(compiled_counts)
        except BaseException:
            self._trace_abort(run_span)
            raise
        elapsed = time.perf_counter() - started
        statements = store.bulk_statements - statements_before
        lanes = len(store.shards) if isinstance(store, ShardedPossStore) else 1
        report = BulkRunReport(
            objects=len(self._loaded_objects),
            statements=statements,
            rows_inserted=rows,
            elapsed_seconds=elapsed,
            phase_seconds=clock.seconds(),
            transactions=store.transactions - transactions_before,
            index_strategy=store.index_strategy.name,
            backend=store.backend_name,
            grouped_plan=self.plan.grouped,
            dag_stages=compiled.dag_stages,
            scheduler=self._scheduler,
            workers=workers,
            stages_overlapped=tracker.overlapped,
            regions_compiled=regions_compiled,
            statements_saved=max(
                0, compiled.replay_statement_count() * lanes - statements
            ),
            **self._fault_fields(fault_counters),
        )
        return self._trace_finish(run_span, metrics_before, report)

    def _run_compiled_checkpointed(self) -> BulkRunReport:
        """Journaled region execution: one transaction per region, resumable.

        The journal marker of a region is the plan index of its *last*
        step, recorded atomically with the region's rows — a crash inside a
        region rolls the whole region back and leaves no marker, so the
        resumed run re-executes exactly the uncommitted regions.  Resume
        with the same scheduler that started the run: the compiled and
        per-node journals key on different markers, and the engine keeps
        their run ids distinct for this reason.
        """
        if self._pooled_active():
            return self._run_compiled_pooled()
        store = self.store
        run_id = self._checkpoint
        started = time.perf_counter()
        statements_before = store.bulk_statements
        transactions_before = store.transactions
        fault_counters = self._counters_before()
        run_span, metrics_before = self._trace_begin(compiled=True)
        compiled = self.compiled
        clock = _PhaseClock()
        rows = 0
        skipped = 0
        regions_compiled = 0
        try:
            completed = store.journal_completed(run_id)
            for region, marker in zip(
                compiled.regions, compiled.journal_markers()
            ):
                if marker in completed:
                    # Region markers are plan step indices, so skipped work
                    # is reported in the same unit as the per-node scheduler.
                    skipped += len(region.steps)
                    continue
                with store.transaction():
                    region_rows, used_compiled = _execute_region(
                        store, region, clock
                    )
                    rows += region_rows
                    regions_compiled += int(used_compiled)
                    store.journal_record(run_id, marker)
        except BaseException:
            self._trace_abort(run_span)
            raise
        elapsed = time.perf_counter() - started
        statements = store.bulk_statements - statements_before
        report = BulkRunReport(
            objects=len(self._loaded_objects),
            statements=statements,
            rows_inserted=rows,
            elapsed_seconds=elapsed,
            phase_seconds=clock.seconds(),
            transactions=store.transactions - transactions_before,
            index_strategy=store.index_strategy.name,
            backend=store.backend_name,
            grouped_plan=self.plan.grouped,
            dag_stages=compiled.dag_stages,
            scheduler=self._scheduler,
            workers=1,
            checkpointed=True,
            nodes_skipped=skipped,
            regions_compiled=regions_compiled,
            statements_saved=max(
                0, compiled.replay_statement_count() - statements
            ),
            **self._fault_fields(fault_counters),
        )
        return self._trace_finish(run_span, metrics_before, report)

    def possible_values(self, user: User, key: object) -> FrozenSet[str]:
        """Possible values of a user for one object after :meth:`run`."""
        return self.store.possible_values(user, key)

    def certain_values(self, user: User, key: object) -> FrozenSet[str]:
        """Certain values of a user for one object after :meth:`run`."""
        return self.store.certain_values(user, key)


class BulkResolver(_PlanExecutor):
    """Resolve many objects at once through SQL bulk statements (Section 4).

    Typical use::

        resolver = BulkResolver(network)
        resolver.load_beliefs(beliefs)          # (user, key, value) triples
        report = resolver.run()
        resolver.store.possible_values("x1", "k0")

    ``group_copies`` selects between grouped copy statements (the default,
    one per distinct parent) and the seed's one-per-child plan; both produce
    identical relations.  ``workers`` > 1 lets the pipelined scheduler
    overlap independent DAG stages on stores whose connection may move
    across threads (sqlite-file, DB-API engines); ``scheduler`` selects the
    replay discipline (see the module docstring).
    """

    def __init__(
        self,
        network: TrustNetwork,
        store: Optional[PossStore] = None,
        explicit_users: Optional[Sequence[User]] = None,
        group_copies: bool = True,
        workers: int = 1,
        scheduler: str = "pipelined",
        plan: Optional[ResolutionPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        checkpoint: Optional[str] = None,
        compiled_plan: Optional[CompiledPlan] = None,
        tracer=None,
        pool_workers: Optional[int] = None,
    ) -> None:
        super().__init__(
            workers=workers,
            scheduler=scheduler,
            retry_policy=retry_policy,
            checkpoint=checkpoint,
            compiled_plan=compiled_plan,
            tracer=tracer,
            pool_workers=pool_workers,
        )
        self.network = network
        self._attach_store(store or PossStore())
        if plan is not None:
            # A caller-maintained plan (the engine's incrementally patched
            # one) replaces planning from scratch; it must already target
            # the binary planning network.
            self._planning_network = plan.network
            self.plan = plan
            return
        # Algorithm 1 (and hence the plan) is defined on binary networks; the
        # bulk resolver binarizes transparently so that callers can hand it
        # the network exactly as drawn in the paper (Figure 19 is not binary).
        planning_network = network
        if not network.is_binary():
            planning_network = binarize(network).btn
        self._planning_network = planning_network
        self.plan: ResolutionPlan = plan_resolution(
            planning_network, explicit_users, group_copies=group_copies
        )

    def _register_beliefs(self, rows: List[Tuple[User, object, Value]]) -> None:
        """Verify bulk assumptions (i) and (ii) and record the object set."""
        by_user: Dict[str, set] = {}
        for user, key, _value in rows:
            by_user.setdefault(str(user), set()).add(str(key))
            self._loaded_objects.add(str(key))
        expected = {str(user) for user in self.plan.explicit_users}
        if expected and set(by_user) - expected:
            raise BulkProcessingError(
                "beliefs supplied for users outside the planned explicit set: "
                f"{sorted(set(by_user) - expected)}"
            )
        for user, keys in by_user.items():
            if keys != self._loaded_objects:
                raise BulkProcessingError(
                    f"bulk assumption (ii) violated: user {user} lacks beliefs for "
                    f"{len(self._loaded_objects - keys)} objects"
                )

    def load_beliefs(self, rows: Iterable[Tuple[User, object, Value]]) -> int:
        """Load explicit beliefs; verifies bulk assumptions (i) and (ii).

        Under a checkpoint run id the load itself is journaled (the
        ``JOURNAL_BELIEFS_NODE`` marker commits atomically with the rows),
        so a resumed run neither duplicates nor skips the source data.
        """
        rows = list(rows)
        self._register_beliefs(rows)
        if self._checkpoint is not None:
            return self._load_beliefs_checkpointed(rows)
        return self.store.insert_explicit_beliefs(rows)

    def _load_beliefs_checkpointed(
        self, rows: List[Tuple[User, object, Value]]
    ) -> int:
        run_id = self._checkpoint
        store = self.store
        if isinstance(store, ShardedPossStore):
            partitions = store.spec.partition_rows(rows)
            inserted = 0
            for index, shard in enumerate(store.shards):
                if store.is_degraded(index):
                    continue
                if JOURNAL_BELIEFS_NODE in shard.journal_completed(run_id):
                    continue
                with shard.transaction():
                    inserted += shard.insert_explicit_beliefs(partitions[index])
                    shard.journal_record(run_id, JOURNAL_BELIEFS_NODE)
            return inserted
        if JOURNAL_BELIEFS_NODE in store.journal_completed(run_id):
            return 0
        with store.transaction():
            inserted = store.insert_explicit_beliefs(rows)
            store.journal_record(run_id, JOURNAL_BELIEFS_NODE)
        return inserted

class ConcurrentBulkResolver(BulkResolver):
    """Scatter/gather bulk resolution over a key-sharded ``POSS`` relation.

    The plan is lowered to its dependency DAG
    (:class:`~repro.bulk.planner.PlanDag`) and replayed — concurrently where
    the backends allow — on **every shard** of a
    :class:`~repro.bulk.store.ShardedPossStore`: each shard holds a disjoint
    slice of the object keys, and the plan is data-independent, so per-shard
    replay of the identical DAG resolves the whole relation.  When every
    shard's backend supports it (``supports_concurrent_replay``: sqlite-file
    and DB-API backends do), shards replay on their own threads; in-memory
    sqlite shards degrade to sequential replay, same results, no
    concurrency.

    Scheduling is pipelined by default: each shard thread replays the DAG
    in dependency order with no cross-shard synchronization, so shard A may
    run a stage-3 statement while shard B is still flooding stage 1 —
    independent DAG stages genuinely overlap on the one (sharded) store.
    ``scheduler="stage-barrier"`` keeps every shard in lockstep with a
    :class:`threading.Barrier` per stage; it exists as the measured
    baseline of the pipelined default (see the Figure 8c scheduler sweep).

    The run spans one transaction per shard, opened together and
    all-or-nothing: a failure on any shard (worker exceptions re-raise on
    the gathering thread) rolls back every shard.

    Typical use::

        resolver = ConcurrentBulkResolver(network, shards=4)
        resolver.load_beliefs(beliefs)          # routed to shards by key
        report = resolver.run()                 # report.shards == 4
        resolver.store.possible_values("x1", "k0")

    ``shards`` is an ``int`` (hash routing, default 2) or a
    :class:`~repro.bulk.backends.ShardSpec`; pass ``store`` to control the
    shard backends (files, servers, schemas) instead — the two are mutually
    exclusive, since an explicit store already fixes its shard layout.
    """

    def __init__(
        self,
        network: TrustNetwork,
        shards: "ShardSpec | int | None" = None,
        store: Optional[ShardedPossStore] = None,
        explicit_users: Optional[Sequence[User]] = None,
        group_copies: bool = True,
        scheduler: str = "pipelined",
        plan: Optional[ResolutionPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        checkpoint: Optional[str] = None,
        compiled_plan: Optional[CompiledPlan] = None,
        tracer=None,
    ) -> None:
        if store is None:
            store = ShardedPossStore(2 if shards is None else shards)
        elif shards is not None:
            raise BulkProcessingError(
                "pass either shards or store, not both: an explicit "
                "ShardedPossStore already fixes its shard layout"
            )
        elif not isinstance(store, ShardedPossStore):
            raise BulkProcessingError(
                "ConcurrentBulkResolver requires a ShardedPossStore; "
                "use BulkResolver for single-store execution"
            )
        super().__init__(
            network,
            store=store,
            explicit_users=explicit_users,
            group_copies=group_copies,
            scheduler=scheduler,
            plan=plan,
            retry_policy=retry_policy,
            checkpoint=checkpoint,
            compiled_plan=compiled_plan,
            tracer=tracer,
        )

    def _replay_shard(
        self,
        shard: PossStore,
        tracker: Optional[_OverlapTracker] = None,
        barrier: Optional[threading.Barrier] = None,
        clock: Optional[_PhaseClock] = None,
        parent=None,
    ) -> Tuple[int, float, int]:
        """Replay the plan on one shard; returns (rows, seconds, regions
        compiled).  Phase intervals land in the run-shared ``clock``.

        Pipelined (no ``barrier``): nodes in dependency order, the shard
        never waits for its siblings.  Stage-barrier: every shard calls
        :meth:`threading.Barrier.wait` before each stage, so all shards
        move through the stages in lockstep.  Compiled: the shard executes
        the plan's region partition in order, pushing capable regions into
        its engine (shards with dialect gaps replay those regions — a
        heterogeneous placement degrades per shard, not per run).
        """
        shard_started = time.perf_counter()
        clock = clock if clock is not None else _PhaseClock()
        tracer = self.tracer
        if tracer.enabled:
            # The shard lane runs on its own thread: attach it to the run
            # span explicitly; the shard's statement spans then nest under
            # this lane via the thread-local stack.
            lane_span = tracer.start(
                "shard.replay", parent=parent, shard=shard.trace_shard
            )
        rows = 0
        regions_compiled = 0
        try:
            if self._scheduler == "compiled":
                schedule = self.compiled.schedule
                stage_of = [0] * schedule.region_count
                for level, stage in enumerate(schedule.stages):
                    for region_index in stage:
                        stage_of[region_index] = level
                for index, region in enumerate(self.compiled.regions):
                    if tracker is not None:
                        tracker.started(stage_of[index])
                    region_rows, used_compiled = _execute_region(
                        shard, region, clock
                    )
                    if tracker is not None:
                        tracker.finished(stage_of[index])
                    rows += region_rows
                    regions_compiled += int(used_compiled)
            elif barrier is None:
                for node in self.dag.nodes:
                    rows += _execute_node(shard, node, tracker, clock, None)
            else:
                try:
                    for stage in self.dag.stages:
                        barrier.wait()
                        for index in stage:
                            rows += _execute_node(
                                shard, self.dag.nodes[index], tracker, clock, None
                            )
                except BaseException:
                    # Unblock the sibling shards waiting at the next stage
                    # boundary; they observe BrokenBarrierError and unwind.
                    barrier.abort()
                    raise
        finally:
            if tracer.enabled:
                tracer.finish(lane_span.tag(rows=rows))
        return rows, time.perf_counter() - shard_started, regions_compiled

    def run(self) -> BulkRunReport:
        """Scatter the DAG replay over the shards and gather one report.

        On any shard failure the exception is re-raised inside the sharded
        transaction scope, so every shard rolls back before it propagates.
        With a ``checkpoint`` run id the replay is journaled per shard and
        an unavailable shard is quarantined instead of failing the run
        (see :meth:`_run_checkpointed`).
        """
        store: ShardedPossStore = self.store
        if self._checkpoint is not None:
            return self._run_checkpointed()
        store.ensure_available()
        started = time.perf_counter()
        statements_before = store.bulk_statements
        transactions_before = store.transactions
        fault_counters = self._counters_before()
        run_span, metrics_before = self._trace_begin(
            compiled=self._scheduler == "compiled"
        )
        concurrent = store.supports_concurrent_replay and len(store.shards) > 1
        if self._scheduler == "compiled":
            # Compiled runs schedule regions, not steps: overlap counts
            # against the region-level layering.
            tracker = _OverlapTracker(
                self.compiled.schedule.stages, lanes=len(store.shards)
            )
        else:
            tracker = _OverlapTracker(self.dag.stages, lanes=len(store.shards))
        barrier: Optional[threading.Barrier] = None
        if self._scheduler == "stage-barrier" and concurrent:
            barrier = threading.Barrier(len(store.shards))
        clock = _PhaseClock()
        results: List[Optional[Tuple[int, float, int]]] = [None] * len(
            store.shards
        )
        errors: List[BaseException] = []

        def replay(index: int, shard: PossStore) -> None:
            try:
                results[index] = self._replay_shard(
                    shard, tracker, barrier, clock, parent=run_span
                )
            except BaseException as error:  # gathered and re-raised below
                errors.append(error)

        try:
            with store.transaction():
                if concurrent:
                    threads = [
                        threading.Thread(
                            target=replay,
                            args=(index, shard),
                            name=f"shard{index}",
                        )
                        for index, shard in enumerate(store.shards)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                else:
                    for index, shard in enumerate(store.shards):
                        replay(index, shard)
                        if errors:
                            # The whole run rolls back anyway; replaying the
                            # remaining shards would be pure wasted work.
                            break
                if errors:
                    # A shard aborting the stage barrier breaks its siblings
                    # out with BrokenBarrierError; report the root cause.
                    primary = [
                        error
                        for error in errors
                        if not isinstance(error, threading.BrokenBarrierError)
                    ]
                    raise (primary or errors)[0]
        except BaseException:
            self._trace_abort(run_span)
            raise

        elapsed = time.perf_counter() - started
        per_shard_seconds: Dict[str, float] = {}
        rows = 0
        regions_compiled = 0
        for index, result in enumerate(results):
            shard_rows, seconds, shard_regions = result
            rows += shard_rows
            regions_compiled += shard_regions
            per_shard_seconds[f"shard{index}"] = seconds
        statements = store.bulk_statements - statements_before
        statements_saved = 0
        if self._scheduler == "compiled":
            statements_saved = max(
                0,
                self.compiled.replay_statement_count() * len(store.shards)
                - statements,
            )
        report = BulkRunReport(
            objects=len(self._loaded_objects),
            statements=statements,
            rows_inserted=rows,
            elapsed_seconds=elapsed,
            phase_seconds=clock.seconds(),
            transactions=store.transactions - transactions_before,
            index_strategy=store.index_strategy.name,
            backend=store.backend_name,
            grouped_plan=self.plan.grouped,
            shards=len(store.shards),
            per_shard_seconds=per_shard_seconds,
            dag_stages=self._dag_stages(),
            scheduler=self._scheduler,
            workers=len(store.shards) if concurrent else 1,
            stages_overlapped=tracker.overlapped,
            regions_compiled=regions_compiled,
            statements_saved=statements_saved,
            **self._fault_fields(fault_counters),
        )
        return self._trace_finish(run_span, metrics_before, report)

    def _run_checkpointed(self) -> BulkRunReport:
        """Journaled scatter replay: per-shard checkpoints, quarantine on loss.

        Each healthy shard is health-checked, its journal consulted, and
        the unfinished nodes (or compiled regions) committed one
        transaction at a time.  Shards recover concurrently when the
        backend supports concurrent replay — every shard owns its journal
        and its transactions, so the lanes never contend — and
        sequentially otherwise.  A shard whose backend is (or becomes)
        unavailable is *quarantined* — the run finishes on the healthy
        shards and the caller reads ``store.degraded_shards`` / re-runs
        after ``recover_shard``.
        """
        store: ShardedPossStore = self.store
        run_id = self._checkpoint
        try:
            store.ensure_available()
        except BackendUnavailable:
            # Dead shards are now quarantined; serve the healthy ones.
            pass
        started = time.perf_counter()
        statements_before = store.bulk_statements
        transactions_before = store.transactions
        fault_counters = self._counters_before()
        run_span, metrics_before = self._trace_begin(
            compiled=self._scheduler == "compiled", recovery=True
        )
        tracer = self.tracer
        compiled = self.compiled if self._scheduler == "compiled" else None
        dag = self.dag if compiled is None else None
        healthy = [
            (index, shard)
            for index, shard in enumerate(store.shards)
            if not store.is_degraded(index)
        ]
        lanes = len(healthy)
        concurrent = store.supports_concurrent_replay and lanes > 1
        clock = _PhaseClock()
        # (rows, skipped, regions_compiled, seconds) per shard; a
        # quarantined shard leaves None behind and is excluded from the
        # gathered report.
        results: List[Optional[Tuple[int, int, int, float]]] = [None] * lanes
        errors: List[BaseException] = []

        def recover(slot: int, index: int, shard: PossStore) -> None:
            shard_started = time.perf_counter()
            shard_rows = 0
            shard_skipped = 0
            shard_regions = 0
            if tracer.enabled:
                lane_span = tracer.start(
                    "shard.recover", parent=run_span, shard=index
                )
            try:
                completed = shard.journal_completed(run_id)
                if compiled is not None:
                    for region, marker in zip(
                        compiled.regions, compiled.journal_markers()
                    ):
                        if marker in completed:
                            shard_skipped += len(region.steps)
                            continue
                        with shard.transaction():
                            region_rows, used_compiled = _execute_region(
                                shard, region, clock
                            )
                            shard_rows += region_rows
                            shard_regions += int(used_compiled)
                            shard.journal_record(run_id, marker)
                else:
                    for node in dag.nodes:
                        if node.index in completed:
                            shard_skipped += 1
                            continue
                        with shard.transaction():
                            shard_rows += _execute_node(
                                shard, node, None, clock, None
                            )
                            shard.journal_record(run_id, node.index)
            except BackendUnavailable:
                store.quarantine(index)
                return
            except BaseException as error:  # gathered and re-raised below
                errors.append(error)
                return
            finally:
                if tracer.enabled:
                    tracer.finish(lane_span.tag(rows=shard_rows))
            results[slot] = (
                shard_rows,
                shard_skipped,
                shard_regions,
                time.perf_counter() - shard_started,
            )

        try:
            if concurrent:
                threads = [
                    threading.Thread(
                        target=recover,
                        args=(slot, index, shard),
                        name=f"recover-shard{index}",
                    )
                    for slot, (index, shard) in enumerate(healthy)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            else:
                for slot, (index, shard) in enumerate(healthy):
                    recover(slot, index, shard)
                    if errors:
                        break
            if errors:
                raise errors[0]
        except BaseException:
            self._trace_abort(run_span)
            raise
        per_shard_seconds: Dict[str, float] = {}
        rows = 0
        skipped = 0
        regions_compiled = 0
        quarantined = False
        for slot, (index, _shard) in enumerate(healthy):
            result = results[slot]
            if result is None:
                quarantined = True
                continue
            shard_rows, shard_skipped, shard_regions, seconds = result
            rows += shard_rows
            skipped += shard_skipped
            regions_compiled += shard_regions
            per_shard_seconds[f"shard{index}"] = seconds
        elapsed = time.perf_counter() - started
        statements = store.bulk_statements - statements_before
        statements_saved = 0
        if compiled is not None:
            statements_saved = max(
                0, compiled.replay_statement_count() * lanes - statements
            )
        report = BulkRunReport(
            objects=len(self._loaded_objects),
            statements=statements,
            rows_inserted=rows,
            elapsed_seconds=elapsed,
            phase_seconds=clock.seconds(),
            transactions=store.transactions - transactions_before,
            index_strategy=store.index_strategy.name,
            backend=store.backend_name,
            grouped_plan=self.plan.grouped,
            shards=len(store.shards),
            per_shard_seconds=per_shard_seconds,
            dag_stages=self._dag_stages(),
            scheduler=self._scheduler,
            workers=lanes if concurrent else 1,
            checkpointed=True,
            nodes_skipped=skipped,
            regions_compiled=regions_compiled,
            statements_saved=statements_saved,
            **self._fault_fields(fault_counters),
        )
        # A quarantined shard's executed rows are traced but excluded from
        # the gathered report, so the row equality cannot hold for it.
        return self._trace_finish(
            run_span, metrics_before, report, check_rows=not quarantined
        )


class SkepticBulkResolver(_PlanExecutor):
    """Bulk resolution under the Skeptic paradigm (Appendix B.10, last remark).

    Negative constraints are properties of the network (the same filter
    applies to every object); positive beliefs vary per object and live in
    the store.  Values blocked by a member's forced constraints are replaced
    by the ⊥ sentinel, matching Algorithm 2's use of ⊥ during flooding.
    Scheduling is shared with :class:`BulkResolver` — Skeptic plans lower
    to the same dependency DAG and replay through the same pipelined
    scheduler, and the ``compiled`` scheduler pushes constrained flood
    steps down as blocked-flood regions (anti-joined window pass plus the
    ⊥ branch in one statement) on dialects that support them.
    """

    def __init__(
        self,
        network: TrustNetwork,
        positive_users: Sequence[User],
        negative_constraints: Mapping[User, Sequence[Value]],
        store: Optional[PossStore] = None,
        group_copies: bool = True,
        workers: int = 1,
        scheduler: str = "pipelined",
        retry_policy: Optional[RetryPolicy] = None,
        checkpoint: Optional[str] = None,
        compiled_plan: Optional[CompiledPlan] = None,
        tracer=None,
        pool_workers: Optional[int] = None,
    ) -> None:
        super().__init__(
            workers=workers,
            scheduler=scheduler,
            retry_policy=retry_policy,
            checkpoint=checkpoint,
            compiled_plan=compiled_plan,
            tracer=tracer,
            pool_workers=pool_workers,
        )
        self.network = network
        self._attach_store(store or PossStore())
        self.plan = plan_skeptic_resolution(
            network,
            positive_users,
            dict(negative_constraints),
            group_copies=group_copies,
        )

    def load_beliefs(self, rows: Iterable[Tuple[User, object, Value]]) -> int:
        """Load the per-object positive beliefs of the positive users."""
        rows = list(rows)
        for _user, key, _value in rows:
            self._loaded_objects.add(str(key))
        return self.store.insert_explicit_beliefs(rows)

    def bottom_value(self) -> str:
        """The sentinel representing ⊥ in the relation."""
        return BOTTOM_VALUE
