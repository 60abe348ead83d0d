"""Execution of bulk resolution plans against the ``POSS`` store (Section 4).

Every run executes a :class:`~repro.bulk.compile.CompiledPlan` region by
region, through one loop (:func:`_run_lane`).  The scheduler only picks
how the plan is lowered to regions:

* ``replay`` (the default) lowers every plan step to its own one-step
  ``replay`` region (:func:`~repro.bulk.compile.replay_plan`), executed
  statement-at-a-time: a :class:`~repro.bulk.planner.GroupedCopyStep`
  becomes one multi-child ``INSERT … SELECT``, and a
  :class:`~repro.bulk.planner.FloodStep` one multi-member ``INSERT …
  SELECT`` per group of members sharing the same constraint set.  The
  number of statements is linear in the number of plan steps and —
  crucially for Figure 8c — independent of the number of objects and of
  the conflicts among them.
* ``compiled`` partitions the plan into copy / flood / blocked-flood
  regions (:func:`~repro.bulk.compile.compile_plan`) that the engine
  evaluates as one statement each, falling back to replay on a store
  without a dialect.

Without a checkpoint the whole run is **one transaction** (per shard): a
mid-run :class:`~repro.core.errors.BulkProcessingError` rolls the relation
back to its pre-run state (the loaded explicit beliefs commit separately
and survive; :meth:`_PlanExecutor.load_beliefs` copies them from the
store's ``BELIEF`` relation).  With a checkpoint run id each region
commits its own transaction together with its ``POSS_JOURNAL`` marker —
the plan index of the region's last step, which for a one-step replay
region is the step's own index — and a resumed run skips the regions the
journal holds.

The loop runs once per serving shard of ``store.shards``; a single
:class:`~repro.bulk.store.PossStore` is its own one shard.  Each shard of
a :class:`~repro.bulk.store.ShardedPossStore` holds a disjoint slice of
the object keys and the plan is data-independent, so replaying the
identical regions on every shard resolves the whole relation.  The lanes
run on threads when every shard's connection may move across threads
(``supports_concurrent_replay``) and in sequence otherwise.
"""

from __future__ import annotations

import contextlib
import threading
import time
from itertools import groupby
from operator import itemgetter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.beliefs import Value
from repro.core.binarize import binarize
from repro.core.errors import BackendUnavailable, BulkProcessingError
from repro.core.network import TrustNetwork, User
from repro.bulk.compile import (
    CompiledPlan,
    CompiledRegion,
    RegionLimits,
    compile_plan,
    replay_plan,
)
from repro.faults.retry import RetryPolicy
from repro.obs.trace import NULL_TRACER, interval_union
from repro.bulk.planner import (
    FloodStep,
    GroupedCopyStep,
    ResolutionPlan,
    plan_resolution,
    plan_skeptic_resolution,
)
from repro.bulk.store import BOTTOM_VALUE, PossStore

#: The scheduler names a run report may carry: how the plan is lowered to
#: the regions the run loop executes (see the module docstring).
SCHEDULERS = ("replay", "compiled")

#: The store counters a run report gives as deltas over the run.
_RUN_COUNTERS = (
    "bulk_statements", "transactions", "retries", "timed_out_statements", "faults_injected"
)

#: The key and the user of a ``(user, key, value)`` belief row.
_ROW_KEY = itemgetter(1)
_ROW_USER = itemgetter(0)

#: Journal marker for "the explicit beliefs of this run are loaded".
#: Region markers are plan step indices (non-negative), so -1 can never
#: collide with one.
JOURNAL_BELIEFS_NODE = -1


@dataclass
class BulkRunReport:
    """Instrumentation of one bulk resolution run.

    Beyond the Figure 8c headline numbers (``objects``, ``statements``,
    ``elapsed_seconds``) the report records the execution configuration so a
    benchmark sweep can attribute timing differences: ``phase_seconds``
    splits the run into the Step-1 copy phase and the Step-2 flood phase of
    Algorithm 1, ``transactions`` counts transactions committed during the
    run (1 per store without a checkpoint — the one-transaction-per-run
    model of Section 4), and ``backend`` names the store's engine.
    """

    #: Objects whose belief rows were handed to ``load_beliefs`` (a load
    #: that copies the store's ``BELIEF`` relation as it stands counts none).
    objects: int
    statements: int
    rows_inserted: int
    elapsed_seconds: float
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    transactions: int = 1
    backend: str = "sqlite-memory"
    #: Number of data partitions the run executed over (1 = unsharded).
    shards: int = 1
    #: Wall-clock seconds each shard spent executing the plan, keyed
    #: ``"shard<i>"``; empty for single-store runs.
    per_shard_seconds: Dict[str, float] = field(default_factory=dict)
    #: Critical-path length of the plan's step DAG.
    dag_stages: int = 0
    #: How the plan was lowered to regions: ``replay`` or ``compiled``.
    scheduler: str = "replay"
    #: Shard lanes that ran concurrently (1 = one lane at a time).
    workers: int = 1
    #: Statement retries the store's retry funnel performed during the run.
    retries: int = 0
    #: Statements abandoned because their per-statement deadline elapsed.
    timed_out_statements: int = 0
    #: Faults a fault-injecting backend raised during the run (0 otherwise).
    faults_injected: int = 0
    #: Whether the run journaled checkpoints (one transaction per region
    #: instead of one per run; see ``nodes_skipped``).
    checkpointed: bool = False
    #: Plan steps skipped because a previous (interrupted) run of the same
    #: checkpoint id had already committed them, summed across shards.
    nodes_skipped: int = 0
    #: Plan regions pushed into the engine as a single statement (regions
    #: that fell back to replay do not count).
    regions_compiled: int = 0
    #: Statements the regions this run executed avoided versus
    #: statement-at-a-time replay of the same steps, summed across shards.
    statements_saved: int = 0
    #: The :class:`~repro.obs.trace.Tracer` that observed the run, or
    #: ``None`` for untraced runs.  When present, the scalar fields above
    #: are asserted consistent with the recorded spans/metrics.
    trace: Optional[object] = field(default=None, repr=False, compare=False)

    def statements_per_shard(self) -> int:
        """Statements one shard's run issued (the Section 4 invariant).

        Every shard executes the identical plan, so this equals the
        unsharded plan's statement count regardless of ``shards``.
        """
        return self.statements // max(self.shards, 1)


def _replay_step(store, step) -> Tuple[int, str]:
    """Execute one plan step against a store; returns (rows, phase name).

    This is the single step dispatcher behind every ``replay`` region.  A
    flood step's blocked values (only Skeptic plans carry any) become ⊥.
    """
    if isinstance(step, GroupedCopyStep):
        return store.copy_to_children(step.parent, step.children), "copy"
    if isinstance(step, FloodStep):
        rows = store.flood_component_skeptic(
            step.members, step.parents, step.blocked_map()
        )
        return rows, "flood"
    raise BulkProcessingError(f"unknown plan step {step!r}")


class _PhaseClock:
    """Thread-safe per-phase interval collector.

    Every lane records the ``(start, end)`` interval of each copy/flood
    region or step it runs; :meth:`seconds` unions the intervals per phase.
    The union — not the sum — is the wall-clock attribution: two shard
    lanes flooding concurrently for 1s each over the same second is 1s of
    flood time, which keeps ``sum(phase_seconds.values()) <= elapsed``
    true for threaded sharded runs.  For one lane intervals never overlap,
    so the union is the plain sum.
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


def _execute_region(
    store, region: CompiledRegion, clock: "_PhaseClock"
) -> Tuple[int, bool]:
    """Execute one region on one store; returns (rows, compiled?).

    Dispatch happens here, per region and per store: on a store with a
    dialect every ``copy``, ``flood`` and ``blocked_flood`` region runs as
    one pushed-down statement; ``replay`` regions, and every region of a
    store without a dialect, replay the region's steps statement-at-a-time
    through the shared :func:`_replay_step` dispatcher.  Either way the
    region's effect on the relation is identical, which is what the
    differential suite locks.
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
        # Only compiled kinds carry edges or pairs; ``replay`` regions never do.
        if (region.edges or region.pairs) and store.compiled_dialect is not None:
            started = time.perf_counter()
            if region.kind == "copy":
                rows = store.copy_region(
                    region.ancestors, fingerprint=region.fingerprint
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


@dataclass
class _LaneResult:
    """What one lane (one store, or one shard) did during a run."""

    rows: int = 0
    regions_compiled: int = 0
    steps_skipped: int = 0
    #: Replay statement cost of the regions the lane executed (skipped
    #: regions excluded), the baseline ``statements_saved`` is taken from.
    replay_statements: int = 0
    seconds: float = 0.0


def _run_lane(
    store: PossStore,
    compiled: CompiledPlan,
    clock: _PhaseClock,
    run_id: Optional[str],
) -> _LaneResult:
    """Execute ``compiled`` region by region on one store: the run loop.

    Without a checkpoint ``run_id`` the caller holds the run transaction
    and every region executes inside it.  With one, each region commits
    its own transaction with its journal marker inside it, so the region's
    rows and its marker commit atomically; regions the journal already
    holds are skipped.  A crash (or exhausted retries) therefore loses at
    most the one in-flight region, and re-running with the same run id
    completes exactly the remaining ones — byte-identical to an
    uninterrupted run, because resolution is deterministic and a region's
    output rows depend only on its (already final) inputs.
    """
    started = time.perf_counter()
    result = _LaneResult()
    completed = (
        store.journal_completed(run_id) if run_id is not None else frozenset()
    )
    for region, marker in zip(compiled.regions, compiled.journal_markers()):
        if marker in completed:
            result.steps_skipped += len(region.steps)
            continue
        if run_id is None:
            rows, used_compiled = _execute_region(store, region, clock)
        else:
            with store.transaction():
                rows, used_compiled = _execute_region(store, region, clock)
                store.journal_record(run_id, marker)
        result.rows += rows
        result.regions_compiled += int(used_compiled)
        result.replay_statements += region.replay_statement_count()
    result.seconds = time.perf_counter() - started
    return result


class _PlanExecutor:
    """The shared run: one loop over a plan's regions, per store or shard.

    Subclasses bind the plan (plain Algorithm 1 vs. Skeptic); the checked
    belief load (:meth:`load_beliefs`), the lowering to regions
    (:attr:`compiled`), the loop (:func:`_run_lane`) and the report are
    shared, so the resolvers cannot drift apart.
    """

    store: PossStore
    plan: ResolutionPlan

    def __init__(
        self,
        network: TrustNetwork,
        store: Optional[PossStore],
        scheduler: str,
        retry_policy: Optional[RetryPolicy],
        checkpoint: Optional[str],
        compiled_plan: Optional[CompiledPlan],
        tracer,
    ) -> None:
        if scheduler not in SCHEDULERS:
            raise BulkProcessingError(
                f"unknown scheduler {scheduler!r}; known: {SCHEDULERS}"
            )
        self.network = network
        self.store = store if store is not None else PossStore()
        self._loaded_objects: set = set()
        #: Every ``(user, key, value)`` loaded so far, by name.
        self._loaded_rows: set = set()
        self._scheduler = scheduler
        self._checkpoint = checkpoint
        self._compiled_plan = compiled_plan
        self.tracer = NULL_TRACER if tracer is None else tracer
        for shard in self.store.shards:
            if retry_policy is not None:
                # The retry loop lives at each store's statement funnel (one
                # retry site, BEGIN included); the executor only configures it.
                shard.retry_policy = retry_policy
            if self.tracer.enabled:
                # One tracer observes every layer: the statement funnel (and
                # its fault-injecting backend, if any) emits into the same
                # collection the executor's run/region spans land in.
                shard.tracer = self.tracer

    def _trace_finish(
        self, span, counters_before, report: BulkRunReport, check_rows: bool = True
    ) -> BulkRunReport:
        """Close the run span, attach the trace, and verify consistency.

        The tracer's metrics were incremented at the *same sites* the
        store's report counters were (statement funnel, fault check, row
        accumulation), so after a successful run the metric deltas must
        equal the report fields exactly — any mismatch means an
        instrumentation seam was missed and is raised loudly.
        ``check_rows=False`` relaxes the row check for runs that
        quarantined a shard mid-run (its executed rows are traced but
        excluded from the gathered report).
        """
        tracer = self.tracer
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

    def load_beliefs(
        self, rows: Optional[Iterable[Tuple[User, object, Value]]] = None
    ) -> int:
        """Load the explicit beliefs into ``POSS``; returns the rows loaded.

        Given ``rows``, first rejects a ``(user, key, value)`` that repeats,
        by name (``1`` and ``"1"`` are one user), within ``rows`` or
        against an earlier load: the store keys its rows by name, so it
        would refuse the second copy.  It then verifies bulk assumptions
        (i) and (ii): every row must belong to a user of the plan's
        explicit set, and every such user must hold a belief for every
        loaded object.  Nothing is written unless every check passes.  The
        rows then replace the store's ``BELIEF`` relation, which is copied
        into ``POSS``
        (:meth:`~repro.bulk.store.PossStore.insert_explicit_beliefs`).  The
        assumption checks compare one set of users per key, not row by row,
        and the rows reach the store as given.

        Without ``rows``, ``BELIEF`` is copied as it stands, with one
        ``INSERT … SELECT`` per shard.  Its rows are not read back, so the
        caller vouches for the assumptions and the report counts no
        objects: :class:`~repro.engine.ResolutionEngine` does, because it
        compares its session's believers with the plan at every
        ``materialize`` and its session keeps ``BELIEF`` equal to them.

        Under a checkpoint run id each serving shard's load commits
        atomically with its ``JOURNAL_BELIEFS_NODE`` marker, so a resumed
        run that loads again neither duplicates nor skips the beliefs.
        """
        if rows is not None:
            rows = rows if isinstance(rows, list) else list(rows)
            names = self._check_distinct(rows)
            self._check_assumptions(rows)
            self._loaded_rows |= names
        run_id = self._checkpoint
        store = self.store
        if run_id is None:
            return store.insert_explicit_beliefs(rows)
        inserted = 0
        partitions = None if rows is None else store.spec.partition_rows(rows)
        for index, shard in enumerate(store.shards):
            if index in store.degraded_shards:
                continue
            if JOURNAL_BELIEFS_NODE not in shard.journal_completed(run_id):
                with shard.transaction():
                    inserted += shard.insert_explicit_beliefs(
                        None if partitions is None else partitions[index]
                    )
                    shard.journal_record(run_id, JOURNAL_BELIEFS_NODE)
        return inserted

    def _check_distinct(self, rows: List[Tuple[User, object, Value]]) -> set:
        """The rows by name; raises if one repeats a row loaded before it."""
        names = {(str(user), str(key), str(value)) for user, key, value in rows}
        if len(names) < len(rows) or not names.isdisjoint(self._loaded_rows):
            # Walk the rows in order for the exact verdict.
            seen = set(self._loaded_rows)
            for user, key, value in rows:
                row = (str(user), str(key), str(value))
                if row in seen:
                    raise BulkProcessingError(
                        f"belief row {row} is loaded twice (rows are "
                        f"compared by name)"
                    )
                seen.add(row)
        return names

    def _check_assumptions(self, rows: List[Tuple[User, object, Value]]) -> None:
        """Bulk assumptions (i) and (ii), one set of users per key."""
        users_of: Dict[str, set] = {}
        for key, group in groupby(rows, _ROW_KEY):
            users = users_of.get(str(key))
            if users is None:
                users = users_of[str(key)] = set()
            users.update(map(_ROW_USER, group))
        self._loaded_objects.update(users_of)
        believers = set().union(*users_of.values())
        expected = self.plan.explicit_users
        if (expected and not believers <= expected) or any(
            users_of.get(key) != believers for key in self._loaded_objects
        ):
            # Compare by name, user by user, for the exact verdict.
            self._check_rows(rows)

    def _check_rows(self, rows: List[Tuple[User, object, Value]]) -> None:
        """Bulk assumptions (i) and (ii) by name, row by row."""
        by_user: Dict[str, set] = {}
        for user, key, _value in rows:
            by_user.setdefault(str(user), set()).add(str(key))
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

    @property
    def compiled(self) -> CompiledPlan:
        """The regions the run executes.

        ``replay`` lowers every step to its own one-step region, afresh on
        each access: the lowering is linear in the steps, and a plan edited
        in place never runs stale regions.  ``compiled`` takes a
        caller-maintained :class:`~repro.bulk.compile.CompiledPlan` (the
        engine's incrementally spliced one) when it describes this plan;
        otherwise the plan compiles on first use (then cached), with region
        sizes derived from the attached store's probed bound-parameter
        capacity (``store.max_bind_params``) so deep chains compile into
        fewer, larger regions on modern engines.
        """
        if self._scheduler == "replay":
            return replay_plan(self.plan)
        if self._compiled_plan is None or self._compiled_plan.plan is not self.plan:
            self._compiled_plan = compile_plan(self.plan, limits=self.region_limits)
        return self._compiled_plan

    @property
    def region_limits(self) -> RegionLimits:
        """Bind-parameter budget of the attached store's backend."""
        return RegionLimits.for_bind_params(self.store.max_bind_params)

    def run(self) -> BulkRunReport:
        """Execute the plan region by region and return instrumentation.

        The loop runs once per serving shard of ``store.shards`` (a single
        store is its own one shard).  Without a ``checkpoint`` run id the
        run is one transaction per shard: on any error every shard rolls
        back before the exception propagates, leaving the relation exactly
        as loaded.  With one, each region commits with its journal marker
        and a re-run resumes (see :func:`_run_lane`); a store of several
        shards then *quarantines* an unavailable shard instead of failing
        the run: the run finishes on the healthy shards and the caller reads
        ``store.degraded_shards`` / re-runs after ``recover_shard``.
        """
        store = self.store
        run_id = self._checkpoint
        routed = store.shards[0] is not store
        quarantines = routed and run_id is not None
        try:
            # Run-start health check: heal a died-while-idle connection
            # (one reconnect attempt) before the first statement of the run.
            store.ensure_available()
        except BackendUnavailable:
            if not quarantines:
                raise
            # Dead shards are now quarantined; serve the healthy ones.
        compiled = self.compiled
        lanes = [
            (index, shard)
            for index, shard in enumerate(store.shards)
            if index not in store.degraded_shards
        ]
        concurrent = len(lanes) > 1 and store.supports_concurrent_replay
        started = time.perf_counter()
        before = {name: getattr(store, name) for name in _RUN_COUNTERS}
        tracer = self.tracer
        run_span = metrics_before = None
        if tracer.enabled:
            run_span = tracer.start(
                "bulk.run",
                scheduler=self._scheduler,
                shards=len(store.shards),
                checkpoint=run_id,
            )
            metrics_before = tracer.metrics.counters()
        clock = _PhaseClock()
        results: Dict[int, _LaneResult] = {}
        errors: List[BaseException] = []

        def lane(index: int, shard: PossStore) -> None:
            lane_span = None
            if routed and tracer.enabled:
                # A shard lane may run on its own thread: attach it to the
                # run span explicitly; the shard's statement spans then
                # nest under this lane via the thread-local stack.
                lane_span = tracer.start(
                    "shard.replay", parent=run_span, shard=index
                )
            try:
                results[index] = _run_lane(shard, compiled, clock, run_id)
            except BackendUnavailable as error:
                if quarantines:
                    store.quarantine(index)
                else:
                    errors.append(error)
            except BaseException as error:  # gathered and re-raised below
                errors.append(error)
            finally:
                if lane_span is not None:
                    tracer.finish(lane_span)

        try:
            with store.transaction() if run_id is None else contextlib.nullcontext():
                if concurrent:
                    threads = [
                        threading.Thread(target=lane, args=args, name=f"shard{args[0]}")
                        for args in lanes
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                else:
                    for index, shard in lanes:
                        lane(index, shard)
                        if errors:
                            # The run fails anyway; executing the remaining
                            # shards would be pure wasted work.
                            break
                if errors:
                    raise errors[0]
        except BaseException:
            if run_span is not None:
                tracer.finish(run_span.tag(outcome="error"))
            raise
        elapsed = time.perf_counter() - started
        counted = {name: getattr(store, name) - before[name] for name in before}
        done = [results[index] for index, _shard in lanes if index in results]
        report = BulkRunReport(
            objects=len(self._loaded_objects),
            statements=counted["bulk_statements"],
            rows_inserted=sum(result.rows for result in done),
            elapsed_seconds=elapsed,
            phase_seconds=clock.seconds(),
            transactions=counted["transactions"],
            backend=store.backend_name,
            shards=len(store.shards),
            per_shard_seconds={
                f"shard{index}": results[index].seconds
                for index, _shard in lanes
                if routed and index in results
            },
            dag_stages=compiled.dag_stages,
            scheduler=self._scheduler,
            workers=len(lanes) if concurrent else 1,
            retries=counted["retries"],
            timed_out_statements=counted["timed_out_statements"],
            faults_injected=counted["faults_injected"],
            checkpointed=run_id is not None,
            nodes_skipped=sum(result.steps_skipped for result in done),
            regions_compiled=sum(result.regions_compiled for result in done),
            statements_saved=max(
                0,
                sum(result.replay_statements for result in done)
                - counted["bulk_statements"],
            ),
        )
        if run_span is None:
            return report
        # A quarantined shard's executed rows are traced but excluded from
        # the gathered report, so the row equality cannot hold for it.
        return self._trace_finish(
            run_span, metrics_before, report, check_rows=len(done) == len(lanes)
        )

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

    The plan (:func:`~repro.bulk.planner.plan_resolution`) copies each
    parent's rows to all its children in one statement, and
    :meth:`load_beliefs` rejects rows that break bulk assumption (i) or
    (ii).  ``scheduler`` selects how the plan is lowered to regions (see the
    module docstring).  Given a :class:`~repro.bulk.store.ShardedPossStore`
    the run executes on every shard:
    ``BulkResolver(network, store=ShardedPossStore(4))``.
    """

    def __init__(
        self,
        network: TrustNetwork,
        store: Optional[PossStore] = None,
        explicit_users: Optional[Sequence[User]] = None,
        scheduler: str = "replay",
        plan: Optional[ResolutionPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        checkpoint: Optional[str] = None,
        compiled_plan: Optional[CompiledPlan] = None,
        tracer=None,
    ) -> None:
        super().__init__(
            network, store, scheduler, retry_policy, checkpoint, compiled_plan, tracer
        )
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
        self.plan: ResolutionPlan = plan_resolution(planning_network, explicit_users)


class SkepticBulkResolver(_PlanExecutor):
    """Bulk resolution under the Skeptic paradigm (Appendix B.10, last remark).

    Negative constraints are properties of the network (the same filter
    applies to every object); positive beliefs vary per object and live in
    the store.  Values blocked by a member's forced constraints are replaced
    by the ⊥ sentinel, matching Algorithm 2's use of ⊥ during flooding.
    The checked belief load and the run loop are shared with
    :class:`BulkResolver`, and the ``compiled`` scheduler pushes constrained
    flood steps down as blocked-flood regions (anti-joined ``DISTINCT`` pass
    plus the ⊥ branch in one statement) on every store with a dialect.
    """

    def __init__(
        self,
        network: TrustNetwork,
        positive_users: Sequence[User],
        negative_constraints: Mapping[User, Sequence[Value]],
        store: Optional[PossStore] = None,
        scheduler: str = "replay",
        retry_policy: Optional[RetryPolicy] = None,
        checkpoint: Optional[str] = None,
        compiled_plan: Optional[CompiledPlan] = None,
        tracer=None,
    ) -> None:
        super().__init__(
            network, store, scheduler, retry_policy, checkpoint, compiled_plan, tracer
        )
        self.plan = plan_skeptic_resolution(
            network, positive_users, dict(negative_constraints)
        )

    def bottom_value(self) -> str:
        """The sentinel representing ⊥ in the relation."""
        return BOTTOM_VALUE
