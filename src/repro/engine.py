"""The unified resolution engine: one façade over batch, bulk and deltas.

The repository grew three parallel execution paths for the paper's
trust-mapping resolution — the in-memory batch algorithms
(:func:`repro.core.resolution.resolve` / Algorithm 1), the bulk SQL replay
(:mod:`repro.bulk`, Section 4) and the incremental maintenance engine
(:mod:`repro.incremental`) — each with its own entry points, reports and
configuration.  :class:`ResolutionEngine` makes them modes of **one**
engine, the way a database engine unifies one-off evaluation with repeated
conditioning: it owns the network, the plan/DAG cache, the ``POSS`` store
and an incremental session, and exposes four verbs:

``resolve()``
    The in-memory resolution of every maintained object key (Algorithm 1
    semantics, served from the incrementally maintained state — no
    recomputation unless the state is cold).
``materialize()``
    Execute the cached bulk plan against the store region by region — the
    Section 4 path, one (per-shard) transaction.
``apply(*deltas)``
    Absorb a batch of updates: coalesced, applied with one regional
    recomputation per key and landed in the store as delta statements.
    The cached plan is not patched per batch: the batch's footprint is
    recorded, and the next plan access patches the union of everything
    recorded once (:mod:`repro.bulk.planpatch`).  Only a footprint grown
    to 1/32 of the network is patched in by ``apply`` itself.
``query(user, key)``
    Point lookup of possible values — from the relation when it is
    materialized, from memory otherwise (``mode`` pins one side).

Every verb that does work returns the same :class:`EngineReport`, which
subsumes :class:`~repro.bulk.executor.BulkRunReport` and
:class:`~repro.incremental.session.DeltaApplyReport` (both remain
available on the report for the fields only one path produces).

Typical use::

    from repro import ResolutionEngine

    engine = ResolutionEngine.open(network, shards=2)
    engine.materialize()                    # bulk-load the relation
    engine.apply(SetBelief("alice", "x"))   # delta-maintain it
    engine.query("bob", "k0")               # read either representation

The legacy entry points (``BulkResolver``, ``IncrementalSession``, …)
remain public and are what the engine drives underneath — existing code
keeps working unchanged.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.beliefs import Value
from repro.core.errors import BulkProcessingError, NetworkError
from repro.core.network import TrustNetwork, User
from repro.core.resolution import ResolutionResult
from repro.bulk.backends import ShardSpec
from repro.bulk.compile import CompiledPlan, RegionLimits, compile_plan
from repro.bulk.executor import BulkResolver, BulkRunReport
from repro.bulk.planner import PlanDag, ResolutionPlan, plan_resolution
from repro.bulk.planpatch import patch_plan, splice_compiled
from repro.bulk.store import PossStore, ShardedPossStore
from repro.faults.retry import RetryPolicy
from repro.incremental.deltas import Delta, RemoveUser
from repro.incremental.session import DeltaApplyReport, IncrementalSession
from repro.obs.trace import NULL_TRACER, Tracer

#: Where :meth:`ResolutionEngine.query` reads from.
MODES = ("auto", "memory", "store")

#: :meth:`ResolutionEngine.apply` patches the deferred changes itself once
#: the pending users reach 1/32 of the network's users.  Deferring longer
#: is cheaper.  In the session benchmark's traced run (``benchmarks/session``,
#: ``--seed 7 --seconds 10 --trace 1``, 200-apply round trips, 2-vCPU host)
#: this bound makes ``apply`` patch 18 times per round trip on objects-bulk,
#: 4 times on web-session and never on cycles-stream.  Objects-bulk's
#: batches only change believers' values, so its patches return the plan
#: unchanged: 1.6 ms of 0.40 s ``engine.apply``.  Web-session's 4 re-plan
#: structural regions: 0.049 s of 0.63 s.  The bound stays because the
#: benchmark's smoke test requires ``patch_plan`` to run inside a traced
#: verb, and its traced run has no ``materialize`` after its applies: at
#: 1/16 its 80-user cycles-stream run (4 pending users) would never patch.
_DEFERRAL_DIVISOR = 32

__all__ = ["MODES", "EngineReport", "ResolutionEngine"]


@dataclass
class EngineReport:
    """The one report every engine verb returns.

    The shared header (``operation``, ``seconds``, ``backend``, ``keys``)
    is always filled; the bulk block (``statements`` … ``statements_saved``)
    is populated by :meth:`ResolutionEngine.materialize`, the delta block
    (``deltas`` … ``recomputes``) by :meth:`ResolutionEngine.apply`, and
    the plan block (``plan_source``, ``plan_steps``) by every verb that
    consulted the plan cache.  ``bulk`` / ``delta`` hold the underlying
    :class:`~repro.bulk.executor.BulkRunReport` /
    :class:`~repro.incremental.session.DeltaApplyReport` for fields only
    one path produces.
    """

    operation: str
    seconds: float
    backend: str = ""
    keys: int = 1

    # -- bulk block (materialize) -------------------------------------- #
    statements: int = 0
    transactions: int = 0
    rows_inserted: int = 0
    shards: int = 1
    dag_stages: int = 0
    scheduler: str = ""
    #: Compiled regions pushed down as single SQL statements
    #: (``materialize(compiled=True)`` only).
    regions_compiled: int = 0
    #: Statements the compiled run avoided versus step-at-a-time replay.
    statements_saved: int = 0

    # -- delta block (apply) ------------------------------------------- #
    deltas: int = 0
    coalesced_from: int = 0
    users_changed: int = 0
    rows_deleted: int = 0
    #: Users the per-key recomputations visited, summed over keys; the
    #: change-driven walk visits only what it recomputes, so this equals
    #: ``recomputed`` (see ``DeltaLog``).
    dirty_region: int = 0
    recomputed: int = 0
    recomputes: int = 0

    # -- fault-tolerance block ------------------------------------------ #
    #: Transparent statement retries the store's retry loop performed.
    retries: int = 0
    #: Statements abandoned because their retry deadline expired.
    timed_out_statements: int = 0
    #: Faults the (test-only) injection layer raised, when enabled.
    faults_injected: int = 0
    #: Whether the verb ran under per-region checkpoint journaling.
    checkpointed: bool = False
    #: Plan steps skipped on a resumed run because the journal had the
    #: regions holding them (summed across shards).
    nodes_skipped: int = 0
    #: Whether a backend failure was absorbed by a recovery path
    #: (resync / shard quarantine) instead of propagating.
    recovered: bool = False
    #: Indices of quarantined shards at the end of the verb (sharded
    #: stores only; empty tuple otherwise).
    degraded_shards: Tuple[int, ...] = ()

    # -- plan cache block ---------------------------------------------- #
    #: The plan cache as this verb left it: ``fresh`` (planned from
    #: scratch now, ``materialize`` only), ``patched`` (the changes
    #: ``apply`` deferred were patched in now), ``pending`` (``apply``
    #: only: a patch is owed at the next plan access) or ``cached`` (the
    #: plan still describes the network); empty, with ``plan_steps`` 0,
    #: when no plan that describes the network is cached.
    plan_source: str = ""
    plan_steps: int = 0

    #: The in-memory resolution (``resolve`` only), keyed by object key.
    resolutions: Dict[str, ResolutionResult] = field(default_factory=dict, repr=False)
    #: The underlying single-path reports, where applicable.
    bulk: Optional[BulkRunReport] = field(default=None, repr=False)
    delta: Optional[DeltaApplyReport] = field(default=None, repr=False)
    #: The :class:`~repro.obs.trace.Tracer` that recorded this verb, when
    #: tracing was on (``trace=True`` / ``tracer=``); ``None`` otherwise.
    trace: Optional[object] = field(default=None, repr=False, compare=False)


class ResolutionEngine:
    """One session over batch resolution, bulk materialization and deltas.

    Parameters
    ----------
    network:
        A **binary** trust network (Section 2.2) — the shared structure all
        three paths operate on.  Binarize first
        (:func:`repro.core.binarize.binarize`) when starting from a general
        network; the engine mutates its network in place under
        :meth:`apply`, which is only sound on the binary form.
    store:
        The ``POSS`` relation to materialize into / maintain; mutually
        exclusive with ``shards``.  Defaults to an in-memory
        :class:`~repro.bulk.store.PossStore`.
    shards:
        Shorthand for a key-partitioned store: an ``int`` or
        :class:`~repro.bulk.backends.ShardSpec` builds a
        :class:`~repro.bulk.store.ShardedPossStore`.
    keys:
        The object keys the engine maintains (default ``("k0",)``).
    mode:
        Where :meth:`query` reads: ``auto`` (the store once materialized,
        memory before), ``memory``, or ``store``.
    beliefs_by_key:
        Optional per-key positive-belief overrides, as in
        :class:`~repro.incremental.session.IncrementalSession`.
    pool_workers:
        Accepted for compatibility with existing callers; only ``0`` /
        ``None`` is valid.  Materialization always runs on the store's own
        connection (one thread per shard on a sharded store).
    retry_policy:
        The :class:`~repro.faults.retry.RetryPolicy` every statement runs
        under (transient backend errors retry with exponential backoff;
        default: :meth:`RetryPolicy.default`).  Installed on the store, so
        both materialization and delta maintenance honor it.
    tracer:
        An :class:`~repro.obs.trace.Tracer` to record every verb into
        (default: the no-op :data:`~repro.obs.trace.NULL_TRACER`).  A
        single verb can also be traced ad hoc with ``trace=True`` /
        ``tracer=`` on :meth:`materialize` / :meth:`apply`; the report's
        ``trace`` field then carries the recording.
    """

    def __init__(
        self,
        network: TrustNetwork,
        store: "PossStore | ShardedPossStore | None" = None,
        shards: "ShardSpec | int | None" = None,
        keys: Sequence[str] = ("k0",),
        mode: str = "auto",
        beliefs_by_key: Optional[Dict[str, Dict[User, Value]]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        tracer: "Tracer | None" = None,
        pool_workers: Optional[int] = None,
    ) -> None:
        if pool_workers:
            raise BulkProcessingError(
                f"pool_workers={pool_workers!r} is not supported: "
                "materialize runs on the store's own connection"
            )
        if mode not in MODES:
            raise BulkProcessingError(f"unknown mode {mode!r}; known: {MODES}")
        if store is not None and shards is not None:
            raise BulkProcessingError(
                "pass either store or shards, not both: an explicit store "
                "already fixes its shard layout"
            )
        if not network.is_binary():
            raise NetworkError(
                "ResolutionEngine requires a binary network; "
                "binarize(network).btn converts any network (Prop. 2.8)"
            )
        if shards is not None:
            store = ShardedPossStore(shards)
        self.network = network
        self.store = store if store is not None else PossStore()
        self.mode = mode
        if retry_policy is not None:
            for shard in self.store.shards:
                shard.retry_policy = retry_policy
        self._session = IncrementalSession(
            network,
            store=self.store,
            keys=keys,
            beliefs_by_key=beliefs_by_key,
            autoload=False,
        )
        self._tracer = NULL_TRACER if tracer is None else tracer
        if self._tracer.enabled:
            self._session.tracer = self._tracer
        self._materialized = False
        self._plan: Optional[ResolutionPlan] = None
        self._compiled: Optional[CompiledPlan] = None
        self._dag: Optional[PlanDag] = None
        self._plan_version: Optional[Tuple[int, int]] = None
        #: Users whose incoming edges or explicit status changed, and users
        #: removed, since the cached plan last described the network.
        self._pending_touched: Set[User] = set()
        self._pending_removed: Set[User] = set()
        #: Plan-cache statistics: fresh plans built vs. patches of deferred changes.
        self.plans_built = 0
        self.plans_patched = 0

    @classmethod
    def open(
        cls,
        network: TrustNetwork,
        store: "PossStore | ShardedPossStore | None" = None,
        shards: "ShardSpec | int | None" = None,
        mode: str = "auto",
        **options,
    ) -> "ResolutionEngine":
        """Open an engine session — the documented construction spelling.

        ``Engine.open(network, store=…, shards=…, mode=…)`` mirrors how a
        database engine opens over existing storage; keyword ``options``
        pass through to the constructor (``keys``, ``beliefs_by_key``, …).
        """
        return cls(network, store=store, shards=shards, mode=mode, **options)

    # ------------------------------------------------------------------ #
    # the plan cache                                                      #
    # ------------------------------------------------------------------ #

    @property
    def plan(self) -> ResolutionPlan:
        """The cached bulk plan (built or validated on first access)."""
        self._ensure_plan()
        return self._plan

    @property
    def dag(self) -> PlanDag:
        """The cached plan's dependency DAG (lowered once per plan)."""
        self._ensure_plan()
        if self._dag is None:
            self._dag = self._plan.dag()
        return self._dag

    @property
    def keys(self) -> Tuple[str, ...]:
        """The object keys this engine maintains."""
        return self._session.keys

    @property
    def degraded_shards(self) -> Tuple[int, ...]:
        """Indices of currently quarantined shards, sorted (read-only)."""
        return self.store.degraded_shards

    def _ensure_plan(self) -> str:
        """Make the cached plan describe the network; returns how.

        When the cache is valid but :meth:`apply` deferred changes, one
        :func:`~repro.bulk.planpatch.patch_plan` over their union brings the
        plan up to date: ``patched``.  A network whose version counters
        moved outside :meth:`apply` — someone mutated it directly — or a
        patch the patcher refuses (Skeptic plans, uncovered regions)
        re-plans from scratch: ``fresh``.  Otherwise ``cached``.  The first
        fresh plan lowers the closing record of the session's open
        (:meth:`IncrementalSession.take_opening_program`) while the network
        is still at the version it was recorded at, so a cold open and
        first materialize run Algorithm 1's closing loop once.
        """
        version = self.network.version
        if self._plan is not None and self._plan_version == version:
            if not self._pending_touched and not self._pending_removed:
                return "cached"
            if self._patch_pending():
                return "patched"
        self._plan = plan_resolution(
            self.network, program=self._session.take_opening_program()
        )
        self._compiled = None
        self._dag = None
        self._plan_version = version
        self._clear_pending()
        self.plans_built += 1
        return "fresh"

    def _patch_pending(self) -> bool:
        """Patch the deferred changes into the plan and its compilation.

        One :func:`~repro.bulk.planpatch.patch_plan` over the union of the
        pending users, and one :func:`~repro.bulk.planpatch.splice_compiled`
        of the cached compilation.  Returns ``False``, leaving the cache as
        it was, when the patcher refuses the plan.
        """
        try:
            patch = patch_plan(
                self._plan,
                self.network,
                self._pending_touched,
                removed=self._pending_removed,
            )
        except BulkProcessingError:
            return False
        if self._compiled is not None:
            try:
                self._compiled = splice_compiled(
                    self._compiled, patch, limits=self._region_limits()
                )
            except BulkProcessingError:
                self._compiled = None  # recompiled on next use
        if patch.plan is not self._plan:
            self._plan = patch.plan
            self._dag = None
        self._clear_pending()
        self.plans_patched += 1
        return True

    def _clear_pending(self) -> None:
        """Forget the recorded changes: the plan now describes them."""
        self._pending_touched.clear()
        self._pending_removed.clear()

    def _region_limits(self) -> RegionLimits:
        """Region sizing from the store's probed bound-parameter budget."""
        return RegionLimits.for_bind_params(self.store.max_bind_params)

    def _compiled_plan(self) -> CompiledPlan:
        """The current plan's region compilation (compiled lazily)."""
        if self._compiled is None or self._compiled.plan is not self._plan:
            self._compiled = compile_plan(self._plan, limits=self._region_limits())
        return self._compiled

    def _maintain_plan(
        self, report: DeltaApplyReport, version_before: Tuple[int, int]
    ) -> str:
        """Record an applied batch's plan footprint; returns the apply's source.

        The batch's touched and removed users join the pending sets that the
        next plan access patches in one go (``pending``).  Once the pending
        users reach 1/32 of the network (``_DEFERRAL_DIVISOR``, which says
        why), they are patched in here (``patched``).  A plan the patcher
        refuses is dropped instead, and the next access re-plans it.
        """
        if self._plan is None:
            return ""  # nothing cached yet: the next access plans fresh
        if self._plan_version != version_before:
            # The network moved outside apply since the plan was valid: no
            # recorded footprint describes that change, so the plan goes and
            # the next access re-plans fresh.
            self._drop_plan()
            return ""
        for _key, log in report.logs:
            self._pending_touched.update(log.touched)
            batch = log.delta if isinstance(log.delta, tuple) else (log.delta,)
            self._pending_removed.update(
                delta.user for delta in batch if isinstance(delta, RemoveUser)
            )
        self._plan_version = self.network.version
        pending = len(self._pending_touched) + len(self._pending_removed)
        if not pending:
            return "cached"
        if pending * _DEFERRAL_DIVISOR < len(self.network):
            return "pending"
        if self._patch_pending():
            return "patched"
        self._drop_plan()
        return ""

    def _drop_plan(self) -> None:
        """Forget the cached plan; the next access plans fresh."""
        self._plan = None
        self._compiled = None
        self._dag = None
        self._plan_version = None
        self._clear_pending()

    # ------------------------------------------------------------------ #
    # the four verbs                                                      #
    # ------------------------------------------------------------------ #

    def resolve(self) -> EngineReport:
        """The in-memory resolution of every maintained key.

        Served from the incrementally maintained per-key state — warm after
        construction, patched in place by :meth:`apply` — as
        :class:`~repro.core.resolution.ResolutionResult` snapshots on the
        report's ``resolutions`` mapping.
        """
        started = time.perf_counter()
        resolutions = {
            key: self._session.resolver(key).resolution()
            for key in self._session.keys
        }
        return EngineReport(
            operation="resolve",
            seconds=time.perf_counter() - started,
            backend=self.store.backend_name,
            keys=len(resolutions),
            resolutions=resolutions,
        )

    def _run_id(self) -> str:
        """The stable checkpoint id of the cached plan.

        Derived from the plan's step list, so the same plan resumes the
        same journal and a changed plan (re-planned or patched) starts a
        fresh one — a resume can never replay another plan's checkpoints.
        """
        digest = zlib.crc32(repr(self._plan.steps).encode("utf-8"))
        return f"plan-{digest:08x}-{len(self._plan.steps)}"

    def _resolve_tracer(self, trace: bool, tracer: "Tracer | None"):
        """The tracer one verb runs under, installed engine-wide when real.

        Precedence: an explicit ``tracer=`` wins, ``trace=True`` builds a
        fresh :class:`Tracer`, otherwise the engine's standing tracer (the
        no-op :data:`NULL_TRACER` unless one was passed at construction).
        A real tracer is installed on the session and store so statement
        and retry spans land in the same recording.
        """
        if tracer is not None:
            resolved = tracer
        elif trace:
            resolved = Tracer()
        else:
            return self._tracer
        self._tracer = resolved
        if resolved.enabled:
            self._session.tracer = resolved
        return resolved

    def materialize(
        self,
        resume: bool = False,
        checkpoint: bool = False,
        compiled: bool = False,
        trace: bool = False,
        tracer: "Tracer | None" = None,
    ) -> EngineReport:
        """Execute the cached plan against the store (the Section 4 path).

        Clears the relation, loads every key's explicit beliefs and
        replays the plan step by step — on every shard of a sharded store
        — inside one (per-shard) transaction.  After this, :meth:`query`
        in ``auto`` mode reads from the relation.

        The beliefs come from the store's ``BELIEF`` relation.  The first
        materialize of an engine, and any after its session lost track of
        ``BELIEF`` (an apply that raised before its flush, a reconnect;
        see :attr:`IncrementalSession.beliefs_stored`), replaces it with
        the session's beliefs and copies it into ``POSS``; every other one
        only copies it, with one ``INSERT … SELECT``, because each
        :meth:`apply` rewrote the belief slots it changed in its own
        transaction.  Either way each key's believers are first compared
        with the plan's explicit users (bulk assumption (ii)).

        With ``checkpoint=True`` the run journals one checkpoint per plan
        region (one transaction per region, recorded in the store's
        ``POSS_JOURNAL``; a replay region is one step); with
        ``resume=True`` (which implies ``checkpoint``) the store is *not*
        cleared and the journaled regions of the plan's run id are
        skipped — an interrupted checkpointed
        materialize completes exactly the work it has not yet committed,
        byte-identical to an uninterrupted run.  A fresh (non-resume)
        materialize clears both the relation and any stale journal, so a
        later resume can never replay leftovers of an abandoned run.

        With ``compiled=True`` the plan is region-compiled
        (:func:`repro.bulk.compile.compile_plan`) and executed through the
        ``compiled`` scheduler: acyclic runs collapse into copy regions and
        flood steps into flood stages, one statement each, on any store
        with a SQL dialect, and replay statement-at-a-time on a store
        without one — the relation is byte-identical either way.  The compiled plan is cached and spliced whenever
        the plan is patched (:func:`repro.bulk.planpatch.splice_compiled`).
        Its checkpoints use a run id distinct from the step-at-a-time
        journal, so a resume never mixes the two region granularities.

        The plan is brought up to date first: the changes :meth:`apply`
        deferred are patched in with one :func:`~repro.bulk.planpatch
        .patch_plan` (report ``plan_source`` ``patched``), so the first
        materialize after a delta stream pays the stream's plan maintenance
        once and later ones pay nothing (``cached``).

        With ``trace=True`` (or an explicit ``tracer=``) the run is
        recorded as a span tree — ``engine.materialize`` over plan/compile/
        load-beliefs child spans and the executor's ``bulk.run`` subtree —
        carried on the report's ``trace`` field (see :mod:`repro.obs`).
        """
        started = time.perf_counter()
        tracer = self._resolve_tracer(trace, tracer)
        run_span = None
        if tracer.enabled:
            run_span = tracer.start(
                "engine.materialize",
                compiled=compiled,
                resume=resume,
                checkpoint=checkpoint or resume,
            )
        try:
            with tracer.span("engine.plan") as plan_span:
                plan_source = self._ensure_plan()
                plan_span.tag(source=plan_source, steps=len(self._plan.steps))
            checkpoint = checkpoint or resume
            if compiled:
                with tracer.span("engine.compile") as compile_span:
                    compiled_plan = self._compiled_plan()
                    compile_span.tag(regions=len(compiled_plan.regions))
            else:
                compiled_plan = None
            plan_users = self._plan.explicit_users
            session = self._session
            with tracer.span("engine.load_beliefs") as load_span:
                # One set comparison per key.  Rows are only built when
                # BELIEF must be rewritten; the store stringifies them as it
                # inserts them.
                rows: Optional[List[Tuple[User, str, Value]]] = (
                    None if session.beliefs_stored else []
                )
                for key in session.keys:
                    beliefs = session.resolver(key).beliefs
                    if beliefs.keys() != plan_users:
                        users = {str(user) for user in beliefs}
                        planned = {str(user) for user in plan_users}
                        if users != planned:
                            raise BulkProcessingError(
                                f"key {key!r} violates bulk assumption (ii): its "
                                f"belief users {sorted(users)} differ from the "
                                f"planned explicit set {sorted(planned)}"
                            )
                    if rows is not None:
                        rows.extend(zip(beliefs, repeat(key), beliefs.values()))
                load_span.tag(rows=0 if rows is None else len(rows), stored=rows is None)
            if not resume:
                # Until the run commits, POSS holds no whole relation for
                # an apply to keep in step.
                session.loaded = False
                self.store.clear()
                self.store.journal_clear()
            run_id = self._run_id() if checkpoint else None
            if run_id is not None and compiled:
                # Compiled and replay markers share the journal's id space; a
                # distinct run id keeps a step-at-a-time checkpoint from
                # falsely satisfying a whole compiled region (and vice
                # versa).
                run_id += "-compiled"
            executor = BulkResolver(
                self.network,
                store=self.store,
                scheduler="compiled" if compiled else "replay",
                plan=self._plan,
                compiled_plan=compiled_plan,
                checkpoint=run_id,
                tracer=tracer if tracer.enabled else None,
            )
            executor.load_beliefs(rows)
            if rows is not None and not resume:
                # A resumed load may have been skipped by its journal marker.
                session.beliefs_stored = True
            bulk = executor.run()
            session.loaded = True
        except BaseException:
            if run_span is not None:
                run_span.tag(outcome="error")
                tracer.finish(run_span)
            raise
        self._materialized = True
        report = EngineReport(
            operation="materialize",
            seconds=time.perf_counter() - started,
            backend=bulk.backend,
            keys=len(self._session.keys),
            statements=bulk.statements,
            transactions=bulk.transactions,
            rows_inserted=bulk.rows_inserted,
            shards=bulk.shards,
            dag_stages=bulk.dag_stages,
            scheduler=bulk.scheduler,
            regions_compiled=bulk.regions_compiled,
            statements_saved=bulk.statements_saved,
            retries=bulk.retries,
            timed_out_statements=bulk.timed_out_statements,
            faults_injected=bulk.faults_injected,
            checkpointed=bulk.checkpointed,
            nodes_skipped=bulk.nodes_skipped,
            degraded_shards=self.store.degraded_shards,
            plan_source=plan_source,
            plan_steps=len(self._plan.steps),
            bulk=bulk,
        )
        if run_span is not None:
            run_span.tag(
                statements=report.statements,
                rows=report.rows_inserted,
                shards=report.shards,
                scheduler=report.scheduler,
            )
            tracer.finish(run_span)
            report.trace = tracer
        return report

    def apply(
        self,
        *deltas: Delta,
        coalesce: bool = True,
        trace: bool = False,
        tracer: "Tracer | None" = None,
    ) -> EngineReport:
        """Absorb a batch of updates through the incremental path.

        The batch is coalesced, recomputed once per key over the merged
        dirty region, and landed in the store as delta statements
        (:meth:`IncrementalSession.apply_batch`).  The cached plan is only
        read by :meth:`materialize`, so it is normally not patched here:
        the batch's touched and removed users are recorded, and the next
        :meth:`materialize` (or :attr:`plan` access) patches the union of
        every batch since the last one with a single
        :func:`repro.bulk.planpatch.patch_plan` — plan maintenance
        proportional to the updates, paid once per stream.  The report's
        ``plan_source`` is ``pending`` while a patch is owed.  Once the
        recorded users reach 1/32 of the network, this call patches them
        in and reports ``patched``; on small networks that is every
        batch.

        ``trace=True`` / ``tracer=`` record the verb as an ``engine.apply``
        span over the session's coalesce/recompute/flush subtree; the
        recorded delta-statement count is checked against the report.
        """
        started = time.perf_counter()
        tracer = self._resolve_tracer(trace, tracer)
        run_span = None
        metrics_before = None
        if tracer.enabled:
            run_span = tracer.start(
                "engine.apply", deltas=len(deltas), coalesce=coalesce
            )
            metrics_before = tracer.metrics.counters()
        retries_before = self.store.retries
        timeouts_before = self.store.timed_out_statements
        faults_before = self.store.faults_injected
        version_before = self.network.version
        try:
            delta_report = self._session.apply_batch(*deltas, coalesce=coalesce)
            plan_source = self._maintain_plan(delta_report, version_before)
        except BaseException:
            if run_span is not None:
                run_span.tag(outcome="error")
                tracer.finish(run_span)
            raise
        report = EngineReport(
            operation="apply",
            seconds=time.perf_counter() - started,
            backend=delta_report.backend,
            keys=delta_report.keys,
            deltas=delta_report.deltas,
            coalesced_from=delta_report.coalesced_from,
            users_changed=delta_report.users_changed,
            rows_deleted=delta_report.rows_deleted,
            rows_inserted=delta_report.rows_inserted,
            statements=delta_report.statements,
            transactions=delta_report.transactions,
            dirty_region=delta_report.dirty_region,
            recomputed=delta_report.recomputed,
            recomputes=delta_report.recomputes,
            retries=self.store.retries - retries_before,
            timed_out_statements=self.store.timed_out_statements - timeouts_before,
            faults_injected=self.store.faults_injected - faults_before,
            recovered=delta_report.recovered,
            degraded_shards=self.store.degraded_shards,
            plan_source=plan_source,
            plan_steps=len(self._plan.steps) if plan_source else 0,
            delta=delta_report,
        )
        if run_span is not None:
            run_span.tag(
                statements=report.statements,
                rows_inserted=report.rows_inserted,
                rows_deleted=report.rows_deleted,
            )
            tracer.finish(run_span)
            observed = tracer.metrics.delta(metrics_before).get(
                "poss.statements.delta", 0
            )
            if observed != report.statements:
                raise BulkProcessingError(
                    f"trace/report mismatch: metric poss.statements.delta "
                    f"recorded {observed} but the apply report says "
                    f"{report.statements}"
                )
            report.trace = tracer
        return report

    def recover_shard(self, index: int) -> EngineReport:
        """Heal a quarantined shard and restore its slice of the relation.

        Re-establishes the shard's availability
        (:meth:`~repro.bulk.store.ShardedPossStore.heal`; a still-dead
        shard raises :class:`~repro.core.errors.ShardUnavailable` and
        stays quarantined), replays the delta fragments the session queued
        while it was out and verifies the slice against the in-memory
        state, rebuilding it wholesale when the shard lost committed rows
        (:meth:`IncrementalSession.recover_shard`).  After a successful
        recover the shard serves again and ``degraded_shards`` drops it.
        """
        started = time.perf_counter()
        retries_before = self.store.retries
        faults_before = self.store.faults_injected
        slice_rows = self._session.recover_shard(index)
        return EngineReport(
            operation="recover",
            seconds=time.perf_counter() - started,
            backend=self.store.backend_name,
            keys=len(self._session.keys),
            rows_inserted=slice_rows,
            shards=len(self.store.shards),
            retries=self.store.retries - retries_before,
            faults_injected=self.store.faults_injected - faults_before,
            recovered=True,
            degraded_shards=self.store.degraded_shards,
        )

    def query(self, user: User, key: Optional[str] = None) -> FrozenSet[str]:
        """Possible values of one user for one key (default key if omitted).

        Reads the relation when materialized (``auto``/``store`` modes) and
        the in-memory maintained state otherwise; both stay in lockstep
        under :meth:`apply`, which is what the round-trip tests lock.
        """
        key = self._session.keys[0] if key is None else str(key)
        use_store = self.mode == "store" or (
            self.mode == "auto" and self._materialized
        )
        if use_store:
            return self.store.possible_values(user, key)
        return frozenset(
            str(value) for value in self._session.possible_values(user, key)
        )

    def certain(self, user: User, key: Optional[str] = None) -> FrozenSet[str]:
        """Certain value of one user for one key (singleton or empty)."""
        values = self.query(user, key)
        return values if len(values) == 1 else frozenset()

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Close the underlying store."""
        self._session.close()

    def __enter__(self) -> "ResolutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

