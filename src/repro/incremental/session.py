"""Live sessions: delta resolution applied to the ``POSS`` store.

An :class:`IncrementalSession` keeps a relational ``POSS`` store (single
:class:`~repro.bulk.store.PossStore` or key-partitioned
:class:`~repro.bulk.store.ShardedPossStore`) consistent with an evolving
trust network.  Where the bulk executor re-resolves and reloads the whole
relation per run, a session applies each update's
:class:`~repro.incremental.deltas.DeltaLog` as **delta** ``DELETE`` /
``INSERT`` statements — only the rows whose value vanished from or appeared
in a user's possible set move
(:func:`~repro.incremental.deltas.row_diff`), one ``DELETE`` batch and one
``INSERT`` batch per store — inside one run-scoped transaction (one per
shard on partitioned stores, via the same :meth:`transaction` surface the
bulk executor uses), so a mid-apply failure leaves the relation untouched.

The store's ``BELIEF`` relation is kept equal to the session's explicit
beliefs (one ``(user, key, value)`` row per positive belief, see
:meth:`IncrementalSession.belief_rows`): :meth:`IncrementalSession.load`
replaces it, each flush rewrites the ``(user, key)`` slots whose belief the
batch changed inside the transaction of the ``POSS`` diff, and
:meth:`~IncrementalSession.resync` and
:meth:`~IncrementalSession.recover_shard` replace it along with ``POSS``.
:attr:`~IncrementalSession.beliefs_stored` says whether it is in step, so
an engine's warm ``materialize`` can load beliefs from it with one
``INSERT … SELECT``.

Sessions follow the bulk assumptions of Section 4: the trust structure is
shared by every object key, while explicit beliefs vary per key.  One
:class:`~repro.incremental.resolver.DeltaResolver` per key maintains that
key's possible map against the shared network; structural deltas fan out to
every key (the structure mutates once), belief deltas route to the key they
name.  A multi-key session opens with one ``resolve()`` per believer group
(the keys whose positive beliefs sit on the same users), not one per key:
:meth:`~repro.incremental.resolver.DeltaResolver.for_keys` decodes every
key of a group from that one resolution.

Garbage-collector policy (ROADMAP PR-2 note): the cyclic collector is
paused **per apply batch** — :func:`~repro.core.gcpause.paused_gc` wraps
each recomputation and is exited before :meth:`apply` returns — never
across the session's lifetime, so a long-lived session does not starve the
rest of the process of cycle collection.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.beliefs import Value
from repro.core.errors import (
    BackendError,
    BulkProcessingError,
    NetworkError,
    ShardUnavailable,
)
from repro.core.gcpause import paused_gc
from repro.core.network import TrustNetwork, User
from repro.core.resolution import UnionProgram
from repro.bulk.store import PossStore, ShardedPossStore
from repro.obs.trace import NULL_TRACER
from repro.incremental.coalesce import coalesce as coalesce_deltas
from repro.incremental.deltas import (
    Delta,
    DeltaLog,
    RemoveBelief,
    RemoveUser,
    Row,
    RowChange,
    SetBelief,
    is_structural,
    row_diff,
)
from repro.incremental.resolver import DeltaResolver, OpeningRecord

_EMPTY: FrozenSet[Value] = frozenset()


@dataclass
class DeltaApplyReport:
    """Instrumentation of one :meth:`IncrementalSession.apply` batch.

    The counters mirror :class:`~repro.bulk.executor.BulkRunReport` where
    they overlap (``transactions``, ``backend``) and add the incremental
    engine's cost model: ``dirty_region`` and ``recomputed`` sum the
    resolvers' :class:`~repro.incremental.deltas.DeltaLog` counters (users
    visited, users re-resolved; the change-driven walk visits only what it
    recomputes, so ``dirty_region == recomputed``).  ``rows_deleted``
    and ``rows_inserted`` count the ``POSS`` rows the flush removed and
    added: only values that vanished from or appeared in a user's possible
    set, so a user whose set went from ``{a, b}`` to ``{a}`` deletes one
    row and inserts none.  With ``statements`` they show how little the
    delta path moved compared to a full reload.
    """

    deltas: int
    keys: int
    users_changed: int
    rows_deleted: int
    rows_inserted: int
    statements: int
    transactions: int
    seconds: float
    dirty_region: int
    recomputed: int
    backend: str = "sqlite-memory"
    #: Regional recomputation passes the apply ran (one per delta per key
    #: for :meth:`IncrementalSession.apply`; one per key for
    #: :meth:`IncrementalSession.apply_batch`, however many ops arrived).
    recomputes: int = 0
    #: Number of ops the batch held *before* coalescing (0 = no coalescing
    #: was attempted; equal to ``deltas`` = nothing merged).
    coalesced_from: int = 0
    #: Whether the flush hit a backend failure and recovered — by
    #: quarantining an unavailable shard and queueing its fragment for
    #: :meth:`IncrementalSession.recover_shard`, or by resynchronizing the
    #: serving shards from the in-memory state.  The report's
    #: row/statement counters then describe the recovery writes.
    recovered: bool = False
    logs: Tuple[Tuple[str, DeltaLog], ...] = field(default=(), repr=False)


class IncrementalSession:
    """Maintain a resolved ``POSS`` relation under a stream of deltas.

    Parameters
    ----------
    network:
        The shared binary trust structure.  Structural deltas mutate it in
        place (once, regardless of the number of keys).
    store:
        The relation to maintain; defaults to an in-memory
        :class:`PossStore`.  A :class:`ShardedPossStore` works unchanged —
        delta deletes route to the owning shard and the apply transaction
        spans every shard all-or-nothing.
    keys:
        The object keys the session maintains (default: the single key
        ``"k0"``).  The session names them by ``str()``, so keys whose
        ``str()`` collide (``1`` and ``"1"``) are rejected.
    beliefs_by_key:
        Optional per-key positive-belief overrides ``key -> {user: value}``;
        keys without an entry start from the network's own explicit
        beliefs.
    autoload:
        Load the initial resolution of every key into the store (default).

    Typical use::

        session = IncrementalSession(network, store=PossStore())
        report = session.apply(SetBelief("alice", "fish"))
        report.rows_inserted        # only the rows that appeared
    """

    def __init__(
        self,
        network: TrustNetwork,
        store: "PossStore | ShardedPossStore | None" = None,
        keys: Sequence[str] = ("k0",),
        beliefs_by_key: Optional[Dict[str, Dict[User, Value]]] = None,
        autoload: bool = True,
    ) -> None:
        if not keys:
            raise BulkProcessingError("a session needs at least one object key")
        names = Counter(map(str, keys))
        colliding = [key for key in keys if names[str(key)] > 1]
        if colliding:
            raise BulkProcessingError(
                f"object keys collide once converted to str: {colliding}"
            )
        self.network = network
        self.store = store if store is not None else PossStore()
        base_beliefs = {
            user: belief.positive_value
            for user, belief in network.explicit_beliefs.items()
            if belief.positive_value is not None
        }
        overrides = beliefs_by_key or {}
        unknown = set(overrides) - set(keys)
        if unknown:
            raise BulkProcessingError(
                f"belief overrides name keys outside the session: {sorted(unknown)}"
            )
        if beliefs_by_key is None and len(keys) == 1:
            # The common single-object session: the resolver owns the
            # network's beliefs, so belief deltas write back and
            # ``resolve(session.network)`` stays authoritative.
            self._resolvers: Dict[str, DeltaResolver] = {
                str(keys[0]): DeltaResolver(network)
            }
        else:
            # Multi-key (or explicitly overridden) sessions detach belief
            # state per key; the shared network carries structure only.
            # Keys that put their beliefs on the same users share one
            # resolve().
            self._resolvers = DeltaResolver.for_keys(
                network, {str(key): overrides.get(key, base_beliefs) for key in keys}
            )
        self._default_key = str(keys[0])
        #: The closing record of the resolve() that opened the session (see
        #: :meth:`take_opening_program`), taken over from the resolvers.
        self._opening: Optional[OpeningRecord] = None
        for resolver in self._resolvers.values():
            if self._opening is None:
                self._opening = resolver.opening
            resolver.opening = None
        #: Row-diff fragments owed to quarantined shards, in apply order:
        #: ``shard index -> [(deleted rows, inserted rows), ...]``.  Replayed
        #: (or superseded by a slice rebuild) by :meth:`recover_shard`.
        self._pending: Dict[int, List[Tuple[List[Row], List[Row]]]] = {}
        #: ``store.reconnects`` when ``BELIEF`` was last known to hold the
        #: session's beliefs, or ``None`` (see :attr:`beliefs_stored`).
        self._beliefs_at: Optional[int] = None
        #: Whether ``POSS`` holds the session's relation: set by
        #: :meth:`load` and :meth:`resync` (or a caller that loaded it, the
        #: engine's ``materialize``).  Until then the flush writes nothing.
        self.loaded = False
        self._tracer = NULL_TRACER
        if autoload:
            self.load()

    @property
    def tracer(self):
        """The session's tracer (:data:`~repro.obs.trace.NULL_TRACER` off)."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = NULL_TRACER if tracer is None else tracer
        # The store funnel records the statement/retry spans; installing
        # here keeps session spans and statement spans in one trace.
        for shard in self.store.shards:
            shard.tracer = self._tracer

    # ------------------------------------------------------------------ #
    # views                                                               #
    # ------------------------------------------------------------------ #

    @property
    def keys(self) -> Tuple[str, ...]:
        """The object keys this session maintains."""
        return tuple(self._resolvers)

    def resolver(self, key: Optional[str] = None) -> DeltaResolver:
        """The per-key resolver (default key when ``key`` is omitted)."""
        key = self._default_key if key is None else str(key)
        try:
            return self._resolvers[key]
        except KeyError:
            raise BulkProcessingError(
                f"unknown object key {key!r}; session keys: {list(self._resolvers)}"
            ) from None

    def possible_values(self, user: User, key: Optional[str] = None) -> FrozenSet[Value]:
        """In-memory ``poss(user)`` for one key (no store round trip)."""
        return self.resolver(key).possible.get(user, _EMPTY)

    def rows(self) -> List[Tuple[str, str, str]]:
        """The full relation implied by the in-memory state (sorted)."""
        return sorted(
            (str(user), key, str(value))
            for key, resolver in self._resolvers.items()
            for user, values in resolver.possible.items()
            for value in values
        )

    def belief_rows(self) -> List[Tuple[str, str, str]]:
        """The session's explicit beliefs as ``BELIEF`` rows (sorted)."""
        return sorted(
            (str(user), key, str(value))
            for key, resolver in self._resolvers.items()
            for user, value in resolver.beliefs.items()
        )

    @property
    def beliefs_stored(self) -> bool:
        """Whether the store's ``BELIEF`` relation holds the session's beliefs.

        True once :meth:`load` or :meth:`resync` wrote them (or a caller
        that loaded them itself, the engine's ``materialize``, set it), for
        as long as every apply flushed.  An apply that raised before its
        flush, a failed recovery or a reconnect of any shard (an in-memory
        database comes back empty) makes it false; a quarantined shard's
        slice is :meth:`recover_shard`'s to repair.  While it is false the
        flush leaves ``BELIEF`` alone.
        """
        return self._beliefs_at is not None and self._beliefs_at == self.store.reconnects

    @beliefs_stored.setter
    def beliefs_stored(self, stored: bool) -> None:
        self._beliefs_at = self.store.reconnects if stored else None

    def take_opening_program(self) -> Optional[UnionProgram]:
        """Algorithm 1's closing record from the session's open, handed out once.

        The :class:`~repro.core.resolution.UnionProgram` of the
        ``resolve()`` that opened the session over the network's own
        positive believers (the default key's, or the believer group's
        whose believers they are): the bulk plan of the network as opened
        (:func:`repro.bulk.planner.plan_resolution` lowers it).  ``None``
        when no open resolved over those believers, when the record was
        taken already, or when the network version moved since, so the
        record is stale.  The session forgets the record either way, and
        the first apply that moves the network drops it too.
        """
        record, self._opening = self._opening, None
        if record is None or record.version != self.network.version:
            return None
        return record.program

    # ------------------------------------------------------------------ #
    # loading                                                             #
    # ------------------------------------------------------------------ #

    def load(self) -> int:
        """Load the current resolution of every key into the store, and
        make ``BELIEF`` hold the session's beliefs."""
        loaded = self.store.insert_rows(self.rows())
        self.store.replace_beliefs(self.belief_rows())
        self.beliefs_stored = True
        self.loaded = True
        return loaded

    # ------------------------------------------------------------------ #
    # applying deltas                                                     #
    # ------------------------------------------------------------------ #

    def apply(self, *deltas: Delta) -> DeltaApplyReport:
        """Apply a batch of deltas to the resolvers and the store.

        The whole batch recomputes under one batch-scoped GC pause and
        lands in the store inside one run transaction (one per shard on
        sharded stores).  If a delta in the middle of the batch is rejected
        by validation (e.g. one breaking binarity, or naming an unknown
        key), the changes of the deltas *before* it are still flushed to
        the store before the exception propagates — the relation always
        matches the in-memory state, which a rejected delta never touches.
        A backend failure of the flush is recovered (see ``_flush``); an
        interrupt mid-recompute, or a failed recovery, can leave the
        relation behind the resolvers: call :meth:`resync` then.
        """
        if not deltas:
            raise BulkProcessingError("apply() needs at least one delta")
        started = time.perf_counter()
        logs: List[Tuple[str, DeltaLog]] = []
        before = self._beliefs_before(deltas)
        try:
            with paused_gc():
                for delta in deltas:
                    fresh = self._fresh_users((delta,))
                    if is_structural(delta):
                        for resolver in self._resolvers.values():
                            resolver.validate(delta)
                        touched: Optional[Tuple[User, ...]] = None
                        if isinstance(delta, RemoveUser):
                            touched = tuple(self.network.children(delta.user))
                        for position, (key, resolver) in enumerate(
                            self._resolvers.items()
                        ):
                            log = resolver.apply(
                                delta, mutate_network=position == 0, touched=touched
                            )
                            logs.append((key, log))
                    else:
                        key = self._key_of(delta)
                        logs.append((key, self.resolver(key).apply(delta)))
                    self._ensure_users(fresh)
        except (NetworkError, BulkProcessingError):
            # A validation rejection mutated nothing, but the deltas before
            # it did: land their changes so the relation keeps matching the
            # resolvers, then let the rejection propagate.  Anything else
            # (interrupt, resolver crash) may have left mid-delta state and
            # propagates without a flush — resync() is the recovery path.
            if logs:
                self._flush(logs, before, len(deltas), started)
            raise
        except BaseException:
            self.beliefs_stored = False
            raise

        return self._flush(logs, before, len(deltas), started)

    def apply_batch(self, *deltas: Delta, coalesce: bool = True) -> DeltaApplyReport:
        """Apply a batch of deltas with coalescing and one recompute per key.

        Where :meth:`apply` recomputes a dirty region per delta, this path
        first rewrites the batch into its net effects
        (:func:`~repro.incremental.coalesce.coalesce`, skipped with
        ``coalesce=False``), then applies every key's share of the batch
        through :meth:`DeltaResolver.apply_batch` — **one** regional
        recomputation per key, over the union of the batch's dirty regions
        — and lands the net row changes in the store inside one run
        transaction.  High-rate streams of overlapping updates therefore
        pay one regional re-resolution per batch instead of one per op;
        the report's ``recomputes``/``coalesced_from`` counters expose both
        savings.

        Rejection semantics differ from :meth:`apply`: deltas are validated
        as they execute (a batch is one unit, so validity is judged against
        the evolving mid-batch state, exactly as op-at-a-time application
        would).  A rejected delta aborts the batch with the successfully
        mutated prefix retained: every key's map is rebuilt from a fresh
        resolution of the resulting state and the relation reconciled via
        :meth:`resync` before the exception propagates, so memory, store
        and network never diverge.
        """
        if not deltas:
            raise BulkProcessingError("apply_batch() needs at least one delta")
        started = time.perf_counter()
        original_count = len(deltas)
        tracer = self._tracer
        batch_span = (
            tracer.start(
                "session.apply_batch", deltas=original_count, coalesce=coalesce
            )
            if tracer.enabled
            else None
        )
        try:
            report = self._apply_batch_inner(deltas, coalesce, started)
        except BaseException:
            if batch_span is not None:
                batch_span.tag(outcome="error")
                tracer.finish(batch_span)
            raise
        if batch_span is not None:
            batch_span.tag(
                ops=report.deltas,
                statements=report.statements,
                rows_deleted=report.rows_deleted,
                rows_inserted=report.rows_inserted,
                recomputes=report.recomputes,
            )
            tracer.finish(batch_span)
        return report

    def _apply_batch_inner(
        self, deltas: Tuple[Delta, ...], coalesce: bool, started: float
    ) -> DeltaApplyReport:
        """The body of :meth:`apply_batch` (split out for span wrapping)."""
        original_count = len(deltas)
        tracer = self._tracer
        if tracer.enabled and coalesce:
            with tracer.span("session.coalesce", deltas=original_count) as span:
                ops: List[Delta] = coalesce_deltas(deltas)
                span.tag(ops=len(ops))
        else:
            ops = coalesce_deltas(deltas) if coalesce else list(deltas)
        # Unknown object keys fail before anything mutates.
        for delta in ops:
            if not is_structural(delta):
                self.resolver(self._key_of(delta))

        # Partition: every resolver sees the structural ops plus its own
        # key's belief ops, in the original order.
        assignments: Dict[str, List[Tuple[int, Delta]]] = {
            key: [] for key in self._resolvers
        }
        for position, delta in enumerate(ops):
            if is_structural(delta):
                for key in assignments:
                    assignments[key].append((position, delta))
            else:
                assignments[self._key_of(delta)].append((position, delta))

        logs: List[Tuple[str, DeltaLog]] = []
        structural_touched: Dict[int, Tuple[User, ...]] = {}
        fresh = self._fresh_users(ops)
        before = self._beliefs_before(ops)
        try:
            with paused_gc():
                first = True
                for key, resolver in self._resolvers.items():
                    assigned = assignments[key]
                    if not assigned:
                        continue
                    batch = [delta for _pos, delta in assigned]
                    key_span = (
                        tracer.start("session.recompute", key=key, ops=len(batch))
                        if tracer.enabled
                        else None
                    )
                    try:
                        if first:
                            recorded: List[Tuple[User, ...]] = []
                            log = resolver.apply_batch(
                                batch, mutate_network=True, record_touched=recorded
                            )
                            for (position, delta), touched in zip(
                                assigned, recorded
                            ):
                                if is_structural(delta):
                                    structural_touched[position] = touched
                            first = False
                        else:
                            overrides = [
                                structural_touched.get(position)
                                for position, _delta in assigned
                            ]
                            log = resolver.apply_batch(
                                batch,
                                mutate_network=False,
                                touched_overrides=overrides,
                            )
                    except BaseException:
                        if key_span is not None:
                            key_span.tag(outcome="error")
                            tracer.finish(key_span)
                        raise
                    logs.append((key, log))
                    if key_span is not None:
                        key_span.tag(
                            dirty=log.dirty_region, recomputed=log.recomputed
                        )
                        tracer.finish(key_span)
                self._ensure_users(fresh)
        except (NetworkError, BulkProcessingError):
            # Mid-batch rejection: the shared network holds the prefix that
            # succeeded, but resolvers processed *after* the failing one —
            # and sibling keys that never saw the structural prefix — would
            # otherwise be left behind the mutated structure.  Rebuild every
            # key's map from a fresh resolution of the current state, then
            # reconcile the relation to it.
            for resolver in self._resolvers.values():
                resolver.rebuild()
            if self.loaded:
                self.resync()
            raise
        except BaseException:
            self.beliefs_stored = False
            raise

        with tracer.span("session.flush") as flush_span:
            report = self._flush(logs, before, len(ops), started, original_count)
            flush_span.tag(
                rows_deleted=report.rows_deleted,
                rows_inserted=report.rows_inserted,
                statements=report.statements,
            )
        return report

    def _key_of(self, delta: Delta) -> str:
        """The object key a belief delta names (the default key if none)."""
        return self._default_key if delta.key is None else str(delta.key)

    def _fresh_users(self, deltas: Sequence[Delta]) -> List[User]:
        """The users ``deltas`` may add to the network, probed before they run.

        Between applies every key's map holds the same users, so a user is
        missing from the first map exactly when it is missing from all of
        them.  After ``deltas``, a user they name can lack an entry only if
        it lacks one now or one of ``deltas`` removes it.
        """
        known = next(iter(self._resolvers.values())).possible
        removed = {delta.user for delta in deltas if isinstance(delta, RemoveUser)}
        fresh: List[User] = []
        for delta in deltas:
            if isinstance(delta, RemoveUser):
                continue
            for attribute in ("user", "child", "parent"):
                user = getattr(delta, attribute, None)
                if user is not None and (user not in known or user in removed):
                    fresh.append(user)
        return fresh

    def _ensure_users(self, users: List[User]) -> None:
        """Give new network users their (empty) entry in every key's map.

        A delta can introduce brand-new users (a belief on a fresh user, a
        trust edge with a fresh endpoint); every key's map gains them so
        the in-memory states stay aligned with the shared user set.
        """
        for user in users:
            for resolver in self._resolvers.values():
                resolver.ensure_user(user)

    def _beliefs_before(self, deltas: Sequence[Delta]) -> Dict[Tuple[str, User], Value]:
        """The beliefs ``deltas`` may change, as ``(key, user) -> value``
        (``None``: no belief) before they run; empty while ``BELIEF`` is not
        :attr:`beliefs_stored`, which the flush then leaves alone."""
        if not self.beliefs_stored:
            return {}
        before: Dict[Tuple[str, User], Value] = {}
        for delta in deltas:
            if isinstance(delta, RemoveUser):
                keys: Sequence[str] = tuple(self._resolvers)
            elif isinstance(delta, (SetBelief, RemoveBelief)):
                keys = (self._key_of(delta),)
            else:
                continue
            for key in keys:
                resolver = self._resolvers.get(key)
                if resolver is not None and (key, delta.user) not in before:
                    before[key, delta.user] = resolver.beliefs.get(delta.user)
        return before

    def _flush(
        self,
        logs: List[Tuple[str, DeltaLog]],
        beliefs_before: Dict[Tuple[str, User], Value],
        deltas: int,
        started: float,
        coalesced_from: int = 0,
    ) -> DeltaApplyReport:
        """Apply a batch of delta logs to the store in one run transaction.

        Returns the apply's report (``deltas`` ops applied since
        ``started``).  Per (key, user) only the *net* effect
        moves: the first old value set is compared against the last new
        one, and :func:`~repro.incremental.deltas.row_diff` turns that pair
        into the rows that vanished and appeared, so a batch that
        round-trips a user back to its old rows touches nothing.

        While :attr:`beliefs_stored`, the same transaction rewrites the
        ``BELIEF`` slots of the batch's belief changes: each ``(key,
        user)`` named by a ``SetBelief``, ``RemoveBelief`` or
        ``RemoveUser`` whose belief differs from ``beliefs_before``.  The
        apply still makes one commit.

        Crash consistency: the in-memory resolvers already hold the
        post-batch state when this runs, so a backend failure here never
        loses the batch — it only leaves the relation behind.  One rule
        recovers it.  A shard of a partitioned store that fails unavailable
        is quarantined, its row-change fragment queued for
        :meth:`recover_shard`, and the other shards' fragments written
        again.  Any other backend failure, and any failure of a single
        store, reconnects what it must and runs :meth:`resync` on the
        serving shards.  Either way the serving shards converge to the
        exact post-batch state.
        """
        if self._opening is not None and self._opening.version != self.network.version:
            self._opening = None  # the network moved past the open
        net: Dict[Tuple[str, User], RowChange] = {}
        for key, log in logs:
            for change in log.changes:
                slot = (key, change.user)
                first = net.get(slot)
                net[slot] = (
                    change
                    if first is None
                    else RowChange(
                        user=change.user,
                        old_values=first.old_values,
                        new_values=change.new_values,
                        removed=change.removed or first.removed,
                    )
                )
        changed = [
            (key, change)
            for (key, _user), change in net.items()
            if change.old_values != change.new_values
        ]
        deletes, inserts = row_diff(changed)
        deletes.sort()
        inserts.sort()
        slots, beliefs = self._belief_diff(beliefs_before)
        if not self.loaded:
            # Nothing to keep in step: whoever loads the store writes the
            # relation whole, and BELIEF with it.
            if slots:
                self.beliefs_stored = False
            deletes = inserts = slots = []

        store = self.store
        statements_before = store.delta_statements
        transactions_before = store.transactions
        rows_deleted = rows_inserted = 0
        recovered = rewrite = False
        while deletes or inserts or slots:
            try:
                with store.transaction():
                    rows_deleted, rows_inserted = _write_rows(
                        store, deletes, inserts, idempotent=rewrite
                    )
                    if slots:
                        store.update_beliefs(slots, beliefs)
                break
            except ShardUnavailable as error:
                # One shard of a partitioned store is out (it is now
                # quarantined): its fragment waits for recover_shard, and
                # the rest is written again.  Shards commit one after
                # another, so some may hold their fragment already: the
                # rewrite is idempotent.
                lost_deletes, deletes = _split(deletes, store.spec, error.shard)
                lost_inserts, inserts = _split(inserts, store.spec, error.shard)
                # The shard's BELIEF slots are rewritten by recover_shard.
                slots = _split(slots, store.spec, error.shard)[1]
                beliefs = _split(beliefs, store.spec, error.shard)[1]
                if lost_deletes or lost_inserts:
                    self._pending.setdefault(error.shard, []).append(
                        (lost_deletes, lost_inserts)
                    )
                recovered = rewrite = True
            except BackendError:
                # The transaction rolled back (or a connection died
                # mid-flight); the resolvers hold the truth.  Reconcile the
                # serving shards from them, reconnecting first where a
                # connection is gone (a shard that stays dead is
                # quarantined, and recover_shard rebuilds it).
                with contextlib.suppress(ShardUnavailable):
                    store.ensure_available()
                self.resync()
                rows_deleted, rows_inserted = len(deletes), len(inserts)
                recovered = True
                break
            except BaseException:
                self.beliefs_stored = False
                raise
        return DeltaApplyReport(
            deltas=deltas,
            keys=len(self._resolvers),
            users_changed=len(changed),
            rows_deleted=rows_deleted,
            rows_inserted=rows_inserted,
            statements=store.delta_statements - statements_before,
            transactions=store.transactions - transactions_before,
            seconds=time.perf_counter() - started,
            dirty_region=sum(log.dirty_region for _key, log in logs),
            recomputed=sum(log.recomputed for _key, log in logs),
            backend=store.backend_name,
            recomputes=len(logs),
            coalesced_from=coalesced_from,
            recovered=recovered,
            logs=tuple(logs),
        )

    def _belief_diff(
        self, beliefs_before: Dict[Tuple[str, User], Value]
    ) -> Tuple[List[Tuple[str, str]], List[Row]]:
        """The ``BELIEF`` slots a flush rewrites, as ``(str(user), key)``,
        and the rows they hold now: those whose belief moved."""
        slots: List[Tuple[str, str]] = []
        beliefs: List[Row] = []
        for (key, user), old in beliefs_before.items():
            value = self._resolvers[key].beliefs.get(user)
            if value != old:
                slots.append((str(user), key))
                if value is not None:
                    beliefs.append((str(user), key, str(value)))
        return sorted(slots), sorted(beliefs)

    def pending_shards(self) -> Tuple[int, ...]:
        """Shard indices with queued row-change fragments, sorted.

        Non-empty only after a sharded flush degraded around a dead shard;
        :meth:`recover_shard` drains an index's queue.
        """
        return tuple(sorted(self._pending))

    def recover_shard(self, index: int) -> int:
        """Heal a quarantined shard and bring its slice back in sync.

        Heals the shard's availability (:meth:`ShardedPossStore.heal`,
        which raises :class:`~repro.core.errors.ShardUnavailable` and
        leaves it quarantined if the connection is still dead), replays the
        row-change fragments queued while it was out, then *verifies* the
        shard's slice against the in-memory state — a shard that lost its
        data entirely (an in-memory backend that reconnected, a restored
        stale snapshot) fails the check and gets its slice rebuilt from the
        resolvers instead.  The shard's ``BELIEF`` slice, which the flushes
        it missed did not queue, is replaced in the replay's transaction.
        Returns the number of rows the healed slice holds.
        """
        store = self.store
        if not isinstance(store, ShardedPossStore):
            raise BulkProcessingError(
                "recover_shard() needs a ShardedPossStore-backed session"
            )
        stored = self.beliefs_stored
        store.heal(index)
        shard = store.shards[index]
        pending = self._pending.pop(index, [])
        with shard.transaction():
            for frag_deletes, frag_inserts in pending:
                _write_rows(shard, frag_deletes, frag_inserts, idempotent=True)
            shard.replace_beliefs(store.spec.partition_rows(self.belief_rows())[index])
        # A heal that reconnected moved store.reconnects; the other shards
        # kept their BELIEF in step, and this one now is.
        self.beliefs_stored = stored
        expected = store.spec.partition_rows(self.rows())[index]
        session_keys = set(self._resolvers)
        actual = sorted(
            (row.user, row.key, row.value)
            for row in shard.possible_table()
            if row.key in session_keys
        )
        if actual != expected:
            # The queued fragments were not enough (the shard lost committed
            # rows, or missed writes that pre-date the quarantine): rebuild
            # the slice wholesale from the in-memory truth.
            with shard.transaction():
                self._rebuild_slice(
                    index, shard.users() | {row[0] for row in expected}, expected
                )
        return len(expected)

    def resync(self) -> int:
        """Rebuild the store content from the in-memory state.

        The recovery path for a failed store transaction (the one case
        where the relation can fall behind the resolvers): every serving
        shard's rows of the maintained keys are deleted and reloaded from
        the resolvers, and their ``BELIEF`` is replaced by the session's
        beliefs, in one transaction.  A quarantined shard's slice is
        :meth:`recover_shard`'s job; the returned row count covers the
        serving shards only.
        """
        store = self.store
        slices = store.spec.partition_rows(self.rows())
        belief_slices = store.spec.partition_rows(self.belief_rows())
        self.beliefs_stored = False
        with store.transaction():
            for index, shard in enumerate(store.shards):
                if index not in store.degraded_shards:
                    self._rebuild_slice(index, shard.users(), slices[index])
                    shard.replace_beliefs(belief_slices[index])
        self.beliefs_stored = True
        self.loaded = True
        return store.row_count()

    def _rebuild_slice(self, index: int, users, rows: List[Row]) -> None:
        """Replace what shard ``index`` holds for the session's keys by ``rows``.

        The whole-user delete: every row of ``users`` goes, one key at a
        time, for each session key the shard owns; then ``rows`` land in
        one batch.  The caller holds the transaction.
        """
        store = self.store
        shard = store.shards[index]
        users = sorted(users)
        for key in self._resolvers:
            if store.spec.shard_of(key) == index:
                shard.delete_user_rows(users, key=key)
        shard.insert_rows(rows)

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Close the underlying store."""
        self.store.close()

    def __enter__(self) -> "IncrementalSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _write_rows(
    store: PossStore,
    deletes: List[Row],
    inserts: List[Row],
    idempotent: bool = False,
) -> Tuple[int, int]:
    """Write one row diff: one ``DELETE`` batch, then one ``INSERT`` batch.

    Every flush goes through here: the single store, each shard's fragment
    and the replay of a quarantined shard's queue.  ``idempotent`` also
    deletes the rows about to be inserted, so a fragment that may already
    have landed (a shard committed before a later one failed, or died
    mid-commit) is rewritten rather than duplicated.  Returns ``(rows
    deleted, rows inserted)``.
    """
    if idempotent:
        deletes = deletes + inserts
    deleted = store.delete_user_rows(rows=deletes) if deletes else 0
    inserted = store.insert_rows(inserts) if inserts else 0
    return deleted, inserted


def _split(rows: List[Row], spec, index: int) -> Tuple[List[Row], List[Row]]:
    """``rows`` split into those shard ``index`` of ``spec`` owns, and the rest."""
    owned: List[Row] = []
    rest: List[Row] = []
    for row in rows:
        (owned if spec.shard_of(row[1]) == index else rest).append(row)
    return owned, rest
