"""Relational store for bulk conflict resolution (Section 4, Appendix B.10).

The paper stores possible values in a single relation ``POSS(X, K, V)`` —
user, object key, value — inside a relational engine (Microsoft SQL Server in
the original experiments) and drives resolution with bulk ``INSERT … SELECT``
statements.  :class:`PossStore` provides that relation on top of a pluggable
:class:`~repro.bulk.backends.SqlBackend` (``sqlite3`` in memory by default,
on disk or any DB-API 2.0 engine by configuration), which keeps the
reproduction dependency-free while preserving the set-oriented execution the
Section 4 experiment measures.

Transactions follow the paper's execution model: a bulk run is *one*
relational transaction.  The executor opens a run-scoped
:meth:`PossStore.transaction` around the whole plan; inside it the
statement methods defer to the single run commit, so a mid-run failure
rolls the relation back to its pre-run state.  Outside a run transaction
(direct store use, loading explicit beliefs) every method commits its own
work, keeping on-disk databases durable across :meth:`PossStore.close`.

*Checkpointed* runs trade the single run transaction for one transaction
per plan region, each committing the region's rows together with its
``POSS_JOURNAL`` marker (:meth:`PossStore.journal_record`), so a failure
leaves only whole, journaled regions visible and a re-run resumes from
them.

Fault tolerance lives at two seams of this class.  Every statement passes
through the single :meth:`PossStore._run_statement` funnel, where raw
driver exceptions are classified through the backend
(:meth:`~repro.bulk.backends.SqlBackend.classify_error`) and
:class:`~repro.core.errors.TransientBackendError` failures retry under the
store's :class:`~repro.faults.retry.RetryPolicy`.  And the
``POSS_JOURNAL(RUN, NODE)`` side table records which plan regions a
checkpointed run has completed (keyed by the plan index of each region's
last step), so an interrupted materialization resumes from the last
committed region (sound because resolution is deterministic and closed
users' rows are final — executing the remaining regions yields the
byte-identical relation).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.beliefs import Value
from repro.core.errors import (
    BackendError,
    BackendUnavailable,
    BulkProcessingError,
    ShardUnavailable,
    StatementTimeout,
    TransientBackendError,
)
from repro.core.network import User
from repro.bulk.backends import (
    ALL_INDEX_NAMES,
    DEFAULT_MAX_BIND_PARAMS,
    IndexStrategy,
    ShardSpec,
    SqlBackend,
    resolve_index_strategy,
    sqlite_backend,
)
# NOTE: only the leaf modules (policy, retry) are imported here —
# repro.faults.backend imports repro.bulk.backends, so importing it at
# module level would create a cycle; PossStore.__init__ pulls
# FaultInjectingBackend in lazily for the env-gated chaos wrap.
from repro.faults.policy import FaultPolicy
from repro.faults.retry import RetryPolicy
from repro.obs.trace import NULL_TRACER

#: Reserved value representing ⊥ in the Skeptic bulk variant.
BOTTOM_VALUE = "__BOTTOM__"


@dataclass(frozen=True, order=True)
class PossRow:
    """One row of the ``POSS`` relation (ordered for canonical snapshots)."""

    user: str
    key: str
    value: str


class PossStore:
    """The ``POSS(X, K, V)`` relation behind a pluggable SQL backend.

    Parameters
    ----------
    path:
        Convenience shorthand for the sqlite backends: the default
        ``":memory:"`` keeps everything in RAM (what the benchmarks use);
        any other string selects an on-disk sqlite database.  Ignored when
        ``backend`` is given.
    backend:
        A :class:`~repro.bulk.backends.SqlBackend`; overrides ``path``.
    index_strategy:
        An :class:`~repro.bulk.backends.IndexStrategy` (or its name) fixing
        the physical design of the relation; defaults to the single
        ``covering`` index.  See the Figure 8c index sweep.
    retry_policy:
        The :class:`~repro.faults.retry.RetryPolicy` the statement funnel
        runs under; defaults to :meth:`RetryPolicy.default` (six attempts,
        millisecond backoff).  Pass :meth:`RetryPolicy.none` to fail fast.

    Setting ``REPRO_FAULT_SEED`` in the environment wraps the backend in a
    :class:`~repro.faults.backend.FaultInjectingBackend` (transient faults
    at the statement sites, probability ``REPRO_FAULT_P``, default 0.05):
    the chaos switch that lets the whole test suite run under injected
    faults without any test opting in.
    """

    def __init__(
        self,
        path: str = ":memory:",
        backend: Optional[SqlBackend] = None,
        index_strategy: "IndexStrategy | str | None" = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self._backend = backend if backend is not None else sqlite_backend(path)
        env_policy = FaultPolicy.from_env()
        if env_policy is not None:
            from repro.faults.backend import FaultInjectingBackend

            if not isinstance(self._backend, FaultInjectingBackend):
                self._backend = FaultInjectingBackend(self._backend, env_policy)
        self._index_strategy = resolve_index_strategy(index_strategy)
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy.default()
        )
        self._bulk_statements = 0
        self._delta_statements = 0
        self._transactions = 0
        self._retries = 0
        self._timed_out = 0
        self._reconnects = 0
        self._in_transaction = False
        self._tracer = NULL_TRACER
        #: Shard index tagged onto statement spans (set by ShardedPossStore).
        self.trace_shard: Optional[int] = None
        # The compiled-statement cache, keyed by region fingerprint:
        # (canonical sql, rendered sql, bound parameters): a repeated run
        # skips building and rendering the SQL text.
        self._statement_cache: Dict[str, Tuple[str, str, Tuple[object, ...]]] = {}
        self._statement_cache_hits = 0
        self._statement_cache_misses = 0
        self._connection = self._connect()
        self._ensure_schema()

    @property
    def tracer(self):
        """The tracer observing this store's statement funnel."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = NULL_TRACER if tracer is None else tracer
        # A fault-injecting wrapper emits fault events through the same
        # tracer (duck-typed: any backend exposing a ``tracer`` slot).
        if hasattr(self._backend, "tracer"):
            self._backend.tracer = self._tracer

    def _connect(self):
        """Open the backend connection, classifying connect-time failures."""
        try:
            return self._backend.connect()
        except Exception as error:
            raise self._classify(error, default=BackendUnavailable) from error

    def _ensure_schema(self) -> None:
        """Create (idempotently) the relation, journal and declared indexes."""
        self._execute(
            "CREATE TABLE IF NOT EXISTS POSS "
            "(X TEXT NOT NULL, K TEXT NOT NULL, V TEXT NOT NULL)"
        )
        # The checkpoint journal: which plan regions a named run has committed.
        self._execute(
            "CREATE TABLE IF NOT EXISTS POSS_JOURNAL "
            "(RUN TEXT NOT NULL, NODE INTEGER NOT NULL)"
        )
        # Reconcile the physical design: an on-disk database may carry
        # indexes from a previous strategy; drop anything this strategy
        # does not declare so reports never misattribute timings.
        declared = set(self._index_strategy.index_names)
        for index_name in ALL_INDEX_NAMES:
            if index_name not in declared:
                self._execute(f"DROP INDEX IF EXISTS {index_name}")
        for statement in self._index_strategy.create_statements:
            self._execute(statement)
        self._commit()

    # ------------------------------------------------------------------ #
    # plumbing                                                            #
    # ------------------------------------------------------------------ #

    def _classify(self, error: Exception, default=None):
        """Turn a raw driver exception into a classified error instance.

        Returns the classified :class:`~repro.core.errors.BackendError`
        (already-classified errors pass through unchanged); ``default``
        names the class to use when the backend cannot classify the error
        — ``None`` means "return the original exception unchanged".
        """
        if isinstance(error, BackendError):
            return error
        classified = self._backend.classify_error(error)
        if classified is None:
            classified = default
        if classified is None:
            return error
        failure = classified(f"{self._backend.name}: {error}")
        failure.__cause__ = error
        return failure

    def _run_statement(self, runner, sql: str = "", params: int = 0):
        """The retry funnel every statement passes through.

        ``runner`` is a re-executable thunk (fresh cursor per call).
        Transient failures retry under :attr:`retry_policy` (exponential
        backoff, deterministic jitter); a retryable failure that exhausts
        the policy's per-statement ``deadline`` raises
        :class:`~repro.core.errors.StatementTimeout`; everything else
        propagates classified on the first failure.  Retrying whole
        statements is safe here: an ``INSERT`` that failed rolled back
        atomically, and duplicate ``POSS`` rows are logically invisible
        anyway (every read path is ``SELECT DISTINCT``).

        When a tracer is installed the funnel emits a ``statement`` span
        (tagged with the SQL op, bind-param count and shard) wrapping one
        ``attempt`` span per try, and mirrors the retry/timeout counters
        into the tracer's metrics at the exact sites the report counters
        increment — that shared site is what makes trace/report
        consistency checkable.
        """
        policy = self.retry_policy
        deadline = policy.deadline
        started = time.monotonic() if deadline is not None else 0.0
        attempt = 1
        tracer = self._tracer
        traced = tracer.enabled
        if traced:
            op = sql.split(None, 1)[0].upper() if sql else "?"
            statement_span = tracer.start(
                "statement", op=op, params=params, shard=self.trace_shard
            )
            tracer.metrics.counter("poss.bind_params", params)
        while True:
            if traced:
                attempt_span = tracer.start("attempt", attempt=attempt)
            try:
                result = runner()
            except Exception as error:
                failure = self._classify(error)
                if not isinstance(failure, BackendError):
                    if traced:
                        tracer.finish(attempt_span.tag(outcome="error"))
                        tracer.finish(statement_span.tag(outcome="error"))
                    raise  # not a backend failure (e.g. bad SQL arity)
                if not isinstance(failure, TransientBackendError):
                    if traced:
                        tracer.finish(attempt_span.tag(outcome="fatal"))
                        tracer.finish(statement_span.tag(outcome="fatal"))
                    raise failure from error
                if traced:
                    tracer.finish(attempt_span.tag(outcome="transient"))
                if attempt >= policy.max_attempts:
                    if traced:
                        tracer.finish(statement_span.tag(outcome="exhausted"))
                    raise failure from error
                delay = policy.delay(attempt)
                if deadline is not None and (
                    time.monotonic() - started + delay > deadline
                ):
                    self._timed_out += 1
                    if traced:
                        tracer.metrics.counter("poss.timeouts")
                        tracer.finish(statement_span.tag(outcome="timeout"))
                    timeout = StatementTimeout(
                        f"statement exceeded its {deadline}s deadline "
                        f"after {attempt} attempt(s)"
                    )
                    raise timeout from error
                self._retries += 1
                if traced:
                    tracer.metrics.counter("poss.retries")
                time.sleep(delay)
                attempt += 1
            else:
                if traced:
                    tracer.finish(attempt_span.tag(outcome="ok"))
                    tracer.finish(
                        statement_span.tag(outcome="ok", attempts=attempt)
                    )
                return result

    def _execute(
        self,
        sql: str,
        parameters: Sequence[object] = (),
        rendered: Optional[str] = None,
    ):
        """Run one statement via a DB-API cursor, rendered for the backend.

        ``rendered`` short-circuits :meth:`SqlBackend.render` when the
        caller already holds the rendered text (the statement cache).
        """
        if rendered is None:
            rendered = self._backend.render(sql)
        bound = tuple(parameters)

        def runner():
            cursor = self._connection.cursor()
            cursor.execute(rendered, bound)
            return cursor

        return self._run_statement(runner, sql=sql, params=len(bound))

    def _statement_for(self, fingerprint, builder):
        """Resolve a compiled statement through the fingerprint-keyed cache.

        ``builder`` returns the canonical ``(sql, parameters)`` pair; the
        cache stores it with the backend-rendered text so a repeated run
        (same region fingerprint) skips both the SQL construction and the
        render.  ``fingerprint=None`` (replay regions, direct calls)
        bypasses the cache entirely.
        """
        if fingerprint is not None:
            entry = self._statement_cache.get(fingerprint)
            if entry is not None:
                self._statement_cache_hits += 1
                if self._tracer.enabled:
                    self._tracer.metrics.counter("poss.statement_cache.hits")
                return entry
        sql, parameters = builder()
        entry = (sql, self._backend.render(sql), tuple(parameters))
        if fingerprint is not None:
            self._statement_cache[fingerprint] = entry
            self._statement_cache_misses += 1
            if self._tracer.enabled:
                self._tracer.metrics.counter("poss.statement_cache.misses")
        return entry

    def _executemany(self, sql: str, rows: Sequence[Sequence[object]]):
        """Run one batched statement (``executemany``) through the funnel."""
        rendered = self._backend.render(sql)

        def runner():
            cursor = self._connection.cursor()
            cursor.executemany(rendered, rows)
            return cursor

        params = len(rows) * len(rows[0]) if rows else 0
        return self._run_statement(runner, sql=sql, params=params)

    def _commit_connection(self) -> None:
        """Commit the connection, classifying commit-time failures (no retry:
        a failed commit's transaction state is driver-specific, so the safe
        reaction is a typed error and a run-level rollback)."""
        try:
            self._connection.commit()
        except Exception as error:
            failure = self._classify(error)
            if failure is error:
                raise
            raise failure from error

    def _commit(self) -> None:
        """Commit now unless a run-scoped transaction is open."""
        if not self._in_transaction:
            self._commit_connection()
            self._transactions += 1

    def _count_bulk(self, statements: int = 1) -> None:
        self._bulk_statements += statements
        if self._tracer.enabled:
            self._tracer.metrics.counter("poss.statements.bulk", statements)

    def _count_delta(self, statements: int = 1) -> None:
        self._delta_statements += statements
        if self._tracer.enabled:
            self._tracer.metrics.counter("poss.statements.delta", statements)

    # ------------------------------------------------------------------ #
    # lifecycle                                                            #
    # ------------------------------------------------------------------ #

    @property
    def backend_name(self) -> str:
        """Identifier of the backend hosting the relation."""
        return self._backend.name

    @property
    def index_strategy(self) -> IndexStrategy:
        """The physical-design strategy the relation was created with."""
        return self._index_strategy

    @property
    def supports_concurrent_replay(self) -> bool:
        """Whether this store's connection may be driven from a worker thread."""
        return self._backend.supports_concurrent_replay

    @property
    def compiled_dialect(self):
        """The backend's region-compilation dialect, or ``None``."""
        return getattr(self._backend, "compiled_dialect", None)

    @property
    def supports_compiled_regions(self) -> bool:
        """Whether the backend has a dialect, i.e. compiles every region kind."""
        return self.compiled_dialect is not None

    @property
    def max_bind_params(self) -> int:
        """The backend's bound-parameter limit (sizes compiled regions)."""
        return getattr(self._backend, "max_bind_params", DEFAULT_MAX_BIND_PARAMS)

    @property
    def statement_cache_hits(self) -> int:
        """Compiled statements served from the fingerprint cache."""
        return self._statement_cache_hits

    @property
    def statement_cache_misses(self) -> int:
        """Compiled statements built and rendered (then cached)."""
        return self._statement_cache_misses

    @property
    def statement_cache_size(self) -> int:
        """Distinct region fingerprints currently cached."""
        return len(self._statement_cache)

    @property
    def transactions(self) -> int:
        """Number of transactions committed so far on this connection."""
        return self._transactions

    @property
    def in_transaction(self) -> bool:
        """Whether a run-scoped :meth:`transaction` is currently open."""
        return self._in_transaction

    @contextlib.contextmanager
    def transaction(self) -> Iterator["PossStore"]:
        """Run-scoped transaction: commit on success, roll back on error.

        This is the one-transaction-per-run execution model of Section 4:
        the executor wraps an entire resolution plan in a single
        ``transaction()`` block, inside which the statement methods below
        skip their per-statement commits, so a mid-run failure (e.g. a
        :class:`~repro.core.errors.BulkProcessingError`) leaves the relation
        exactly as it was before the run.  Nesting is rejected — a run is
        one transaction by construction.
        """
        if self._in_transaction:
            raise BulkProcessingError("transaction already in progress")
        # Open a real transaction even on connections that default to
        # autocommit (e.g. sqlite3 with isolation_level=None): without it,
        # rollback() would silently be a no-op and the pre-run state could
        # not be restored.  Drivers that already opened an implicit
        # transaction reject the extra BEGIN — that is fine, the statements
        # below then join the driver-managed transaction.
        try:
            self._execute("BEGIN")
        except Exception:
            pass
        self._in_transaction = True
        try:
            yield self
        except BaseException:
            # The rollback itself may fail when the connection is gone; the
            # original (classified) run error is the one that matters, so
            # never let a rollback failure mask it.
            try:
                self._connection.rollback()
            except Exception:
                pass
            raise
        else:
            self._commit_connection()
            self._transactions += 1
        finally:
            self._in_transaction = False

    # ------------------------------------------------------------------ #
    # connection health                                                    #
    # ------------------------------------------------------------------ #

    def ping(self) -> bool:
        """Whether the connection still answers a trivial query.

        Only an *unavailable*-classified failure counts as dead: a
        transient error (a locked database, an injected transient fault)
        means the connection responded, so the health check passes.
        """
        try:
            cursor = self._connection.cursor()
            cursor.execute(self._backend.render("SELECT 1"))
            cursor.fetchone()
            return True
        except Exception as error:
            return not isinstance(
                self._classify(error, default=BackendUnavailable),
                BackendUnavailable,
            )

    def reconnect(self) -> None:
        """Drop the current connection and open a fresh one (schema re-run).

        Note the durability split: file-backed and client/server databases
        come back with their committed rows; a dead *in-memory* database is
        simply gone, and the fresh connection starts empty (the engine's
        checkpoint/rebuild paths re-derive the content).
        """
        try:
            self._connection.close()
        except Exception:
            pass
        self._in_transaction = False
        self._connection = self._connect()
        self._reconnects += 1
        self._ensure_schema()

    def ensure_available(self) -> None:
        """Health-check the connection, reconnecting once if it is dead.

        Raises :class:`~repro.core.errors.BackendUnavailable` when the
        single reconnect attempt does not produce an answering connection.
        Executors call this at run start so a died-while-idle connection
        heals before any statement of the run is issued.
        """
        if self.ping():
            return
        try:
            self.reconnect()
        except Exception as error:
            raise self._classify(error, default=BackendUnavailable) from error
        if not self.ping():
            raise BackendUnavailable(
                f"{self._backend.name}: connection unavailable after reconnect"
            )

    @property
    def retries(self) -> int:
        """Statement retries performed by the funnel so far."""
        return self._retries

    @property
    def timed_out_statements(self) -> int:
        """Statements abandoned because their retry deadline elapsed."""
        return self._timed_out

    @property
    def reconnects(self) -> int:
        """Successful :meth:`reconnect` calls so far."""
        return self._reconnects

    @property
    def faults_injected(self) -> int:
        """Faults injected by a fault-injecting backend (0 otherwise)."""
        return getattr(self._backend, "faults_injected", 0)

    # ------------------------------------------------------------------ #
    # the checkpoint journal                                               #
    # ------------------------------------------------------------------ #

    def journal_record(self, run_id: str, node: int) -> None:
        """Record that checkpointed run ``run_id`` committed marker ``node``.

        ``node`` is the plan index of a region's last step.  The
        checkpointing executor calls this *inside* the per-region
        transaction, so the region's rows and its journal entry commit
        atomically — a crash can never journal work that did not commit,
        nor commit work that is not journaled.
        """
        self._execute(
            "INSERT INTO POSS_JOURNAL (RUN, NODE) VALUES (?, ?)",
            (str(run_id), int(node)),
        )
        self._commit()

    def journal_completed(self, run_id: str) -> FrozenSet[int]:
        """The region markers run ``run_id`` has already committed."""
        cursor = self._execute(
            "SELECT DISTINCT NODE FROM POSS_JOURNAL WHERE RUN = ?",
            (str(run_id),),
        )
        return frozenset(int(row[0]) for row in cursor.fetchall())

    def journal_runs(self) -> FrozenSet[str]:
        """Run ids with journal entries on this store."""
        cursor = self._execute("SELECT DISTINCT RUN FROM POSS_JOURNAL")
        return frozenset(row[0] for row in cursor.fetchall())

    def journal_clear(self, run_id: Optional[str] = None) -> None:
        """Forget one run's journal (or all of them with ``run_id=None``)."""
        if run_id is None:
            self._execute("DELETE FROM POSS_JOURNAL")
        else:
            self._execute(
                "DELETE FROM POSS_JOURNAL WHERE RUN = ?", (str(run_id),)
            )
        self._commit()

    def close(self) -> None:
        """Close the underlying connection."""
        self._connection.close()

    def __enter__(self) -> "PossStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def clear(self) -> None:
        """Delete every row."""
        self._execute("DELETE FROM POSS")
        self._commit()

    # ------------------------------------------------------------------ #
    # loading                                                              #
    # ------------------------------------------------------------------ #

    def insert_explicit_beliefs(
        self, rows: Iterable[Tuple[User, object, Value]]
    ) -> int:
        """Bulk-load explicit beliefs as ``(user, key, value)`` triples.

        This is the durable source data of Section 4 (the per-object values
        the two explicit users publish); unlike the resolution statements it
        commits immediately, so a later rolled-back run leaves it in place.
        """
        return self._insert_row_batch(rows)

    # ------------------------------------------------------------------ #
    # the delta statements of the incremental engine                       #
    # ------------------------------------------------------------------ #

    @property
    def delta_statements(self) -> int:
        """Running count of delta ``DELETE``/``INSERT`` statements issued."""
        return self._delta_statements

    def delete_user_rows(
        self,
        users: Sequence[User] = (),
        key: object = None,
        rows: Optional[Iterable[Tuple[User, object, Value]]] = None,
    ) -> int:
        """Delta DELETE: drop the rows of ``users`` or exactly ``rows``.

        The deletion half of the incremental maintenance path
        (:mod:`repro.incremental`).  After an update a session deletes only
        the rows whose value vanished, as ``(user, key, value)`` triples in
        ``rows``: one ``executemany`` batch, one delta statement::

            delete from POSS where X = ? and K = ? and V = ?

        Without ``rows`` it drops every row of ``users`` (optionally for one
        key), which is how a session rebuilds a slice from scratch::

            delete from POSS where X in ('x1', …, 'xn') [and K = 'k']

        Returns the number of rows deleted.
        """
        if rows is not None:
            if users or key is not None:
                raise BulkProcessingError(
                    "delete_user_rows() takes either rows or users/key"
                )
            data = [(str(user), str(k), str(value)) for user, k, value in rows]
            if not data:
                return 0
            cursor = self._executemany(
                "DELETE FROM POSS WHERE X = ? AND K = ? AND V = ?", data
            )
            self._count_delta()
            self._commit()
            # DB-API allows a rowcount of -1 when the module cannot count
            # the rows; the number of triples then stands in.
            return cursor.rowcount if cursor.rowcount >= 0 else len(data)
        names = [str(user) for user in users]
        if not names:
            return 0
        deleted = 0
        # Chunked so a large change set never exceeds an engine's bound
        # variable limit (sqlite historically allows as few as 999).
        for start in range(0, len(names), 500):
            chunk = names[start : start + 500]
            placeholders = ",".join("?" for _ in chunk)
            sql = f"DELETE FROM POSS WHERE X IN ({placeholders})"
            parameters: List[object] = list(chunk)
            if key is not None:
                sql += " AND K = ?"
                parameters.append(str(key))
            cursor = self._execute(sql, parameters)
            self._count_delta()
            deleted += cursor.rowcount
        self._commit()
        return deleted

    def insert_rows(self, rows: Iterable[Tuple[User, object, Value]]) -> int:
        """Delta INSERT: add explicit ``(user, key, value)`` rows.

        The insertion half of the incremental maintenance path (also used
        to seed a store from an in-memory resolution result).  One
        ``executemany`` batch counts as one delta statement.
        """
        inserted = self._insert_row_batch(rows)
        if inserted:
            self._count_delta()
        return inserted

    def _insert_row_batch(self, rows: Iterable[Tuple[User, object, Value]]) -> int:
        """Shared ``executemany`` behind every plain row insert."""
        data = [(str(user), str(key), str(value)) for user, key, value in rows]
        if not data:
            return 0
        self._executemany("INSERT INTO POSS (X, K, V) VALUES (?, ?, ?)", data)
        self._commit()
        return len(data)

    # ------------------------------------------------------------------ #
    # the bulk statements of Section 4                                     #
    # ------------------------------------------------------------------ #

    @property
    def bulk_statements(self) -> int:
        """Running count of bulk ``INSERT … SELECT`` statements issued."""
        return self._bulk_statements

    def copy_from_parent(self, child: User, parent: User) -> int:
        """Step-1 bulk insert: copy every (key, value) of ``parent`` to ``child``.

        Mirrors the single-child statement of Section 4::

            insert into POSS
            select 'x' AS X, t.K, t.V from POSS t where t.X = 'z'
        """
        cursor = self._execute(
            "INSERT INTO POSS (X, K, V) SELECT ?, t.K, t.V FROM POSS t WHERE t.X = ?",
            (str(child), str(parent)),
        )
        self._count_bulk()
        self._commit()
        return cursor.rowcount

    def copy_to_children(self, parent: User, children: Sequence[User]) -> int:
        """Grouped Step-1 insert: copy ``parent``'s rows to *all* ``children``.

        One multi-child statement replaces ``len(children)`` single-child
        copies (the grouped-copy batching of
        :func:`repro.bulk.planner.plan_resolution`): the child names form an
        inline ``VALUES`` relation cross-joined with the parent's rows::

            insert into POSS
            select c.column1 AS X, t.K, t.V
            from (values ('x1'), …, ('xn')) c,
                 (select t.K, t.V from POSS t where t.X = 'z') t
        """
        if not children:
            return 0
        if len(children) == 1:
            return self.copy_from_parent(children[0], parent)
        child_rows = ",".join("(?)" for _ in children)
        cursor = self._execute(
            f"INSERT INTO POSS (X, K, V) "
            f"SELECT c.column1, t.K, t.V FROM (VALUES {child_rows}) AS c, "
            f"(SELECT s.K, s.V FROM POSS s WHERE s.X = ?) AS t",
            (*[str(child) for child in children], str(parent)),
        )
        self._count_bulk()
        self._commit()
        return cursor.rowcount

    def flood_component(self, members: Sequence[User], parents: Sequence[User]) -> int:
        """Step-2 bulk insert: flood a component with all parents' values.

        One statement floods the *whole* component — the member names form an
        inline ``VALUES`` relation cross-joined with the distinct parent
        values, so the statement count per flood step is 1 instead of
        ``|members|``::

            insert into POSS
            select m.column1 AS X, t.K, t.V
            from (values ('x1'), …, ('xn')) m,
                 (select distinct t.K, t.V from POSS t
                  where t.X in ('z1', …, 'zk')) t
        """
        if not parents or not members:
            return 0
        member_rows = ",".join("(?)" for _ in members)
        parent_placeholders = ",".join("?" for _ in parents)
        cursor = self._execute(
            f"INSERT INTO POSS (X, K, V) "
            f"SELECT m.column1, t.K, t.V FROM (VALUES {member_rows}) AS m, "
            f"(SELECT DISTINCT s.K, s.V FROM POSS s "
            f"WHERE s.X IN ({parent_placeholders})) AS t",
            (
                *[str(member) for member in members],
                *[str(parent) for parent in parents],
            ),
        )
        self._count_bulk()
        self._commit()
        return cursor.rowcount

    def flood_component_skeptic(
        self,
        members: Sequence[User],
        parents: Sequence[User],
        blocked: Dict[str, Sequence[str]],
    ) -> int:
        """Skeptic variant of the step-2 insert (Appendix B.10, last remark).

        ``blocked`` maps a member to the values it is forced to reject
        (its ``prefNeg`` set); for keys whose incoming value is blocked, the
        ⊥ sentinel is inserted instead of the value.  Members sharing the
        same rejected-value set are flooded together, so the statement count
        is one (plus one ⊥ statement for constrained groups) per *distinct
        constraint group*, not per member.
        """
        if not parents or not members:
            return 0
        groups: Dict[Tuple[str, ...], List[str]] = {}
        for member in members:
            member_key = str(member)
            rejected = tuple(str(value) for value in blocked.get(member_key, ()))
            groups.setdefault(rejected, []).append(member_key)
        parent_placeholders = ",".join("?" for _ in parents)
        parent_args = [str(parent) for parent in parents]
        total = 0
        for rejected, group_members in groups.items():
            member_rows = ",".join("(?)" for _ in group_members)
            if rejected:
                value_placeholders = ",".join("?" for _ in rejected)
                cursor = self._execute(
                    f"INSERT INTO POSS (X, K, V) "
                    f"SELECT m.column1, t.K, t.V FROM (VALUES {member_rows}) AS m, "
                    f"(SELECT DISTINCT s.K, s.V FROM POSS s "
                    f"WHERE s.X IN ({parent_placeholders}) "
                    f"AND s.V NOT IN ({value_placeholders})) AS t",
                    (*group_members, *parent_args, *rejected),
                )
                total += cursor.rowcount
                # Parameter order follows textual appearance: the ⊥ scalar
                # precedes the VALUES member list in the bottom statement.
                cursor = self._execute(
                    f"INSERT INTO POSS (X, K, V) "
                    f"SELECT m.column1, t.K, ? FROM (VALUES {member_rows}) AS m, "
                    f"(SELECT DISTINCT s.K FROM POSS s "
                    f"WHERE s.X IN ({parent_placeholders}) "
                    f"AND s.V IN ({value_placeholders})) AS t",
                    (BOTTOM_VALUE, *group_members, *parent_args, *rejected),
                )
                total += cursor.rowcount
                self._count_bulk(2)
            else:
                cursor = self._execute(
                    f"INSERT INTO POSS (X, K, V) "
                    f"SELECT m.column1, t.K, t.V FROM (VALUES {member_rows}) AS m, "
                    f"(SELECT DISTINCT s.K, s.V FROM POSS s "
                    f"WHERE s.X IN ({parent_placeholders})) AS t",
                    (*group_members, *parent_args),
                )
                total += cursor.rowcount
                self._count_bulk()
        self._commit()
        return total

    # ------------------------------------------------------------------ #
    # the compiled region statements                                       #
    # ------------------------------------------------------------------ #

    def _run_region(self, fingerprint: Optional[str], render) -> int:
        """Execute one compiled region statement, ``render(dialect)``.

        Raises :class:`~repro.core.errors.BulkProcessingError` on a backend
        without a dialect: callers (the run loop) check
        :attr:`compiled_dialect` and replay the region statement-at-a-time
        instead of calling a region statement blind.
        """
        dialect = self.compiled_dialect
        if dialect is None:
            raise BulkProcessingError(
                f"{self.backend_name} has no SQL dialect; "
                f"replay the region statement-at-a-time instead"
            )
        sql, rendered, parameters = self._statement_for(
            fingerprint, lambda: render(dialect)
        )
        cursor = self._execute(sql, parameters, rendered=rendered)
        self._count_bulk()
        self._commit()
        return cursor.rowcount

    def copy_region(
        self,
        ancestors: Sequence[Tuple[str, str]],
        fingerprint: Optional[str] = None,
    ) -> int:
        """Compiled Step-1 region: close every copy child of a region at once.

        ``ancestors`` holds one ``(child, frontier ancestor)`` pair per copy
        edge (:attr:`~repro.bulk.compile.CompiledRegion.ancestors`, which
        :func:`~repro.bulk.compile.frontier_ancestors` derives from the
        region's ``(child, parent)`` edges).  One flat ``VALUES`` join (see
        :meth:`~repro.bulk.sql.SqlDialect.copy_region_statement`) replaces
        one replay statement per copy step of the region.  Raises
        :class:`~repro.core.errors.BulkProcessingError` on a backend
        without a dialect.  ``fingerprint`` (the region's content key)
        keys the statement cache so repeated runs skip re-building and
        re-rendering the statement.
        """
        return self._run_region(
            fingerprint, lambda dialect: dialect.copy_region_statement(ancestors)
        )

    def flood_stage(
        self,
        pairs: Sequence[Tuple[str, str]],
        fingerprint: Optional[str] = None,
    ) -> int:
        """Compiled Step-2 stage: flood all ``(member, parent)`` pairs.

        One ``SELECT DISTINCT`` pass (see
        :meth:`~repro.bulk.sql.SqlDialect.flood_stage_statement`) replaces
        one replay statement per flood step of the stage.  Same dialect
        and caching contract as :meth:`copy_region`.
        """
        return self._run_region(
            fingerprint, lambda dialect: dialect.flood_stage_statement(pairs)
        )

    def blocked_flood(
        self,
        pairs: Sequence[Tuple[str, str]],
        blocked: Sequence[Tuple[str, str]],
        fingerprint: Optional[str] = None,
    ) -> int:
        """Compiled Skeptic stage: flood pairs around a per-member blocklist.

        One anti-joined ``SELECT DISTINCT`` pass plus a ``⊥`` branch (see
        :meth:`~repro.bulk.sql.SqlDialect.blocked_flood_statement`) replaces
        the per-constraint-group replay statements of
        :meth:`flood_component_skeptic` — filtered values and ``⊥`` rows in
        a single statement.  Same dialect and caching contract as
        :meth:`copy_region`.
        """
        return self._run_region(
            fingerprint,
            lambda dialect: dialect.blocked_flood_statement(
                pairs, blocked, BOTTOM_VALUE
            ),
        )

    # ------------------------------------------------------------------ #
    # queries                                                              #
    # ------------------------------------------------------------------ #

    def possible_values(self, user: User, key: object) -> FrozenSet[str]:
        """Possible values of one user for one object."""
        cursor = self._execute(
            "SELECT DISTINCT V FROM POSS WHERE X = ? AND K = ?",
            (str(user), str(key)),
        )
        return frozenset(row[0] for row in cursor.fetchall())

    def certain_values(self, user: User, key: object) -> FrozenSet[str]:
        """Certain value of one user for one object (singleton or empty)."""
        values = self.possible_values(user, key)
        return values if len(values) == 1 else frozenset()

    def possible_table(self) -> List[PossRow]:
        """The full content of the relation: every stored row.

        Duplicates are kept, so an equivalence check built on this (the
        test suites' serialized relations, :meth:`IncrementalSession
        .recover_shard`'s slice check) sees a row that was written twice.
        """
        cursor = self._execute("SELECT X, K, V FROM POSS")
        return [PossRow(*row) for row in cursor.fetchall()]

    def certain_snapshot(self) -> Dict[Tuple[str, str], str]:
        """The certain value for every (user, key) with exactly one value."""
        cursor = self._execute(
            "SELECT X, K, MIN(V) FROM POSS GROUP BY X, K HAVING COUNT(DISTINCT V) = 1"
        )
        return {(row[0], row[1]): row[2] for row in cursor.fetchall()}

    def conflict_count(self) -> int:
        """Number of (user, key) pairs with more than one possible value."""
        cursor = self._execute(
            "SELECT COUNT(*) FROM ("
            "SELECT X, K FROM POSS GROUP BY X, K HAVING COUNT(DISTINCT V) > 1)"
        )
        return int(cursor.fetchone()[0])

    def row_count(self) -> int:
        """Total number of rows currently stored."""
        cursor = self._execute("SELECT COUNT(*) FROM POSS")
        return int(cursor.fetchone()[0])

    def users(self) -> FrozenSet[str]:
        """Users mentioned in the relation."""
        cursor = self._execute("SELECT DISTINCT X FROM POSS")
        return frozenset(row[0] for row in cursor.fetchall())

    def keys(self) -> FrozenSet[str]:
        """Object keys mentioned in the relation."""
        cursor = self._execute("SELECT DISTINCT K FROM POSS")
        return frozenset(row[0] for row in cursor.fetchall())


class ShardedPossStore:
    """The ``POSS`` relation horizontally partitioned by object key.

    ``POSS(X, K, V)`` is split across ``spec.count`` child :class:`PossStore`
    instances, routed by :meth:`~repro.bulk.backends.ShardSpec.shard_of` on
    the ``K`` column.  Because the bulk plan never joins across object keys
    (every statement restricts on ``X`` and carries ``K``/``V`` through
    unchanged), replaying the same plan on every shard resolves the whole
    relation — the scatter/gather decomposition the
    :class:`~repro.bulk.executor.ConcurrentBulkResolver` exploits.

    The class implements the :class:`PossStore` loading, delta and query
    surface: loads and delta statements route rows to their key's shard,
    whole-relation writes fan out to every shard (each shard only holds its
    own keys, so the union of the per-shard effects equals the single-store
    effect), key-addressed queries route to the owning shard, and
    whole-relation queries aggregate across shards.  The plan's region and
    step statements run on each shard's own :class:`PossStore`: the
    executor drives one lane per shard.  :meth:`transaction` opens a run-scoped
    transaction on *every* shard; a failure on any shard during the run
    rolls back all of them (see its docstring for the commit-time caveat).

    Parameters
    ----------
    spec:
        A :class:`~repro.bulk.backends.ShardSpec`, or an ``int`` shorthand
        for ``ShardSpec.hashed(n)``.
    backends:
        Optional one :class:`~repro.bulk.backends.SqlBackend` per shard (the
        way to place shards on separate files, servers, or schemas); the
        default is one private in-memory sqlite database per shard.
    index_strategy:
        Physical design applied to every shard.
    """

    def __init__(
        self,
        spec: "ShardSpec | int" = 2,
        backends: Optional[Sequence[SqlBackend]] = None,
        index_strategy: "IndexStrategy | str | None" = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if isinstance(spec, int):
            spec = ShardSpec.hashed(spec)
        self.spec = spec
        if backends is not None and len(backends) != spec.count:
            raise BulkProcessingError(
                f"spec routes over {spec.count} shards but "
                f"{len(backends)} backends were supplied"
            )
        self.shards: Tuple[PossStore, ...] = tuple(
            PossStore(
                backend=backends[i] if backends is not None else None,
                index_strategy=index_strategy,
                retry_policy=retry_policy,
            )
            for i in range(spec.count)
        )
        self._in_transaction = False
        self._degraded: set = set()

    # ------------------------------------------------------------------ #
    # quarantine                                                           #
    # ------------------------------------------------------------------ #

    def _check_index(self, index: int) -> int:
        if not 0 <= index < self.spec.count:
            raise BulkProcessingError(
                f"shard index {index} out of range for {self.spec.count} shards"
            )
        return index

    @contextlib.contextmanager
    def _shard_errors(self, index: int, keys: Sequence[str] = ()):
        """Tag (and quarantine on) a shard's unavailability.

        A :class:`~repro.core.errors.BackendUnavailable` escaping a shard
        operation marks that shard degraded and re-raises as
        :class:`~repro.core.errors.ShardUnavailable` carrying the shard
        index and the affected object keys, so callers can degrade
        gracefully instead of treating the whole relation as lost.
        """
        try:
            yield
        except ShardUnavailable:
            raise
        except BackendUnavailable as error:
            self._degraded.add(index)
            raise ShardUnavailable(
                f"shard {index} unavailable: {error}",
                shard=index,
                keys=tuple(keys),
            ) from error

    def quarantine(self, index: int) -> None:
        """Mark a shard degraded: its keys fail typed, the rest keep serving."""
        self._degraded.add(self._check_index(index))

    def heal(self, index: int) -> None:
        """Un-quarantine a shard once its connection answers again.

        Health-checks (reconnecting if needed) before clearing the mark;
        a still-dead shard raises :class:`~repro.core.errors.ShardUnavailable`
        and stays quarantined.  Note this restores *availability* only —
        replaying whatever writes the shard missed is the engine's job
        (:meth:`repro.engine.ResolutionEngine.recover_shard`).
        """
        index = self._check_index(index)
        with self._shard_errors(index):
            self.shards[index].ensure_available()
        self._degraded.discard(index)

    def is_degraded(self, index: int) -> bool:
        """Whether the shard at ``index`` is currently quarantined."""
        return self._check_index(index) in self._degraded

    @property
    def degraded_shards(self) -> Tuple[int, ...]:
        """Indices of the currently quarantined shards, sorted."""
        return tuple(sorted(self._degraded))

    def _healthy(self) -> List[Tuple[int, PossStore]]:
        """The serving shards as ``(index, store)`` pairs."""
        return [
            (index, shard)
            for index, shard in enumerate(self.shards)
            if index not in self._degraded
        ]

    def _require_all_healthy(self, operation: str) -> None:
        """Whole-relation *writes* need every shard (reads degrade instead)."""
        if self._degraded:
            index = min(self._degraded)
            raise ShardUnavailable(
                f"{operation} needs all shards, but shard {index} is "
                f"quarantined (degraded: {self.degraded_shards})",
                shard=index,
            )

    # ------------------------------------------------------------------ #
    # lifecycle                                                            #
    # ------------------------------------------------------------------ #

    @property
    def backend_name(self) -> str:
        """Composite identifier: ``sharded(<child>x<count>)`` when uniform."""
        names = sorted({shard.backend_name for shard in self.shards})
        if len(names) == 1:
            return f"sharded({names[0]}x{self.spec.count})"
        return f"sharded({'+'.join(names)})"

    @property
    def index_strategy(self) -> IndexStrategy:
        """The (shared) physical-design strategy of the shards."""
        return self.shards[0].index_strategy

    @property
    def supports_concurrent_replay(self) -> bool:
        """Whether *every* shard's connection may move to a worker thread."""
        return all(shard.supports_concurrent_replay for shard in self.shards)

    @property
    def compiled_dialect(self):
        """The shards' shared compilation dialect, or ``None`` when mixed.

        Heterogeneous placements may mix engines; the compiled scheduler
        consults each *shard's* dialect anyway (capable shards compile,
        the rest replay), so the composite dialect is only advisory.
        """
        dialects = {shard.compiled_dialect for shard in self.shards}
        return dialects.pop() if len(dialects) == 1 else None

    @property
    def supports_compiled_regions(self) -> bool:
        """Whether *every* shard evaluates compiled regions natively."""
        return all(shard.supports_compiled_regions for shard in self.shards)

    @property
    def max_bind_params(self) -> int:
        """The *smallest* shard limit: every shard's lane must fit its statements."""
        return min(shard.max_bind_params for shard in self.shards)

    @property
    def transactions(self) -> int:
        """Transactions committed across all shards."""
        return sum(shard.transactions for shard in self.shards)

    @property
    def bulk_statements(self) -> int:
        """Bulk statements issued across all shards."""
        return sum(shard.bulk_statements for shard in self.shards)

    @property
    def delta_statements(self) -> int:
        """Delta statements issued across all shards."""
        return sum(shard.delta_statements for shard in self.shards)

    @property
    def retries(self) -> int:
        """Statement retries across all shards."""
        return sum(shard.retries for shard in self.shards)

    @property
    def timed_out_statements(self) -> int:
        """Deadline-abandoned statements across all shards."""
        return sum(shard.timed_out_statements for shard in self.shards)

    @property
    def faults_injected(self) -> int:
        """Injected faults across all shards (0 without injection)."""
        return sum(shard.faults_injected for shard in self.shards)

    @property
    def reconnects(self) -> int:
        """Reconnects across all shards."""
        return sum(shard.reconnects for shard in self.shards)

    @property
    def statement_cache_hits(self) -> int:
        """Statement-cache hits across all shards."""
        return sum(shard.statement_cache_hits for shard in self.shards)

    @property
    def statement_cache_misses(self) -> int:
        """Statement-cache misses across all shards."""
        return sum(shard.statement_cache_misses for shard in self.shards)

    @property
    def retry_policy(self) -> RetryPolicy:
        """The (shared) retry policy of the shards."""
        return self.shards[0].retry_policy

    @retry_policy.setter
    def retry_policy(self, policy: RetryPolicy) -> None:
        for shard in self.shards:
            shard.retry_policy = policy

    @property
    def tracer(self):
        """The (shared) tracer observing every shard's statement funnel."""
        return self.shards[0].tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        for index, shard in enumerate(self.shards):
            shard.tracer = tracer
            shard.trace_shard = index

    def ensure_available(self) -> None:
        """Health-check every serving shard, quarantining the dead ones.

        Raises :class:`~repro.core.errors.ShardUnavailable` (for the
        lowest-indexed degraded shard) when any shard — previously
        quarantined or newly found dead — is out of service; callers that
        can degrade catch it and keep going on the healthy shards.
        """
        for index, shard in self._healthy():
            try:
                shard.ensure_available()
            except BackendUnavailable:
                self._degraded.add(index)
        if self._degraded:
            index = min(self._degraded)
            raise ShardUnavailable(
                f"shard {index} is out of service "
                f"(degraded: {self.degraded_shards})",
                shard=index,
            )

    def journal_clear(self, run_id: Optional[str] = None) -> None:
        """Forget a run's checkpoint journal on every serving shard."""
        for _index, shard in self._healthy():
            shard.journal_clear(run_id)

    @property
    def in_transaction(self) -> bool:
        """Whether a run-scoped :meth:`transaction` is currently open."""
        return self._in_transaction

    @contextlib.contextmanager
    def transaction(self) -> Iterator["ShardedPossStore"]:
        """Run transaction spanning every shard, all-or-nothing on run errors.

        Each shard opens its own run-scoped transaction; an error anywhere
        *during the run* (including on a replay thread, which re-raises on
        the coordinating thread) unwinds through every shard's context
        manager, rolling each back — a failed run never commits on any
        shard.  On success the shards commit sequentially; there is no
        two-phase protocol, so a crash or commit-time failure partway
        through the commit sequence can persist a subset of shards (the
        ROADMAP tracks distributed 2PC for shards spanning machines).
        Sharded runs otherwise keep the one-transaction-per-run model of
        Section 4, once per shard.
        """
        if self._in_transaction:
            raise BulkProcessingError("transaction already in progress")
        with contextlib.ExitStack() as stack:
            # Quarantined shards are skipped: a degraded store still runs
            # transactions over its serving shards (the session's flush
            # retry path relies on this to apply the healthy fragments).
            for _index, shard in self._healthy():
                stack.enter_context(shard.transaction())
            self._in_transaction = True
            try:
                yield self
            finally:
                self._in_transaction = False

    def close(self) -> None:
        """Close every shard's connection."""
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedPossStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def clear(self) -> None:
        """Delete every row on every shard (a whole-relation write)."""
        self._require_all_healthy("clear()")
        for index, shard in self._healthy():
            with self._shard_errors(index):
                shard.clear()

    # ------------------------------------------------------------------ #
    # loading                                                              #
    # ------------------------------------------------------------------ #

    def _route_partitions(self, rows) -> List[list]:
        """Partition rows by shard, failing typed if any land on a
        quarantined shard (with the affected keys attached) before any
        shard is touched."""
        partitions = self.spec.partition_rows(rows)
        for index in sorted(self._degraded):
            if partitions[index]:
                raise ShardUnavailable(
                    f"shard {index} is quarantined and owns "
                    f"{len(partitions[index])} of the rows",
                    shard=index,
                    keys=tuple(
                        sorted({str(row[1]) for row in partitions[index]})
                    ),
                )
        return partitions

    def insert_explicit_beliefs(
        self, rows: Iterable[Tuple[User, object, Value]]
    ) -> int:
        """Bulk-load explicit beliefs, routing each row to its key's shard."""
        partitions = self._route_partitions(rows)
        total = 0
        for index, (shard, partition) in enumerate(zip(self.shards, partitions)):
            if partition:
                with self._shard_errors(
                    index, keys=sorted({str(row[1]) for row in partition})
                ):
                    total += shard.insert_explicit_beliefs(partition)
        return total

    # ------------------------------------------------------------------ #
    # the delta statements (route by key, fan out otherwise)               #
    # ------------------------------------------------------------------ #

    def delete_user_rows(
        self,
        users: Sequence[User] = (),
        key: object = None,
        rows: Optional[Iterable[Tuple[User, object, Value]]] = None,
    ) -> int:
        """Delta DELETE: key-addressed deletes hit only the owning shard.

        ``rows`` triples route one by one to their key's shard.
        """
        if rows is not None:
            if users or key is not None:
                raise BulkProcessingError(
                    "delete_user_rows() takes either rows or users/key"
                )
            total = 0
            for index, partition in enumerate(self._route_partitions(rows)):
                if partition:
                    with self._shard_errors(
                        index, keys=sorted({str(row[1]) for row in partition})
                    ):
                        total += self.shards[index].delete_user_rows(
                            rows=partition
                        )
            return total
        if key is not None:
            index = self.spec.shard_of(key)
            with self._shard_errors(index, keys=(str(key),)):
                return self.shard_for(key).delete_user_rows(users, key=key)
        self._require_all_healthy("delete_user_rows() without a key")
        total = 0
        for index, shard in self._healthy():
            with self._shard_errors(index):
                total += shard.delete_user_rows(users)
        return total

    def insert_rows(self, rows: Iterable[Tuple[User, object, Value]]) -> int:
        """Delta INSERT, routing each row to its key's shard."""
        partitions = self._route_partitions(rows)
        total = 0
        for index, (shard, partition) in enumerate(zip(self.shards, partitions)):
            if partition:
                with self._shard_errors(
                    index, keys=sorted({str(row[1]) for row in partition})
                ):
                    total += shard.insert_rows(partition)
        return total

    # ------------------------------------------------------------------ #
    # queries (route by key, aggregate otherwise)                          #
    # ------------------------------------------------------------------ #

    def shard_for(self, key: object) -> PossStore:
        """The child store owning ``key``.

        Raises :class:`~repro.core.errors.ShardUnavailable` (carrying the
        key) when the owning shard is quarantined — the typed signal that
        lets callers distinguish "this key is temporarily unservable" from
        "this key has no rows".
        """
        index = self.spec.shard_of(key)
        if index in self._degraded:
            raise ShardUnavailable(
                f"shard {index} owning key {key!r} is quarantined",
                shard=index,
                keys=(str(key),),
            )
        return self.shards[index]

    def possible_values(self, user: User, key: object) -> FrozenSet[str]:
        """Possible values of one user for one object (owning shard only)."""
        index = self.spec.shard_of(key)
        with self._shard_errors(index, keys=(str(key),)):
            return self.shard_for(key).possible_values(user, key)

    def certain_values(self, user: User, key: object) -> FrozenSet[str]:
        """Certain value of one user for one object (owning shard only)."""
        index = self.spec.shard_of(key)
        with self._shard_errors(index, keys=(str(key),)):
            return self.shard_for(key).certain_values(user, key)

    def possible_table(self) -> List[PossRow]:
        """The full content of the relation across shards, every stored row.

        Shards hold disjoint key sets, so the concatenation is the relation.
        Whole-relation *reads* degrade gracefully: quarantined shards are
        skipped, so the answer covers the serving shards' keys only (the
        consistent-query-answering posture — answer what the healthy data
        supports, fail only key lookups that need the lost shard).
        """
        rows: List[PossRow] = []
        for _index, shard in self._healthy():
            rows.extend(shard.possible_table())
        return rows

    def certain_snapshot(self) -> Dict[Tuple[str, str], str]:
        """The certain value for every (user, key) with exactly one value."""
        snapshot: Dict[Tuple[str, str], str] = {}
        for _index, shard in self._healthy():
            snapshot.update(shard.certain_snapshot())
        return snapshot

    def conflict_count(self) -> int:
        """Number of (user, key) pairs with more than one possible value."""
        return sum(shard.conflict_count() for _index, shard in self._healthy())

    def row_count(self) -> int:
        """Total number of rows across the serving shards."""
        return sum(shard.row_count() for _index, shard in self._healthy())

    def row_counts_per_shard(self) -> List[int]:
        """Row count of each shard, in shard-index order (balance metric)."""
        return [shard.row_count() for shard in self.shards]

    def users(self) -> FrozenSet[str]:
        """Users mentioned in the relation (union over serving shards)."""
        return frozenset().union(
            *(shard.users() for _index, shard in self._healthy()), frozenset()
        )

    def keys(self) -> FrozenSet[str]:
        """Object keys mentioned in the relation (union over serving shards)."""
        return frozenset().union(
            *(shard.keys() for _index, shard in self._healthy()), frozenset()
        )
