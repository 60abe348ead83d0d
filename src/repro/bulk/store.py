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

Explicit beliefs live in their own relation, ``BELIEF(X, K, V)``, next to
``POSS``: the per-object values the explicit users publish, the source
data ``POSS`` is derived from.  Loading beliefs
(:meth:`PossStore.insert_explicit_beliefs`) copies ``BELIEF`` into
``POSS`` with one ``INSERT … SELECT``; a load handed rows first replaces
``BELIEF`` with them, a load without rows copies it as it stands.  A
:class:`~repro.incremental.session.IncrementalSession` keeps ``BELIEF``
equal to its explicit beliefs: its load replaces it, each apply writes the
slots its belief changes touched (:meth:`PossStore.update_beliefs`) in the
transaction of the ``POSS`` diff, and its recovery paths replace it again.
So an engine rewrites ``BELIEF`` at its first ``materialize`` (or when it
lost track of it) and every later ``materialize`` only copies it.

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
import functools
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
    DEFAULT_MAX_BIND_PARAMS,
    ShardSpec,
    SqlBackend,
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


def _is_nested_begin(error: BackendError) -> bool:
    """Whether a failed ``BEGIN`` only met an already open transaction
    (sqlite: "cannot start a transaction within a transaction").

    Only a plain :class:`~repro.core.errors.BackendError` qualifies: a
    transient, timed-out or unavailable one is a real failure.
    """
    return type(error) is BackendError and "within a transaction" in str(error)


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
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self._backend = backend if backend is not None else sqlite_backend(path)
        env_policy = FaultPolicy.from_env()
        if env_policy is not None:
            from repro.faults.backend import FaultInjectingBackend

            if not isinstance(self._backend, FaultInjectingBackend):
                self._backend = FaultInjectingBackend(self._backend, env_policy)
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
        """Create (idempotently) ``POSS``, ``BELIEF`` and the journal.

        ``POSS`` and the explicit beliefs it is loaded from, ``BELIEF``, are
        sets keyed by ``(X, K, V)``: the key's b-tree serves every ``X`` and
        ``(X, K)`` lookup, and a row written twice fails.  Where the backend
        can (sqlite), the tables are ``WITHOUT ROWID``, so that b-tree is
        the table itself.  ``IF NOT EXISTS`` leaves a file written under an
        older layout as it is: still correct, only slower.
        """
        clustered = " WITHOUT ROWID" if self._backend.supports_without_rowid else ""
        with self._backend.schema_setup():
            for table in ("POSS", "BELIEF"):
                self._execute(
                    f"CREATE TABLE IF NOT EXISTS {table} "
                    "(X TEXT NOT NULL, K TEXT NOT NULL, V TEXT NOT NULL, "
                    f"PRIMARY KEY (X, K, V)){clustered}"
                )
            # The checkpoint journal: which plan regions a named run has
            # committed.
            self._execute(
                "CREATE TABLE IF NOT EXISTS POSS_JOURNAL "
                "(RUN TEXT NOT NULL, NODE INTEGER NOT NULL)"
            )
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
        statements is safe here: a statement that failed rolled back
        atomically, so a retry never writes a row twice.  A statement that
        would store a row twice fails anyway: ``POSS`` and ``BELIEF`` are
        keyed by ``(X, K, V)``, and the key violation is a non-retryable
        :class:`~repro.core.errors.BackendError`, not a silent duplicate
        under the delta flush's row diff.

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
        # below then join the driver-managed transaction.  Any other
        # failure (a lost connection, a timeout) fails the run.
        try:
            self._execute("BEGIN")
        except BackendError as error:
            if not _is_nested_begin(error):
                raise
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
    # the one-shard case of ShardedPossStore                               #
    # ------------------------------------------------------------------ #

    #: Every key routes to the store itself (without hashing it), so code
    #: that walks ``store.shards`` serves a single store and a
    #: :class:`ShardedPossStore` alike.
    spec = ShardSpec.hashed(1)

    #: A single store is never quarantined.
    degraded_shards: Tuple[int, ...] = ()

    @property
    def shards(self) -> Tuple["PossStore", ...]:
        """The store itself, as the one shard of its relation."""
        return (self,)

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
        """Delete every row of ``POSS`` (``BELIEF`` keeps its rows)."""
        self._execute("DELETE FROM POSS")
        self._commit()

    # ------------------------------------------------------------------ #
    # loading, and the BELIEF relation                                     #
    # ------------------------------------------------------------------ #

    def insert_explicit_beliefs(
        self, rows: Optional[Iterable[Tuple[User, object, Value]]] = None
    ) -> int:
        """Load the explicit beliefs into ``POSS``; returns the rows loaded.

        ``rows`` of ``(user, key, value)`` triples first replace
        ``BELIEF``, the durable source data of Section 4 (the per-object
        values the explicit users publish).  Without ``rows`` nothing is
        written to ``BELIEF``: it is loaded as it stands, which is how a
        warm ``materialize`` loads the beliefs its session kept in step.
        Either way one ``INSERT … SELECT`` copies ``BELIEF`` into ``POSS``.
        Outside a run transaction the load commits at once, so a later
        rolled-back run leaves it in place.
        """
        if rows is not None:
            self._write_beliefs(rows, replace=True)
        cursor = self._execute("INSERT INTO POSS (X, K, V) SELECT X, K, V FROM BELIEF")
        self._commit()
        return max(cursor.rowcount, 0)

    def replace_beliefs(self, rows: Iterable[Tuple[User, object, Value]]) -> int:
        """Make ``BELIEF`` hold exactly ``rows``; returns their number."""
        written = self._write_beliefs(rows, replace=True)
        self._commit()
        return written

    def update_beliefs(
        self,
        slots: Iterable[Tuple[User, object]],
        rows: Iterable[Tuple[User, object, Value]] = (),
    ) -> None:
        """Rewrite ``BELIEF`` slots: drop every row of each ``(user, key)``
        in ``slots``, then insert ``rows`` (the slots' current beliefs).

        Rewriting a slot that already holds its current belief leaves it
        as it was, so the write is idempotent.
        """
        data = [(str(user), str(key)) for user, key in slots]
        if data:
            self._executemany("DELETE FROM BELIEF WHERE X = ? AND K = ?", data)
        self._write_beliefs(rows)
        self._commit()

    def _write_beliefs(
        self, rows: Iterable[Tuple[User, object, Value]], replace: bool = False
    ) -> int:
        """Insert ``rows`` into ``BELIEF`` (after emptying it on ``replace``);
        the caller commits."""
        if replace:
            self._execute("DELETE FROM BELIEF")
        data = [(str(user), str(key), str(value)) for user, key, value in rows]
        if data:
            self._executemany("INSERT INTO BELIEF (X, K, V) VALUES (?, ?, ?)", data)
        return len(data)

    def belief_table(self) -> List[PossRow]:
        """Every row of ``BELIEF``."""
        cursor = self._execute("SELECT X, K, V FROM BELIEF")
        return [PossRow(*row) for row in cursor.fetchall()]

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
        data = [(str(user), str(key), str(value)) for user, key, value in rows]
        if not data:
            return 0
        self._executemany("INSERT INTO POSS (X, K, V) VALUES (?, ?, ?)", data)
        self._commit()
        self._count_delta()
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
        """Step-1 insert: copy ``parent``'s rows to *all* ``children``.

        One multi-child statement replaces ``len(children)`` single-child
        copies (the plan's :class:`~repro.bulk.planner.GroupedCopyStep`):
        the child names form an inline ``VALUES`` relation cross-joined with
        the parent's rows::

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

        It is the Skeptic statement with nothing blocked.
        """
        return self.flood_component_skeptic(members, parents, {})

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

        The ``(X, K, V)`` key makes the rows a set, so the equivalence
        checks built on this (the test suites' serialized relations,
        :meth:`IncrementalSession.recover_shard`'s slice check) compare
        exactly what is stored.
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


def _sorted_keys(keys: Iterable[object]) -> Tuple[str, ...]:
    """Distinct object keys as sorted strings."""
    return tuple(sorted({str(key) for key in keys}))


#: How :meth:`ShardedPossStore.gather` combines per-shard answers.  Reads
#: run on the serving shards, whose key sets are disjoint.  Counters and
#: capabilities cover every shard: every shard runs every region statement.
_READS = {
    "possible_table": lambda parts: [row for part in parts for row in part],
    "belief_table": lambda parts: [row for part in parts for row in part],
    "certain_snapshot": lambda parts: {k: v for part in parts for k, v in part.items()},
    "conflict_count": sum,
    "row_count": sum,
    "users": lambda parts: frozenset().union(*parts),
    "keys": lambda parts: frozenset().union(*parts),
}
_TOTALS = {
    "transactions": sum,
    "bulk_statements": sum,
    "delta_statements": sum,
    "retries": sum,
    "timed_out_statements": sum,
    "faults_injected": sum,
    "reconnects": sum,
    "statement_cache_hits": sum,
    "statement_cache_misses": sum,
    "max_bind_params": min,
    "supports_concurrent_replay": all,
    "supports_compiled_regions": all,
}


class ShardedPossStore:
    """The ``POSS`` relation split by object key: a router over N stores.

    The bulk plan never joins across object keys (every statement restricts
    on ``X`` and carries ``K``/``V`` through unchanged), so splitting
    ``POSS(X, K, V)`` by ``K`` needs only routing.  :attr:`shards` holds one
    :class:`PossStore` per shard of :attr:`spec`, and the executor runs the
    plan on each.  Rows go to the shard owning their key (:meth:`shard_for`,
    :meth:`partition`), where :class:`PossStore`'s own write methods land
    them.  Whole-relation reads (``possible_table()``, ``row_count()``, …)
    and counters (``retries``, ``bulk_statements``, …) are combined by
    :meth:`gather`.  A single :class:`PossStore` is the one-shard case:
    ``store.shards == (store,)``, never quarantined.

    A shard that fails unavailable is *quarantined*: reads answer from the
    serving shards (consistent query answering), key lookups and writes
    that need it raise :class:`~repro.core.errors.ShardUnavailable` naming
    it and the keys, and whole-relation writes refuse to run.

    ``spec`` is a :class:`~repro.bulk.backends.ShardSpec` or ``n`` for
    ``ShardSpec.hashed(n)``; ``backends`` optionally places each shard
    (default: private in-memory sqlite databases); ``retry_policy``
    applies to every shard.
    """

    def __init__(
        self,
        spec: "ShardSpec | int" = 2,
        backends: Optional[Sequence[SqlBackend]] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if isinstance(spec, int):
            spec = ShardSpec.hashed(spec)
        if backends is not None and len(backends) != spec.count:
            raise BulkProcessingError(
                f"spec routes over {spec.count} shards but "
                f"{len(backends)} backends were supplied"
            )
        self.spec = spec
        self.shards: Tuple[PossStore, ...] = tuple(
            PossStore(
                backend=None if backends is None else backends[index],
                retry_policy=retry_policy,
            )
            for index in range(spec.count)
        )
        for index, shard in enumerate(self.shards):
            shard.trace_shard = index
        self._degraded: set = set()
        self._in_transaction = False

    # ------------------------------------------------------------------ #
    # routing and gathering                                                #
    # ------------------------------------------------------------------ #

    def shard_for(self, key: object) -> PossStore:
        """The store owning ``key``; :class:`ShardUnavailable` if quarantined."""
        index = self.spec.shard_of(key)
        if index in self._degraded:
            raise ShardUnavailable(
                f"shard {index} owning key {key!r} is quarantined",
                shard=index,
                keys=(str(key),),
            )
        return self.shards[index]

    def partition(self, rows: Iterable[Tuple[User, object, Value]]) -> List[list]:
        """``(user, key, value)`` rows split into one list per shard.

        Raises :class:`~repro.core.errors.ShardUnavailable`, naming the
        keys, when rows route to a quarantined shard.
        """
        partitions = self.spec.partition_rows(rows)
        for index in sorted(self._degraded):
            if partitions[index]:
                raise ShardUnavailable(
                    f"shard {index} is quarantined and owns "
                    f"{len(partitions[index])} of the rows",
                    shard=index,
                    keys=_sorted_keys(row[1] for row in partitions[index]),
                )
        return partitions

    def gather(self, name: str):
        """Combine a whole-relation read (serving shards) or a counter (all)."""
        if name in _READS:
            return _READS[name](getattr(shard, name)() for shard in self._serving())
        return _TOTALS[name](getattr(shard, name) for shard in self.shards)

    def __getattr__(self, name: str):
        if name in _READS:
            return functools.partial(self.gather, name)
        if name in _TOTALS:
            return self.gather(name)
        raise AttributeError(f"{type(self).__name__!r} has no attribute {name!r}")

    def row_counts_per_shard(self) -> List[int]:
        """Row count of each shard, in shard-index order (balance metric)."""
        return [shard.row_count() for shard in self.shards]

    @property
    def backend_name(self) -> str:
        """Composite identifier: ``sharded(<child>x<count>)`` when uniform."""
        names = sorted({shard.backend_name for shard in self.shards})
        if len(names) == 1:
            return f"sharded({names[0]}x{self.spec.count})"
        return f"sharded({'+'.join(names)})"

    def _serving(self) -> List[PossStore]:
        return [s for i, s in enumerate(self.shards) if i not in self._degraded]

    # ------------------------------------------------------------------ #
    # quarantine                                                           #
    # ------------------------------------------------------------------ #

    def _check_index(self, index: int) -> int:
        if not 0 <= index < self.spec.count:
            raise BulkProcessingError(
                f"shard index {index} out of range for {self.spec.count} shards"
            )
        return index

    def _lost(self, index: int, error: BaseException, keys=()) -> ShardUnavailable:
        """Quarantine shard ``index`` and describe its loss."""
        self._degraded.add(index)
        return ShardUnavailable(
            f"shard {index} unavailable: {error}", shard=index, keys=_sorted_keys(keys)
        )

    @contextlib.contextmanager
    def _shard_errors(self, index: int, keys: Iterable[object] = ()):
        """Quarantine shard ``index`` on unavailability, re-raised tagged
        (``keys`` is only read then)."""
        try:
            yield
        except ShardUnavailable:
            raise
        except BackendUnavailable as error:
            raise self._lost(index, error, keys) from error

    def quarantine(self, index: int) -> None:
        """Mark a shard degraded: its keys fail typed, the rest keep serving."""
        self._degraded.add(self._check_index(index))

    def heal(self, index: int) -> None:
        """Un-quarantine a shard once its connection answers again.

        A still-dead shard raises :class:`ShardUnavailable` and stays
        quarantined.  Replaying the writes it missed is
        :meth:`repro.engine.ResolutionEngine.recover_shard`'s job.
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

    def ensure_available(self) -> None:
        """Health-check the serving shards, quarantining the dead ones.

        Raises :class:`ShardUnavailable` (lowest index) while any shard is
        out of service; callers that can degrade catch it.
        """
        for index, shard in enumerate(self.shards):
            if index not in self._degraded:
                with contextlib.suppress(ShardUnavailable), self._shard_errors(index):
                    shard.ensure_available()
        self._require_all("serving")

    def _require_all(self, operation: str) -> None:
        """Raise :class:`ShardUnavailable` (lowest index) if any shard is out."""
        if self._degraded:
            raise ShardUnavailable(
                f"{operation} needs every shard (degraded: {self.degraded_shards})",
                shard=min(self._degraded),
            )

    # ------------------------------------------------------------------ #
    # transactions and writes                                              #
    # ------------------------------------------------------------------ #

    in_transaction = PossStore.in_transaction

    @contextlib.contextmanager
    def transaction(self) -> Iterator["ShardedPossStore"]:
        """One run transaction per serving shard, all rolled back on error.

        On success the shards commit one after another, and nothing
        coordinates those commits: when one fails after another succeeded,
        the shards that committed keep the run's writes.  The failing
        shard is quarantined and named in a :class:`ShardUnavailable`, so a
        caller can rewrite the others idempotently (the session's flush
        does).
        """
        if self._in_transaction:
            raise BulkProcessingError("transaction already in progress")
        with contextlib.ExitStack() as stack:
            for index, shard in enumerate(self.shards):
                if index not in self._degraded:
                    stack.enter_context(self._shard_transaction(index, shard))
            self._in_transaction = True
            try:
                yield self
            finally:
                self._in_transaction = False

    @contextlib.contextmanager
    def _shard_transaction(self, index: int, shard: PossStore):
        """``shard.transaction()``, tagging only the shard's own ``BEGIN``
        and commit failures (a run error belongs to whichever shard raised
        it)."""
        running = False
        try:
            with shard.transaction():
                running = True
                yield
                running = False
        except BackendUnavailable as error:
            if running or isinstance(error, ShardUnavailable):
                raise
            raise self._lost(index, error) from error

    def _scatter(self, rows, write) -> int:
        """Run ``write(shard, part)`` on every shard that owns some rows."""
        total = 0
        for index, part in enumerate(self.partition(rows)):
            if part:
                with self._shard_errors(index, (row[1] for row in part)):
                    total += write(self.shards[index], part)
        return total

    def _broadcast(self, operation: str, call) -> int:
        """Run a whole-relation write on every shard; it needs all of them."""
        self._require_all(operation)
        total = 0
        for index, shard in enumerate(self.shards):
            with self._shard_errors(index):
                total += call(shard) or 0
        return total

    def _per_shard(self, rows, write) -> int:
        """Run ``write(shard, part)`` on every serving shard, ``part`` being
        the rows it owns (``None`` for every shard when ``rows`` is)."""
        parts = None if rows is None else self.partition(rows)
        total = 0
        for index, shard in enumerate(self.shards):
            if index not in self._degraded:
                part = None if parts is None else parts[index]
                with self._shard_errors(index, (row[1] for row in part or ())):
                    total += write(shard, part)
        return total

    def insert_explicit_beliefs(
        self, rows: Optional[Iterable[Tuple[User, object, Value]]] = None
    ) -> int:
        """Load the beliefs on every serving shard, ``rows`` routed by key
        (a shard owning none of them has its ``BELIEF`` emptied)."""
        return self._per_shard(
            rows, lambda shard, part: shard.insert_explicit_beliefs(part)
        )

    def replace_beliefs(self, rows: Iterable[Tuple[User, object, Value]]) -> int:
        """Make each serving shard's ``BELIEF`` hold the ``rows`` it owns."""
        return self._per_shard(rows, PossStore.replace_beliefs)

    def update_beliefs(
        self,
        slots: Iterable[Tuple[User, object]],
        rows: Iterable[Tuple[User, object, Value]] = (),
    ) -> None:
        """Rewrite ``BELIEF`` slots, each on its key's shard."""
        parts = zip(self.partition(slots), self.partition(rows))
        for index, (slot_part, row_part) in enumerate(parts):
            if slot_part or row_part:
                keys = [entry[1] for entry in slot_part + row_part]
                with self._shard_errors(index, keys):
                    self.shards[index].update_beliefs(slot_part, row_part)

    def insert_rows(self, rows: Iterable[Tuple[User, object, Value]]) -> int:
        """Delta INSERT, each row on its key's shard."""
        return self._scatter(rows, PossStore.insert_rows)

    def delete_user_rows(
        self,
        users: Sequence[User] = (),
        key: object = None,
        rows: Optional[Iterable[Tuple[User, object, Value]]] = None,
    ) -> int:
        """``rows`` and a ``key`` route to their shards; deleting ``users``
        without a key needs every shard."""
        if rows is not None:
            return self._scatter(
                rows, lambda shard, part: shard.delete_user_rows(users, key, part)
            )
        if key is not None:
            with self._shard_errors(self.spec.shard_of(key), (key,)):
                return self.shard_for(key).delete_user_rows(users, key)
        return self._broadcast(
            "delete_user_rows() without a key",
            lambda shard: shard.delete_user_rows(users),
        )

    def clear(self) -> None:
        """Delete every row on every shard (a whole-relation write)."""
        self._broadcast("clear()", PossStore.clear)

    def journal_clear(self, run_id: Optional[str] = None) -> None:
        """Forget a run's checkpoint journal on every serving shard."""
        for shard in self._serving():
            shard.journal_clear(run_id)

    def possible_values(self, user: User, key: object) -> FrozenSet[str]:
        """Possible values of one user for one object (owning shard only)."""
        with self._shard_errors(self.spec.shard_of(key), (key,)):
            return self.shard_for(key).possible_values(user, key)

    certain_values = PossStore.certain_values

    def close(self) -> None:
        """Close every shard's connection."""
        for shard in self.shards:
            shard.close()

    __enter__ = PossStore.__enter__
    __exit__ = PossStore.__exit__
