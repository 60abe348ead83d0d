"""Pluggable relational backends for the ``POSS`` store (Section 4).

The paper runs its bulk experiments inside a full relational engine
(Microsoft SQL Server in Section 4 / Appendix B.10).  This reproduction keeps
the same architecture — resolution compiled to ``INSERT … SELECT`` statements
executed by a database — but abstracts the engine behind a tiny protocol so
that the store is not welded to one driver:

* :class:`SqliteMemoryBackend` — the default; an in-memory ``sqlite3``
  database, which is what the Figure 8c benchmarks measure.
* :class:`SqliteFileBackend` — the same engine persisted to a file, for runs
  whose ``POSS`` relation outgrows RAM or must survive the process.
* :class:`DbApiBackend` — the extension point: adapts any PEP 249 (DB-API
  2.0) connection factory, translating the store's ``qmark`` placeholders to
  the driver's paramstyle.  This is the seam through which a future PR can
  ship the bulk path to a client/server engine (the ROADMAP's sharded /
  multi-engine north star) without touching planner or executor.

Alongside the connection backends, :class:`IndexStrategy` makes the physical
schema a configuration instead of a fork: the Figure 8c covering-index
variant (one index serving the ``WHERE X = ?`` probes *and* the ``K, V``
projection, the default) differs from the seed's baseline only in which
``CREATE INDEX`` statements run at setup.
"""

from __future__ import annotations

import bisect
import sqlite3
import threading
import time
import zlib
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.errors import (
    BackendError,
    BackendUnavailable,
    BulkProcessingError,
    TransientBackendError,
)
from repro.bulk.sql import SqlDialect, resolve_dialect, sqlite_dialect

# --------------------------------------------------------------------------- #
# shard routing                                                                #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ShardSpec:
    """How object keys of ``POSS(X, K, V)`` are routed across N shards.

    The bulk plan is data-independent (Section 4), so partitioning the
    *data* by object key and replaying the same plan on every partition
    resolves the whole relation: a key's resolution never reads another
    key's rows.  Two routing schemes are supported:

    * ``hash`` — ``crc32(key) % count``.  Deterministic across processes
      (unlike Python's randomized ``hash``), so a relation loaded by one
      process can be queried by another under the same spec.
    * ``range`` — ``boundaries`` holds ``count - 1`` sorted split points;
      a key routes to the first range whose upper bound exceeds it
      (``boundaries[i - 1] <= key < boundaries[i]``, string order).

    Construct via :meth:`hashed` / :meth:`ranged`.
    """

    count: int
    kind: str = "hash"
    boundaries: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.count < 1:
            raise BulkProcessingError("a shard spec needs at least one shard")
        if self.kind not in ("hash", "range"):
            raise BulkProcessingError(
                f"unknown shard routing kind {self.kind!r}; known: hash, range"
            )
        if self.kind == "range":
            if len(self.boundaries) != self.count - 1:
                raise BulkProcessingError(
                    f"range routing over {self.count} shards needs "
                    f"{self.count - 1} boundaries, got {len(self.boundaries)}"
                )
            if any(
                a >= b for a, b in zip(self.boundaries, self.boundaries[1:])
            ):
                # Equal boundaries would create a shard no key can route to.
                raise BulkProcessingError(
                    "range boundaries must be strictly increasing"
                )
        elif self.boundaries:
            raise BulkProcessingError("hash routing takes no boundaries")

    @classmethod
    def hashed(cls, count: int) -> "ShardSpec":
        """A hash-routed spec over ``count`` shards."""
        return cls(count=count, kind="hash")

    @classmethod
    def ranged(cls, boundaries: "Tuple[str, ...] | list") -> "ShardSpec":
        """A range-routed spec with the given sorted split points."""
        bounds = tuple(str(boundary) for boundary in boundaries)
        return cls(count=len(bounds) + 1, kind="range", boundaries=bounds)

    def shard_of(self, key: object) -> int:
        """The shard index the object ``key`` routes to."""
        text = str(key)
        if self.kind == "hash":
            return zlib.crc32(text.encode("utf-8")) % self.count
        return bisect.bisect_right(self.boundaries, text)

    def partition_rows(self, rows) -> list:
        """Partition ``(user, key, value)`` rows into one list per shard.

        The single routing point for bulk loading: both
        :meth:`repro.bulk.store.ShardedPossStore.insert_explicit_beliefs`
        and the workload-side
        :func:`repro.workloads.bulkload.partition_rows` defer here, so rows
        partitioned ahead of time land on exactly the shard the store would
        route them to.
        """
        partitions: list = [[] for _ in range(self.count)]
        for row in rows:
            partitions[self.shard_of(row[1])].append(row)
        return partitions

# --------------------------------------------------------------------------- #
# index strategies                                                             #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class IndexStrategy:
    """A physical-design choice for the ``POSS(X, K, V)`` relation.

    ``create_statements`` are executed once when the store initializes its
    schema (after ``CREATE TABLE``); they must be idempotent
    (``IF NOT EXISTS``) so that reopening an on-disk database works.
    ``index_names`` lists the indexes the statements create; the store uses
    it to *drop* indexes left behind by a different strategy when an
    existing database is reopened, so the physical design always matches
    the declared strategy.  The Figure 8c sweep in
    :mod:`repro.experiments.fig8c_bulk` compares the strategies below at a
    fixed plan, demonstrating that the *statement count* is a property of
    the plan (independent of physical design) while the *running time* is
    not.
    """

    name: str
    create_statements: Tuple[str, ...]
    index_names: Tuple[str, ...] = ()
    description: str = ""


#: The seed's physical design: a probe index on ``X`` plus a composite index.
#: Kept selectable for the Figure 8c index sweep.
BASELINE_INDEXES = IndexStrategy(
    name="baseline",
    create_statements=(
        "CREATE INDEX IF NOT EXISTS POSS_X ON POSS (X)",
        "CREATE INDEX IF NOT EXISTS POSS_XKV ON POSS (X, K, V)",
    ),
    index_names=("POSS_X", "POSS_XKV"),
    description="probe index on X plus composite (X, K, V) index",
)

#: One covering index: serves the X probes and projects (K, V) without
#: touching the base table — the Figure 8c covering-index experiment, and
#: the default physical design.
COVERING_INDEX = IndexStrategy(
    name="covering",
    create_statements=(
        "CREATE INDEX IF NOT EXISTS POSS_COVER ON POSS (X, K, V)",
    ),
    index_names=("POSS_COVER",),
    description="single covering index on (X, K, V)",
)

#: No secondary indexes: every bulk statement scans the heap.  The lower
#: bound for insert cost and the upper bound for probe cost.
NO_INDEXES = IndexStrategy(
    name="none",
    create_statements=(),
    index_names=(),
    description="heap only, no secondary indexes",
)

#: Registry of the shipped strategies, keyed by name (CLI / sweep entry point).
INDEX_STRATEGIES: Dict[str, IndexStrategy] = {
    strategy.name: strategy
    for strategy in (BASELINE_INDEXES, COVERING_INDEX, NO_INDEXES)
}

#: Every index name any shipped strategy may have created; reopening a
#: database under one strategy drops the others' leftovers from this set.
ALL_INDEX_NAMES: Tuple[str, ...] = tuple(
    sorted(
        {
            name
            for strategy in INDEX_STRATEGIES.values()
            for name in strategy.index_names
        }
    )
)


def resolve_index_strategy(strategy: "IndexStrategy | str | None") -> IndexStrategy:
    """Normalize a strategy argument (name, object, or ``None``) to an object.

    ``None`` selects :data:`COVERING_INDEX`: every store statement filters
    on ``X`` or ``(X, K)``, which the one ``(X, K, V)`` index serves as a
    covering probe, so the ``baseline`` strategy's extra ``X`` index only
    adds a third b-tree to every row written.
    """
    if strategy is None:
        return COVERING_INDEX
    if isinstance(strategy, IndexStrategy):
        return strategy
    try:
        return INDEX_STRATEGIES[strategy]
    except KeyError:
        raise BulkProcessingError(
            f"unknown index strategy {strategy!r}; "
            f"known strategies: {sorted(INDEX_STRATEGIES)}"
        ) from None


# --------------------------------------------------------------------------- #
# error classification                                                         #
# --------------------------------------------------------------------------- #

#: sqlite3 message fragments that indicate a retryable condition.
_SQLITE_TRANSIENT_FRAGMENTS = ("locked", "busy")

#: sqlite3 message fragments that indicate the connection/database is gone.
_SQLITE_UNAVAILABLE_FRAGMENTS = (
    "unable to open database",
    "closed database",
    "disk i/o error",
)


def classify_sqlite_error(error: BaseException) -> "type | None":
    """Map a raw ``sqlite3`` exception to a classified error class.

    ``None`` means "not a sqlite3 error" — the caller falls through to
    its next classification rule.
    """
    if not isinstance(error, sqlite3.Error):
        return None
    message = str(error).lower()
    if any(fragment in message for fragment in _SQLITE_TRANSIENT_FRAGMENTS):
        return TransientBackendError
    if any(fragment in message for fragment in _SQLITE_UNAVAILABLE_FRAGMENTS):
        return BackendUnavailable
    if isinstance(error, sqlite3.ProgrammingError) and "closed" in message:
        return BackendUnavailable
    return BackendError


# --------------------------------------------------------------------------- #
# bind-parameter capacity                                                      #
# --------------------------------------------------------------------------- #

#: The floor every backend is assumed to support: sqlite's historic
#: ``SQLITE_MAX_VARIABLE_NUMBER`` default of 999 (raised to 32766 in
#: sqlite 3.32).  Backends that cannot probe report this conservative
#: value, and probes never report less.
DEFAULT_MAX_BIND_PARAMS = 999

#: The compiled-in default since sqlite 3.32, used when the library is
#: modern but exposes neither ``getlimit`` nor the compile option.
SQLITE_MODERN_MAX_BIND_PARAMS = 32766

#: First sqlite release whose compiled-in variable limit defaults to 32766.
_SQLITE_MODERN_LIMIT_VERSION = (3, 32, 0)


def probe_max_bind_params(connection: Any, version_info=None) -> int:
    """The bound-parameter limit of one sqlite connection, probed live.

    Three probes, most authoritative first, with the historic 999 default
    as the floor:

    1. ``Connection.getlimit(SQLITE_LIMIT_VARIABLE_NUMBER)`` — the actual
       runtime limit (Python 3.11+);
    2. ``PRAGMA compile_options`` — the ``MAX_VARIABLE_NUMBER=N`` entry
       sqlite reports when the limit was raised at compile time;
    3. the library version — 3.32 raised the compiled-in default to 32766.

    A probe failure of any kind degrades to the next probe, never raises:
    the worst outcome is the conservative historic region sizing.
    """
    try:
        limit = connection.getlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER)
        if limit and limit > 0:
            return max(int(limit), DEFAULT_MAX_BIND_PARAMS)
    except Exception:
        pass
    try:
        for (option,) in connection.execute("PRAGMA compile_options"):
            if str(option).startswith("MAX_VARIABLE_NUMBER="):
                value = int(str(option).split("=", 1)[1])
                return max(value, DEFAULT_MAX_BIND_PARAMS)
    except Exception:
        pass
    version = (
        version_info if version_info is not None else sqlite3.sqlite_version_info
    )
    if tuple(version) >= _SQLITE_MODERN_LIMIT_VERSION:
        return SQLITE_MODERN_MAX_BIND_PARAMS
    return DEFAULT_MAX_BIND_PARAMS


@lru_cache(maxsize=1)
def sqlite_max_bind_params() -> int:
    """The linked sqlite library's bind limit (probed once per process).

    The limit is a property of the library build, not of any particular
    database, so one throwaway in-memory connection answers for every
    sqlite backend in the process.
    """
    with closing(sqlite3.connect(":memory:")) as connection:
        return probe_max_bind_params(connection)


# --------------------------------------------------------------------------- #
# connection pooling                                                           #
# --------------------------------------------------------------------------- #

#: Size of the lazily created default pool behind ``SqlBackend.checkout()``.
DEFAULT_POOL_SIZE = 4

#: How long ``checkout()`` blocks on an exhausted pool before declaring the
#: backend unavailable.  Generous: exhaustion in this codebase means another
#: worker holds a connection over a region transaction, which completes in
#: milliseconds — a multi-second wait signals a leak or a wedged worker.
DEFAULT_CHECKOUT_TIMEOUT = 30.0


class ConnectionPool:
    """A bounded pool of per-worker connections over one backend.

    Connections are opened lazily through ``backend.pool_connect()`` (which
    applies any per-worker tuning, e.g. the WAL pragmas of
    :class:`SqliteFileBackend`), capped at ``size``.  :meth:`checkout`
    blocks when every connection is out — it never over-allocates — and
    raises :class:`~repro.core.errors.BackendUnavailable` once ``timeout``
    elapses.  :meth:`close` drains the idle connections but refuses to run
    while any connection is still checked out: a leaked checkout is a
    programming error and fails loudly instead of being swept under the rug.

    Lifecycle counters (``checkouts``, ``in_use``, ``in_use_peak``,
    ``wait_seconds``) feed the store's pool gauges and the
    ``pool.checkouts`` / ``pool.wait_seconds`` metrics.
    """

    def __init__(
        self,
        backend: "SqlBackend",
        size: int,
        timeout: float = DEFAULT_CHECKOUT_TIMEOUT,
    ) -> None:
        if size < 1:
            raise BulkProcessingError("a connection pool needs at least one slot")
        self.backend = backend
        self.size = size
        self.timeout = timeout
        self._condition = threading.Condition()
        self._idle: List[Any] = []
        self._out: Dict[int, Any] = {}
        self._opened = 0
        self._closed = False
        self.checkouts = 0
        self.in_use_peak = 0
        self.wait_seconds = 0.0

    @property
    def in_use(self) -> int:
        """How many connections are currently checked out."""
        with self._condition:
            return len(self._out)

    def checkout(self, timeout: Optional[float] = None) -> Any:
        """Borrow a connection, blocking while the pool is exhausted.

        Raises :class:`~repro.core.errors.BackendUnavailable` if no
        connection frees up within ``timeout`` (default: the pool's), and
        :class:`~repro.core.errors.BulkProcessingError` on a closed pool.
        """
        limit = self.timeout if timeout is None else timeout
        deadline = time.monotonic() + limit
        waited_from = time.monotonic()
        with self._condition:
            while True:
                if self._closed:
                    raise BulkProcessingError(
                        "checkout from a closed connection pool"
                    )
                if self._idle:
                    connection = self._idle.pop()
                    break
                if self._opened < self.size:
                    self._opened += 1
                    try:
                        connection = self.backend.pool_connect()
                    except BaseException:
                        self._opened -= 1
                        self._condition.notify()
                        raise
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._condition.wait(remaining):
                    raise BackendUnavailable(
                        f"connection pool exhausted: all {self.size} "
                        f"connections stayed checked out for {limit:.1f}s"
                    )
            self._out[id(connection)] = connection
            self.checkouts += 1
            self.wait_seconds += time.monotonic() - waited_from
            self.in_use_peak = max(self.in_use_peak, len(self._out))
        return connection

    def checkin(self, connection: Any) -> None:
        """Return a borrowed connection; rejects strangers loudly."""
        with self._condition:
            if self._out.pop(id(connection), None) is None:
                raise BulkProcessingError(
                    "checkin of a connection this pool never handed out"
                )
            if self._closed:
                try:
                    connection.close()
                except Exception:
                    pass
            else:
                self._idle.append(connection)
            self._condition.notify()

    @contextmanager
    def connection(self, timeout: Optional[float] = None) -> Iterator[Any]:
        """Context-managed checkout: checkin happens even on exception."""
        connection = self.checkout(timeout)
        try:
            yield connection
        finally:
            self.checkin(connection)

    def close(self) -> None:
        """Close every idle connection; fail loudly on leaked checkouts."""
        with self._condition:
            if self._out:
                raise BulkProcessingError(
                    f"connection pool closed with {len(self._out)} "
                    "connection(s) still checked out — checkin every "
                    "checkout (use pool.connection()) before closing"
                )
            self._closed = True
            idle, self._idle = self._idle, []
            self._opened -= len(idle)
        for connection in idle:
            try:
                connection.close()
            except Exception:
                pass

    def __repr__(self) -> str:
        return (
            f"ConnectionPool(backend={self.backend!r}, size={self.size}, "
            f"in_use={self.in_use})"
        )


# --------------------------------------------------------------------------- #
# connection backends                                                          #
# --------------------------------------------------------------------------- #


class SqlBackend:
    """Protocol for relational engines hosting the ``POSS`` relation.

    A backend owns exactly two responsibilities: producing a PEP 249
    connection (:meth:`connect`) and describing how the store's canonical
    ``qmark``-style SQL must be rendered for the engine (:meth:`render`).
    Everything else — schema, statements, transactions — lives in
    :class:`repro.bulk.store.PossStore`, so adding an engine means
    implementing these two methods only.
    """

    #: Human-readable backend identifier (surfaced in ``BulkRunReport``).
    name: str = "abstract"

    #: Whether a connection from :meth:`connect` may be driven from a worker
    #: thread other than the one that created it (one thread at a time).
    #: The concurrent scatter/gather executor replays each shard's plan on
    #: its own thread; shards on backends without this capability fall back
    #: to sequential replay.
    supports_concurrent_replay: bool = False

    #: Whether one connection tolerates statements issued from *several*
    #: threads at once (the driver serializes internally).  This is the
    #: "concurrent writers" capability the pipelined executor needs to
    #: overlap independent DAG stages on a single store: with it, worker
    #: threads issue ready statements directly; without it, the executor
    #: serializes statement execution behind a lock (scheduling still
    #: overlaps, statements do not).
    supports_concurrent_statements: bool = False

    #: Whether :meth:`pool_connect` yields connections that all see the
    #: *same* database, so a pool of per-worker connections is sound.
    #: False for the memory backend (each ``connect()`` opens a private
    #: ``:memory:`` database) and for unknown engines.
    supports_pooling: bool = False

    #: Whether several pooled connections may hold write transactions at
    #: once (MVCC engines like PostgreSQL).  sqlite allows exactly one
    #: writer per database, so the pooled executor routes its write phases
    #: through a token when this is False.
    supports_concurrent_writes: bool = False

    #: Statement a pooled worker issues to open a region transaction.
    #: sqlite overrides with ``BEGIN IMMEDIATE`` to take the write lock up
    #: front instead of failing mid-region on lock upgrade.
    pool_begin_sql: str = "BEGIN"

    #: Per-instance memo for :attr:`max_bind_params` (``None`` = unprobed).
    _probed_bind_params: Optional[int] = None

    @property
    def compiled_dialect(self) -> "SqlDialect | None":
        """The engine's region-compilation dialect, or ``None``.

        A dialect (see :mod:`repro.bulk.sql`) lets the compiled scheduler
        push whole plan regions into the engine as recursive CTEs and
        window-function passes.  ``None`` — the conservative default for
        unknown engines — makes every region fall back to
        statement-at-a-time replay.
        """
        return None

    @property
    def supports_compiled_regions(self) -> bool:
        """Whether the engine evaluates both compiled region shapes natively."""
        dialect = self.compiled_dialect
        return (
            dialect is not None
            and dialect.supports_copy_regions
            and dialect.supports_flood_stages
        )

    @property
    def max_bind_params(self) -> int:
        """Bound parameters one statement may carry on this engine.

        The region compiler sizes copy/flood regions from this number
        (:meth:`repro.bulk.compile.RegionLimits.for_bind_params`), so an
        engine reporting its real capacity compiles deep chains into
        fewer, larger statements.  The probe
        (:meth:`_probe_max_bind_params`) runs at most once per backend
        instance — every store constructed over the same backend, and
        every connection the pool opens, reuses the memoized answer.
        """
        if self._probed_bind_params is None:
            self._probed_bind_params = self._probe_max_bind_params()
        return self._probed_bind_params

    def _probe_max_bind_params(self) -> int:
        """One probe of this backend's connection family (memoized above).

        The default is the conservative historic sqlite limit; sqlite
        backends probe the linked library and :class:`DbApiBackend`
        exposes a constructor hook.
        """
        return DEFAULT_MAX_BIND_PARAMS

    def connect(self) -> Any:
        """Open and return a DB-API 2.0 connection."""
        raise NotImplementedError

    def pool_connect(self) -> Any:
        """Open one *pooled* (per-worker) connection.

        Defaults to :meth:`connect`; backends override to apply per-worker
        tuning (e.g. WAL pragmas) that the primary connection may not want.
        """
        return self.connect()

    def create_pool(
        self,
        size: int = DEFAULT_POOL_SIZE,
        timeout: float = DEFAULT_CHECKOUT_TIMEOUT,
    ) -> ConnectionPool:
        """A bounded :class:`ConnectionPool` over this backend."""
        if not self.supports_pooling:
            raise BulkProcessingError(
                f"backend {self.name!r} does not support connection pooling "
                "(its connections do not share one database)"
            )
        return ConnectionPool(self, size, timeout)

    def checkout(self, timeout: Optional[float] = None) -> Any:
        """Borrow a connection from this backend's lazily created pool.

        The convenience face of the pool protocol: the first call creates
        a default-sized pool (:data:`DEFAULT_POOL_SIZE`), and every
        checkout must be paired with :meth:`checkin`.  Executors that need
        a specific size call :meth:`create_pool` instead.
        """
        pool = self.__dict__.get("_default_pool")
        if pool is None:
            pool = self.create_pool()
            self._default_pool = pool
        return pool.checkout(timeout)

    def checkin(self, connection: Any) -> None:
        """Return a connection borrowed through :meth:`checkout`."""
        pool = self.__dict__.get("_default_pool")
        if pool is None:
            raise BulkProcessingError(
                "checkin without a pool: nothing was ever checked out"
            )
        pool.checkin(connection)

    def render(self, sql: str) -> str:
        """Translate canonical ``?``-placeholder SQL to the engine's dialect."""
        return sql

    def classify_error(self, error: BaseException) -> "type | None":
        """Map a raw driver exception to a ``core.errors`` class, or ``None``.

        The store's retry loop consults this at every failure: a
        :class:`~repro.core.errors.TransientBackendError` result retries
        the statement, any other :class:`~repro.core.errors.BackendError`
        subclass rolls the run back typed, and ``None`` re-raises the
        original exception unchanged (it is not a backend failure — e.g.
        a programming error in the store itself).
        """
        if isinstance(error, BackendError):
            return type(error)
        return classify_sqlite_error(error)


class SqliteMemoryBackend(SqlBackend):
    """An in-memory ``sqlite3`` database (the default, used by benchmarks)."""

    name = "sqlite-memory"

    @property
    def compiled_dialect(self) -> "SqlDialect | None":
        return sqlite_dialect()

    def _probe_max_bind_params(self) -> int:
        return sqlite_max_bind_params()

    def connect(self) -> sqlite3.Connection:
        """Open a fresh private in-memory database."""
        return sqlite3.connect(":memory:")

    def __repr__(self) -> str:
        return "SqliteMemoryBackend()"


class SqliteFileBackend(SqlBackend):
    """An on-disk ``sqlite3`` database at ``path``.

    Lets the ``POSS`` relation exceed RAM and persist across processes; the
    store's schema setup is idempotent, so reopening an existing file
    resumes with its rows intact.  Connections are opened with
    ``check_same_thread=False`` so a shard replay thread can drive a
    connection created by the coordinating thread (each connection is still
    used by one thread at a time) — unlike the memory backend, whose
    database is private to its creating connection and which therefore
    cannot hand replay to workers.
    """

    name = "sqlite-file"
    supports_concurrent_replay = True
    # A serialized (SQLITE_THREADSAFE=1) sqlite3 build locks around every
    # statement in C, so one connection may be shared by several worker
    # threads; non-serialized builds fall back to locked execution.
    supports_concurrent_statements = sqlite3.threadsafety == 3
    # Every connection opens the same file, so a per-worker pool is sound;
    # sqlite still allows only one write transaction at a time, and
    # IMMEDIATE takes the write lock at BEGIN instead of failing on a
    # mid-region lock upgrade.
    supports_pooling = True
    pool_begin_sql = "BEGIN IMMEDIATE"

    def __init__(self, path: str) -> None:
        if not path or path == ":memory:":
            raise BulkProcessingError(
                "SqliteFileBackend requires a filesystem path; "
                "use SqliteMemoryBackend for in-memory databases"
            )
        self.path = path

    @property
    def compiled_dialect(self) -> "SqlDialect | None":
        return sqlite_dialect()

    def _probe_max_bind_params(self) -> int:
        # Probe the pooled connection family itself, not a throwaway
        # in-memory database: an engine limit lowered per-database (or a
        # future non-default build) is reflected here, and the memo on the
        # backend instance means one probe serves every store and pool.
        try:
            with closing(self.connect()) as connection:
                return probe_max_bind_params(connection)
        except Exception:
            return sqlite_max_bind_params()

    def connect(self) -> sqlite3.Connection:
        """Open (creating if necessary) the database file at ``path``."""
        return sqlite3.connect(self.path, check_same_thread=False)

    def pool_connect(self) -> sqlite3.Connection:
        """Open one per-worker connection in WAL mode with tuned pragmas.

        WAL lets pooled readers (the staged region SELECTs) run while a
        writer commits; ``synchronous=NORMAL`` is the documented pairing
        (safe with WAL, skips a redundant fsync per commit);
        ``busy_timeout`` bounds writer-lock waits instead of failing
        instantly; ``temp_store=MEMORY`` keeps the per-region staging
        tables off disk.
        """
        connection = self.connect()
        # Autocommit: the pooled session's explicit BEGIN IMMEDIATE / COMMIT
        # are the only transaction boundaries — the driver never opens an
        # implicit transaction under a staging CREATE TABLE.
        connection.isolation_level = None
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute("PRAGMA busy_timeout=10000")
        connection.execute("PRAGMA temp_store=MEMORY")
        return connection

    def __repr__(self) -> str:
        return f"SqliteFileBackend({self.path!r})"


def sqlite_backend(path: str = ":memory:") -> SqlBackend:
    """Pick the sqlite backend matching ``path`` (memory sentinel or file)."""
    if path == ":memory:":
        return SqliteMemoryBackend()
    return SqliteFileBackend(path)


class DbApiBackend(SqlBackend):
    """Adapter for any PEP 249 (DB-API 2.0) driver — the extension point.

    Parameters
    ----------
    connection_factory:
        Zero-argument callable returning an open DB-API connection, e.g.
        ``lambda: psycopg2.connect(dsn)``.
    paramstyle:
        The driver's ``paramstyle`` attribute.  ``qmark`` (the canonical
        style the store emits), ``format`` (``%s``) and ``numeric``
        (``:1``/``:2``/…) are supported; the named styles would need value
        mapping and are rejected explicitly.
    name:
        Identifier recorded in run reports; defaults to ``dbapi-<paramstyle>``.
    supports_concurrent_replay:
        Whether the driver's connections tolerate being driven from a thread
        other than their creator (one thread at a time).  Client/server
        drivers (psycopg, MySQL drivers, …) generally do, so this defaults
        to ``True``; pass ``False`` for drivers that pin connections to
        their creating thread (e.g. ``sqlite3`` without
        ``check_same_thread=False``).
    error_classifier:
        Optional hook mapping a raw driver exception to a class from the
        ``core.errors`` backend hierarchy (or ``None`` to fall through).
        Consulted *first*, before the built-in rules, so driver-specific
        knowledge (e.g. psycopg's ``errors.SerializationFailure``) wins.
        Without it, sqlite3 exceptions classify by message and other
        drivers fall back to PEP 249 type-name heuristics:
        ``OperationalError`` →
        :class:`~repro.core.errors.TransientBackendError` (per the DB-API
        spec these are environment failures — lost connections, failed
        allocations), ``InterfaceError`` →
        :class:`~repro.core.errors.BackendUnavailable` (the connection
        object itself is broken).
    supports_concurrent_statements:
        Whether one connection tolerates statements from several threads at
        once (the driver serializes internally, as psycopg does via its
        connection lock).  Defaults to ``False`` — the conservative choice
        for unknown drivers; the pipelined executor then serializes
        statement execution behind a lock while still scheduling without
        stage barriers.
    dialect:
        The engine's region-compilation dialect: a
        :class:`~repro.bulk.sql.SqlDialect`, one of the names ``"sqlite"``
        / ``"postgres"``, or ``None`` (the default — compiled regions fall
        back to statement-at-a-time replay on this backend).  The compiled
        statements are rendered through :meth:`render` like every other
        statement, so any supported paramstyle works.
    max_bind_params:
        The engine's bound-parameter limit per statement, used to size
        compiled regions.  ``None`` (the default) keeps the conservative
        999 floor; pass the real limit for engines that allow more (e.g.
        65535 for PostgreSQL's wire protocol, or
        :func:`sqlite_max_bind_params` for a sqlite driver).
    supports_pooling:
        Whether each ``connection_factory()`` call yields a session onto
        the *same* database, so the pooled executor may give every worker
        its own connection.  Client/server drivers do, hence the ``True``
        default; pass ``False`` for factories whose connections see
        private state (e.g. ``sqlite3.connect(":memory:")``).
    supports_concurrent_writes:
        Whether several pooled sessions may hold write transactions at
        once (MVCC engines — PostgreSQL, MySQL/InnoDB).  ``True`` lets
        pooled workers run their region transactions fully concurrently;
        ``False`` serializes the write phase behind a token, as sqlite's
        single-writer rule requires.
    """

    _SUPPORTED = ("qmark", "format", "numeric")

    def __init__(
        self,
        connection_factory: Callable[[], Any],
        paramstyle: str = "qmark",
        name: str = "",
        supports_concurrent_replay: bool = True,
        supports_concurrent_statements: bool = False,
        error_classifier: "Callable[[BaseException], type | None] | None" = None,
        dialect: "SqlDialect | str | None" = None,
        max_bind_params: Optional[int] = None,
        supports_pooling: bool = True,
        supports_concurrent_writes: bool = True,
    ) -> None:
        if paramstyle not in self._SUPPORTED:
            raise BulkProcessingError(
                f"unsupported paramstyle {paramstyle!r}; "
                f"supported: {self._SUPPORTED}"
            )
        self._factory = connection_factory
        self.paramstyle = paramstyle
        self.name = name or f"dbapi-{paramstyle}"
        self.supports_concurrent_replay = supports_concurrent_replay
        self.supports_concurrent_statements = supports_concurrent_statements
        self.supports_pooling = supports_pooling
        self.supports_concurrent_writes = supports_concurrent_writes
        self.error_classifier = error_classifier
        self._dialect = resolve_dialect(dialect)
        if max_bind_params is not None and max_bind_params < 1:
            raise BulkProcessingError("max_bind_params must be >= 1")
        self._max_bind_params = max_bind_params

    @property
    def compiled_dialect(self) -> "SqlDialect | None":
        return self._dialect

    def _probe_max_bind_params(self) -> int:
        if self._max_bind_params is not None:
            return max(self._max_bind_params, 1)
        return DEFAULT_MAX_BIND_PARAMS

    def connect(self) -> Any:
        """Open a connection through the caller-supplied factory."""
        return self._factory()

    def classify_error(self, error: BaseException) -> "type | None":
        """Classify through the hook first, then the generic rules."""
        if isinstance(error, BackendError):
            return type(error)
        if self.error_classifier is not None:
            classified = self.error_classifier(error)
            if classified is not None:
                return classified
        # sqlite3-over-DbApiBackend (common in tests) must classify by
        # message, not by the name heuristics below — sqlite raises
        # OperationalError for plain SQL mistakes ("no such table"),
        # which must NOT look retryable.
        sqlite_classified = classify_sqlite_error(error)
        if sqlite_classified is not None:
            return sqlite_classified
        type_names = {cls.__name__ for cls in type(error).__mro__}
        if "OperationalError" in type_names:
            return TransientBackendError
        if "InterfaceError" in type_names:
            return BackendUnavailable
        if "DatabaseError" in type_names or "Error" in type_names:
            return BackendError
        return None

    def render(self, sql: str) -> str:
        """Rewrite ``?`` placeholders into the driver's paramstyle."""
        if self.paramstyle == "qmark":
            return sql
        if self.paramstyle == "format":
            return sql.replace("?", "%s")
        # numeric: ? -> :1, :2, ... in textual order.
        parts = sql.split("?")
        out = [parts[0]]
        for position, part in enumerate(parts[1:], start=1):
            out.append(f":{position}")
            out.append(part)
        return "".join(out)

    def __repr__(self) -> str:
        return f"DbApiBackend(name={self.name!r}, paramstyle={self.paramstyle!r})"
