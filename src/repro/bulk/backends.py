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

The physical design is fixed, not configured: ``POSS`` and ``BELIEF`` are
keyed by ``(X, K, V)``, so the key's one b-tree serves every ``X`` and
``(X, K)`` lookup the store issues.  On sqlite the tables are ``WITHOUT
ROWID`` (:attr:`SqlBackend.supports_without_rowid`), so that b-tree *is* the
table and each row is stored once.
"""

from __future__ import annotations

import bisect
import contextlib
import sqlite3
import zlib
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, ContextManager, Optional, Tuple

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
        if self.count == 1:
            return 0
        text = str(key)
        if self.kind == "hash":
            return zlib.crc32(text.encode("utf-8")) % self.count
        return bisect.bisect_right(self.boundaries, text)

    def partition_rows(self, rows) -> list:
        """Partition ``(user, key, value)`` rows into one list per shard.

        The single routing point for rows: both
        :meth:`repro.bulk.store.ShardedPossStore.partition` and the
        workload-side :func:`repro.workloads.bulkload.partition_rows` defer
        here, so rows partitioned ahead of time land on exactly the shard
        the store would route them to.  One shard takes every row without
        hashing a key.
        """
        if self.count == 1:
            return [list(rows)]
        partitions: list = [[] for _ in range(self.count)]
        for row in rows:
            partitions[self.shard_of(row[1])].append(row)
        return partitions

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

    #: Whether the engine stores a table in its primary key's b-tree
    #: (sqlite's ``WITHOUT ROWID``).  The store then creates ``POSS`` and
    #: ``BELIEF`` that way; other engines get a plain ``PRIMARY KEY``.
    supports_without_rowid: bool = False

    #: Per-instance memo for :attr:`max_bind_params` (``None`` = unprobed).
    _probed_bind_params: Optional[int] = None

    @property
    def compiled_dialect(self) -> "SqlDialect | None":
        """The engine's region-compilation dialect, or ``None``.

        A dialect (see :mod:`repro.bulk.sql`) lets the compiled scheduler
        push every plan region into the engine as one flat ``INSERT …
        SELECT``.  ``None`` — the conservative default for unknown
        engines — makes every region fall back to statement-at-a-time
        replay.
        """
        return None

    @property
    def supports_compiled_regions(self) -> bool:
        """Whether the engine has a dialect, i.e. compiles every region kind."""
        return self.compiled_dialect is not None

    @property
    def max_bind_params(self) -> int:
        """Bound parameters one statement may carry on this engine.

        The region compiler sizes copy/flood regions from this number
        (:meth:`repro.bulk.compile.RegionLimits.for_bind_params`), so an
        engine reporting its real capacity compiles deep chains into
        fewer, larger statements.  The probe
        (:meth:`_probe_max_bind_params`) runs at most once per backend
        instance — every store constructed over the same backend reuses
        the memoized answer.
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

    def schema_setup(self) -> ContextManager[None]:
        """Context the store creates its schema in (a no-op here).

        A fault-injecting wrapper overrides it to let the schema statements
        through unseen, so scripted faults count from the first statement
        after them.
        """
        return contextlib.nullcontext()

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
    supports_without_rowid = True

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

    Every connection runs in write-ahead-log mode with full sync
    (``journal_mode=WAL``, ``synchronous=FULL``): a commit appends its
    pages to the log and syncs the log once before it returns, so a
    committed transaction survives process death and power loss, as under
    the rollback journal, at one sync per commit instead of two.  While the
    database is open, ``<path>-wal`` and ``<path>-shm`` sit next to it; the
    last connection's clean close checkpoints the log into the file and
    removes both, and the next open after a crash replays the committed
    transactions the log still holds.  The shared-memory index needs every
    connection on one host, so the store is not for network filesystems.
    """

    name = "sqlite-file"
    supports_concurrent_replay = True
    supports_without_rowid = True

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
        # Probe the file's own connection family, not a throwaway
        # in-memory database: an engine limit lowered per-database (or a
        # future non-default build) is reflected here, and the memo on the
        # backend instance means one probe serves every store.
        try:
            with closing(self.connect()) as connection:
                return probe_max_bind_params(connection)
        except Exception:
            return sqlite_max_bind_params()

    def connect(self) -> sqlite3.Connection:
        """Open (creating if necessary) the database file at ``path``.

        The connection is switched to WAL with full sync before it is
        returned (see the class docstring).
        """
        connection = sqlite3.connect(self.path, check_same_thread=False)
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=FULL")
        except BaseException:
            connection.close()
            raise
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
    """

    _SUPPORTED = ("qmark", "format", "numeric")

    def __init__(
        self,
        connection_factory: Callable[[], Any],
        paramstyle: str = "qmark",
        name: str = "",
        supports_concurrent_replay: bool = True,
        error_classifier: "Callable[[BaseException], type | None] | None" = None,
        dialect: "SqlDialect | str | None" = None,
        max_bind_params: Optional[int] = None,
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
