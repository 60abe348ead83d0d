"""Tests for the pluggable SQL backends and the physical design."""

from __future__ import annotations

import sqlite3

import pytest

from repro.bulk.backends import (
    DEFAULT_MAX_BIND_PARAMS,
    DbApiBackend,
    SqliteFileBackend,
    SqliteMemoryBackend,
    probe_max_bind_params,
    sqlite_backend,
    sqlite_max_bind_params,
)
from repro.bulk.store import PossRow, PossStore
from repro.faults.retry import RetryPolicy
from repro.core.errors import (
    BackendError,
    BackendUnavailable,
    BulkProcessingError,
    TransientBackendError,
)


def schema_objects(store, kind):
    """Names of the ``kind`` objects (``table``/``index``) of a sqlite store."""
    cursor = store._connection.execute(
        "SELECT name, tbl_name, sql FROM sqlite_master WHERE type = ?", (kind,)
    )
    return {row[0]: (row[1], row[2]) for row in cursor.fetchall()}


class TestPhysicalDesign:
    """``POSS`` and ``BELIEF`` are clustered on their ``(X, K, V)`` key."""

    @pytest.mark.parametrize("path", (":memory:", "file"))
    def test_relations_are_keyed_tables_without_indexes(self, path, tmp_path):
        path = path if path == ":memory:" else str(tmp_path / "poss.db")
        with PossStore(path=path) as store:
            tables = schema_objects(store, "table")
            for table in ("POSS", "BELIEF"):
                sql = tables[table][1]
                assert "PRIMARY KEY (X, K, V)" in sql
                assert sql.endswith("WITHOUT ROWID")
            indexed = {table for table, _sql in schema_objects(store, "index").values()}
            assert not indexed & {"POSS", "BELIEF"}

    def test_dbapi_backend_gets_a_plain_primary_key(self):
        connection = FakeConnection()
        PossStore(backend=DbApiBackend(lambda: connection))
        created = [sql for sql, _ in connection.statements if sql.startswith("CREATE")]
        keyed = [sql for sql in created if "PRIMARY KEY (X, K, V)" in sql]
        assert len(keyed) == 2
        assert not any("WITHOUT ROWID" in sql for sql in created)
        assert not any("INDEX" in sql for sql in created)

    def test_file_with_the_old_heap_layout_keeps_it_and_answers(self, tmp_path):
        """No migration: a file written with a heap ``POSS`` and its covering
        index opens as it is and answers the same."""
        path = str(tmp_path / "old.db")
        connection = sqlite3.connect(path)
        connection.executescript(
            "CREATE TABLE POSS (X TEXT NOT NULL, K TEXT NOT NULL, V TEXT NOT NULL);"
            "CREATE INDEX POSS_COVER ON POSS (X, K, V);"
            "INSERT INTO POSS VALUES ('z', 'k1', 'v'), ('z', 'k2', 'w');"
        )
        connection.close()
        with PossStore(path=path) as store:
            assert "POSS_COVER" in schema_objects(store, "index")
            assert "WITHOUT ROWID" not in schema_objects(store, "table")["POSS"][1]
            store.copy_to_children("z", ["x", "y"])
            assert store.row_count() == 6
            assert store.possible_values("x", "k1") == frozenset({"v"})
            assert store.possible_values("y", "k2") == frozenset({"w"})

    def test_a_row_stored_twice_is_rejected(self):
        with PossStore(retry_policy=RetryPolicy.none()) as store:
            store.insert_rows([("a", "k1", "v")])
            with pytest.raises(BackendError) as excinfo:
                store.insert_rows([("a", "k1", "v")])
            assert not isinstance(excinfo.value, TransientBackendError)
            with pytest.raises(BackendError):
                store.replace_beliefs([("a", "k1", "v"), ("a", "k1", "v")])
            assert store.possible_table() == [PossRow("a", "k1", "v")]


class TestSqliteBackends:
    def test_memory_backend_is_the_default(self):
        with PossStore() as store:
            assert store.backend_name == "sqlite-memory"

    def test_path_dispatch(self, tmp_path):
        assert isinstance(sqlite_backend(":memory:"), SqliteMemoryBackend)
        assert isinstance(sqlite_backend(str(tmp_path / "poss.db")), SqliteFileBackend)

    def test_file_backend_rejects_memory_sentinel(self):
        with pytest.raises(BulkProcessingError):
            SqliteFileBackend(":memory:")
        with pytest.raises(BulkProcessingError):
            SqliteFileBackend("")

    def test_file_backend_persists_rows_across_stores(self, tmp_path):
        path = str(tmp_path / "poss.db")
        with PossStore(path=path) as store:
            assert store.backend_name == "sqlite-file"
            store.insert_explicit_beliefs([("a", "k1", "v")])
        with PossStore(backend=SqliteFileBackend(path)) as reopened:
            assert reopened.possible_values("a", "k1") == frozenset({"v"})


def journal_settings(store):
    """The live connection's journal mode and sync level.

    Read past a fault-injecting wrapper's statement sites, which only guard
    cursors and commits, so an ambient chaos run cannot fault the check.
    """
    connection = store._connection
    return (
        connection.execute("PRAGMA journal_mode").fetchone()[0],
        connection.execute("PRAGMA synchronous").fetchone()[0],
    )


class TestFileBackendJournal:
    """Every file connection commits through a fully synced write-ahead log."""

    WAL_FULL = ("wal", 2)

    def test_fresh_store(self, tmp_path):
        with PossStore(backend=SqliteFileBackend(str(tmp_path / "poss.db"))) as store:
            assert journal_settings(store) == self.WAL_FULL

    def test_after_reconnect(self, tmp_path):
        with PossStore(backend=SqliteFileBackend(str(tmp_path / "poss.db"))) as store:
            store.reconnect()
            assert store.reconnects == 1
            assert journal_settings(store) == self.WAL_FULL

    def test_reopened_file(self, tmp_path):
        path = str(tmp_path / "poss.db")
        with PossStore(backend=SqliteFileBackend(path)) as store:
            store.insert_explicit_beliefs([("a", "k1", "v")])
        with PossStore(backend=SqliteFileBackend(path)) as reopened:
            assert journal_settings(reopened) == self.WAL_FULL
            assert reopened.possible_values("a", "k1") == frozenset({"v"})

    def test_through_the_fault_injecting_wrapper(self, tmp_path):
        from repro.faults import FaultInjectingBackend, FaultPolicy

        backend = FaultInjectingBackend(
            SqliteFileBackend(str(tmp_path / "poss.db")), FaultPolicy()
        )
        with PossStore(backend=backend) as store:
            assert journal_settings(store) == self.WAL_FULL

    def test_clean_close_leaves_only_the_database_file(self, tmp_path):
        path = tmp_path / "poss.db"
        store = PossStore(backend=SqliteFileBackend(str(path)))
        store.insert_explicit_beliefs([("a", "k1", "v")])
        assert (tmp_path / "poss.db-wal").exists()
        store.close()
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["poss.db"]


class TestDbApiBackend:
    def test_qmark_render_is_identity(self):
        backend = DbApiBackend(lambda: sqlite3.connect(":memory:"))
        sql = "SELECT V FROM POSS WHERE X = ? AND K = ?"
        assert backend.render(sql) == sql

    def test_format_render(self):
        backend = DbApiBackend(
            lambda: sqlite3.connect(":memory:"), paramstyle="format"
        )
        assert (
            backend.render("INSERT INTO POSS VALUES (?, ?, ?)")
            == "INSERT INTO POSS VALUES (%s, %s, %s)"
        )

    def test_numeric_render(self):
        backend = DbApiBackend(
            lambda: sqlite3.connect(":memory:"), paramstyle="numeric"
        )
        assert (
            backend.render("SELECT 1 WHERE X = ? AND K = ?")
            == "SELECT 1 WHERE X = :1 AND K = :2"
        )

    def test_named_paramstyles_rejected(self):
        with pytest.raises(BulkProcessingError):
            DbApiBackend(lambda: None, paramstyle="named")

    def test_default_dbapi_backend_is_thread_eligible(self):
        backend = DbApiBackend(lambda: None)
        assert backend.supports_concurrent_replay
        pinned = DbApiBackend(lambda: None, supports_concurrent_replay=False)
        assert not pinned.supports_concurrent_replay

    def test_store_runs_on_a_generic_dbapi_connection(self):
        # sqlite3 through the *generic* adapter, not the sqlite backend:
        # exercises the extension-point path end to end.
        backend = DbApiBackend(
            lambda: sqlite3.connect(":memory:"), name="generic-sqlite"
        )
        with PossStore(backend=backend) as store:
            assert store.backend_name == "generic-sqlite"
            store.insert_explicit_beliefs([("z", "k1", "v")])
            with store.transaction():
                store.copy_to_children("z", ["x", "y"])
            assert store.possible_values("y", "k1") == frozenset({"v"})
            assert store.transactions >= 2  # schema/load + run


class FakeCursor:
    """Minimal DB-API cursor that records every rendered statement."""

    rowcount = 0

    def __init__(self, connection: "FakeConnection") -> None:
        self._connection = connection

    def execute(self, sql, parameters=()):
        self._connection.statements.append((sql, tuple(parameters)))
        return self

    def executemany(self, sql, rows):
        for row in rows:
            self.execute(sql, row)
        return self

    def fetchall(self):
        return []

    def fetchone(self):
        return (0,)


class FakeConnection:
    """Minimal DB-API connection; ``autocommit`` mimics drivers that do not
    open an implicit transaction (every statement commits on its own)."""

    def __init__(self, autocommit: bool = False) -> None:
        self.autocommit = autocommit
        self.statements = []
        self.commits = 0
        self.rollbacks = 0
        self.closed = False

    def cursor(self) -> FakeCursor:
        return FakeCursor(self)

    def commit(self) -> None:
        self.commits += 1

    def rollback(self) -> None:
        self.rollbacks += 1

    def close(self) -> None:
        self.closed = True


class TestDbApiRenderingThroughTheStore:
    """The store's SQL as actually rendered for each supported paramstyle."""

    def _store_and_connection(self, paramstyle):
        connection = FakeConnection()
        backend = DbApiBackend(
            lambda: connection, paramstyle=paramstyle, name=f"fake-{paramstyle}"
        )
        return PossStore(backend=backend), connection

    def _bulk_sql(self, connection):
        return [
            sql
            for sql, _params in connection.statements
            if sql.startswith("INSERT INTO POSS")
        ]

    def test_qmark_statements_pass_through_unchanged(self):
        store, connection = self._store_and_connection("qmark")
        store.copy_from_parent("child", "parent")
        (sql,) = self._bulk_sql(connection)
        assert sql == (
            "INSERT INTO POSS (X, K, V) "
            "SELECT ?, t.K, t.V FROM POSS t WHERE t.X = ?"
        )

    def test_format_statements_render_percent_s(self):
        store, connection = self._store_and_connection("format")
        store.copy_to_children("parent", ["c1", "c2"])
        (sql,) = self._bulk_sql(connection)
        assert "?" not in sql
        assert sql.count("%s") == 3  # two child VALUES rows + parent probe
        assert "(VALUES (%s),(%s))" in sql

    def test_numeric_statements_render_positional_numbers(self):
        store, connection = self._store_and_connection("numeric")
        store.flood_component(["m1", "m2"], ["p1"])
        (sql,) = self._bulk_sql(connection)
        assert "?" not in sql
        assert "(VALUES (:1),(:2))" in sql
        assert "WHERE s.X IN (:3)" in sql

    def test_parameters_reach_the_cursor_in_textual_order(self):
        store, connection = self._store_and_connection("numeric")
        store.flood_component_skeptic(
            ["m"], ["p"], {"m": ["bad"]}
        )
        inserts = [
            (sql, params)
            for sql, params in connection.statements
            if sql.startswith("INSERT INTO POSS")
        ]
        assert len(inserts) == 2  # filtered flood + ⊥ statement
        _, bottom_params = inserts[1]
        # ⊥ scalar precedes the member list, matching textual placeholder order.
        assert bottom_params[0] == "__BOTTOM__"
        assert bottom_params[1:] == ("m", "p", "bad")

    def test_schema_statements_are_rendered_too(self):
        _store, connection = self._store_and_connection("format")
        assert any(
            sql.startswith("CREATE TABLE") for sql, _ in connection.statements
        )

    def _delta_sql(self, connection):
        return [
            (sql, params)
            for sql, params in connection.statements
            if sql.startswith(("DELETE FROM POSS", "INSERT INTO POSS (X, K, V) VALUES"))
        ]

    def test_numeric_delta_delete_renders_in_list_and_key(self):
        """The whole-user delta DELETE — ``X IN (…) AND K = ?``, a session's
        slice rebuild — through the numeric paramstyle: positions cover the IN list first,
        the key last, and the parameters arrive in that order."""
        store, connection = self._store_and_connection("numeric")
        store.delete_user_rows(["x1", "x2", "x3"], key="k7")
        ((sql, params),) = self._delta_sql(connection)
        assert "?" not in sql
        assert "WHERE X IN (:1,:2,:3)" in sql
        assert sql.endswith("AND K = :4")
        assert params == ("x1", "x2", "x3", "k7")
        assert store.delta_statements == 1

    def test_numeric_delta_delete_without_key_omits_the_key_clause(self):
        store, connection = self._store_and_connection("numeric")
        store.delete_user_rows(["a", "b"])
        ((sql, params),) = self._delta_sql(connection)
        assert sql == "DELETE FROM POSS WHERE X IN (:1,:2)"
        assert params == ("a", "b")

    def test_numeric_delta_delete_chunks_restart_numbering(self):
        """Chunked deletes (bound-variable limits) must re-render the
        placeholders per chunk — positions restart at :1 each time."""
        store, connection = self._store_and_connection("numeric")
        users = [f"x{i}" for i in range(501)]
        store.delete_user_rows(users, key="k0")
        statements = self._delta_sql(connection)
        assert len(statements) == 2  # 500 + 1
        first_sql, first_params = statements[0]
        second_sql, second_params = statements[1]
        assert first_sql.startswith("DELETE FROM POSS WHERE X IN (:1,")
        assert f":{500}" in first_sql and first_sql.endswith("AND K = :501")
        assert second_sql == "DELETE FROM POSS WHERE X IN (:1) AND K = :2"
        assert first_params == (*users[:500], "k0")
        assert second_params == ("x500", "k0")
        assert store.delta_statements == 2

    def test_numeric_row_delete_is_one_executemany_batch(self):
        """A session flush deletes exact ``(X, K, V)`` rows: one
        ``executemany`` batch, counted as one delta statement."""
        store, connection = self._store_and_connection("numeric")
        store.delete_user_rows(rows=[("u", "k0", "v"), ("w", 1, "z")])
        deletes = self._delta_sql(connection)
        assert [params for _sql, params in deletes] == [("u", "k0", "v"), ("w", "1", "z")]
        for sql, _params in deletes:
            assert sql == "DELETE FROM POSS WHERE X = :1 AND K = :2 AND V = :3"
        assert store.delta_statements == 1
        assert store.delete_user_rows(rows=[]) == 0
        assert store.delta_statements == 1

    def test_numeric_delta_insert_renders_row_placeholders(self):
        store, connection = self._store_and_connection("numeric")
        store.insert_rows([("u", "k0", "v"), ("w", "k1", "z")])
        inserts = self._delta_sql(connection)
        assert len(inserts) == 2  # executemany records one call per row
        for sql, params in inserts:
            assert sql == "INSERT INTO POSS (X, K, V) VALUES (:1, :2, :3)"
            assert len(params) == 3
        assert store.delta_statements == 1  # one executemany batch

    def test_transaction_begins_explicitly_and_rolls_back_on_autocommit(self):
        """The explicit-BEGIN path: on a connection without an implicit
        transaction, transaction() must issue BEGIN so rollback() has a
        transaction to undo."""
        connection = FakeConnection(autocommit=True)
        backend = DbApiBackend(lambda: connection, paramstyle="format")
        store = PossStore(backend=backend)
        commits_before = connection.commits
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.copy_from_parent("b", "a")
                raise RuntimeError("mid-run failure")
        assert ("BEGIN", ()) in connection.statements
        assert connection.rollbacks == 1
        assert connection.commits == commits_before  # nothing committed mid-run
        # And the commit path: BEGIN …statements… commit().
        with store.transaction():
            store.copy_from_parent("c", "a")
        assert connection.commits == commits_before + 1


class TestErrorClassification:
    """The single classification funnel: hook first, then generic rules."""

    def test_classifier_hook_takes_precedence(self):
        class OperationalError(Exception):
            """psycopg-style driver error (name-heuristic: transient)."""

        def classifier(error):
            if "server closed" in str(error):
                return BackendUnavailable
            return None

        backend = DbApiBackend(lambda: FakeConnection(), error_classifier=classifier)
        # The hook overrides the OperationalError name heuristic...
        assert (
            backend.classify_error(OperationalError("server closed the connection"))
            is BackendUnavailable
        )
        # ...and falls through to it when it declines.
        assert (
            backend.classify_error(OperationalError("deadlock detected"))
            is TransientBackendError
        )

    def test_mro_name_heuristics(self):
        class InterfaceError(Exception):
            pass

        class DatabaseError(Exception):
            pass

        backend = DbApiBackend(lambda: FakeConnection())
        assert backend.classify_error(InterfaceError("gone")) is BackendUnavailable
        assert backend.classify_error(DatabaseError("broken")) is BackendError
        assert backend.classify_error(ValueError("not a driver error")) is None

    def test_sqlite_over_dbapi_is_not_name_heuristic_transient(self):
        """sqlite raises OperationalError for plain SQL mistakes ("no such
        table"); the message-based sqlite rules must win over the
        OperationalError name heuristic, or programming errors would
        retry."""
        backend = DbApiBackend(lambda: FakeConnection())
        assert (
            backend.classify_error(sqlite3.OperationalError("no such table: NOPE"))
            is BackendError
        )
        assert (
            backend.classify_error(sqlite3.OperationalError("database is locked"))
            is TransientBackendError
        )

    def test_already_classified_errors_pass_through(self):
        backend = DbApiBackend(lambda: FakeConnection())
        assert (
            backend.classify_error(TransientBackendError("x"))
            is TransientBackendError
        )

    def test_raw_driver_errors_surface_classified_from_the_store(self):
        """End to end: a raw driver exception escaping a statement reaches
        the caller as a classified ``core.errors`` type, never raw."""
        with PossStore() as store:
            with pytest.raises(BackendError):
                store._execute("SELECT * FROM NO_SUCH_TABLE")


class RecordingDeadConnection(FakeConnection):
    """A fake connection that can die in place: once ``dead`` is set, every
    cursor operation raises an InterfaceError-named driver exception (the
    name heuristics classify it unavailable)."""

    class InterfaceError(Exception):
        pass

    def __init__(self) -> None:
        super().__init__()
        self.dead = False

    def cursor(self):
        if self.dead:
            raise self.InterfaceError("connection already closed")
        return _DeadableCursor(self)


class _DeadableCursor(FakeCursor):
    def execute(self, sql, parameters=()):
        if self._connection.dead:
            raise RecordingDeadConnection.InterfaceError(
                "connection already closed"
            )
        return super().execute(sql, parameters)


class TestRunStartHealthCheck:
    """Satellite: the executor health-checks (and reconnects once) at run
    start, so a died-while-idle connection heals before any statement."""

    def _resolver(self, connections):
        def factory():
            connection = RecordingDeadConnection()
            connections.append(connection)
            return connection

        backend = DbApiBackend(factory, name="fake-health")
        from repro.bulk.executor import BulkResolver
        from repro.workloads.bulkload import (
            BELIEF_USERS,
            figure19_network,
            generate_objects,
        )

        resolver = BulkResolver(
            figure19_network(),
            store=PossStore(backend=backend),
            explicit_users=BELIEF_USERS,
        )
        resolver.load_beliefs(generate_objects(2, seed=1))
        return resolver

    def test_dead_connection_reconnects_once_at_run_start(self):
        connections = []
        resolver = self._resolver(connections)
        assert len(connections) == 1
        connections[0].dead = True  # dies while idle, before the run
        resolver.run()
        # One reconnect: a second factory connection, schema re-run on it,
        # and the whole plan executed there.
        assert len(connections) == 2
        assert resolver.store.reconnects == 1
        replacement_sql = [sql for sql, _params in connections[1].statements]
        assert any(sql.startswith("CREATE TABLE") for sql in replacement_sql)
        assert any(sql.startswith("INSERT INTO POSS") for sql in replacement_sql)

    def test_still_dead_after_reconnect_raises_unavailable(self):
        connections = []
        resolver = self._resolver(connections)
        for connection in connections:
            connection.dead = True
        # Every future factory connection is dead on arrival too.
        original_cursor = RecordingDeadConnection.cursor

        def dead_cursor(self):
            raise RecordingDeadConnection.InterfaceError("no route to host")

        RecordingDeadConnection.cursor = dead_cursor
        try:
            with pytest.raises(BackendUnavailable):
                resolver.run()
        finally:
            RecordingDeadConnection.cursor = original_cursor
        assert resolver.store.reconnects <= 1


class TestBindParameterProbe:
    """The adaptive bind-capacity probe behind RegionLimits sizing.

    sqlite raised SQLITE_MAX_VARIABLE_NUMBER from 999 to 32766 in 3.32;
    modern drivers also expose the live limit via Connection.getlimit.  The
    probe must believe the engine, not the historic constant — and fall
    back to the conservative 999 floor when nothing can be learned.
    """

    class _Fake:
        """A DB-API-ish connection with configurable limit surfaces."""

        def __init__(self, getlimit=None, compile_options=()):
            self._getlimit = getlimit
            self._compile_options = tuple(compile_options)

        def getlimit(self, _category):
            if self._getlimit is None:
                raise AttributeError("getlimit unsupported")
            return self._getlimit

        def execute(self, sql):
            assert "compile_options" in sql
            return [(option,) for option in self._compile_options]

    def test_getlimit_wins_when_available(self):
        fake = self._Fake(getlimit=250_000)
        assert probe_max_bind_params(fake) == 250_000

    def test_pragma_compile_options_used_when_getlimit_missing(self):
        fake = self._Fake(compile_options=("MAX_VARIABLE_NUMBER=32766",))
        assert probe_max_bind_params(fake) == 32_766

    def test_old_engine_keeps_the_999_floor(self):
        fake = self._Fake(compile_options=("SOME_OTHER_OPTION",))
        assert (
            probe_max_bind_params(fake, version_info=(3, 8, 3))
            == DEFAULT_MAX_BIND_PARAMS
        )

    def test_modern_version_implies_the_32766_default(self):
        fake = self._Fake()
        assert probe_max_bind_params(fake, version_info=(3, 32, 0)) == 32_766
        assert probe_max_bind_params(fake, version_info=(3, 45, 1)) == 32_766

    def test_probe_never_reports_below_the_floor(self):
        fake = self._Fake(getlimit=100)
        assert (
            probe_max_bind_params(fake, version_info=(3, 8, 3))
            >= DEFAULT_MAX_BIND_PARAMS
        )

    def test_sqlite_backends_expose_the_probed_capacity(self, tmp_path):
        expected = sqlite_max_bind_params()
        assert expected >= DEFAULT_MAX_BIND_PARAMS
        assert SqliteMemoryBackend().max_bind_params == expected
        assert (
            SqliteFileBackend(str(tmp_path / "probe.db")).max_bind_params
            == expected
        )

    def test_probe_is_memoized_per_backend_instance(self, tmp_path):
        backend = SqliteFileBackend(str(tmp_path / "probe.db"))
        probes = []
        original = backend._probe_max_bind_params

        def counting_probe():
            probes.append(1)
            return original()

        backend._probe_max_bind_params = counting_probe
        first = backend.max_bind_params
        second = backend.max_bind_params
        assert first == second
        assert len(probes) == 1, "the probe must run once per backend instance"
        # A fresh instance probes again: memoization is per instance, not
        # a class-level cache that could leak across different servers.
        other = SqliteFileBackend(str(tmp_path / "probe2.db"))
        assert other._probed_bind_params is None
        assert other.max_bind_params == first

    def test_dbapi_backend_defaults_to_the_floor(self):
        backend = DbApiBackend(lambda: sqlite3.connect(":memory:"))
        assert backend.max_bind_params == DEFAULT_MAX_BIND_PARAMS

    def test_dbapi_backend_accepts_an_explicit_capacity(self):
        backend = DbApiBackend(
            lambda: sqlite3.connect(":memory:"), max_bind_params=65_535
        )
        assert backend.max_bind_params == 65_535

    def test_dbapi_backend_rejects_a_nonpositive_capacity(self):
        with pytest.raises(BulkProcessingError):
            DbApiBackend(lambda: sqlite3.connect(":memory:"), max_bind_params=0)

    def test_store_and_sharded_store_surface_the_backend_capacity(self):
        from repro.bulk.store import ShardedPossStore

        store = PossStore()
        assert store.max_bind_params == sqlite_max_bind_params()
        mixed = ShardedPossStore(
            2,
            backends=[
                SqliteMemoryBackend(),
                DbApiBackend(
                    lambda: sqlite3.connect(":memory:"), max_bind_params=1_000
                ),
            ],
        )
        # The sharded capacity is the weakest shard's: every region
        # statement must execute on every shard.
        assert mixed.max_bind_params == 1_000
        mixed.close()
        store.close()
