"""Unit tests for the sqlite3-backed POSS(X, K, V) store."""

from __future__ import annotations

import re

import pytest

from repro.bulk.store import BOTTOM_VALUE, PossRow, PossStore
from repro.core.errors import (
    BackendError,
    BulkProcessingError,
    ShardUnavailable,
    TransientBackendError,
)
from repro.faults.retry import RetryPolicy


@pytest.fixture
def store():
    with PossStore() as s:
        yield s


class TestLoading:
    def test_insert_and_query(self, store):
        inserted = store.insert_explicit_beliefs(
            [("alice", "k1", "v"), ("bob", "k1", "w")]
        )
        assert inserted == 2
        assert store.possible_values("alice", "k1") == frozenset({"v"})
        assert store.possible_values("bob", "k1") == frozenset({"w"})
        assert store.possible_values("alice", "missing") == frozenset()

    def test_row_count_users_keys(self, store):
        store.insert_explicit_beliefs([("a", "k1", "v"), ("a", "k2", "w")])
        assert store.row_count() == 2
        assert store.users() == frozenset({"a"})
        assert store.keys() == frozenset({"k1", "k2"})

    def test_clear(self, store):
        store.insert_explicit_beliefs([("a", "k1", "v")])
        store.clear()
        assert store.row_count() == 0

    def test_values_are_stringified(self, store):
        store.insert_explicit_beliefs([("a", 1, 2)])
        assert store.possible_values("a", 1) == frozenset({"2"})


class TestBulkStatements:
    def test_copy_from_parent(self, store):
        store.insert_explicit_beliefs([("z", "k1", "v"), ("z", "k2", "w")])
        copied = store.copy_from_parent("x", "z")
        assert copied == 2
        assert store.possible_values("x", "k1") == frozenset({"v"})
        assert store.possible_values("x", "k2") == frozenset({"w"})

    def test_copy_to_children_fills_every_child_in_one_statement(self, store):
        store.insert_explicit_beliefs([("z", "k1", "v"), ("z", "k2", "w")])
        statements_before = store.bulk_statements
        copied = store.copy_to_children("z", ["x", "y"])
        assert copied == 4
        assert store.bulk_statements == statements_before + 1
        for child in ("x", "y"):
            assert store.possible_values(child, "k1") == frozenset({"v"})
            assert store.possible_values(child, "k2") == frozenset({"w"})

    def test_copy_to_children_single_child_matches_copy_from_parent(self, store):
        store.insert_explicit_beliefs([("z", "k1", "v")])
        assert store.copy_to_children("z", ["x"]) == 1
        assert store.possible_values("x", "k1") == frozenset({"v"})

    def test_copy_to_children_without_children_is_noop(self, store):
        statements_before = store.bulk_statements
        assert store.copy_to_children("z", []) == 0
        assert store.bulk_statements == statements_before

    def test_flood_component_unions_parent_values(self, store):
        store.insert_explicit_beliefs(
            [("z1", "k1", "v"), ("z2", "k1", "w"), ("z1", "k2", "v"), ("z2", "k2", "v")]
        )
        store.flood_component(["x", "y"], ["z1", "z2"])
        assert store.possible_values("x", "k1") == frozenset({"v", "w"})
        assert store.possible_values("y", "k1") == frozenset({"v", "w"})
        assert store.possible_values("x", "k2") == frozenset({"v"})

    def test_flood_component_without_parents_is_noop(self, store):
        assert store.flood_component(["x"], []) == 0

    def test_flood_component_skeptic_inserts_bottom_for_blocked_values(self, store):
        store.insert_explicit_beliefs([("z", "k1", "v"), ("z", "k2", "w")])
        store.flood_component_skeptic(["x"], ["z"], {"x": ["v"]})
        assert store.possible_values("x", "k1") == frozenset({BOTTOM_VALUE})
        assert store.possible_values("x", "k2") == frozenset({"w"})

    def test_flood_component_skeptic_without_blocked_values(self, store):
        store.insert_explicit_beliefs([("z", "k1", "v")])
        store.flood_component_skeptic(["x"], ["z"], {})
        assert store.possible_values("x", "k1") == frozenset({"v"})


class TestAggregates:
    def test_certain_snapshot_and_conflicts(self, store):
        store.insert_explicit_beliefs(
            [("a", "k1", "v"), ("a", "k2", "v"), ("a", "k2", "w")]
        )
        snapshot = store.certain_snapshot()
        assert snapshot[("a", "k1")] == "v"
        assert ("a", "k2") not in snapshot
        assert store.conflict_count() == 1
        assert store.certain_values("a", "k1") == frozenset({"v"})
        assert store.certain_values("a", "k2") == frozenset()

    def test_possible_table_keeps_every_stored_row(self, store):
        """The equivalence oracles read this: a duplicate cannot hide in it,
        because the store refuses to write one."""
        store.retry_policy = RetryPolicy.none()
        with pytest.raises(BackendError) as excinfo:
            store.insert_explicit_beliefs([("a", "k1", "v"), ("a", "k1", "v")])
        assert not isinstance(excinfo.value, TransientBackendError)
        store.insert_explicit_beliefs([("a", "k1", "v"), ("a", "k2", "v")])
        assert sorted(store.possible_table()) == [
            PossRow("a", "k1", "v"),
            PossRow("a", "k2", "v"),
        ]
        assert store.possible_values("a", "k1") == frozenset({"v"})


class TestDeltaStatements:
    """The incremental engine's DELETE/INSERT path (repro.incremental)."""

    def test_insert_rows_counts_one_statement(self, store):
        assert store.delta_statements == 0
        inserted = store.insert_rows([("a", "k1", "v"), ("a", "k2", "w")])
        assert inserted == 2
        assert store.delta_statements == 1
        assert store.possible_values("a", "k1") == frozenset({"v"})
        assert store.insert_rows([]) == 0
        assert store.delta_statements == 1  # empty batches are free

    def test_delete_user_rows_all_keys(self, store):
        store.insert_rows([("a", "k1", "v"), ("a", "k2", "w"), ("b", "k1", "x")])
        deleted = store.delete_user_rows(["a"])
        assert deleted == 2
        assert store.possible_values("a", "k1") == frozenset()
        assert store.possible_values("b", "k1") == frozenset({"x"})
        assert store.delta_statements == 2

    def test_delete_user_rows_scoped_to_one_key(self, store):
        store.insert_rows([("a", "k1", "v"), ("a", "k2", "w")])
        assert store.delete_user_rows(["a"], key="k1") == 1
        assert store.possible_values("a", "k1") == frozenset()
        assert store.possible_values("a", "k2") == frozenset({"w"})
        assert store.delete_user_rows([], key="k1") == 0

    def test_delete_rows_removes_exactly_the_named_rows(self, store):
        store.insert_rows([("a", "k1", "v"), ("a", "k1", "w"), ("a", "k2", "v")])
        assert store.delete_user_rows(rows=[("a", "k1", "v"), ("a", "k1", "gone")]) == 1
        assert store.possible_values("a", "k1") == frozenset({"w"})
        assert store.possible_values("a", "k2") == frozenset({"v"})
        assert store.delta_statements == 2  # one INSERT batch, one DELETE batch
        assert store.delete_user_rows(rows=[]) == 0
        with pytest.raises(BulkProcessingError, match="either rows"):
            store.delete_user_rows(["a"], rows=[("a", "k1", "w")])

    def test_delta_statements_join_run_transactions(self, store):
        store.insert_rows([("a", "k1", "v")])
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.delete_user_rows(["a"])
                store.insert_rows([("a", "k1", "replacement")])
                raise RuntimeError("mid-apply failure")
        # Both delta statements rolled back with the transaction.
        assert store.possible_values("a", "k1") == frozenset({"v"})


class TestShardedDeltaStatements:
    def test_key_scoped_delete_routes_to_owning_shard(self):
        from repro.bulk.store import ShardedPossStore

        store = ShardedPossStore(3)
        store.insert_rows([("a", "k1", "v"), ("a", "k2", "w"), ("b", "k1", "x")])
        owning = store.shard_for("k1")
        before = [shard.delta_statements for shard in store.shards]
        assert store.delete_user_rows(["a"], key="k1") == 1
        after = [shard.delta_statements for shard in store.shards]
        assert sum(after) - sum(before) == 1  # only the owning shard moved
        assert owning.delta_statements == after[store.spec.shard_of("k1")]
        assert store.possible_values("a", "k2") == frozenset({"w"})
        store.close()

    def test_row_delete_routes_each_row_to_its_keys_shard(self):
        from repro.bulk.store import ShardedPossStore

        store = ShardedPossStore(2)
        keys = ["k0", "k1", "k4"]
        store.insert_rows([("a", key, "v") for key in keys] + [("b", "k0", "v")])
        assert store.delete_user_rows(rows=[("a", key, "v") for key in keys]) == 3
        assert store.possible_table() == [PossRow("b", "k0", "v")]
        store.quarantine(store.spec.shard_of("k0"))
        with pytest.raises(ShardUnavailable):
            store.delete_user_rows(rows=[("b", "k0", "v")])
        store.close()

    def test_unscoped_delete_fans_out(self):
        from repro.bulk.store import ShardedPossStore

        store = ShardedPossStore(2)
        store.insert_rows([("a", "k1", "v"), ("a", "k2", "w")])
        assert store.delete_user_rows(["a"]) == 2
        assert store.row_count() == 0
        assert store.delta_statements >= 2
        store.close()

    def test_insert_rows_partitions_by_key(self):
        from repro.bulk.store import ShardedPossStore

        store = ShardedPossStore(2)
        rows = [("u", f"k{i}", "v") for i in range(8)]
        assert store.insert_rows(rows) == 8
        for i in range(8):
            shard = store.shard_for(f"k{i}")
            assert shard.possible_values("u", f"k{i}") == frozenset({"v"})
        assert store.row_count() == 8
        store.close()


#: Every store statement that reads or deletes individual users' rows, by
#: name: the read path, the replay statements, the compiled region shapes
#: and the delta flush.
_PER_USER_STATEMENTS = {
    "possible_values": lambda s: s.possible_values("z", "k1"),
    "copy_from_parent": lambda s: s.copy_from_parent("a", "z"),
    "copy_to_children": lambda s: s.copy_to_children("z", ["b", "c"]),
    "flood_component": lambda s: s.flood_component(["m1", "m2"], ["z", "q"]),
    "flood_component_skeptic": lambda s: s.flood_component_skeptic(
        ["n1", "n2"], ["z", "q"], {"n1": ["v"]}
    ),
    "copy_region": lambda s: s.copy_region([("d", "z"), ("e", "z")]),
    "flood_stage": lambda s: s.flood_stage([("f", "z"), ("f", "q"), ("g", "z")]),
    "blocked_flood": lambda s: s.blocked_flood(
        [("h", "z"), ("h", "q")], [("h", "v")]
    ),
    "delete_user_rows": lambda s: s.delete_user_rows(["z", "q"]),
    "delete_user_rows_for_key": lambda s: s.delete_user_rows(["z"], key="k1"),
}


class TestPlanShape:
    """No per-user statement scans POSS.

    Every such statement filters on ``X`` or ``(X, K)``, so each of its
    reads of ``POSS`` must be a search of the ``(X, K, V)`` primary key,
    the b-tree that holds the rows of the ``WITHOUT ROWID`` table.  A
    schema change that turns one of these probes into a table scan fails
    here rather than only as a slower benchmark.
    """

    @pytest.mark.parametrize("name", sorted(_PER_USER_STATEMENTS))
    def test_statement_searches_the_primary_key(self, name, store, monkeypatch):
        store.insert_explicit_beliefs(
            [("z", "k1", "v"), ("z", "k2", "w"), ("q", "k1", "u"), ("q", "k2", "u")]
        )
        issued = []
        execute = store._execute

        def recording(sql, parameters=(), rendered=None):
            issued.append((rendered or sql, tuple(parameters)))
            return execute(sql, parameters, rendered)

        monkeypatch.setattr(store, "_execute", recording)
        _PER_USER_STATEMENTS[name](store)
        statements = [(sql, params) for sql, params in issued if "POSS " in sql]
        assert statements
        for sql, params in statements:
            plan = [
                row[3]
                for row in store._connection.execute(
                    "EXPLAIN QUERY PLAN " + sql, params
                )
            ]
            reads = len(re.findall(r"\b(?:FROM|JOIN) POSS\b", sql))
            searches = [
                line
                for line in plan
                if re.match(r"SEARCH \w+ USING PRIMARY KEY \(X=", line)
            ]
            assert len(searches) == reads, (sql, plan)
            assert not any(line.startswith("SCAN POSS") for line in plan), plan
