"""Tests for shard routing, the sharded store, and concurrent scatter/gather."""

from __future__ import annotations

import random
import threading

import pytest

from repro.bulk.backends import (
    DbApiBackend,
    ShardSpec,
    SqliteFileBackend,
    SqliteMemoryBackend,
)
from repro.bulk.executor import BulkResolver
from repro.bulk.store import ShardedPossStore
from repro.core.errors import BulkProcessingError
from repro.core.network import TrustNetwork
from repro.workloads.bulkload import BELIEF_USERS, figure19_network, generate_objects


class TestShardSpec:
    def test_hash_routing_is_deterministic_and_in_range(self):
        spec = ShardSpec.hashed(4)
        routes = [spec.shard_of(f"k{i}") for i in range(100)]
        assert routes == [spec.shard_of(f"k{i}") for i in range(100)]
        assert set(routes) <= {0, 1, 2, 3}
        # crc32 spreads the keys over all shards for any realistic count.
        assert len(set(routes)) == 4

    def test_hash_routing_does_not_use_randomized_hash(self):
        # crc32("k0") is stable across processes and platforms.
        import zlib

        spec = ShardSpec.hashed(3)
        assert spec.shard_of("k0") == zlib.crc32(b"k0") % 3

    def test_range_routing(self):
        spec = ShardSpec.ranged(["g", "p"])
        assert spec.count == 3
        assert spec.shard_of("a") == 0
        assert spec.shard_of("g") == 1  # boundaries are upper-exclusive
        assert spec.shard_of("k") == 1
        assert spec.shard_of("z") == 2

    def test_single_shard_spec(self):
        spec = ShardSpec.hashed(1)
        assert spec.shard_of("anything") == 0

    def test_invalid_specs_rejected(self):
        with pytest.raises(BulkProcessingError):
            ShardSpec(count=0)
        with pytest.raises(BulkProcessingError):
            ShardSpec(count=2, kind="modulo")
        with pytest.raises(BulkProcessingError):
            ShardSpec(count=3, kind="range", boundaries=("m",))
        with pytest.raises(BulkProcessingError):
            ShardSpec(count=3, kind="range", boundaries=("p", "g"))
        with pytest.raises(BulkProcessingError):
            # duplicate boundary: shard 1 could never receive a key
            ShardSpec.ranged(["m", "m"])
        with pytest.raises(BulkProcessingError):
            ShardSpec(count=2, kind="hash", boundaries=("m",))

    def test_partition_rows_routes_like_shard_of(self):
        spec = ShardSpec.hashed(3)
        rows = [("u", f"k{i}", "v") for i in range(30)]
        partitions = spec.partition_rows(rows)
        assert sum(len(p) for p in partitions) == 30
        for shard, partition in enumerate(partitions):
            assert all(spec.shard_of(key) == shard for _u, key, _v in partition)


class TestShardedPossStore:
    def test_int_shorthand_builds_hashed_spec(self):
        with ShardedPossStore(3) as store:
            assert store.spec == ShardSpec.hashed(3)
            assert len(store.shards) == 3

    def test_loading_routes_rows_by_key(self):
        with ShardedPossStore(ShardSpec.hashed(4)) as store:
            rows = [("x6", f"k{i}", f"v{i}") for i in range(40)]
            assert store.insert_explicit_beliefs(rows) == 40
            assert store.row_count() == 40
            assert sum(store.row_counts_per_shard()) == 40
            # Each key's rows live on exactly the shard the spec names.
            for _user, key, value in rows:
                owning = store.shards[store.spec.shard_of(key)]
                assert owning.possible_values("x6", key) == frozenset({value})

    def test_key_queries_route_to_owning_shard(self):
        with ShardedPossStore(4) as store:
            store.insert_explicit_beliefs([("x", "k7", "v")])
            assert store.possible_values("x", "k7") == frozenset({"v"})
            assert store.certain_values("x", "k7") == frozenset({"v"})
            assert store.shard_for("k7") is store.shards[store.spec.shard_of("k7")]

    def test_backend_count_must_match_spec(self):
        with pytest.raises(BulkProcessingError):
            ShardedPossStore(
                ShardSpec.hashed(3), backends=[SqliteMemoryBackend()] * 2
            )

    def test_backend_name_and_replay_capability(self, tmp_path):
        with ShardedPossStore(2) as memory_store:
            assert memory_store.backend_name == "sharded(sqlite-memoryx2)"
            assert not memory_store.supports_concurrent_replay
        backends = [
            SqliteFileBackend(str(tmp_path / f"shard{i}.db")) for i in range(2)
        ]
        with ShardedPossStore(2, backends=backends) as file_store:
            assert file_store.backend_name == "sharded(sqlite-filex2)"
            assert file_store.supports_concurrent_replay

    def test_transaction_commits_every_shard(self):
        with ShardedPossStore(2) as store:
            store.insert_explicit_beliefs([("a", "k0", "v"), ("a", "k1", "v")])
            transactions_before = store.transactions
            with store.transaction():
                assert store.in_transaction
                store.insert_rows([("b", "k0", "v"), ("b", "k1", "v")])
            assert not store.in_transaction
            assert store.transactions == transactions_before + 2
            assert store.possible_values("b", "k0") == frozenset({"v"})
            assert store.possible_values("b", "k1") == frozenset({"v"})

    def test_transaction_rolls_back_every_shard(self):
        with ShardedPossStore(2) as store:
            store.insert_explicit_beliefs([("a", "k0", "v"), ("a", "k1", "v")])
            before = sorted(store.possible_table())
            with pytest.raises(RuntimeError):
                with store.transaction():
                    store.insert_rows([("b", "k0", "v"), ("b", "k1", "v")])
                    raise RuntimeError("mid-run failure")
            assert sorted(store.possible_table()) == before
            for shard in store.shards:
                assert not shard.in_transaction

    def test_nested_transactions_rejected(self):
        with ShardedPossStore(2) as store:
            with store.transaction():
                with pytest.raises(BulkProcessingError):
                    with store.transaction():
                        pass  # pragma: no cover - never entered


class TestShardedBulkResolver:
    def test_matches_single_store_on_figure19(self, serialized_relation):
        network = figure19_network()
        rows = generate_objects(40, conflict_probability=0.5, seed=7)
        reference = BulkResolver(network, explicit_users=BELIEF_USERS)
        reference.load_beliefs(rows)
        reference.run()
        expected = serialized_relation(reference.store)
        reference.store.close()

        for shards in (1, 2, 4):
            resolver = BulkResolver(
                network, store=ShardedPossStore(shards), explicit_users=BELIEF_USERS
            )
            resolver.load_beliefs(rows)
            report = resolver.run()
            assert serialized_relation(resolver.store) == expected
            assert report.shards == shards
            assert report.transactions == shards
            assert report.statements_per_shard() == reference.plan.statement_count()
            assert report.dag_stages == resolver.plan.dag().stage_count
            assert sorted(report.per_shard_seconds) == [
                f"shard{i}" for i in range(shards)
            ]
            resolver.store.close()

    def test_range_sharding_matches_hash_sharding(self, serialized_relation):
        network = figure19_network()
        rows = generate_objects(30, seed=3)
        relations = []
        for spec in (ShardSpec.hashed(3), ShardSpec.ranged(["k2", "k5"])):
            resolver = BulkResolver(
                network, store=ShardedPossStore(spec), explicit_users=BELIEF_USERS
            )
            resolver.load_beliefs(rows)
            resolver.run()
            relations.append(serialized_relation(resolver.store))
            resolver.store.close()
        assert relations[0] == relations[1]

    def test_file_backed_shards_replay_on_threads(self, tmp_path, monkeypatch, serialized_relation):
        import repro.bulk.executor as executor_module

        spawned = []
        real_thread = threading.Thread

        class RecordingThread(real_thread):
            def __init__(self, *args, **kwargs):
                spawned.append(kwargs.get("name"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(executor_module.threading, "Thread", RecordingThread)
        network = figure19_network()
        rows = generate_objects(20, seed=5)
        backends = [
            SqliteFileBackend(str(tmp_path / f"shard{i}.db")) for i in range(2)
        ]
        store = ShardedPossStore(2, backends=backends)
        resolver = BulkResolver(
            network, store=store, explicit_users=BELIEF_USERS
        )
        resolver.load_beliefs(rows)
        report = resolver.run()
        assert spawned == ["shard0", "shard1"]
        assert report.shards == 2

        reference = BulkResolver(network, explicit_users=BELIEF_USERS)
        reference.load_beliefs(rows)
        reference.run()
        assert serialized_relation(store) == serialized_relation(reference.store)
        reference.store.close()
        store.close()

    def test_memory_shards_degrade_to_sequential(self, monkeypatch):
        import repro.bulk.executor as executor_module

        def no_threads(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("memory shards must not spawn replay threads")

        monkeypatch.setattr(executor_module.threading, "Thread", no_threads)
        resolver = BulkResolver(
            figure19_network(), store=ShardedPossStore(2), explicit_users=BELIEF_USERS
        )
        resolver.load_beliefs(generate_objects(10, seed=2))
        report = resolver.run()
        assert report.shards == 2
        assert report.rows_inserted > 0
        resolver.store.close()

    def test_failure_on_one_shard_rolls_back_all(self):
        resolver = BulkResolver(
            figure19_network(), store=ShardedPossStore(3), explicit_users=BELIEF_USERS
        )
        resolver.load_beliefs(generate_objects(15, seed=9))
        before = [sorted(shard.possible_table()) for shard in resolver.store.shards]

        victim = resolver.store.shards[1]

        def failing_copy(parent, children):
            raise BulkProcessingError("shard 1 lost its engine")

        victim.copy_to_children = failing_copy
        with pytest.raises(BulkProcessingError):
            resolver.run()
        after = [sorted(shard.possible_table()) for shard in resolver.store.shards]
        assert after == before
        assert not resolver.store.in_transaction
        resolver.store.close()

    def test_sequential_fallback_stops_replaying_after_a_failure(
        self, monkeypatch
    ):
        import repro.bulk.executor as executor_module

        resolver = BulkResolver(
            figure19_network(), store=ShardedPossStore(3), explicit_users=BELIEF_USERS
        )
        resolver.load_beliefs(generate_objects(10, seed=6))
        replayed = []

        def recording_lane(shard, *args, **kwargs):
            replayed.append(shard)
            raise BulkProcessingError("first shard dies")

        monkeypatch.setattr(executor_module, "_run_lane", recording_lane)
        with pytest.raises(BulkProcessingError):
            resolver.run()
        assert len(replayed) == 1  # shards 2 and 3 were never replayed
        resolver.store.close()

    def test_dbapi_shards_are_thread_eligible(self):
        import sqlite3

        backends = [
            DbApiBackend(
                lambda: sqlite3.connect(":memory:", check_same_thread=False),
                name="threadable-sqlite",
            )
            for _ in range(2)
        ]
        with ShardedPossStore(2, backends=backends) as store:
            assert store.supports_concurrent_replay
            resolver = BulkResolver(
                figure19_network(), store=store, explicit_users=BELIEF_USERS
            )
            resolver.load_beliefs(generate_objects(10, seed=4))
            report = resolver.run()
            assert report.shards == 2
            assert report.backend == "sharded(threadable-sqlitex2)"


def _random_network(rng, max_users: int = 9):
    """A random trust network plus the users carrying explicit beliefs."""
    n = rng.randint(4, max_users)
    users = [f"u{i}" for i in range(n)]
    tn = TrustNetwork()
    for user in users:
        tn.add_user(user)
    n_explicit = rng.randint(1, 2)
    explicit = users[:n_explicit]
    for child in users[n_explicit:]:
        parents = rng.sample([u for u in users if u != child], rng.randint(1, 2))
        priorities = (
            rng.sample([1, 2], len(parents))
            if rng.random() < 0.7
            else [1] * len(parents)
        )
        for parent, priority in zip(parents, priorities):
            tn.add_trust(child, parent, priority=priority)
    return tn, explicit


def _random_rows(rng, explicit, n_objects):
    rows = []
    for index in range(n_objects):
        key = f"k{index}"
        for user in explicit:
            rows.append((user, key, rng.choice(["v1", "v2", "v3"])))
    return rows


class TestShardedEquivalenceProperty:
    """Acceptance property: sharded concurrent execution is byte-identical to
    the single-store sequential path on randomized networks (≥ 200 networks
    × shard counts {1, 2, 4})."""

    NETWORKS = 200
    SHARD_COUNTS = (1, 2, 4)

    def test_sharded_execution_is_byte_identical_over_random_networks(self, serialized_relation):
        rng = random.Random(20100607)  # SIGMOD 2010 opening day
        for trial in range(self.NETWORKS):
            network, explicit = _random_network(rng)
            rows = _random_rows(rng, explicit, n_objects=rng.randint(2, 5))
            reference = BulkResolver(network, explicit_users=explicit)
            reference.load_beliefs(rows)
            reference.run()
            expected = serialized_relation(reference.store)
            reference.store.close()
            for shards in self.SHARD_COUNTS:
                resolver = BulkResolver(
                    network, store=ShardedPossStore(shards), explicit_users=explicit
                )
                resolver.load_beliefs(rows)
                report = resolver.run()
                observed = serialized_relation(resolver.store)
                assert observed == expected, (
                    f"trial {trial}, shards {shards}: sharded relation diverged"
                )
                assert (
                    report.statements_per_shard()
                    == reference.plan.statement_count()
                )
                resolver.store.close()
