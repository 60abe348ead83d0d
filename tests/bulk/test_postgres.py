"""The bulk suite against a real client/server engine (ROADMAP item (a)).

These tests drive the whole bulk path — store, transactions, resolvers,
sharding — through :class:`~repro.bulk.backends.DbApiBackend` on PostgreSQL
(psycopg, ``format`` paramstyle).  They are gated on ``REPRO_PG_DSN``; the
CI postgres service-container job sets it (see ``.github/workflows/ci.yml``),
and locally::

    REPRO_PG_DSN="dbname=repro user=repro password=repro host=localhost" \
        PYTHONPATH=src python -m pytest -q tests/bulk/test_postgres.py

Shards are placed on separate PostgreSQL *schemas* of the one database
(``search_path``-scoped connections), demonstrating the backend-per-shard
seam without needing several servers.
"""

from __future__ import annotations

import os

import pytest

from repro.bulk.backends import DbApiBackend, ShardSpec
from repro.bulk.executor import BulkResolver
from repro.bulk.store import PossStore, ShardedPossStore
from repro.core.network import TrustNetwork
from repro.core.resolution import resolve
from repro.incremental.deltas import AddTrust, RemoveUser, SetBelief
from repro.incremental.session import IncrementalSession
from repro.workloads.bulkload import BELIEF_USERS, figure19_network, generate_objects

DSN = os.environ.get("REPRO_PG_DSN", "")

pytestmark = pytest.mark.skipif(
    not DSN, reason="set REPRO_PG_DSN to run the bulk suite against PostgreSQL"
)

if DSN:  # pragma: no branch - import only attempted when gated on
    psycopg = pytest.importorskip(
        "psycopg", reason="REPRO_PG_DSN is set but psycopg is not installed"
    )


def pg_backend(schema: str = "public") -> DbApiBackend:
    """A psycopg backend whose connections are scoped to one schema."""

    def connect():
        connection = psycopg.connect(DSN)
        with connection.cursor() as cursor:
            cursor.execute(f"CREATE SCHEMA IF NOT EXISTS {schema}")
            cursor.execute(f"SET search_path TO {schema}")
        connection.commit()
        return connection

    return DbApiBackend(
        connect, paramstyle="format", name=f"pg-{schema}", dialect="postgres"
    )


@pytest.fixture
def pg_store():
    store = PossStore(backend=pg_backend())
    store.clear()
    yield store
    store.clear()
    store.close()


class TestPostgresStore:
    def test_bulk_statements_round_trip(self, pg_store):
        pg_store.insert_explicit_beliefs([("z", "k1", "v"), ("z", "k2", "w")])
        pg_store.copy_to_children("z", ["x", "y"])
        pg_store.flood_component(["f"], ["z", "x"])
        assert pg_store.possible_values("x", "k1") == frozenset({"v"})
        assert pg_store.possible_values("y", "k2") == frozenset({"w"})
        assert pg_store.possible_values("f", "k1") == frozenset({"v"})

    def test_transaction_rolls_back_on_error(self, pg_store):
        pg_store.insert_explicit_beliefs([("a", "k1", "v")])
        with pytest.raises(RuntimeError):
            with pg_store.transaction():
                pg_store.copy_from_parent("b", "a")
                raise RuntimeError("mid-run failure")
        assert pg_store.possible_values("b", "k1") == frozenset()
        assert pg_store.possible_values("a", "k1") == frozenset({"v"})

    def test_skeptic_flood_inserts_bottom(self, pg_store):
        pg_store.insert_explicit_beliefs([("p", "k1", "bad"), ("p", "k2", "ok")])
        pg_store.flood_component_skeptic(["q"], ["p"], {"q": ["bad"]})
        assert pg_store.possible_values("q", "k1") == frozenset({"__BOTTOM__"})
        assert pg_store.possible_values("q", "k2") == frozenset({"ok"})


class TestPostgresResolvers:
    def test_bulk_resolution_matches_sqlite(self, pg_store, serialized_relation):
        network = figure19_network()
        rows = generate_objects(30, conflict_probability=0.5, seed=13)

        reference = BulkResolver(network, explicit_users=BELIEF_USERS)
        reference.load_beliefs(rows)
        reference.run()
        expected = serialized_relation(reference.store)
        reference.store.close()

        resolver = BulkResolver(
            network, store=pg_store, explicit_users=BELIEF_USERS
        )
        resolver.load_beliefs(rows)
        report = resolver.run()
        assert report.backend == "pg-public"
        assert report.transactions == 1
        assert serialized_relation(pg_store) == expected

    def test_concurrent_sharded_resolution_over_schemas(self, serialized_relation):
        """Scatter/gather with one PostgreSQL schema per shard — the
        client/server engine supports threaded replay, so this exercises
        the genuinely concurrent path."""
        network = figure19_network()
        rows = generate_objects(40, conflict_probability=0.5, seed=17)

        reference = BulkResolver(network, explicit_users=BELIEF_USERS)
        reference.load_beliefs(rows)
        reference.run()
        expected = serialized_relation(reference.store)
        reference.store.close()

        backends = [pg_backend(f"repro_shard{i}") for i in range(3)]
        store = ShardedPossStore(ShardSpec.hashed(3), backends=backends)
        store.clear()
        assert store.supports_concurrent_replay
        resolver = BulkResolver(
            network, store=store, explicit_users=BELIEF_USERS
        )
        resolver.load_beliefs(rows)
        report = resolver.run()
        assert report.shards == 3
        assert report.transactions == 3
        assert report.statements_per_shard() == resolver.plan.statement_count()
        assert serialized_relation(store) == expected
        store.clear()
        store.close()

    def test_compiled_execution_matches_replay_with_fewer_statements(
        self, pg_store, serialized_relation
    ):
        """Ancestor-join copy regions and DISTINCT flood stages on a real
        PostgreSQL: byte-identical to replay, in far fewer statements."""
        network = figure19_network()
        rows = generate_objects(25, conflict_probability=0.5, seed=19)

        reference = BulkResolver(network, explicit_users=BELIEF_USERS)
        reference.load_beliefs(rows)
        replay_report = reference.run()
        expected = serialized_relation(reference.store)
        reference.store.close()

        assert pg_store.supports_compiled_regions
        resolver = BulkResolver(
            network, store=pg_store, explicit_users=BELIEF_USERS,
            scheduler="compiled",
        )
        resolver.load_beliefs(rows)
        report = resolver.run()
        assert serialized_relation(pg_store) == expected
        assert report.scheduler == "compiled"
        assert report.regions_compiled == resolver.compiled.region_count
        assert report.statements < replay_report.statements
        assert report.statements_saved > 0

    def test_skeptic_compiled_blocked_floods_match_replay(
        self, pg_store, serialized_relation
    ):
        """Blocked-flood regions (anti-joined DISTINCT pass + ⊥ branch) on a
        real PostgreSQL: Skeptic resolution under the compiled scheduler is
        byte-identical to the statement-at-a-time replay and pushes the constrained
        floods down as single statements."""
        from repro.bulk.executor import SkepticBulkResolver
        from repro.workloads.bulkload import skeptic_chain_network

        network, constraints = skeptic_chain_network(40)
        rows = [
            (user, f"k{i}", f"a{4 * (i % 9 + 1)}" if i % 2 else f"b{i}")
            for i in range(5)
            for user in BELIEF_USERS
        ]

        reference = SkepticBulkResolver(
            network,
            positive_users=BELIEF_USERS,
            negative_constraints=constraints,
        )
        reference.load_beliefs(rows)
        replay_report = reference.run()
        expected = serialized_relation(reference.store)
        reference.store.close()

        resolver = SkepticBulkResolver(
            network,
            positive_users=BELIEF_USERS,
            negative_constraints=constraints,
            store=pg_store,
            scheduler="compiled",
        )
        resolver.load_beliefs(rows)
        report = resolver.run()
        assert serialized_relation(pg_store) == expected
        assert report.scheduler == "compiled"
        kinds = {region.kind for region in resolver.compiled.regions}
        assert "blocked_flood" in kinds
        assert report.regions_compiled > 0
        assert report.statements < replay_report.statements
        assert report.statements_saved > 0


class TestPostgresDeltaApply:
    """The incremental delta path (repro.incremental) on a real engine."""

    def test_delta_statements_round_trip(self, pg_store):
        pg_store.insert_rows([("a", "k1", "v"), ("a", "k2", "w"), ("b", "k1", "x")])
        assert pg_store.delete_user_rows(["a"], key="k1") == 1
        assert pg_store.possible_values("a", "k1") == frozenset()
        assert pg_store.possible_values("a", "k2") == frozenset({"w"})
        assert pg_store.delta_statements == 2

    def test_session_delta_apply_matches_full_reload(
        self, pg_store, serialized_relation, oscillator_network
    ):
        session = IncrementalSession(oscillator_network, store=pg_store)
        report = session.apply(SetBelief("x4", "v"), AddTrust("x5", "x1", 9))
        assert report.transactions == 1
        assert report.backend == "pg-public"
        assert report.rows_inserted > 0

        fresh = PossStore()
        fresh.insert_rows(session.rows())
        assert serialized_relation(pg_store) == serialized_relation(fresh)
        # Cross-check against a from-scratch resolution: session resolvers
        # are belief-detached, so the oracle takes the resolver's beliefs.
        oracle_network = TrustNetwork(
            users=session.network.users,
            mappings=session.network.mappings,
            explicit_beliefs=dict(session.resolver().beliefs),
        )
        assert session.resolver().possible == resolve(oracle_network).possible
        fresh.close()

    def test_sharded_delta_apply_over_schemas(
        self, serialized_relation, oscillator_network
    ):
        """Sharded delta application: key-routed deltas land on their owning
        schema-shard inside one all-or-nothing per-shard transaction."""
        backends = [pg_backend(f"repro_delta_shard{i}") for i in range(2)]
        store = ShardedPossStore(ShardSpec.hashed(2), backends=backends)
        store.clear()
        session = IncrementalSession(
            oscillator_network, store=store, keys=("k0", "k1", "k2")
        )
        report = session.apply(SetBelief("x4", "v", key="k1"))
        assert report.transactions == 2  # one per shard
        report = session.apply(RemoveUser("x4"))  # structural: every key
        assert report.keys == 3

        fresh = PossStore()
        fresh.insert_rows(session.rows())
        assert serialized_relation(store) == serialized_relation(fresh)
        fresh.close()
        store.clear()
        store.close()


class TestPostgresEngine:
    """The unified engine round trip on a real client/server store."""

    def test_engine_round_trip(self, pg_store, serialized_relation):
        from repro.engine import ResolutionEngine

        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("c", "b", priority=1)
        tn.set_explicit_belief("a", "v")
        # No context manager: the pg_store fixture owns the connection.
        engine = ResolutionEngine.open(tn, store=pg_store)
        resolved = engine.resolve()
        assert resolved.resolutions["k0"].possible["c"] == frozenset({"v"})
        report = engine.materialize()
        assert report.backend == "pg-public"
        assert report.transactions == 1
        report = engine.apply(SetBelief("a", "w"), AddTrust("d", "c", 1))
        assert report.plan_source == "patched"
        assert engine.query("d") == frozenset({"w"})
        # The maintained relation equals a fresh load of the in-memory
        # state, and re-materializing the patched plan reproduces it.
        fresh = PossStore()
        fresh.insert_rows(engine._session.rows())
        expected = serialized_relation(fresh)
        fresh.close()
        assert serialized_relation(pg_store) == expected
        engine.materialize()
        assert serialized_relation(pg_store) == expected

    @pytest.mark.parametrize("sharded", (False, True))
    def test_warm_materialize_loads_the_belief_relation(
        self, pg_store, serialized_relation, sharded
    ):
        """A cold materialize writes ``BELIEF``, a belief apply rewrites its
        slot in the flush's transaction, and the warm materialize copies
        it with one ``INSERT … SELECT`` per shard: the relation equals a
        fresh load of the in-memory state."""
        from repro.engine import ResolutionEngine

        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("c", "b", priority=1)
        tn.add_trust("c", "e", priority=2)
        tn.set_explicit_belief("a", "v")
        tn.set_explicit_belief("e", "x")
        keys = ("k0", "k1", "k4")
        if sharded:
            backends = [pg_backend(f"repro_belief_shard{i}") for i in range(2)]
            store = ShardedPossStore(ShardSpec.hashed(2), backends=backends)
            store.clear()
        else:
            store = pg_store
        beliefs = {key: {"a": "v", "e": f"x-{key}"} for key in keys}
        engine = ResolutionEngine.open(tn, store=store, keys=keys, beliefs_by_key=beliefs)
        assert engine.materialize(compiled=True).bulk.objects == len(keys)
        report = engine.apply(SetBelief("e", "y", key="k1"), SetBelief("a", "w", key="k4"))
        assert report.transactions == (2 if sharded else 1)
        session = engine._session
        assert session.beliefs_stored
        stored = sorted((r.user, r.key, r.value) for r in store.belief_table())
        assert stored == session.belief_rows()
        fresh = PossStore()
        fresh.insert_rows(session.rows())
        expected = serialized_relation(fresh)
        fresh.close()
        assert serialized_relation(store) == expected
        warm = engine.materialize(compiled=True)
        assert warm.bulk.objects == 0  # copied from BELIEF, not handed rows
        assert serialized_relation(store) == expected
        if sharded:
            store.clear()
            store.close()
