"""Shard quarantine and graceful degradation: store, session, engine.

With 2 hash-routed shards, ``k0``..``k3`` route to shard 1 and ``k4``..
``k7`` to shard 0 — the tests below rely on ``k0`` (shard 1) and ``k4``
(shard 0) to address each side.
"""

from __future__ import annotations

import pytest

from repro.bulk.backends import SqliteMemoryBackend
from repro.core.errors import (
    BackendError,
    BulkProcessingError,
    ShardUnavailable,
    TransientBackendError,
)
from repro.core.network import TrustNetwork
from repro.bulk.store import PossStore, ShardedPossStore
from repro.engine import ResolutionEngine
from repro.faults import FaultInjectingBackend, FaultPolicy, RetryPolicy, ScriptedFault
from repro.incremental.deltas import SetBelief
from repro.incremental.session import IncrementalSession

KEYS = ("k0", "k4")  # one key per shard under ShardSpec.hashed(2)


def chain_network() -> TrustNetwork:
    tn = TrustNetwork()
    tn.add_trust("mirror", "source", priority=2)
    tn.add_trust("mirror", "backup", priority=1)
    tn.add_trust("copy", "mirror", priority=1)
    tn.set_explicit_belief("source", "v")
    tn.set_explicit_belief("backup", "w")
    return tn


def stored_beliefs(store):
    """The serving shards' ``BELIEF`` rows, as sorted triples."""
    return sorted((row.user, row.key, row.value) for row in store.belief_table())


def loaded_store() -> ShardedPossStore:
    store = ShardedPossStore(2)
    store.insert_explicit_beliefs(
        [("a", key, "v") for key in KEYS] + [("b", key, "w") for key in KEYS]
    )
    return store


class TestStoreQuarantine:
    def test_quarantine_marks_and_heal_clears(self):
        with ShardedPossStore(2) as store:
            assert store.degraded_shards == ()
            store.quarantine(1)
            assert store.is_degraded(1)
            assert not store.is_degraded(0)
            assert store.degraded_shards == (1,)
            store.heal(1)  # the in-memory shard still answers: heal clears
            assert store.degraded_shards == ()

    def test_out_of_range_index_rejected(self):
        with ShardedPossStore(2) as store:
            with pytest.raises(BulkProcessingError):
                store.quarantine(2)
            with pytest.raises(BulkProcessingError):
                store.heal(-1)
            with pytest.raises(BulkProcessingError):
                store.is_degraded(5)

    def test_key_routed_reads_fail_typed(self):
        with loaded_store() as store:
            store.quarantine(1)
            with pytest.raises(ShardUnavailable) as excinfo:
                store.possible_values("a", "k0")
            assert excinfo.value.shard == 1
            assert "k0" in excinfo.value.keys
            # The healthy shard's keys keep answering.
            assert store.possible_values("a", "k4") == frozenset({"v"})

    def test_shard_for_raises_on_degraded(self):
        with loaded_store() as store:
            store.quarantine(1)
            with pytest.raises(ShardUnavailable) as excinfo:
                store.shard_for("k0")
            assert excinfo.value.shard == 1
            assert excinfo.value.keys == ("k0",)
            assert store.shard_for("k4") is store.shards[0]

    def test_whole_relation_reads_skip_degraded(self):
        with loaded_store() as store:
            full = len(store.possible_table())
            store.quarantine(1)
            rows = store.possible_table()
            assert 0 < len(rows) < full
            assert {row.key for row in rows} == {"k4"}
            assert store.keys() == frozenset({"k4"})
            assert store.row_count() == len(rows)

    def test_whole_relation_writes_require_all_shards(self):
        with loaded_store() as store:
            store.quarantine(1)
            with pytest.raises(ShardUnavailable) as excinfo:
                store.clear()
            assert excinfo.value.shard == 1
            with pytest.raises(ShardUnavailable):
                store.delete_user_rows(["a"])  # keyless fan-out delete

    def test_key_routed_writes_respect_quarantine(self):
        with loaded_store() as store:
            store.quarantine(1)
            # Healthy shard: key-addressed delta statements still land.
            assert store.delete_user_rows(["a"], key="k4") == 1
            assert store.insert_rows([("a", "k4", "z")]) == 1
            # Dead shard's key: typed failure naming shard and key.
            with pytest.raises(ShardUnavailable) as excinfo:
                store.insert_rows([("a", "k0", "z")])
            assert excinfo.value.shard == 1
            assert excinfo.value.keys == ("k0",)

    def test_dead_shard_is_auto_quarantined(self, kill_shard):
        store = loaded_store()
        kill_shard(store, 1, dead_connects=1)
        with pytest.raises(ShardUnavailable) as excinfo:
            store.ensure_available()
        assert excinfo.value.shard == 1
        assert store.degraded_shards == (1,)
        # Faults exhausted: heal() reconnects — to a fresh, empty
        # in-memory database (recovering the content is recover_shard's
        # job, not heal's).
        store.heal(1)
        assert store.degraded_shards == ()
        assert store.shards[1].row_count() == 0
        store.close()

    def test_heal_keeps_still_dead_shard_quarantined(self, kill_shard):
        store = loaded_store()
        kill_shard(store, 1, dead_connects=4)
        store.quarantine(1)
        with pytest.raises(ShardUnavailable):
            store.heal(1)  # reconnect fails: still quarantined
        assert store.degraded_shards == (1,)
        store.close()


class TestSessionDegradedFlush:
    def _twin_sessions(self):
        """A faulted session and its fault-free twin, identically loaded."""
        faulted = IncrementalSession(
            chain_network(), store=ShardedPossStore(2), keys=KEYS
        )
        clean = IncrementalSession(
            chain_network(), store=ShardedPossStore(2), keys=KEYS
        )
        return faulted, clean

    def test_flush_degrades_around_dead_shard(self, kill_shard, serialized_relation):
        faulted, clean = self._twin_sessions()
        deltas = tuple(SetBelief("source", "z", key=key) for key in KEYS)
        kill_shard(faulted.store, 1)
        report = faulted.apply(*deltas)
        assert report.recovered is True
        assert faulted.store.degraded_shards == (1,)
        assert faulted.pending_shards() == (1,)
        # The healthy shard landed its delta; its slice matches the twin's.
        clean.apply(*deltas)
        assert serialized_relation(faulted.store.shards[0]) == serialized_relation(
            clean.store.shards[0]
        )
        # The dead shard's key fails typed, in-memory answers still serve.
        with pytest.raises(ShardUnavailable):
            faulted.store.possible_values("copy", "k0")
        assert faulted.possible_values("copy", "k0") == frozenset({"z"})
        faulted.close()
        clean.close()

    def test_recover_shard_rebuilds_lost_slice(self, kill_shard, serialized_relation):
        faulted, clean = self._twin_sessions()
        # dead_connects=0: the flush attribution only pings (never
        # reconnects), so the first reconnect is recover_shard's heal —
        # which must succeed here, onto a fresh empty database.
        kill_shard(faulted.store, 1, dead_connects=0)
        deltas = tuple(SetBelief("source", "z", key=key) for key in KEYS)
        faulted.apply(*deltas)
        clean.apply(*deltas)
        assert faulted.pending_shards() == (1,)
        # Heal lands on a fresh empty in-memory database: the pending
        # replay is not enough, the verify step detects the lost slice and
        # rebuilds it wholesale from the resolvers.
        slice_rows = faulted.recover_shard(1)
        assert slice_rows > 0
        assert faulted.pending_shards() == ()
        assert faulted.store.degraded_shards == ()
        assert serialized_relation(faulted.store) == serialized_relation(clean.store)
        faulted.close()
        clean.close()

    def test_recover_shard_rebuilds_a_slice_holding_a_stale_row(
        self, serialized_relation
    ):
        """A shard cannot hold one of its rows twice: the store rejects the
        second copy, and no retry repeats it.  A shard holding a row the
        session does not is out of sync: the slice check and the byte
        oracle both see it, and the rebuild removes it."""
        faulted, clean = self._twin_sessions()
        shard = faulted.store.shards[1]
        row = shard.possible_table()[0]
        with pytest.raises(BackendError) as excinfo:
            shard.insert_rows([(row.user, row.key, row.value)])
        assert not isinstance(excinfo.value, TransientBackendError)
        assert shard.retries == 0
        shard.insert_rows([(row.user, row.key, "stale")])
        assert shard.row_count() == clean.store.shards[1].row_count() + 1
        assert serialized_relation(faulted.store) != serialized_relation(clean.store)
        faulted.store.quarantine(1)
        faulted.recover_shard(1)
        assert serialized_relation(faulted.store) == serialized_relation(clean.store)
        faulted.close()
        clean.close()

    @pytest.mark.parametrize("kind", ("transient", "timeout", "unavailable"))
    @pytest.mark.parametrize("shards", (1, 2))
    def test_failed_flush_leaves_serving_rows_equal_to_session(self, shards, kind):
        """One rule recovers every flush failure.  An unavailable shard of a
        partitioned store is quarantined with its fragment queued; any
        other failure, and every failure of a single store, resyncs the
        serving shards.  Either way they hold exactly ``session.rows()``,
        and their ``BELIEF`` exactly the session's beliefs."""
        # The last shard's third executemany (the load's POSS and BELIEF
        # inserts are the first two) is the flush's DELETE batch; nothing
        # retries it.
        last = None if shards == 1 else shards - 1
        policy = FaultPolicy(schedule=[ScriptedFault("executemany", 2, last, kind)])
        backends = [
            FaultInjectingBackend(SqliteMemoryBackend(), policy, shard=index)
            for index in ((None,) if shards == 1 else range(shards))
        ]
        store = (
            PossStore(backend=backends[0], retry_policy=RetryPolicy.none())
            if shards == 1
            else ShardedPossStore(
                shards, backends=backends, retry_policy=RetryPolicy.none()
            )
        )
        session = IncrementalSession(chain_network(), store=store, keys=KEYS)
        report = session.apply(*(SetBelief("source", "z", key=key) for key in KEYS))
        assert report.recovered is True
        assert policy.faults_injected == 1
        serving = {
            key for key in KEYS if store.spec.shard_of(key) not in store.degraded_shards
        }
        expected = [row for row in session.rows() if row[1] in serving]
        stored = [(row.user, row.key, row.value) for row in store.possible_table()]
        assert sorted(stored) == expected
        assert stored_beliefs(store) == [
            row for row in session.belief_rows() if row[1] in serving
        ]
        assert session.beliefs_stored
        if kind == "unavailable" and shards > 1:
            assert store.degraded_shards == (last,)
            assert session.pending_shards() == (last,)
            policy.schedule = ()
            session.recover_shard(last)
            assert store.degraded_shards == ()
            assert sorted(
                (row.user, row.key, row.value) for row in store.possible_table()
            ) == session.rows()
            assert stored_beliefs(store) == session.belief_rows()
        else:
            assert store.degraded_shards == ()
        session.close()

    def test_recover_shard_requires_sharded_store(self):
        session = IncrementalSession(chain_network(), store=PossStore())
        with pytest.raises(BulkProcessingError):
            session.recover_shard(0)
        session.close()


class TestEngineRecover:
    def test_apply_degrades_and_recover_restores(self, kill_shard, serialized_relation):
        deltas = tuple(SetBelief("source", "z", key=key) for key in KEYS)
        clean = ResolutionEngine(chain_network(), shards=2, keys=KEYS)
        clean.materialize()
        clean.apply(*deltas)
        expected = serialized_relation(clean.store)

        engine = ResolutionEngine(chain_network(), shards=2, keys=KEYS)
        engine.materialize()
        kill_shard(engine.store, 1, dead_connects=0)
        report = engine.apply(*deltas)
        assert report.recovered is True
        assert report.degraded_shards == (1,)
        assert engine.degraded_shards == (1,)
        # Degraded service: the healthy shard's key answers, the dead
        # shard's key fails typed.
        assert engine.query("copy", "k4") == frozenset({"z"})
        with pytest.raises(ShardUnavailable):
            engine.store.possible_values("copy", "k0")

        recover = engine.recover_shard(1)
        assert recover.operation == "recover"
        assert recover.recovered is True
        assert recover.degraded_shards == ()
        assert recover.rows_inserted > 0
        assert serialized_relation(engine.store) == expected
        assert engine.query("copy", "k0") == frozenset({"z"})
        # Both shards' BELIEF are in step again, so a warm materialize,
        # which only copies it, rebuilds the clean relation.
        assert stored_beliefs(engine.store) == engine._session.belief_rows()
        assert stored_beliefs(engine.store) == stored_beliefs(clean.store)
        assert engine.materialize().bulk.objects == 0
        assert serialized_relation(engine.store) == expected
        engine.close()
        clean.close()

    def test_recover_on_still_dead_shard_raises(self, kill_shard):
        engine = ResolutionEngine(chain_network(), shards=2, keys=KEYS)
        engine.materialize()
        kill_shard(engine.store, 1, dead_connects=4)
        engine.store.quarantine(1)
        with pytest.raises(ShardUnavailable):
            engine.recover_shard(1)
        assert engine.degraded_shards == (1,)
        engine.close()
