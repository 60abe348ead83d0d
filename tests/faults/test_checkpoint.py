"""Checkpoint journaling and resume: interrupted runs complete exactly."""

from __future__ import annotations

import pytest

from repro.core.errors import BackendUnavailable, StatementTimeout
from repro.core.network import TrustNetwork
from repro.faults import FaultInjectingBackend, FaultPolicy, RetryPolicy, ScriptedFault
from repro.bulk.backends import SqliteFileBackend, SqliteMemoryBackend
from repro.bulk.executor import JOURNAL_BELIEFS_NODE, BulkResolver
from repro.bulk.store import PossStore, ShardedPossStore
from repro.incremental.deltas import SetBelief
from repro.engine import ResolutionEngine
from repro.workloads.bulkload import BELIEF_USERS, figure19_network, generate_objects

RUN = "test-run"


def fault_backend(schedule, **kwargs):
    return FaultInjectingBackend(
        SqliteMemoryBackend(), FaultPolicy(schedule=schedule, **kwargs)
    )


class TestJournal:
    def test_record_completed_clear(self):
        with PossStore() as store:
            assert store.journal_completed(RUN) == frozenset()
            store.journal_record(RUN, 0)
            store.journal_record(RUN, 3)
            store.journal_record("other", 1)
            assert store.journal_completed(RUN) == frozenset({0, 3})
            assert store.journal_runs() == frozenset({RUN, "other"})
            store.journal_clear(RUN)
            assert store.journal_completed(RUN) == frozenset()
            assert store.journal_runs() == frozenset({"other"})
            store.journal_clear()
            assert store.journal_runs() == frozenset()

    def test_journal_survives_relation_clear(self):
        with PossStore() as store:
            store.journal_record(RUN, 0)
            store.clear()
            assert store.journal_completed(RUN) == frozenset({0})


class TestCheckpointedRun:
    def test_checkpointed_run_matches_plain_run(self, serialized_relation):
        network = figure19_network()
        objects = generate_objects(10, seed=4)

        plain = BulkResolver(network, explicit_users=BELIEF_USERS)
        plain.load_beliefs(objects)
        plain.run()
        expected = serialized_relation(plain.store)
        plain.store.close()

        checkpointed = BulkResolver(
            network, explicit_users=BELIEF_USERS, checkpoint=RUN
        )
        checkpointed.load_beliefs(objects)
        report = checkpointed.run()
        assert report.checkpointed is True
        assert report.nodes_skipped == 0
        # Each one-step replay region commits its own transaction.
        assert report.transactions == len(checkpointed.plan.steps)
        assert serialized_relation(checkpointed.store) == expected
        checkpointed.store.close()

    def test_completed_run_resumes_as_noop(self, serialized_relation):
        network = figure19_network()
        objects = generate_objects(6, seed=5)
        store = PossStore()
        first = BulkResolver(
            network, store=store, explicit_users=BELIEF_USERS, checkpoint=RUN
        )
        first.load_beliefs(objects)
        first.run()
        snapshot = serialized_relation(store)

        again = BulkResolver(
            network, store=store, explicit_users=BELIEF_USERS, checkpoint=RUN
        )
        report_rows = again.load_beliefs(objects)
        report = again.run()
        assert report_rows == 0  # belief marker present: nothing reloaded
        assert report.nodes_skipped == len(again.plan.steps)
        assert report.statements == 0
        assert serialized_relation(store) == snapshot
        store.close()

    def test_interrupted_run_resumes_byte_identical(self, serialized_relation):
        """Crash mid-run (injected unavailability), then resume with the
        same run id: the journaled prefix is skipped and the result is
        byte-identical to an uninterrupted run."""
        network = figure19_network()
        objects = generate_objects(10, seed=6)

        plain = BulkResolver(network, explicit_users=BELIEF_USERS)
        plain.load_beliefs(objects)
        plain.run()
        expected = serialized_relation(plain.store)
        plain.store.close()

        # Enough statements to die mid-plan, after some nodes committed.
        backend = fault_backend(
            [ScriptedFault("execute", 9, kind="unavailable")], max_faults=1
        )
        store = PossStore(backend=backend)
        crashing = BulkResolver(
            network, store=store, explicit_users=BELIEF_USERS, checkpoint=RUN
        )
        crashing.load_beliefs(objects)
        with pytest.raises(BackendUnavailable):
            crashing.run()
        committed = store.journal_completed(RUN)
        assert committed  # the belief marker at minimum
        assert JOURNAL_BELIEFS_NODE in committed

        resumed = BulkResolver(
            network, store=store, explicit_users=BELIEF_USERS, checkpoint=RUN
        )
        resumed.load_beliefs(objects)
        report = resumed.run()
        assert report.nodes_skipped == len(committed) - 1
        assert serialized_relation(store) == expected
        store.close()

    def test_crash_points_sweep(self, serialized_relation):
        """Resume is sound no matter which statement the crash hits."""
        network = figure19_network()
        objects = generate_objects(4, seed=7)
        plain = BulkResolver(network, explicit_users=BELIEF_USERS)
        plain.load_beliefs(objects)
        plain.run()
        expected = serialized_relation(plain.store)
        plain.store.close()

        for crash_at in (1, 6, 11, 17):
            backend = fault_backend(
                [ScriptedFault("execute", crash_at, kind="unavailable")],
                max_faults=1,
            )
            store = PossStore(backend=backend)
            run_id = f"sweep-{crash_at}"
            crashing = BulkResolver(
                network, store=store, explicit_users=BELIEF_USERS, checkpoint=run_id
            )
            try:
                # The first crash point is the BEGIN of the belief load.
                crashing.load_beliefs(objects)
                crashing.run()
            except BackendUnavailable:
                resumed = BulkResolver(
                    network,
                    store=store,
                    explicit_users=BELIEF_USERS,
                    checkpoint=run_id,
                )
                resumed.load_beliefs(objects)
                resumed.run()
            assert serialized_relation(store) == expected, crash_at
            store.close()


class TestFaultOnBegin:
    """A region transaction's ``BEGIN`` fails like any other statement.

    Fault indexes count from the first statement after the schema, so on
    this checkpointed Figure 19 run execute #10 is the ``BEGIN`` of the
    second region (after the belief load's transaction, the health check,
    the journal read and the first region's transaction)."""

    REGION_BEGIN = 10

    def _run(self, kind, retry_policy=None):
        backend = fault_backend([ScriptedFault("execute", self.REGION_BEGIN, kind=kind)])
        store = PossStore(backend=backend, retry_policy=retry_policy)
        resolver = BulkResolver(
            figure19_network(), store=store, explicit_users=BELIEF_USERS, checkpoint=RUN
        )
        resolver.load_beliefs(generate_objects(4, seed=7))
        return store, resolver

    @pytest.mark.parametrize(
        "kind, error", (("unavailable", BackendUnavailable), ("timeout", StatementTimeout))
    )
    def test_a_classified_failure_stops_the_run(self, kind, error, serialized_relation):
        store, resolver = self._run(kind)
        with pytest.raises(error):
            resolver.run()
        assert not store.in_transaction
        # Only the beliefs and the first region committed.
        assert store.journal_completed(RUN) == {JOURNAL_BELIEFS_NODE, 0}
        resumed = BulkResolver(
            figure19_network(), store=store, explicit_users=BELIEF_USERS, checkpoint=RUN
        )
        resumed.load_beliefs(generate_objects(4, seed=7))
        assert resumed.run().nodes_skipped == 1
        plain = BulkResolver(figure19_network(), explicit_users=BELIEF_USERS)
        plain.load_beliefs(generate_objects(4, seed=7))
        plain.run()
        assert serialized_relation(store) == serialized_relation(plain.store)

    def test_a_transient_failure_is_retried(self):
        store, resolver = self._run(
            "transient", RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0)
        )
        report = resolver.run()
        assert report.retries == 1
        assert report.faults_injected == 1
        assert report.nodes_skipped == 0

    def test_a_begin_inside_an_open_transaction_joins_it(self):
        """sqlite rejects a ``BEGIN`` while a transaction is open; that
        rejection alone is swallowed, and the run joins the transaction."""
        with PossStore() as store:
            # The driver opens a transaction implicitly before this insert.
            store._connection.execute("INSERT INTO POSS VALUES ('a', 'k', 'v')")
            with store.transaction():
                store.insert_rows([("b", "k", "v")])
            assert store.row_count() == 2


class TestShardedCheckpoint:
    def test_sharded_checkpoint_matches_plain(self, serialized_relation):
        network = figure19_network()
        objects = generate_objects(9, seed=8)
        plain = BulkResolver(
            network, store=ShardedPossStore(2), explicit_users=BELIEF_USERS
        )
        plain.load_beliefs(objects)
        plain.run()
        expected = serialized_relation(plain.store)
        plain.store.close()

        store = ShardedPossStore(2)
        checkpointed = BulkResolver(
            network, store=store, explicit_users=BELIEF_USERS, checkpoint=RUN
        )
        checkpointed.load_beliefs(objects)
        report = checkpointed.run()
        assert report.checkpointed is True
        assert serialized_relation(store) == expected
        store.close()

    def test_dead_shard_is_quarantined_not_fatal(self, kill_shard):
        network = figure19_network()
        objects = generate_objects(6, seed=9)
        store = ShardedPossStore(2)
        resolver = BulkResolver(
            network, store=store, explicit_users=BELIEF_USERS, checkpoint=RUN
        )
        resolver.load_beliefs(objects)
        kill_shard(store, 1)
        report = resolver.run()  # shard 1 is dead; run completes degraded
        assert report.checkpointed is True
        assert store.degraded_shards == (1,)
        # The healthy shard's slice resolved and keeps answering.
        assert store.shards[0].keys()
        for key in store.shards[0].keys():
            assert store.possible_values("x6", key)
        store.close()


class TestEngineCheckpointResume:
    def _network(self):
        tn = TrustNetwork()
        tn.add_trust("mirror", "source", priority=2)
        tn.add_trust("mirror", "backup", priority=1)
        tn.add_trust("copy", "mirror", priority=1)
        tn.set_explicit_belief("source", "v")
        tn.set_explicit_belief("backup", "w")
        return tn

    def test_engine_checkpoint_reports_and_matches(self, serialized_relation):
        plain = ResolutionEngine(self._network())
        plain.materialize()
        expected = serialized_relation(plain.store)
        plain.close()

        engine = ResolutionEngine(self._network())
        report = engine.materialize(checkpoint=True)
        assert report.checkpointed is True
        assert report.nodes_skipped == 0
        assert serialized_relation(engine.store) == expected
        engine.close()

    def test_fresh_materialize_clears_stale_journal(self, serialized_relation):
        """Back-to-back checkpointed materializes must not no-op the second
        run on the first run's journal."""
        engine = ResolutionEngine(self._network())
        engine.materialize(checkpoint=True)
        snapshot = serialized_relation(engine.store)
        report = engine.materialize(checkpoint=True)
        assert report.nodes_skipped == 0
        assert serialized_relation(engine.store) == snapshot
        engine.close()

    def test_engine_resume_after_crash(self, serialized_relation, tmp_path):
        """Sweep the crash point across the whole checkpointed run.

        File-backed store: committed nodes survive the (single) reconnect
        that heals an unavailable connection, so every crash point —
        including one hitting the health probe itself — resumes to the
        byte-identical relation.  (A crashed *in-memory* database loses
        its content by definition; the quarantine/rebuild path covers
        that case, see test_quarantine.)
        """
        plain = ResolutionEngine(self._network())
        plain.materialize()
        expected = serialized_relation(plain.store)
        plain.close()

        saw_skip = False
        for crash_at in range(3, 17):
            backend = FaultInjectingBackend(
                SqliteFileBackend(str(tmp_path / f"crash{crash_at}.db")),
                FaultPolicy(
                    schedule=[
                        ScriptedFault("execute", crash_at, kind="unavailable")
                    ],
                    max_faults=1,
                ),
            )
            store = PossStore(backend=backend)
            engine = ResolutionEngine(self._network(), store=store)
            try:
                engine.materialize(checkpoint=True)
            except BackendUnavailable:
                report = engine.materialize(resume=True)
                assert report.checkpointed is True
                saw_skip = saw_skip or report.nodes_skipped > 0
            # Disarm: a crash point past the end of the run must not fire
            # during verification.
            backend.policy.schedule = ()
            assert serialized_relation(store) == expected, crash_at
            # The resumed relation keeps serving queries and deltas.
            assert engine.query("copy", "k0") == frozenset({"v"})
            engine.apply(SetBelief("source", "z"))
            assert engine.query("copy", "k0") == frozenset({"z"})
            engine.apply(SetBelief("source", "v"))
            engine.close()
        # At least one crash point hit after a committed node, so a resume
        # actually skipped journaled work somewhere in the sweep.
        assert saw_skip

    def test_run_id_is_plan_stable(self):
        engine = ResolutionEngine(self._network())
        engine._ensure_plan()
        first = engine._run_id()
        assert first == engine._run_id()
        other = ResolutionEngine(self._network())
        other._ensure_plan()
        assert other._run_id() == first  # same plan, same id
        engine.close()
        other.close()
