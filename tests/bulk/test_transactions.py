"""One-transaction-per-run semantics: commit on success, rollback on failure."""

from __future__ import annotations

import pytest

from repro.bulk.backends import SqliteFileBackend
from repro.bulk.executor import (
    SCHEDULERS,
    BulkResolver,
    SkepticBulkResolver,
)
from repro.bulk.store import PossStore, ShardedPossStore
from repro.core.errors import BulkProcessingError
from repro.workloads.bulkload import BELIEF_USERS, figure19_network, generate_objects


@pytest.fixture
def loaded_resolver():
    resolver = BulkResolver(figure19_network(), explicit_users=BELIEF_USERS)
    resolver.load_beliefs(generate_objects(12, seed=3))
    yield resolver
    resolver.store.close()


class TestStoreTransaction:
    def test_commit_on_success(self):
        with PossStore() as store:
            transactions_before = store.transactions
            with store.transaction():
                store.insert_explicit_beliefs([("a", "k1", "v")])
                store.copy_from_parent("b", "a")
            assert store.transactions == transactions_before + 1
            assert store.possible_values("b", "k1") == frozenset({"v"})

    def test_rollback_on_error(self):
        with PossStore() as store:
            store.insert_explicit_beliefs([("a", "k1", "v")])
            with pytest.raises(RuntimeError):
                with store.transaction():
                    store.copy_from_parent("b", "a")
                    raise RuntimeError("mid-transaction failure")
            # The copy rolled back; the committed load survived.
            assert store.possible_values("b", "k1") == frozenset()
            assert store.possible_values("a", "k1") == frozenset({"v"})

    def test_nested_transactions_rejected(self):
        with PossStore() as store:
            with store.transaction():
                assert store.in_transaction
                with pytest.raises(BulkProcessingError):
                    with store.transaction():
                        pass  # pragma: no cover - never entered
            assert not store.in_transaction

    def test_transaction_reusable_after_rollback(self):
        with PossStore() as store:
            with pytest.raises(RuntimeError):
                with store.transaction():
                    raise RuntimeError("boom")
            with store.transaction():
                store.insert_explicit_beliefs([("a", "k1", "v")])
            assert store.row_count() == 1

    def test_rollback_works_on_autocommit_connections(self):
        """transaction() opens a real transaction even when the driver
        defaults to autocommit, so rollback is never a silent no-op."""
        import sqlite3

        from repro.bulk.backends import DbApiBackend

        backend = DbApiBackend(
            lambda: sqlite3.connect(":memory:", isolation_level=None),
            name="autocommit-sqlite",
        )
        with PossStore(backend=backend) as store:
            store.insert_explicit_beliefs([("a", "k1", "v")])
            with pytest.raises(RuntimeError):
                with store.transaction():
                    store.copy_from_parent("b", "a")
                    raise RuntimeError("mid-transaction failure")
            assert store.possible_values("b", "k1") == frozenset()

    def test_direct_statements_are_durable_on_disk(self, tmp_path):
        """Outside a run transaction, statement methods commit their own
        work, so an on-disk relation survives close()/reopen."""
        path = str(tmp_path / "poss.db")
        store = PossStore(path=path)
        store.insert_explicit_beliefs([("a", "k1", "v")])
        store.copy_from_parent("b", "a")
        store.flood_component(["c"], ["a"])
        store.close()
        with PossStore(path=path) as reopened:
            assert reopened.possible_values("b", "k1") == frozenset({"v"})
            assert reopened.possible_values("c", "k1") == frozenset({"v"})


class TestRunTransactionSemantics:
    def test_run_commits_exactly_one_transaction(self, loaded_resolver):
        report = loaded_resolver.run()
        assert report.transactions == 1

    def test_failed_run_leaves_poss_unchanged(self, loaded_resolver):
        """Rollback on a mid-run BulkProcessingError restores the loaded state."""
        before = sorted(loaded_resolver.store.possible_table())
        # Corrupt the plan mid-way: the executor hits the unknown step after
        # real bulk statements already executed inside the run transaction.
        loaded_resolver.plan.steps.insert(
            len(loaded_resolver.plan.steps) // 2, "not-a-step"
        )
        with pytest.raises(BulkProcessingError):
            loaded_resolver.run()
        after = sorted(loaded_resolver.store.possible_table())
        assert after == before
        assert not loaded_resolver.store.in_transaction

    def test_failed_run_can_be_retried_after_repair(self, loaded_resolver):
        loaded_resolver.plan.steps.insert(0, "not-a-step")
        with pytest.raises(BulkProcessingError):
            loaded_resolver.run()
        loaded_resolver.plan.steps.remove("not-a-step")
        report = loaded_resolver.run()
        assert report.transactions == 1
        assert report.rows_inserted > 0

    def test_skeptic_run_commits_one_transaction_and_rolls_back(self):
        from repro.core.network import TrustNetwork

        tn = TrustNetwork()
        tn.add_trust("p", "source", priority=2)
        tn.add_trust("p", "q", priority=1)
        tn.add_trust("q", "filter", priority=2)
        tn.add_trust("q", "p", priority=1)
        resolver = SkepticBulkResolver(
            tn, positive_users=["source"], negative_constraints={"filter": ["v1"]}
        )
        resolver.load_beliefs([("source", "k0", "v1")])
        before = sorted(resolver.store.possible_table())
        resolver.plan.steps.append("not-a-step")
        with pytest.raises(BulkProcessingError):
            resolver.run()
        assert sorted(resolver.store.possible_table()) == before
        resolver.plan.steps.pop()
        report = resolver.run()
        assert report.transactions == 1
        resolver.store.close()


class TestRollbackUnderPipelining:
    """The rollback guarantee holds under every scheduler × store layout,
    wherever in the run the failure lands."""

    @pytest.mark.parametrize("position", ("first", "middle", "last"))
    @pytest.mark.parametrize(
        "layout", ("memory-1", "memory-2", "memory-4", "file-1", "file-2")
    )
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_failed_run_restores_pre_run_state(
        self, scheduler, layout, position, tmp_path
    ):
        kind, shards = layout.split("-")
        shards = int(shards)
        if kind == "file":
            backends = [
                SqliteFileBackend(str(tmp_path / f"rollback{i}.db"))
                for i in range(shards)
            ]
            store = (
                PossStore(backend=backends[0])
                if shards == 1
                else ShardedPossStore(shards, backends=backends)
            )
        else:
            store = PossStore() if shards == 1 else ShardedPossStore(shards)
        resolver = BulkResolver(
            figure19_network(),
            store=store,
            explicit_users=BELIEF_USERS,
            scheduler=scheduler,
        )
        resolver.load_beliefs(generate_objects(10, seed=5))
        before = sorted(resolver.store.possible_table())
        # Corrupt the plan: past the first position, real statements have
        # already executed inside the run transaction(s) when the unknown
        # step is hit.
        steps = resolver.plan.steps
        index = {"first": 0, "middle": len(steps) // 2, "last": len(steps)}
        steps.insert(index[position], "not-a-step")
        with pytest.raises(BulkProcessingError):
            resolver.run()
        assert sorted(resolver.store.possible_table()) == before
        assert not resolver.store.in_transaction
        # The store is reusable: the repaired plan runs to completion.
        steps.remove("not-a-step")
        report = resolver.run()
        assert report.rows_inserted > 0
        assert report.transactions == shards
        resolver.store.close()


class TestReportConfiguration:
    def test_report_names_backend_and_phases(self, loaded_resolver):
        report = loaded_resolver.run()
        assert report.backend == "sqlite-memory"
        assert set(report.phase_seconds) == {"copy", "flood"}
        assert all(value >= 0.0 for value in report.phase_seconds.values())
        # Phase timings partition the statement work of the run.
        assert sum(report.phase_seconds.values()) <= report.elapsed_seconds

    def test_report_reflects_custom_store_configuration(self, tmp_path):
        store = PossStore(path=str(tmp_path / "poss.db"))
        resolver = BulkResolver(
            figure19_network(),
            store=store,
            explicit_users=BELIEF_USERS,
        )
        resolver.load_beliefs(generate_objects(5, seed=1))
        report = resolver.run()
        assert report.backend == "sqlite-file"
        store.close()
