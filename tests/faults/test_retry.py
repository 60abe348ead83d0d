"""Retry/backoff under injected faults: the store's statement funnel."""

from __future__ import annotations

import pytest

from repro.core.errors import (
    BackendError,
    BulkProcessingError,
    StatementTimeout,
    TransientBackendError,
)
from repro.faults import FaultInjectingBackend, FaultPolicy, RetryPolicy, ScriptedFault
from repro.bulk.backends import SqliteMemoryBackend
from repro.bulk.executor import BulkResolver
from repro.bulk.store import PossStore
from repro.workloads.bulkload import BELIEF_USERS, figure19_network, generate_objects


def faulty_store(policy: FaultPolicy, retry: "RetryPolicy | None" = None) -> PossStore:
    backend = FaultInjectingBackend(SqliteMemoryBackend(), policy)
    return PossStore(backend=backend, retry_policy=retry)


#: A fast policy for tests: no real sleeping.
FAST = RetryPolicy(max_attempts=6, base_delay=0.0, max_delay=0.0)


class TestRetryPolicyData:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.04, jitter_seed=1)
        bare = [
            policy.delay(attempt) - RetryPolicy(
                base_delay=0.01, max_delay=0.04, jitter_seed=1
            ).delay(attempt)
            for attempt in (1, 2, 3, 4)
        ]
        # Determinism: the same policy yields the same delay per attempt.
        assert bare == [0.0, 0.0, 0.0, 0.0]
        delays = [policy.delay(attempt) for attempt in (1, 2, 3, 4, 5)]
        # Exponential up to the cap; jitter adds at most base/2.
        assert 0.01 <= delays[0] <= 0.015
        assert 0.02 <= delays[1] <= 0.025
        assert 0.04 <= delays[2] <= 0.045
        assert 0.04 <= delays[4] <= 0.045

    def test_validation(self):
        with pytest.raises(BulkProcessingError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(BulkProcessingError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(BulkProcessingError):
            RetryPolicy(deadline=0.0)
        with pytest.raises(BulkProcessingError):
            RetryPolicy().delay(0)

    def test_named_constructors(self):
        assert RetryPolicy.default().max_attempts == 6
        assert RetryPolicy.none().max_attempts == 1


class TestStatementRetries:
    def test_transient_faults_are_absorbed(self):
        # Fault indexes count from the first statement after the schema:
        # the belief load is execute calls #0-#1 (it empties BELIEF, then
        # copies it into POSS); the copy statement is call #2 and its two
        # retries are #3 and #4.
        policy = FaultPolicy(
            schedule=[
                ScriptedFault("execute", 2),
                ScriptedFault("execute", 3),
            ]
        )
        store = faulty_store(policy, FAST)
        store.insert_explicit_beliefs([("a", "k0", "v")])
        store.copy_from_parent("b", "a")
        assert store.possible_values("b", "k0") == frozenset({"v"})
        assert store.retries == 2
        assert store.faults_injected == 2
        assert store.timed_out_statements == 0

    def test_exhausted_retries_raise_classified(self):
        store = faulty_store(FaultPolicy(), FAST)
        store.insert_explicit_beliefs([("a", "k0", "v")])
        # From now on every execute faults: retries run out.
        store._backend.policy.probability = 1.0
        store._backend.policy.sites = ("execute",)
        store._backend.policy.seed = 0
        with pytest.raises(TransientBackendError):
            store.copy_from_parent("b", "a")
        assert store.retries == FAST.max_attempts - 1

    def test_no_retry_policy_fails_fast(self):
        policy = FaultPolicy(schedule=[ScriptedFault("execute", 2)])
        store = faulty_store(policy, RetryPolicy.none())
        store.insert_explicit_beliefs([("a", "k0", "v")])
        with pytest.raises(TransientBackendError):
            store.copy_from_parent("b", "a")
        assert store.retries == 0

    def test_deadline_raises_statement_timeout(self):
        policy = FaultPolicy(probability=1.0, sites=("execute",))
        store = faulty_store(
            FaultPolicy(),  # clean while the schema is created
        )
        store.retry_policy = RetryPolicy(
            max_attempts=10, base_delay=0.05, max_delay=0.05, deadline=0.01
        )
        store._backend = FaultInjectingBackend(store._backend, policy)
        store._connection = store._backend.connect()
        with pytest.raises(StatementTimeout):
            store.row_count()
        assert store.timed_out_statements == 1

    def test_persistent_errors_do_not_retry(self):
        with PossStore() as store:
            retries_before = store.retries
            with pytest.raises(BackendError):
                store._execute("SELECT * FROM NO_SUCH_TABLE")
            assert store.retries == retries_before

    def test_ping_survives_transient_faults(self):
        """A transient fault during the health probe means the connection
        answered — ping must not report it dead (a false negative would
        trigger a reconnect that wipes an in-memory database)."""
        store = faulty_store(FaultPolicy())
        store._backend.policy.probability = 1.0
        store._backend.policy.sites = ("execute",)
        assert store.ping() is True


class TestRunReportCounters:
    def test_bulk_run_report_carries_fault_fields(self, serialized_relation):
        network = figure19_network()
        objects = generate_objects(8, seed=2)

        clean = BulkResolver(network, explicit_users=BELIEF_USERS)
        clean.load_beliefs(objects)
        clean.run()
        expected = serialized_relation(clean.store)
        clean.store.close()

        policy = FaultPolicy(seed=13, probability=0.05, sites=("execute",))
        store = faulty_store(policy, FAST)
        resolver = BulkResolver(
            network, store=store, explicit_users=BELIEF_USERS
        )
        resolver.load_beliefs(objects)
        report = resolver.run()
        assert report.faults_injected > 0
        assert report.retries == report.faults_injected
        assert report.timed_out_statements == 0
        # Byte-identical to the fault-free twin: retries are transparent.
        assert serialized_relation(store) == expected
        store.close()

    def test_fault_free_run_reports_zero(self):
        resolver = BulkResolver(figure19_network(), explicit_users=BELIEF_USERS)
        resolver.load_beliefs(generate_objects(3, seed=1))
        report = resolver.run()
        assert report.retries == 0
        assert report.faults_injected == 0
        assert report.timed_out_statements == 0
        assert report.checkpointed is False
        assert report.nodes_skipped == 0
        resolver.store.close()
