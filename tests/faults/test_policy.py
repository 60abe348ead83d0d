"""Deterministic fault policies: seeded streams, scripts, env gating."""

from __future__ import annotations

import pytest

from repro.core.errors import (
    BackendUnavailable,
    BulkProcessingError,
    StatementTimeout,
    TransientBackendError,
)
from repro.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultInjectingBackend,
    FaultPolicy,
    ScriptedFault,
)
from repro.bulk.backends import SqliteMemoryBackend


def fault_trace(policy: FaultPolicy, site: str, calls: int, shard=None):
    """Which of ``calls`` consecutive checks at ``site`` would fail."""
    trace = []
    for index in range(calls):
        try:
            policy.check(site, shard)
            trace.append(False)
        except tuple(FAULT_KINDS.values()):
            trace.append(True)
    return trace


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        first = fault_trace(FaultPolicy(seed=7, probability=0.3), "execute", 200)
        second = fault_trace(FaultPolicy(seed=7, probability=0.3), "execute", 200)
        assert first == second
        assert any(first)
        assert not all(first)

    def test_different_seeds_differ(self):
        first = fault_trace(FaultPolicy(seed=1, probability=0.3), "execute", 200)
        second = fault_trace(FaultPolicy(seed=2, probability=0.3), "execute", 200)
        assert first != second

    def test_streams_are_independent_per_site_and_shard(self):
        """Advancing one stream never shifts another stream's decisions —
        the property that makes schedules stable across interleavings."""
        lone = FaultPolicy(seed=3, probability=0.3)
        expected = fault_trace(lone, "execute", 100, shard=1)

        interleaved = FaultPolicy(seed=3, probability=0.3)
        trace = []
        for index in range(100):
            # Noise on other streams between every check.
            fault_trace(interleaved, "execute", 2, shard=0)
            fault_trace(interleaved, "executemany", 1, shard=1)
            try:
                interleaved.check("execute", 1)
                trace.append(False)
            except TransientBackendError:
                trace.append(True)
        assert trace == expected

    def test_reset_replays_identically(self):
        policy = FaultPolicy(seed=11, probability=0.25)
        first = fault_trace(policy, "execute", 150)
        policy.reset()
        assert policy.faults_injected == 0
        assert fault_trace(policy, "execute", 150) == first


class TestScriptedFaults:
    def test_fires_exactly_at_index(self):
        policy = FaultPolicy(schedule=[ScriptedFault("execute", 2)])
        assert fault_trace(policy, "execute", 5) == [
            False,
            False,
            True,
            False,
            False,
        ]

    def test_shard_targeting(self):
        policy = FaultPolicy(
            schedule=[ScriptedFault("execute", 0, shard=1)]
        )
        assert fault_trace(policy, "execute", 2, shard=0) == [False, False]
        assert fault_trace(policy, "execute", 2, shard=1) == [True, False]

    def test_kind_picks_the_classified_error(self):
        for kind, error_type in FAULT_KINDS.items():
            policy = FaultPolicy(schedule=[ScriptedFault("commit", 0, kind=kind)])
            with pytest.raises(error_type):
                policy.check("commit")

    def test_scripted_faults_work_outside_enabled_sites(self):
        """A script can hit ``commit`` even when only statement sites are
        probabilistically enabled."""
        policy = FaultPolicy(
            probability=0.0,
            sites=("execute",),
            schedule=[ScriptedFault("commit", 1)],
        )
        assert fault_trace(policy, "commit", 3) == [False, True, False]

    def test_unknown_site_and_kind_rejected(self):
        with pytest.raises(BulkProcessingError):
            ScriptedFault("fetch", 0)
        with pytest.raises(BulkProcessingError):
            ScriptedFault("execute", 0, kind="fatal")
        with pytest.raises(BulkProcessingError):
            FaultPolicy(sites=("teleport",))
        with pytest.raises(BulkProcessingError):
            FaultPolicy(kind="fatal")
        with pytest.raises(BulkProcessingError):
            FaultPolicy(schedule=["not-a-fault"])


class TestCapsAndCounters:
    def test_max_faults_caps_total_injection(self):
        policy = FaultPolicy(seed=5, probability=1.0, max_faults=2)
        trace = fault_trace(policy, "execute", 10)
        assert trace[:2] == [True, True]
        assert not any(trace[2:])
        assert policy.faults_injected == 2

    def test_per_site_probability_override(self):
        policy = FaultPolicy(
            seed=9,
            probability=1.0,
            probabilities={"executemany": 0.0},
            sites=("execute", "executemany"),
        )
        assert fault_trace(policy, "execute", 3) == [True, True, True]
        assert fault_trace(policy, "executemany", 3) == [False, False, False]

    def test_faults_by_site(self):
        policy = FaultPolicy(seed=1, probability=1.0, sites=("execute",))
        fault_trace(policy, "execute", 3)
        fault_trace(policy, "executemany", 3)
        assert policy.faults_by_site() == {"execute": 3}


class TestFromEnv:
    def test_disabled_when_unset_or_empty(self):
        assert FaultPolicy.from_env({}) is None
        assert FaultPolicy.from_env({"REPRO_FAULT_SEED": ""}) is None

    def test_enabled_policy_is_transient_statement_chaos(self):
        policy = FaultPolicy.from_env({"REPRO_FAULT_SEED": "42"})
        assert policy is not None
        assert policy.seed == 42
        assert policy.probability == pytest.approx(0.05)
        assert policy.kind == "transient"
        assert set(policy.sites) == {"execute", "executemany"}

    def test_probability_override(self):
        policy = FaultPolicy.from_env(
            {"REPRO_FAULT_SEED": "1", "REPRO_FAULT_P": "0.5"}
        )
        assert policy.probability == pytest.approx(0.5)

    def test_bad_seed_rejected(self):
        with pytest.raises(BulkProcessingError):
            FaultPolicy.from_env({"REPRO_FAULT_SEED": "not-an-int"})


class TestFaultInjectingBackend:
    def test_transparent_identity(self):
        inner = SqliteMemoryBackend()
        wrapped = FaultInjectingBackend(inner, FaultPolicy())
        assert wrapped.name == inner.name
        assert wrapped.supports_concurrent_replay == inner.supports_concurrent_replay
        assert wrapped.render("SELECT ?") == inner.render("SELECT ?")

    def test_sites_fire_through_the_connection_surface(self):
        policy = FaultPolicy(
            schedule=[
                ScriptedFault("connect", 1, kind="unavailable"),
                ScriptedFault("execute", 0),
                ScriptedFault("commit", 0, kind="timeout"),
            ]
        )
        backend = FaultInjectingBackend(SqliteMemoryBackend(), policy)
        connection = backend.connect()  # connect call #0: clean
        cursor = connection.cursor()
        with pytest.raises(TransientBackendError):
            cursor.execute("SELECT 1")
        cursor.execute("SELECT 1")  # call #1: clean, cursor still usable
        assert cursor.fetchone() == (1,)
        with pytest.raises(StatementTimeout):
            connection.commit()
        with pytest.raises(BackendUnavailable):
            backend.connect()  # connect call #1: scripted unavailable
        assert backend.faults_injected == 3

    def test_faults_fire_before_the_statement_applies(self):
        """An injected failure never half-applies: the inner database sees
        nothing from a faulted execute."""
        policy = FaultPolicy(schedule=[ScriptedFault("execute", 1)])
        backend = FaultInjectingBackend(SqliteMemoryBackend(), policy)
        connection = backend.connect()
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE T (A INTEGER)")  # call #0: clean
        with pytest.raises(TransientBackendError):
            cursor.execute("INSERT INTO T VALUES (1)")  # call #1: faulted
        cursor.execute("SELECT COUNT(*) FROM T")
        assert cursor.fetchone() == (0,)

    def test_site_order_is_locked(self):
        assert FAULT_SITES == ("connect", "execute", "executemany", "commit")
