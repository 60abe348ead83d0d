"""Chaos property suite: faulted runs are byte-identical to fault-free twins.

The core robustness claim of the fault-tolerant execution layer, checked
end-to-end: under seeded probabilistic transient faults — and under
forced mid-run crashes followed by checkpoint-resume — the final POSS
relation is byte-for-byte the relation an undisturbed run produces.
Swept across shard counts {1, 2, 4} and the three backend families
(in-memory sqlite, file-backed sqlite, and a generic DB-API driver).
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.errors import BackendUnavailable
from repro.faults import FaultInjectingBackend, FaultPolicy, RetryPolicy, ScriptedFault
from repro.bulk.backends import DbApiBackend, SqliteFileBackend, SqliteMemoryBackend
from repro.bulk.executor import BulkResolver
from repro.bulk.store import PossStore, ShardedPossStore
from repro.engine import ResolutionEngine
from repro.incremental.deltas import SetBelief
from repro.workloads.bulkload import BELIEF_USERS, figure19_network, generate_objects

from tests.conftest import random_binary_network

SHARD_COUNTS = (1, 2, 4)
BACKENDS = ("memory", "file", "dbapi")

#: No real sleeping in tests.
FAST = RetryPolicy(max_attempts=8, base_delay=0.0, max_delay=0.0)


def backend_factory(kind: str, tmp_path, tag: str):
    """A per-shard-index factory for one of the three backend families."""
    if kind == "memory":
        return lambda index: SqliteMemoryBackend()
    if kind == "file":
        return lambda index: SqliteFileBackend(str(tmp_path / f"{tag}-{index}.db"))

    def dbapi(index: int):
        path = str(tmp_path / f"{tag}-dbapi-{index}.db")
        return DbApiBackend(
            lambda: sqlite3.connect(path, check_same_thread=False),
            name="sqlite-dbapi",
        )

    return dbapi


def clean_store(shards: int, make_inner):
    if shards == 1:
        return PossStore(backend=make_inner(0))
    return ShardedPossStore(shards, backends=[make_inner(i) for i in range(shards)])


def chaos_store(shards: int, make_inner, policy: FaultPolicy):
    """A store whose every shard injects faults from one shared policy."""
    if shards == 1:
        backend = FaultInjectingBackend(make_inner(0), policy)
        return PossStore(backend=backend, retry_policy=FAST)
    backends = [
        FaultInjectingBackend(make_inner(i), policy, shard=i)
        for i in range(shards)
    ]
    return ShardedPossStore(shards, backends=backends, retry_policy=FAST)


def make_resolver(network, store, **kwargs):
    return BulkResolver(
        network, store=store, explicit_users=BELIEF_USERS, **kwargs
    )


class TestTransientChaos:
    @pytest.mark.parametrize("backend_kind", BACKENDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_bulk_run_matches_fault_free_twin(
        self, shards, backend_kind, tmp_path, serialized_relation
    ):
        network = figure19_network()
        objects = generate_objects(12, seed=31)

        clean = make_resolver(
            network, clean_store(shards, backend_factory(backend_kind, tmp_path, "clean"))
        )
        clean.load_beliefs(objects)
        clean.run()
        expected = serialized_relation(clean.store)
        clean.store.close()

        policy = FaultPolicy(
            seed=31 + shards, probability=0.05, sites=("execute", "executemany")
        )
        store = chaos_store(
            shards, backend_factory(backend_kind, tmp_path, "chaos"), policy
        )
        resolver = make_resolver(network, store)
        resolver.load_beliefs(objects)
        report = resolver.run()
        assert serialized_relation(store) == expected
        # A fault can also land on the (unretried) run-start health probe,
        # so retries only bound faults from below.
        assert report.retries <= report.faults_injected
        store.close()

    @pytest.mark.parametrize("seed", (4, 11, 16))
    @pytest.mark.parametrize("shards", (1, 2))
    def test_engine_random_network_chaos(self, seed, shards, serialized_relation):
        """Random binary networks: materialize, then live updates, under
        probabilistic transient faults — always byte-identical to the
        fault-free twin engine."""
        network = random_binary_network(seed, n_nodes=10)
        believers = sorted(
            user
            for user, belief in network.explicit_beliefs.items()
            if belief.positive_value is not None
        )
        if not believers:
            pytest.skip(f"seed {seed} placed no explicit beliefs")

        clean = ResolutionEngine(
            random_binary_network(seed, n_nodes=10),
            store=clean_store(shards, lambda index: SqliteMemoryBackend()),
        )
        policy = FaultPolicy(
            seed=seed, probability=0.05, sites=("execute", "executemany")
        )
        faulted = ResolutionEngine(
            random_binary_network(seed, n_nodes=10),
            store=chaos_store(shards, lambda index: SqliteMemoryBackend(), policy),
        )

        clean.materialize()
        faulted.materialize()
        assert serialized_relation(faulted.store) == serialized_relation(clean.store)

        for value in ("zz", "ww"):
            delta = SetBelief(believers[0], value)
            clean.apply(delta)
            faulted.apply(delta)
            assert serialized_relation(faulted.store) == serialized_relation(
                clean.store
            )
        clean.close()
        faulted.close()


class TestCrashResumeChaos:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_crash_then_resume_matches_twin(
        self, shards, tmp_path, serialized_relation
    ):
        """Forced mid-run unavailability, then checkpoint-resume: the
        journaled prefix is kept, the rest re-runs, and the final relation
        matches the undisturbed twin — for every shard count.  File-backed
        shards, so committed work survives the crash."""
        network = figure19_network()
        objects = generate_objects(8, seed=21)

        clean = make_resolver(
            network, clean_store(shards, backend_factory("file", tmp_path, "twin"))
        )
        clean.load_beliefs(objects)
        clean.run()
        expected = serialized_relation(clean.store)
        clean.store.close()

        for crash_at in (1, 7, 11):
            run_id = f"chaos-{shards}-{crash_at}"
            policy = FaultPolicy(
                schedule=[
                    ScriptedFault(
                        "execute",
                        crash_at,
                        shard=0 if shards > 1 else None,
                        kind="unavailable",
                    )
                ],
                max_faults=1,
            )
            store = chaos_store(
                shards,
                backend_factory("file", tmp_path, f"crash-{shards}-{crash_at}"),
                policy,
            )
            crashing = make_resolver(network, store, checkpoint=run_id)
            try:
                crashing.load_beliefs(objects)
                crashing.run()
            except BackendUnavailable:
                pass  # the crash can land anywhere, including belief load
            policy.schedule = ()  # disarm for the resume and the readback
            if isinstance(store, ShardedPossStore):
                # Sharded runs degrade around the dead shard instead of
                # aborting; heal it (the file-backed data survived).
                for index in store.degraded_shards:
                    store.heal(index)
            resumed = make_resolver(network, store, checkpoint=run_id)
            resumed.load_beliefs(objects)
            resumed.run()
            assert serialized_relation(store) == expected, (shards, crash_at)
            store.close()


class TestEnvGatedChaos:
    def test_store_auto_wraps_backend_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "7")
        monkeypatch.setenv("REPRO_FAULT_P", "0.0")
        with PossStore() as store:
            assert isinstance(store._backend, FaultInjectingBackend)
            assert store._backend.policy.seed == 7

    def test_unset_env_leaves_backend_bare(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
        with PossStore() as store:
            assert not isinstance(store._backend, FaultInjectingBackend)
