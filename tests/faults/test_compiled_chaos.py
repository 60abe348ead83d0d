"""Chaos tests for the compiled scheduler: faults inside pushed-down regions.

A compiled region is one SQL statement covering many plan steps, so the
fault-tolerance machinery must treat it as one unit: transient faults retry
the whole region statement, a crash between regions resumes at a region
boundary (never inside one), and a quarantined shard degrades the run while
the healthy shards keep executing compiled.  Every scenario is locked
against a fault-free twin through the byte-identity oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import BackendUnavailable
from repro.core.network import TrustNetwork
from repro.faults import FaultInjectingBackend, FaultPolicy, RetryPolicy, ScriptedFault
from repro.bulk.backends import SqliteFileBackend, SqliteMemoryBackend
from repro.bulk.executor import BulkResolver, ConcurrentBulkResolver
from repro.bulk.store import PossStore, ShardedPossStore
from repro.engine import ResolutionEngine
from repro.workloads.bulkload import BELIEF_USERS, figure19_network, generate_objects

RUN = "compiled-run"

RETRY_FAST = RetryPolicy(max_attempts=8, base_delay=0.0, max_delay=0.0)


def _twin_relation(network, objects, serialized_relation, scheduler="compiled"):
    """The fault-free reference run of the same plan and rows."""
    resolver = BulkResolver(
        network, explicit_users=BELIEF_USERS, scheduler=scheduler
    )
    resolver.load_beliefs(objects)
    resolver.run()
    expected = serialized_relation(resolver.store)
    resolver.store.close()
    return expected


class TestTransientFaultsInsideRegions:
    def test_region_statements_retry_transparently(self, serialized_relation):
        """Probabilistic transient faults on execute hit the big region
        statements too; the retry loop absorbs every one of them and the
        relation matches the fault-free twin byte for byte."""
        network = figure19_network()
        objects = generate_objects(8, seed=31)
        expected = _twin_relation(network, objects, serialized_relation)

        saw_faults = False
        for seed in range(6):
            backend = FaultInjectingBackend(
                SqliteMemoryBackend(),
                FaultPolicy(seed=seed, probability=0.25, sites=("execute",)),
            )
            store = PossStore(backend=backend, retry_policy=RETRY_FAST)
            resolver = BulkResolver(
                network,
                store=store,
                explicit_users=BELIEF_USERS,
                scheduler="compiled",
            )
            resolver.load_beliefs(objects)
            report = resolver.run()
            assert serialized_relation(store) == expected, f"seed {seed}"
            assert report.scheduler == "compiled"
            assert report.retries == report.faults_injected
            saw_faults = saw_faults or report.faults_injected > 0
            store.close()
        assert saw_faults  # the sweep actually injected something

    def test_sharded_compiled_retries_per_shard(self, serialized_relation):
        network = figure19_network()
        objects = generate_objects(10, seed=32)
        expected = _twin_relation(network, objects, serialized_relation)

        backends = [
            FaultInjectingBackend(
                SqliteMemoryBackend(),
                FaultPolicy(seed=40 + i, probability=0.2, sites=("execute",)),
                shard=i,
            )
            for i in range(2)
        ]
        store = ShardedPossStore(2, backends=backends, retry_policy=RETRY_FAST)
        resolver = ConcurrentBulkResolver(
            network,
            store=store,
            explicit_users=BELIEF_USERS,
            scheduler="compiled",
        )
        resolver.load_beliefs(objects)
        report = resolver.run()
        assert serialized_relation(store) == expected
        assert report.retries == report.faults_injected
        assert report.regions_compiled == resolver.compiled.region_count * 2
        store.close()


class TestCrashAndResumeAtRegionBoundaries:
    def test_crash_mid_run_resumes_skipping_committed_regions(
        self, serialized_relation, tmp_path
    ):
        """Sweep the crash point across a checkpointed compiled run on a
        file-backed store: whatever region the crash interrupts, the resume
        re-executes exactly the uncommitted suffix and lands byte-identical
        to the fault-free twin."""
        network = figure19_network()
        # A cycle below x4 adds a flood region after Figure 19's one copy
        # region, so a crash can land between two committed regions.
        network.add_trust("p", "x4", priority=1)
        network.add_trust("p", "q", priority=1)
        network.add_trust("q", "p", priority=1)
        objects = generate_objects(6, seed=33)
        expected = _twin_relation(network, objects, serialized_relation)

        saw_skip = False
        saw_crash = False
        for crash_at in range(2, 24):
            backend = FaultInjectingBackend(
                SqliteFileBackend(str(tmp_path / f"crash{crash_at}.db")),
                FaultPolicy(
                    schedule=[
                        ScriptedFault("execute", crash_at, kind="unavailable")
                    ],
                    max_faults=1,
                ),
            )
            try:
                store = PossStore(backend=backend)
            except BackendUnavailable:
                continue  # the crash hit schema setup, not the run
            run_id = f"{RUN}-{crash_at}"
            crashing = BulkResolver(
                network,
                store=store,
                explicit_users=BELIEF_USERS,
                scheduler="compiled",
                checkpoint=run_id,
            )
            try:
                crashing.load_beliefs(objects)
                crashing.run()
            except BackendUnavailable:
                saw_crash = True
                committed = store.journal_completed(run_id)
                markers = set(crashing.compiled.journal_markers())
                # Only region boundaries (and the belief load) ever commit.
                assert committed <= markers | {-1}
                resumed = BulkResolver(
                    network,
                    store=store,
                    explicit_users=BELIEF_USERS,
                    scheduler="compiled",
                    checkpoint=run_id,
                )
                resumed.load_beliefs(objects)
                report = resumed.run()
                assert report.checkpointed is True
                saw_skip = saw_skip or report.nodes_skipped > 0
            backend.policy.schedule = ()  # disarm for verification reads
            assert serialized_relation(store) == expected, crash_at
            store.close()
        assert saw_crash
        assert saw_skip

    def test_engine_compiled_resume_after_crash(
        self, serialized_relation, tmp_path
    ):
        """materialize(compiled=True, checkpoint=True) crash-resumes through
        the façade, skipping only committed regions."""
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("c", "b", priority=1)
        tn.add_trust("d", "c", priority=1)
        tn.add_trust("p", "d", priority=1)
        tn.add_trust("p", "q", priority=1)
        tn.add_trust("q", "p", priority=1)
        tn.set_explicit_belief("a", "v")

        plain = ResolutionEngine(tn.copy())
        plain.materialize()
        expected = serialized_relation(plain.store)
        plain.close()

        saw_skip = False
        for crash_at in range(2, 24):
            backend = FaultInjectingBackend(
                SqliteFileBackend(str(tmp_path / f"eng{crash_at}.db")),
                FaultPolicy(
                    schedule=[
                        ScriptedFault("execute", crash_at, kind="unavailable")
                    ],
                    max_faults=1,
                ),
            )
            try:
                store = PossStore(backend=backend)
                engine = ResolutionEngine(tn.copy(), store=store)
            except BackendUnavailable:
                continue  # the crash hit schema setup, not the run
            try:
                engine.materialize(compiled=True, checkpoint=True)
            except BackendUnavailable:
                report = engine.materialize(resume=True, compiled=True)
                assert report.checkpointed is True
                assert report.scheduler == "compiled"
                saw_skip = saw_skip or report.nodes_skipped > 0
            backend.policy.schedule = ()
            assert serialized_relation(store) == expected, crash_at
            engine.close()
        assert saw_skip

    def test_compiled_and_node_journals_never_mix(self):
        """The compiled run id is distinct from the node-at-a-time id, so a
        node-mode journal can never satisfy a whole compiled region (and
        vice versa)."""
        tn = TrustNetwork()
        tn.add_trust("mirror", "source", priority=1)
        tn.set_explicit_belief("source", "v")
        engine = ResolutionEngine(tn)
        engine.materialize(checkpoint=True)
        engine.materialize(checkpoint=True, compiled=True)
        runs = engine.store.journal_runs()
        assert len(runs) == 1  # a fresh materialize clears stale journals
        (compiled_run,) = runs
        assert compiled_run.endswith("-compiled")
        assert compiled_run != engine._run_id()
        assert compiled_run == engine._run_id() + "-compiled"
        engine.close()


class TestQuarantineUnderCompiledExecution:
    def test_dead_shard_degrades_while_compiled_runs_on_the_rest(
        self, kill_shard
    ):
        network = figure19_network()
        objects = generate_objects(6, seed=34)
        store = ShardedPossStore(2)
        resolver = ConcurrentBulkResolver(
            network,
            store=store,
            explicit_users=BELIEF_USERS,
            scheduler="compiled",
            checkpoint=RUN,
        )
        resolver.load_beliefs(objects)
        kill_shard(store, 1)
        report = resolver.run()  # shard 1 is dead; run completes degraded
        assert report.checkpointed is True
        assert report.scheduler == "compiled"
        assert store.degraded_shards == (1,)
        # The healthy shard ran compiled, not statement-at-a-time.
        assert report.regions_compiled == resolver.compiled.region_count
        assert store.shards[0].keys()
        for key in store.shards[0].keys():
            assert store.possible_values("x6", key)
        store.close()

    def test_degraded_compiled_slice_matches_healthy_twin(
        self, kill_shard, serialized_relation
    ):
        """The healthy shard's slice under degradation is byte-identical to
        the same shard's slice in an all-healthy compiled run."""
        network = figure19_network()
        objects = generate_objects(8, seed=35)

        healthy = ShardedPossStore(2)
        twin = ConcurrentBulkResolver(
            network,
            store=healthy,
            explicit_users=BELIEF_USERS,
            scheduler="compiled",
        )
        twin.load_beliefs(objects)
        twin.run()
        expected_slice = serialized_relation(healthy.shards[0])
        healthy.close()

        store = ShardedPossStore(2)
        resolver = ConcurrentBulkResolver(
            network,
            store=store,
            explicit_users=BELIEF_USERS,
            scheduler="compiled",
            checkpoint=RUN,
        )
        resolver.load_beliefs(objects)
        kill_shard(store, 1)
        resolver.run()
        assert serialized_relation(store.shards[0]) == expected_slice
        store.close()


class TestSkepticBlockedFloodChaos:
    """Faults inside blocked-flood region statements retry like any other
    region; the constrained relation (⊥ included) matches the fault-free
    twin byte for byte."""

    def _workload(self):
        from repro.workloads.bulkload import skeptic_chain_network

        network, constraints = skeptic_chain_network(40)
        rows = [
            (user, f"k{i}", f"a{4 * (i % 9 + 1)}" if i % 2 else f"b{i}")
            for i in range(5)
            for user in BELIEF_USERS
        ]
        return network, constraints, rows

    def test_blocked_flood_statements_retry_transparently(
        self, serialized_relation
    ):
        from repro.bulk.executor import SkepticBulkResolver

        network, constraints, rows = self._workload()
        twin = SkepticBulkResolver(
            network,
            positive_users=BELIEF_USERS,
            negative_constraints=constraints,
            scheduler="compiled",
        )
        twin.load_beliefs(rows)
        twin.run()
        expected = serialized_relation(twin.store)
        kinds = {region.kind for region in twin.compiled.regions}
        assert "blocked_flood" in kinds
        twin.store.close()

        saw_faults = False
        for seed in range(6):
            backend = FaultInjectingBackend(
                SqliteMemoryBackend(),
                FaultPolicy(seed=60 + seed, probability=0.25, sites=("execute",)),
            )
            store = PossStore(backend=backend, retry_policy=RETRY_FAST)
            resolver = SkepticBulkResolver(
                network,
                positive_users=BELIEF_USERS,
                negative_constraints=constraints,
                store=store,
                scheduler="compiled",
            )
            resolver.load_beliefs(rows)
            report = resolver.run()
            assert serialized_relation(store) == expected, f"seed {seed}"
            assert report.scheduler == "compiled"
            assert report.regions_compiled > 0
            assert report.retries == report.faults_injected
            saw_faults = saw_faults or report.faults_injected > 0
            store.close()
        assert saw_faults

    def test_blocked_flood_crash_resumes_at_region_boundaries(
        self, serialized_relation, tmp_path
    ):
        from repro.bulk.executor import SkepticBulkResolver

        network, constraints, rows = self._workload()
        twin = SkepticBulkResolver(
            network,
            positive_users=BELIEF_USERS,
            negative_constraints=constraints,
            scheduler="compiled",
        )
        twin.load_beliefs(rows)
        twin.run()
        expected = serialized_relation(twin.store)
        twin.store.close()

        saw_crash = False
        for crash_at in range(3, 18):
            backend = FaultInjectingBackend(
                SqliteFileBackend(str(tmp_path / f"sk{crash_at}.db")),
                FaultPolicy(
                    schedule=[
                        ScriptedFault("execute", crash_at, kind="unavailable")
                    ],
                    max_faults=1,
                ),
            )
            try:
                store = PossStore(backend=backend)
            except BackendUnavailable:
                continue
            run_id = f"skeptic-{crash_at}"
            crashing = SkepticBulkResolver(
                network,
                positive_users=BELIEF_USERS,
                negative_constraints=constraints,
                store=store,
                scheduler="compiled",
                checkpoint=run_id,
            )
            try:
                crashing.load_beliefs(rows)
                crashing.run()
            except BackendUnavailable:
                saw_crash = True
                resumed = SkepticBulkResolver(
                    network,
                    positive_users=BELIEF_USERS,
                    negative_constraints=constraints,
                    store=store,
                    scheduler="compiled",
                    checkpoint=run_id,
                )
                resumed.load_beliefs(rows)
                report = resumed.run()
                assert report.checkpointed is True
            backend.policy.schedule = ()
            assert serialized_relation(store) == expected, crash_at
            store.close()
        assert saw_crash


class TestConcurrentRegionChaos:
    """Concurrent region workers under injected faults: the relation is
    byte-identical to the fault-free sequential twin, with per-statement
    retries absorbing transient errors in any worker thread."""

    def _workload(self):
        from repro.bulk.compile import RegionLimits, compile_plan
        from repro.bulk.planner import plan_resolution
        from repro.workloads.bulkload import multi_chain_network

        network, roots = multi_chain_network(4, 20)
        plan = plan_resolution(network, explicit_users=roots)
        limits = RegionLimits(max_copy_edges=20, max_flood_pairs=20)
        compiled = compile_plan(plan, limits=limits)
        rows = [(root, f"k{i}", f"v{i}") for root in roots for i in range(3)]
        return network, roots, plan, compiled, rows

    def test_concurrent_regions_match_sequential_twin_under_faults(
        self, serialized_relation, tmp_path
    ):
        network, roots, plan, compiled, rows = self._workload()
        twin_store = PossStore()
        twin = BulkResolver(
            network, store=twin_store, explicit_users=roots, plan=plan
        )
        twin.load_beliefs(rows)
        twin.run()
        expected = serialized_relation(twin_store)
        twin_store.close()

        saw_faults = saw_overlap = False
        for seed in range(6):
            backend = FaultInjectingBackend(
                SqliteFileBackend(str(tmp_path / f"cw{seed}.db")),
                FaultPolicy(seed=80 + seed, probability=0.15, sites=("execute",)),
            )
            if not backend.supports_concurrent_statements:
                pytest.skip("sqlite build is not serialized-threadsafe")
            store = PossStore(backend=backend, retry_policy=RETRY_FAST)
            resolver = BulkResolver(
                network,
                store=store,
                explicit_users=roots,
                scheduler="compiled",
                workers=4,
                plan=plan,
                compiled_plan=compiled,
            )
            resolver.load_beliefs(rows)
            report = resolver.run()
            assert serialized_relation(store) == expected, f"seed {seed}"
            assert report.workers == 4
            assert report.retries == report.faults_injected
            saw_faults = saw_faults or report.faults_injected > 0
            saw_overlap = saw_overlap or report.stages_overlapped > 0
            store.close()
        assert saw_faults


class TestConcurrentCheckpointedRecovery:
    """The threaded sharded recovery path: concurrent per-shard resume
    lands byte-identical, reports its lanes, and still quarantines."""

    def test_threaded_recovery_matches_fault_free_twin(
        self, serialized_relation, tmp_path
    ):
        network = figure19_network()
        objects = generate_objects(8, seed=36)

        healthy = ShardedPossStore(
            2,
            backends=[
                SqliteFileBackend(str(tmp_path / f"twin-{i}.db"))
                for i in range(2)
            ],
        )
        twin = ConcurrentBulkResolver(
            network,
            store=healthy,
            explicit_users=BELIEF_USERS,
            scheduler="compiled",
        )
        twin.load_beliefs(objects)
        twin.run()
        expected = serialized_relation(healthy)
        concurrent = healthy.supports_concurrent_replay
        healthy.close()

        saw_quarantine = False
        for crash_at in range(3, 16):
            backends = [
                FaultInjectingBackend(
                    SqliteFileBackend(str(tmp_path / f"rec{crash_at}-{i}.db")),
                    FaultPolicy(
                        schedule=[
                            ScriptedFault(
                                "execute", crash_at, shard=i, kind="unavailable"
                            )
                        ]
                        if i == 1
                        else [],
                        max_faults=1,
                    ),
                    shard=i,
                )
                for i in range(2)
            ]
            try:
                store = ShardedPossStore(2, backends=backends)
            except BackendUnavailable:
                continue
            run_id = f"recover-{crash_at}"
            crashing = ConcurrentBulkResolver(
                network,
                store=store,
                explicit_users=BELIEF_USERS,
                scheduler="compiled",
                checkpoint=run_id,
            )
            # A shard fault during the checkpointed run quarantines the
            # shard (the run completes degraded); one hitting the belief
            # load raises instead.  Either way the resume path repairs it.
            try:
                crashing.load_beliefs(objects)
                crashing.run()
            except BackendUnavailable:
                pass
            for backend in backends:
                backend.policy.schedule = ()
            if store.degraded_shards or serialized_relation(store) != expected:
                saw_quarantine = saw_quarantine or bool(store.degraded_shards)
                if store.degraded_shards:
                    store.heal(1)
                resumed = ConcurrentBulkResolver(
                    network,
                    store=store,
                    explicit_users=BELIEF_USERS,
                    scheduler="compiled",
                    checkpoint=run_id,
                )
                resumed.load_beliefs(objects)
                report = resumed.run()
                assert report.checkpointed is True
                assert report.workers == (2 if concurrent else 1)
            for backend in backends:
                backend.policy.schedule = ()
            assert serialized_relation(store) == expected, crash_at
            store.close()
        assert saw_quarantine
