"""Chaos tests for region execution: faults inside the regions of a run.

A compiled region is one SQL statement covering many plan steps, and a
replay region one plan step, so the fault-tolerance machinery must treat a
region as one unit: transient faults retry the whole region statement, a
crash between regions resumes at a region boundary (never inside one), a
hard fault in an uncheckpointed run never leaves a prefix of the run
visible, and a quarantined shard degrades the run while the healthy shards
keep executing compiled.  Every scenario is locked against a fault-free
twin through the byte-identity oracle.
"""

from __future__ import annotations

import random
import sqlite3

import pytest

from repro.core.errors import BackendUnavailable
from repro.core.network import TrustNetwork
from repro.faults import FaultInjectingBackend, FaultPolicy, RetryPolicy, ScriptedFault
from repro.bulk.backends import DbApiBackend, SqliteFileBackend, SqliteMemoryBackend
from repro.bulk.compile import RegionLimits, compile_plan
from repro.bulk.executor import SCHEDULERS, BulkResolver
from repro.bulk.planner import plan_resolution
from repro.bulk.store import PossStore, ShardedPossStore
from repro.engine import ResolutionEngine
from repro.workloads.bulkload import (
    BELIEF_USERS,
    figure19_network,
    generate_objects,
    multi_chain_network,
)

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


def _backend(kind, tmp_path, name):
    if kind == "memory":
        return SqliteMemoryBackend()
    if kind == "file":
        return SqliteFileBackend(str(tmp_path / f"{name}.db"))
    path = str(tmp_path / f"{name}.db")
    return DbApiBackend(
        lambda: sqlite3.connect(path, check_same_thread=False),
        name="dbapi-sqlite",
        dialect="sqlite",
    )


class TestTransientFaultsInsideRegions:
    @pytest.mark.parametrize("checkpoint", (None, RUN))
    @pytest.mark.parametrize("backend_kind", ("memory", "file"))
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_region_statements_retry_transparently(
        self, scheduler, backend_kind, checkpoint, tmp_path, serialized_relation
    ):
        """Probabilistic transient faults on execute hit the big region
        statements too (and the BEGINs, commits and journal writes of a
        checkpointed run); the retry loop absorbs every one of them and the
        relation matches the fault-free twin byte for byte."""
        network = figure19_network()
        objects = generate_objects(8, seed=31)
        expected = _twin_relation(network, objects, serialized_relation)

        saw_faults = False
        for seed in range(6):
            backend = FaultInjectingBackend(
                _backend(backend_kind, tmp_path, f"retry{seed}"),
                FaultPolicy(seed=seed, probability=0.25, sites=("execute",)),
            )
            store = PossStore(backend=backend, retry_policy=RETRY_FAST)
            resolver = BulkResolver(
                network,
                store=store,
                explicit_users=BELIEF_USERS,
                scheduler=scheduler,
                checkpoint=checkpoint,
            )
            resolver.load_beliefs(objects)
            report = resolver.run()
            assert serialized_relation(store) == expected, f"seed {seed}"
            assert report.scheduler == scheduler
            assert report.checkpointed == (checkpoint is not None)
            assert report.nodes_skipped == 0
            assert report.retries == report.faults_injected
            saw_faults = saw_faults or report.faults_injected > 0
            store.close()
        assert saw_faults  # the sweep actually injected something

    @pytest.mark.parametrize("checkpoint", (None, RUN))
    @pytest.mark.parametrize("backend_kind", ("memory", "file"))
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_sharded_run_retries_per_shard(
        self, scheduler, backend_kind, checkpoint, tmp_path, serialized_relation
    ):
        network = figure19_network()
        objects = generate_objects(10, seed=32)
        expected = _twin_relation(network, objects, serialized_relation)

        backends = [
            FaultInjectingBackend(
                _backend(backend_kind, tmp_path, f"shard{i}"),
                FaultPolicy(seed=40 + i, probability=0.2, sites=("execute",)),
                shard=i,
            )
            for i in range(2)
        ]
        store = ShardedPossStore(2, backends=backends, retry_policy=RETRY_FAST)
        resolver = BulkResolver(
            network,
            store=store,
            explicit_users=BELIEF_USERS,
            scheduler=scheduler,
            checkpoint=checkpoint,
        )
        resolver.load_beliefs(objects)
        report = resolver.run()
        assert serialized_relation(store) == expected
        assert report.retries == report.faults_injected
        assert not store.degraded_shards
        if scheduler == "compiled":
            assert report.regions_compiled == resolver.compiled.region_count * 2
        store.close()


class TestCrashAndResumeAtRegionBoundaries:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_crash_mid_run_resumes_skipping_committed_regions(
        self, scheduler, serialized_relation, tmp_path
    ):
        """Sweep the crash point across a checkpointed run on a file-backed
        store: whatever region the crash interrupts — the first, one in the
        middle, the last — the committed regions form a prefix of the
        plan's regions, and the resume re-executes (and accounts for)
        exactly the uncommitted suffix, landing byte-identical to the
        fault-free twin."""
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
        for crash_at in range(0, 21):
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
            run_id = f"{RUN}-{crash_at}"
            crashing = BulkResolver(
                network,
                store=store,
                explicit_users=BELIEF_USERS,
                scheduler=scheduler,
                checkpoint=run_id,
            )
            try:
                crashing.load_beliefs(objects)
                crashing.run()
            except BackendUnavailable:
                saw_crash = True
                committed = store.journal_completed(run_id) - {-1}
                regions = crashing.compiled.regions
                markers = crashing.compiled.journal_markers()
                # Only region boundaries ever commit, and only in order.
                done = len(committed)
                assert committed == set(markers[:done])
                rest = regions[done:]
                resumed = BulkResolver(
                    network,
                    store=store,
                    explicit_users=BELIEF_USERS,
                    scheduler=scheduler,
                    checkpoint=run_id,
                )
                resumed.load_beliefs(objects)
                report = resumed.run()
                assert report.checkpointed is True
                assert report.nodes_skipped == sum(
                    len(region.steps) for region in regions[:done]
                )
                assert report.transactions == len(rest)
                assert report.statements == sum(
                    region.statement_count() for region in rest
                )
                assert report.statements_saved == sum(
                    region.replay_statement_count() - region.statement_count()
                    for region in rest
                )
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
        for crash_at in range(0, 21):
            backend = FaultInjectingBackend(
                SqliteFileBackend(str(tmp_path / f"eng{crash_at}.db")),
                FaultPolicy(
                    schedule=[
                        ScriptedFault("execute", crash_at, kind="unavailable")
                    ],
                    max_faults=1,
                ),
            )
            store = PossStore(backend=backend)
            engine = ResolutionEngine(tn.copy(), store=store)
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
        resolver = BulkResolver(
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
        twin = BulkResolver(
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
        resolver = BulkResolver(
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
        for crash_at in range(0, 15):
            backend = FaultInjectingBackend(
                SqliteFileBackend(str(tmp_path / f"sk{crash_at}.db")),
                FaultPolicy(
                    schedule=[
                        ScriptedFault("execute", crash_at, kind="unavailable")
                    ],
                    max_faults=1,
                ),
            )
            store = PossStore(backend=backend)
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
        twin = BulkResolver(
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
        for crash_at in range(0, 13):
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
            store = ShardedPossStore(2, backends=backends)
            run_id = f"recover-{crash_at}"
            crashing = BulkResolver(
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
                assert report.workers == (2 if concurrent else 1)
            for backend in backends:
                backend.policy.schedule = ()
            assert serialized_relation(store) == expected, crash_at
            store.close()
        assert saw_quarantine


class TestHardFaultNeverLeavesAPartialRun:
    @pytest.mark.parametrize("backend_kind", ("file", "dbapi"))
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_no_partially_visible_run_wherever_the_fault_lands(
        self, scheduler, backend_kind, tmp_path, serialized_relation
    ):
        """Sweep a hard (non-retryable) fault across the statement stream of
        an uncheckpointed run over several regions: whichever region's
        statement it kills, the run transaction rolls back and the relation
        afterwards is exactly the loaded beliefs, never a prefix of the
        run."""
        network, roots = multi_chain_network(3, 6)
        plan = plan_resolution(network, explicit_users=roots)
        compiled_plan = compile_plan(
            plan, limits=RegionLimits(max_copy_edges=6, max_flood_pairs=6)
        )
        assert compiled_plan.region_count > 1
        rows = [(root, f"k{i}", f"v{i % 2}") for root in roots for i in range(4)]
        twin = BulkResolver(network, plan=plan)
        twin.load_beliefs(rows)
        twin.run()
        expected = serialized_relation(twin.store)
        twin.store.close()

        saw_death = False
        saw_completion = False
        for crash_at in range(1, 37, 2):
            policy = FaultPolicy(
                schedule=[
                    ScriptedFault(site="execute", index=crash_at, kind="unavailable")
                ],
                sites=(),
            )
            try:
                store = PossStore(
                    backend=FaultInjectingBackend(
                        _backend(backend_kind, tmp_path, f"death{crash_at}"), policy
                    ),
                    retry_policy=RETRY_FAST,
                )
                resolver = BulkResolver(
                    network,
                    store=store,
                    plan=plan,
                    compiled_plan=compiled_plan,
                    scheduler=scheduler,
                )
                resolver.load_beliefs(rows)
            except BackendUnavailable:
                # The fault fired while loading the beliefs: no run
                # started, not this scenario's subject.
                continue
            before = sorted(store.possible_table())
            try:
                resolver.run()
            except BackendUnavailable:
                saw_death = True
                assert sorted(store.possible_table()) == before, (
                    f"crash at execute #{crash_at} left a partial run visible"
                )
                assert not store.in_transaction
            else:
                saw_completion = True
                # The crash index may fall beyond the run's statement
                # stream; disarm it so it cannot fire inside this
                # verification read.
                policy.schedule = ()
                assert serialized_relation(store) == expected
            store.close()
        assert saw_death  # the sweep really killed runs mid-way
        assert saw_completion  # and also ran off the end of the stream
