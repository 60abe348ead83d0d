"""Differential tests for plan execution through the run loop.

The acceptance property of the compiled scheduler: partitioning a plan
into regions — flat ancestor-join copy regions, ``DISTINCT`` flood
stages, replay fallbacks — and executing each region as one pushed-down
SQL statement must produce a relation byte-identical to the sequential
plan-order replay, on hundreds of randomized networks, for shard counts
{1, 2, 4} and for in-memory sqlite, sqlite-file and DB-API backends.  A
missing dialect never changes the relation, only how many statements it
took.
"""

from __future__ import annotations

import random
import sqlite3
from collections import Counter

import pytest

import repro.bulk.executor as executor_module
from repro.bulk.backends import DbApiBackend, SqliteFileBackend
from repro.bulk.compile import (
    MAX_COPY_EDGES,
    MAX_FLOOD_PAIRS,
    CompiledPlan,
    CompiledRegion,
    RegionLimits,
    compile_plan,
    compile_steps,
    frontier_ancestors,
    replay_plan,
)
from repro.bulk.executor import (
    JOURNAL_BELIEFS_NODE,
    SCHEDULERS,
    BulkResolver,
    SkepticBulkResolver,
    _replay_step,
)
from repro.bulk.planner import (
    FloodStep,
    GroupedCopyStep,
    plan_resolution,
)
from repro.bulk.sql import SqlDialect, sqlite_dialect
from repro.bulk.store import PossStore, ShardedPossStore
from repro.core.errors import BulkProcessingError
from repro.core.network import TrustNetwork
from repro.workloads.bulkload import (
    BELIEF_USERS,
    chain_network,
    figure19_network,
    generate_objects,
    multi_chain_network,
)
from repro.workloads.oscillators import oscillator_network


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


def _sequential_reference(plan, rows, serialized_relation):
    """The relation produced by a plain plan-order sequential replay."""
    store = PossStore()
    store.insert_explicit_beliefs(rows)
    with store.transaction():
        for step in plan.steps:
            _replay_step(store, step)
    expected = serialized_relation(store)
    store.close()
    return expected


def _file_backends(tmp_path, tag, count):
    return [
        SqliteFileBackend(str(tmp_path / f"{tag}-shard{i}.db")) for i in range(count)
    ]


def _dbapi_backends(tmp_path, tag, count, dialect="sqlite"):
    def factory(path):
        return lambda: sqlite3.connect(path, check_same_thread=False)

    return [
        DbApiBackend(
            factory(str(tmp_path / f"{tag}-dbshard{i}.db")),
            name="dbapi-sqlite",
            dialect=dialect,
        )
        for i in range(count)
    ]


class TestCompiledEquivalenceProperty:
    """Acceptance property: the compiled scheduler is byte-identical to
    sequential replay on >= 200 random networks, shard counts {1, 2, 4},
    through in-memory sqlite, sqlite-file and DB-API backends."""

    NETWORKS = 200
    SHARD_COUNTS = (1, 2, 4)
    BACKEND_KINDS = ("memory", "file", "dbapi")

    def test_compiled_execution_is_byte_identical_over_random_networks(
        self, tmp_path, serialized_relation
    ):
        rng = random.Random(20100807)
        flood_regions = 0
        for trial in range(self.NETWORKS):
            network, explicit = _random_network(rng)
            rows = _random_rows(rng, explicit, n_objects=rng.randint(2, 5))
            shards = self.SHARD_COUNTS[trial % len(self.SHARD_COUNTS)]
            kind = self.BACKEND_KINDS[(trial // 3) % len(self.BACKEND_KINDS)]
            if kind == "memory":
                store = ShardedPossStore(shards)
            elif kind == "file":
                store = ShardedPossStore(
                    shards, backends=_file_backends(tmp_path, f"t{trial}", shards)
                )
            else:
                store = ShardedPossStore(
                    shards, backends=_dbapi_backends(tmp_path, f"t{trial}", shards)
                )
            resolver = BulkResolver(
                network,
                store=store,
                explicit_users=explicit,
                scheduler="compiled",
            )
            expected = _sequential_reference(
                resolver.plan, rows, serialized_relation
            )
            compiled = resolver.compiled
            flood_regions += sum(
                1 for region in compiled.regions if region.kind == "flood"
            )
            resolver.load_beliefs(rows)
            report = resolver.run()
            assert serialized_relation(store) == expected, (
                f"trial {trial}: compiled execution diverged "
                f"(shards={shards}, backend={kind})"
            )
            assert report.scheduler == "compiled"
            # Every region compiles on sqlite >= 3.25, on every shard ...
            assert report.regions_compiled == compiled.region_count * shards
            # ... so the statement count is the compiled one, not the replay's.
            assert report.statements == compiled.statement_count() * shards
            assert report.statements_saved == (
                compiled.replay_statement_count() - compiled.statement_count()
            ) * shards
            store.close()
        # The generator must actually exercise the flood-stage path.
        assert flood_regions > 20

    def test_single_store_compiled_is_byte_identical(
        self, tmp_path, serialized_relation
    ):
        """One sqlite-file / DB-API store through BulkResolver directly."""
        rng = random.Random(8742)
        for trial in range(40):
            network, explicit = _random_network(rng)
            rows = _random_rows(rng, explicit, n_objects=3)
            if trial % 2:
                backend = SqliteFileBackend(str(tmp_path / f"c{trial}.db"))
            else:
                path = str(tmp_path / f"c{trial}-db.db")
                backend = DbApiBackend(
                    lambda path=path: sqlite3.connect(path, check_same_thread=False),
                    name="dbapi-sqlite",
                    dialect="sqlite",
                )
            store = PossStore(backend=backend)
            resolver = BulkResolver(
                network, store=store, explicit_users=explicit, scheduler="compiled"
            )
            expected = _sequential_reference(
                resolver.plan, rows, serialized_relation
            )
            resolver.load_beliefs(rows)
            report = resolver.run()
            assert serialized_relation(store) == expected, f"trial {trial}"
            assert report.scheduler == "compiled"
            assert report.transactions == 1
            assert report.regions_compiled == resolver.compiled.region_count
            store.close()


class TestRunLoopEquivalenceProperty:
    """Both lowerings run through the one run loop and stay byte-identical
    to sequential plan-order replay on random networks, on one store and
    on two file-backed shards (threaded lanes)."""

    NETWORKS = 60

    @pytest.mark.parametrize("layout", ("single", "sharded"))
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_run_is_byte_identical_over_random_networks(
        self, scheduler, layout, tmp_path, serialized_relation
    ):
        rng = random.Random(20100608)
        for trial in range(self.NETWORKS):
            network, explicit = _random_network(rng)
            rows = _random_rows(rng, explicit, n_objects=rng.randint(2, 5))
            if layout == "single":
                store = PossStore(
                    backend=SqliteFileBackend(str(tmp_path / f"t{trial}.db"))
                )
                lanes = 1
            else:
                store = ShardedPossStore(
                    2, backends=_file_backends(tmp_path, f"t{trial}", 2)
                )
                lanes = 2
            resolver = BulkResolver(
                network, store=store, explicit_users=explicit, scheduler=scheduler
            )
            expected = _sequential_reference(
                resolver.plan, rows, serialized_relation
            )
            resolver.load_beliefs(rows)
            report = resolver.run()
            assert serialized_relation(store) == expected, (
                f"trial {trial}: {scheduler} run diverged ({layout})"
            )
            assert report.scheduler == scheduler
            assert report.shards == lanes
            # One run transaction per store, no checkpoint.
            assert report.transactions == lanes
            if scheduler == "replay":
                # The Section 4 invariant: one plan's statements per store.
                assert (
                    report.statements_per_shard()
                    == resolver.plan.statement_count()
                )
                assert report.statements_saved == 0
            else:
                assert report.statements == (
                    resolver.compiled.statement_count() * lanes
                )
            store.close()


class TestRunLoop:
    """The shared run loop: lowering, validation, rollback, accounting."""

    def test_replay_lowers_each_step_to_a_one_step_region(self):
        plan = plan_resolution(figure19_network(), explicit_users=BELIEF_USERS)
        lowered = replay_plan(plan)
        assert [region.kind for region in lowered.regions] == (
            ["replay"] * len(plan.steps)
        )
        assert [region.steps for region in lowered.regions] == [
            (step,) for step in plan.steps
        ]
        assert lowered.statement_count() == plan.statement_count()

    def test_unknown_scheduler_rejected(self):
        for scheduler in ("chaotic", "pipelined", "stage-barrier"):
            with pytest.raises(BulkProcessingError):
                BulkResolver(figure19_network(), scheduler=scheduler)

    def test_materialize_replay_is_one_transaction_of_plan_statements(self):
        from repro import ResolutionEngine

        with ResolutionEngine.open(chain_network(30)) as engine:
            report = engine.materialize()
            assert report.scheduler == "replay"
            assert report.statements == engine.plan.statement_count()
            assert report.transactions == 1

    def test_sharded_failure_rolls_back_all_shards(self, tmp_path):
        """A shard lane failing mid-run rolls back every shard."""
        store = ShardedPossStore(2, backends=_file_backends(tmp_path, "fail", 2))
        resolver = BulkResolver(
            figure19_network(), store=store, explicit_users=BELIEF_USERS
        )
        resolver.load_beliefs(generate_objects(10, seed=4))
        before = [sorted(shard.possible_table()) for shard in store.shards]

        def failing_copy(parent, children):
            raise BulkProcessingError("shard 1 lost its engine mid-run")

        store.shards[1].copy_to_children = failing_copy
        with pytest.raises(BulkProcessingError, match="lost its engine"):
            resolver.run()
        assert [sorted(shard.possible_table()) for shard in store.shards] == before
        assert not store.in_transaction
        store.close()

    def test_phase_seconds_sum_to_wall_time_on_serial_replay(self):
        """copy + flood account for (almost all of) the run's wall time:
        one lane times each statement exactly once, so the two phases plus
        loop overhead equal the elapsed wall clock."""
        resolver = BulkResolver(figure19_network(), explicit_users=BELIEF_USERS)
        resolver.load_beliefs(generate_objects(2_000, seed=11))
        report = resolver.run()
        phased = sum(report.phase_seconds.values())
        assert set(report.phase_seconds) == {"copy", "flood"}
        # Never more than the wall clock (no double counting) ...
        assert phased <= report.elapsed_seconds
        # ... and never less than 80% of it (nothing material untimed).
        assert phased >= 0.8 * report.elapsed_seconds, report
        resolver.store.close()

    def test_replay_checkpoint_markers_are_plan_step_indices(self):
        resolver = BulkResolver(
            figure19_network(), explicit_users=BELIEF_USERS, checkpoint="steps"
        )
        resolver.load_beliefs(generate_objects(5, seed=2))
        report = resolver.run()
        steps = len(resolver.plan.steps)
        assert report.checkpointed
        assert report.transactions == steps
        assert resolver.store.journal_completed("steps") == frozenset(
            range(steps)
        ) | {JOURNAL_BELIEFS_NODE}
        resolver.store.close()


class TestResumedRunAccounting:
    """A resumed run reports savings only for the regions it executed."""

    def _run(self, network, store, rows):
        resolver = BulkResolver(
            network,
            store=store,
            explicit_users=BELIEF_USERS,
            scheduler="compiled",
            checkpoint="run1",
        )
        resolver.load_beliefs(rows)
        return resolver, resolver.run()

    def test_single_store_resume_saves_nothing(self, tmp_path):
        network = chain_network(30)
        rows = generate_objects(4, seed=3)
        path = str(tmp_path / "resume.db")
        store = PossStore(backend=SqliteFileBackend(path))
        resolver, first = self._run(network, store, rows)
        assert first.statements_saved == resolver.compiled.statements_saved() > 0
        _resolver, second = self._run(network, store, rows)
        assert second.statements == 0
        assert second.nodes_skipped == len(resolver.plan.steps)
        assert second.statements_saved == 0
        store.close()

    def test_sharded_resume_saves_nothing(self, tmp_path):
        network = chain_network(30)
        rows = generate_objects(6, seed=3)
        store = ShardedPossStore(2, backends=_file_backends(tmp_path, "resume", 2))
        resolver, first = self._run(network, store, rows)
        assert first.statements_saved == 2 * resolver.compiled.statements_saved()
        _resolver, second = self._run(network, store, rows)
        assert second.statements == 0
        assert second.nodes_skipped == 2 * len(resolver.plan.steps)
        assert second.statements_saved == 0
        store.close()

    @pytest.mark.parametrize("layout", ("single", "sharded"))
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_partial_resume_accounts_only_for_the_remaining_regions(
        self, scheduler, layout, tmp_path, monkeypatch, serialized_relation
    ):
        """A lane fails at its middle region; the resume executes, and
        reports, only the regions from there on."""
        network, roots = multi_chain_network(2, 4)
        network.add_trust("p", "c0u3", priority=1)
        network.add_trust("p", "q", priority=1)
        network.add_trust("q", "p", priority=1)
        network.add_trust("z", "p", priority=1)
        plan = plan_resolution(network, explicit_users=roots)
        compiled_plan = compile_plan(
            plan, limits=RegionLimits(max_copy_edges=4, max_flood_pairs=4)
        )
        rows = [(root, f"k{i}", f"v{i % 3}") for root in roots for i in range(6)]
        expected = _sequential_reference(plan, rows, serialized_relation)
        if layout == "single":
            store = PossStore(backend=SqliteFileBackend(str(tmp_path / "p.db")))
            target = store
        else:
            store = ShardedPossStore(2, backends=_file_backends(tmp_path, "p", 2))
            target = store.shards[1]

        def resolver():
            return BulkResolver(
                network,
                store=store,
                plan=plan,
                compiled_plan=compiled_plan,
                scheduler=scheduler,
                checkpoint="run1",
            )

        crashing = resolver()
        crashing.load_beliefs(rows)
        regions = crashing.compiled.regions
        markers = crashing.compiled.journal_markers()
        failed_at = len(regions) // 2
        assert failed_at > 0
        real = executor_module._execute_region
        seen = []

        def execute(lane_store, region, clock):
            if lane_store is target:
                if len(seen) == failed_at:
                    raise BulkProcessingError("injected failure")
                seen.append(region)
            return real(lane_store, region, clock)

        monkeypatch.setattr(executor_module, "_execute_region", execute)
        with pytest.raises(BulkProcessingError, match="injected failure"):
            crashing.run()
        monkeypatch.setattr(executor_module, "_execute_region", real)
        # Each region committed with its marker; the failed one did not.
        assert target.journal_completed("run1") == frozenset(
            markers[:failed_at]
        ) | {JOURNAL_BELIEFS_NODE}

        resumed = resolver()
        assert resumed.load_beliefs(rows) == 0  # the load is journaled too
        report = resumed.run()
        assert serialized_relation(store) == expected
        rest = regions[failed_at:]
        healthy_steps = len(plan.steps) if layout == "sharded" else 0
        assert report.nodes_skipped == healthy_steps + sum(
            len(region.steps) for region in regions[:failed_at]
        )
        assert report.transactions == len(rest)
        assert report.statements == sum(region.statement_count() for region in rest)
        assert report.statements_saved == sum(
            region.replay_statement_count() - region.statement_count()
            for region in rest
        )
        store.close()


class TestStatementCollapse:
    """The headline win: long acyclic runs become one copy-region statement."""

    def test_400_chain_collapses_to_one_statement(self, serialized_relation):
        network = chain_network(400)
        rows = generate_objects(5, seed=21)
        reference = BulkResolver(network, explicit_users=BELIEF_USERS)
        assert reference.plan.statement_count() >= 400
        reference.load_beliefs(rows)
        reference.run()
        expected = serialized_relation(reference.store)
        reference.store.close()

        resolver = BulkResolver(
            network, explicit_users=BELIEF_USERS, scheduler="compiled"
        )
        resolver.load_beliefs(rows)
        report = resolver.run()
        assert serialized_relation(resolver.store) == expected
        # The entire acyclic chain is one recursive-CTE region.
        assert report.statements <= 5
        assert report.statements_saved >= 395
        assert report.regions_compiled >= 1
        resolver.store.close()

    def test_figure19_compiles_below_replay(self, serialized_relation):
        network = figure19_network()
        rows = generate_objects(10, seed=6)
        reference = BulkResolver(network, explicit_users=BELIEF_USERS)
        reference.load_beliefs(rows)
        reference.run()
        expected = serialized_relation(reference.store)
        replay_statements = reference.plan.statement_count()
        reference.store.close()

        resolver = BulkResolver(
            network, explicit_users=BELIEF_USERS, scheduler="compiled"
        )
        resolver.load_beliefs(rows)
        report = resolver.run()
        assert serialized_relation(resolver.store) == expected
        assert report.statements < replay_statements
        resolver.store.close()

    def test_repeated_run_hits_the_statement_cache_for_every_region(
        self, tmp_path
    ):
        network, roots = multi_chain_network(4, 10)
        plan = plan_resolution(network, explicit_users=roots)
        limits = RegionLimits(max_copy_edges=10, max_flood_pairs=10)
        compiled_plan = compile_plan(plan, limits=limits)
        assert compiled_plan.region_count > 1
        store = PossStore(backend=SqliteFileBackend(str(tmp_path / "cache.db")))
        rows = [(root, "k0", "v") for root in roots]
        for attempt in range(2):
            resolver = BulkResolver(
                network,
                store=store,
                scheduler="compiled",
                plan=plan,
                compiled_plan=compiled_plan,
            )
            if attempt:
                store.clear()
            resolver.load_beliefs(rows)
            resolver.run()
        # The second run re-renders nothing: every region fingerprint hits.
        assert store.statement_cache_size == compiled_plan.region_count
        assert store.statement_cache_misses == compiled_plan.region_count
        assert store.statement_cache_hits >= compiled_plan.region_count
        store.close()


class TestRegionBoundaries:
    """Units for the partitioning rules of compile_steps/compile_plan."""

    def test_all_acyclic_plan_is_one_copy_region(self):
        network = chain_network(50)
        plan = plan_resolution(network, explicit_users=BELIEF_USERS)
        compiled = compile_plan(plan)
        assert isinstance(compiled, CompiledPlan)
        assert [region.kind for region in compiled.regions] == ["copy"]
        assert compiled.statement_count() == 1
        assert compiled.replay_statement_count() == plan.statement_count()

    def test_single_scc_plan_is_one_flood_region(self):
        tn = TrustNetwork()
        tn.add_trust("p", "q", priority=1)
        tn.add_trust("q", "p", priority=1)
        tn.add_trust("p", "root", priority=1)
        tn.set_explicit_belief("root", "v")
        plan = plan_resolution(tn)
        flood_steps = [s for s in plan.steps if isinstance(s, FloodStep)]
        assert flood_steps, "plan shape changed: expected an SCC flood"
        compiled = compile_plan(plan)
        kinds = [region.kind for region in compiled.regions]
        assert "flood" in kinds
        for region in compiled.regions:
            if region.kind == "flood":
                assert region.pairs  # member × parent pairs, flattened later
                assert all(isinstance(s, FloodStep) for s in region.steps)

    def test_grouped_copies_flush_at_the_edge_cap(self):
        big = MAX_COPY_EDGES - 180  # two of these cannot share a region
        first = GroupedCopyStep(
            parent="r", children=tuple(f"a{i}" for i in range(big))
        )
        second = GroupedCopyStep(
            parent="r", children=tuple(f"b{i}" for i in range(big))
        )
        regions = compile_steps([first, second])
        assert [region.kind for region in regions] == ["copy", "copy"]
        assert len(regions[0].edges) == big
        assert len(regions[1].edges) == big

    def test_oversized_grouped_copy_becomes_a_replay_region(self):
        step = GroupedCopyStep(
            parent="r",
            children=tuple(f"c{i}" for i in range(MAX_COPY_EDGES + 20)),
        )
        regions = compile_steps([step])
        assert [region.kind for region in regions] == ["replay"]
        # Replay of one grouped copy is still one statement: nothing lost.
        assert regions[0].statement_count() == 1
        assert regions[0].replay_statement_count() == 1

    def test_copy_straddling_a_region_edge_stays_correct(self, serialized_relation):
        """A copy chain interleaved with a flood splits into copy / flood /
        copy regions whose concatenation replays the exact plan order."""
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("p", "b", priority=1)
        tn.add_trust("p", "q", priority=1)
        tn.add_trust("q", "p", priority=1)
        tn.add_trust("z", "p", priority=1)
        tn.set_explicit_belief("a", "v")
        plan = plan_resolution(tn)
        compiled = compile_plan(plan)
        kinds = [region.kind for region in compiled.regions]
        assert kinds.count("flood") >= 1
        assert kinds.count("copy") >= 2  # before and after the SCC
        # Region steps concatenate back to the plan's step sequence.
        flattened = [s for region in compiled.regions for s in region.steps]
        assert flattened == list(plan.steps)
        rows = [("a", "k0", "v1"), ("a", "k1", "v2")]
        expected = _sequential_reference(plan, rows, serialized_relation)
        store = PossStore()
        resolver = BulkResolver(
            tn, store=store, explicit_users=["a"], scheduler="compiled"
        )
        resolver.load_beliefs(rows)
        resolver.run()
        assert serialized_relation(store) == expected
        store.close()

    def test_blocked_flood_compiles_into_a_blocked_flood_region(self):
        blocked = FloodStep(
            members=("p",), parents=("source",), blocked=(("p", ("v1", "v2")),)
        )
        regions = compile_steps([blocked])
        assert [region.kind for region in regions] == ["blocked_flood"]
        region = regions[0]
        assert region.pairs == (("p", "source"),)
        assert region.blocked == (("p", "v1"), ("p", "v2"))
        assert region.statement_count() == 1
        # Replay needs two statements per constrained group (filtered
        # values plus the ⊥ rows), so compiling saves one round trip.
        assert region.replay_statement_count() == 2

    def test_blocked_floods_merge_only_when_members_stay_disjoint_from_parents(self):
        first = FloodStep(
            members=("p",), parents=("source",), blocked=(("p", ("v1",)),)
        )
        independent = FloodStep(
            members=("r",), parents=("source",), blocked=(("r", ("v2",)),)
        )
        dependent = FloodStep(
            members=("s",), parents=("p",), blocked=(("s", ("v3",)),)
        )
        assert [r.kind for r in compile_steps([first, independent])] == [
            "blocked_flood"
        ]
        # A blocked flood reading a member closed by the open run must not
        # share its statement: the flood pass would miss the fresh rows.
        assert [r.kind for r in compile_steps([first, dependent])] == [
            "blocked_flood",
            "blocked_flood",
        ]

    def test_oversized_blocked_flood_spills_to_replay(self):
        members = tuple(f"m{i}" for i in range(40))
        parents = tuple(f"p{i}" for i in range(MAX_FLOOD_PAIRS // 40 + 1))
        oversized = FloodStep(
            members=members,
            parents=parents,
            blocked=(("m0", ("v1",)),),
        )
        regions = compile_steps([oversized])
        assert [region.kind for region in regions] == ["replay"]

    def test_journal_markers_are_strictly_increasing(self):
        network = figure19_network()
        plan = plan_resolution(network, explicit_users=BELIEF_USERS)
        compiled = compile_plan(plan)
        markers = compiled.journal_markers()
        assert len(markers) == compiled.region_count
        assert list(markers) == sorted(set(markers))
        assert markers[-1] == len(plan.steps) - 1

    @pytest.mark.parametrize("workload", ("figure19", "chain", "oscillators"))
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_regions_partition_the_plan_steps_in_order(self, scheduler, workload):
        """Both lowerings cover every plan step exactly once, in plan order,
        and each journal marker is the plan index of its region's last
        step."""
        network, explicit = {
            "figure19": (figure19_network(), BELIEF_USERS),
            "chain": (chain_network(30), BELIEF_USERS),
            "oscillators": (oscillator_network(3), None),
        }[workload]
        plan = plan_resolution(network, explicit_users=explicit)
        lowered = replay_plan(plan) if scheduler == "replay" else compile_plan(plan)
        assert all(region.steps for region in lowered.regions)
        flattened = [step for region in lowered.regions for step in region.steps]
        assert flattened == list(plan.steps)
        ends = []
        for region in lowered.regions:
            ends.append((ends[-1] if ends else -1) + len(region.steps))
        assert list(lowered.journal_markers()) == ends
        assert lowered.replay_statement_count() == plan.statement_count()

    def test_flood_pair_cap_spills_to_replay(self):
        members = tuple(f"m{i}" for i in range(40))
        parents = tuple(f"p{i}" for i in range(MAX_FLOOD_PAIRS // 40 + 1))
        oversized = FloodStep(members=members, parents=parents)
        regions = compile_steps([oversized])
        assert [region.kind for region in regions] == ["replay"]


def _forest_network():
    """Two explicit roots, each under a copy forest of depth >= 3, feeding a
    flood stage that a second copy chain hangs from.

    ``r1 → a1 → a2 → a3`` with ``a1 → b2 → b3`` branching off, and
    ``r2 → c1 → c2 → c3 → c4``; the 2-cycle ``p ⇄ q`` floods from ``a3`` and
    ``c3``; ``z1 → z2 → z3`` copies from ``p`` after the flood.
    """
    tn = TrustNetwork()
    for child, parent in [
        ("a1", "r1"), ("a2", "a1"), ("a3", "a2"), ("b2", "a1"), ("b3", "b2"),
        ("c1", "r2"), ("c2", "c1"), ("c3", "c2"), ("c4", "c3"),
        ("p", "q"), ("p", "a3"), ("q", "p"), ("q", "c3"),
        ("z1", "p"), ("z2", "z1"), ("z3", "z2"),
    ]:
        tn.add_trust(child, parent, priority=1)
    tn.set_explicit_belief("r1", "v")
    tn.set_explicit_belief("r2", "v")
    return tn


class TestCopyRegionForest:
    """Copy regions land each child's rows from its compile-time frontier
    ancestor: one flat join, no recursion."""

    def test_frontier_ancestors_follow_parent_pointers_to_the_frontier(self):
        edges = (("a3", "a2"), ("a1", "r1"), ("a2", "a1"), ("c1", "r2"), ("b2", "a1"))
        assert frontier_ancestors(edges) == (
            ("a3", "r1"), ("a1", "r1"), ("a2", "r1"), ("c1", "r2"), ("b2", "r1"),
        )
        with pytest.raises(BulkProcessingError):
            frontier_ancestors((("x", "y"), ("y", "x")))

    def test_multi_level_forest_matches_replay_as_a_multiset(self):
        tn = _forest_network()
        explicit = ["r1", "r2"]
        plan = plan_resolution(tn, explicit_users=explicit)
        compiled = compile_plan(plan)
        assert [region.kind for region in compiled.regions] == [
            "copy", "flood", "copy"
        ]
        forest = dict(compiled.regions[0].ancestors)
        assert forest == {
            "a1": "r1", "a2": "r1", "a3": "r1", "b2": "r1", "b3": "r1",
            "c1": "r2", "c2": "r2", "c3": "r2", "c4": "r2",
        }
        assert dict(compiled.regions[2].ancestors) == {
            "z1": "p", "z2": "p", "z3": "p"
        }
        rows = [
            ("r1", "k0", "v1"), ("r2", "k0", "v2"),
            ("r1", "k1", "v1"), ("r2", "k1", "v1"),
            ("r1", "k2", "v3"), ("r2", "k2", "v3"),
        ]
        relations = {}
        for scheduler in ("replay", "compiled"):
            store = PossStore()
            resolver = BulkResolver(
                tn, store=store, explicit_users=explicit, scheduler=scheduler
            )
            resolver.load_beliefs(rows)
            report = resolver.run()
            relations[scheduler] = Counter(
                store._execute("SELECT X, K, V FROM POSS").fetchall()
            )
            store.close()
        assert report.regions_compiled == 3
        assert relations["compiled"] == relations["replay"]
        assert max(relations["compiled"].values()) == 1
        assert relations["compiled"][("z3", "k0", "v1")] == 1
        assert relations["compiled"][("z3", "k0", "v2")] == 1

    def test_no_region_statement_recurses_or_uses_a_window(self):
        dialect = SqlDialect(name="sqlite")
        statements = [
            dialect.copy_region_statement([("a", "r"), ("b", "r")]),
            dialect.flood_stage_statement([("p", "a"), ("p", "b")]),
            dialect.blocked_flood_statement([("p", "a")], [("p", "v")], "_"),
        ]
        for sql, _parameters in statements:
            assert "RECURSIVE" not in sql.upper()
            assert "OVER (" not in sql.upper()


class TestDialectFallback:
    """A store without a dialect replays, never to a different relation."""

    def test_dialectless_dbapi_backend_falls_back_to_replay(
        self, tmp_path, serialized_relation
    ):
        network = figure19_network()
        rows = generate_objects(8, seed=9)
        path = str(tmp_path / "nodialect.db")
        backend = DbApiBackend(
            lambda: sqlite3.connect(path, check_same_thread=False),
            name="dbapi-unknown",
        )
        assert backend.compiled_dialect is None
        assert not backend.supports_compiled_regions
        store = PossStore(backend=backend)
        resolver = BulkResolver(
            network, store=store, explicit_users=BELIEF_USERS, scheduler="compiled"
        )
        expected = _sequential_reference(resolver.plan, rows, serialized_relation)
        resolver.load_beliefs(rows)
        report = resolver.run()
        assert serialized_relation(store) == expected
        assert report.scheduler == "compiled"
        assert report.regions_compiled == 0  # every region replayed
        assert report.statements == resolver.plan.statement_count()
        assert report.statements_saved == 0
        store.close()

    def test_region_dataclasses_are_frozen(self):
        region = CompiledRegion(kind="copy", steps=(GroupedCopyStep("a", ("b",)),))
        with pytest.raises(AttributeError):
            region.kind = "flood"


def _random_skeptic_scenario(rng, max_users: int = 8):
    """A random network with constrained 2-cycle gadgets hanging off it.

    Returns ``(network, positive_users, constraints)``.  Each gadget is the
    Skeptic-test shape — a member pair ``g<i>a ↔ g<i>b`` whose second node
    prefers a negative-only filter — so the plan carries flood steps with
    blocked values, exercising the blocked-flood compiler on every trial.
    """
    network, explicit = _random_network(rng, max_users=max_users)
    hosts = sorted(str(user) for user in network.users)
    constraints = {}
    for index in range(rng.randint(1, 3)):
        host = rng.choice(hosts)
        first, second, filt = f"g{index}a", f"g{index}b", f"g{index}f"
        network.add_trust(first, host, priority=2)
        network.add_trust(first, second, priority=1)
        network.add_trust(second, filt, priority=2)
        network.add_trust(second, first, priority=1)
        constraints[filt] = tuple(
            sorted(rng.sample(["v1", "v2", "v3"], rng.randint(1, 2)))
        )
    return network, explicit, constraints


class TestSkepticCompiledEquivalenceProperty:
    """Tentpole acceptance: SkepticBulkResolver under scheduler="compiled"
    pushes blocked floods down (regions_compiled > 0, statements_saved > 0)
    and stays byte-identical to sequential replay on >= 200 random
    constrained networks, shard counts {1, 2, 4}, through in-memory sqlite,
    sqlite-file and DB-API backends."""

    NETWORKS = 200
    SHARD_COUNTS = (1, 2, 4)
    BACKEND_KINDS = ("memory", "file", "dbapi")

    def test_skeptic_compiled_is_byte_identical_over_random_networks(
        self, tmp_path, serialized_relation
    ):
        rng = random.Random(20260807)
        blocked_regions = 0
        compiled_with_savings = 0
        for trial in range(self.NETWORKS):
            network, explicit, constraints = _random_skeptic_scenario(rng)
            rows = _random_rows(rng, explicit, n_objects=rng.randint(2, 4))
            shards = self.SHARD_COUNTS[trial % len(self.SHARD_COUNTS)]
            kind = self.BACKEND_KINDS[(trial // 3) % len(self.BACKEND_KINDS)]
            if shards == 1:
                if kind == "file":
                    store = PossStore(
                        backend=SqliteFileBackend(str(tmp_path / f"s{trial}.db"))
                    )
                elif kind == "dbapi":
                    store = PossStore(
                        backend=_dbapi_backends(tmp_path, f"s{trial}", 1)[0]
                    )
                else:
                    store = PossStore()
            elif kind == "memory":
                store = ShardedPossStore(shards)
            elif kind == "file":
                store = ShardedPossStore(
                    shards, backends=_file_backends(tmp_path, f"s{trial}", shards)
                )
            else:
                store = ShardedPossStore(
                    shards, backends=_dbapi_backends(tmp_path, f"s{trial}", shards)
                )
            resolver = SkepticBulkResolver(
                network,
                positive_users=explicit,
                negative_constraints=constraints,
                store=store,
                scheduler="compiled",
            )
            expected = _sequential_reference(
                resolver.plan, rows, serialized_relation
            )
            compiled = resolver.compiled
            blocked_regions += sum(
                1
                for region in compiled.regions
                if region.kind == "blocked_flood" and region.pairs
            )
            resolver.load_beliefs(rows)
            report = resolver.run()
            assert serialized_relation(store) == expected, (
                f"trial {trial}: Skeptic compiled execution diverged "
                f"(shards={shards}, backend={kind})"
            )
            assert report.scheduler == "compiled"
            # Every region compiles on this sqlite (>= 3.28), on every shard.
            assert report.regions_compiled == compiled.region_count * shards
            assert report.statements == compiled.statement_count() * shards
            if report.statements_saved:
                compiled_with_savings += 1
            store.close()
        # The generator must actually exercise the blocked-flood path, and
        # compiling must save round trips on a solid majority of trials.
        assert blocked_regions > 50
        assert compiled_with_savings > self.NETWORKS // 2

    def test_skeptic_chain_workload_compiles_blocked_floods(
        self, serialized_relation
    ):
        """The bench workload end to end: regions_compiled > 0 and
        statements_saved > 0, byte-identical to the statement-at-a-time
        replay."""
        from repro.workloads.bulkload import skeptic_chain_network

        network, constraints = skeptic_chain_network(60)
        rows = [
            (user, f"k{i}", f"a{4 * (i % 9 + 1)}" if i % 2 else f"b{i}")
            for i in range(4)
            for user in BELIEF_USERS
        ]
        reference = SkepticBulkResolver(
            network,
            positive_users=BELIEF_USERS,
            negative_constraints=constraints,
        )
        reference.load_beliefs(rows)
        reference.run()
        expected = serialized_relation(reference.store)
        reference.store.close()

        resolver = SkepticBulkResolver(
            network,
            positive_users=BELIEF_USERS,
            negative_constraints=constraints,
            scheduler="compiled",
        )
        resolver.load_beliefs(rows)
        report = resolver.run()
        assert serialized_relation(resolver.store) == expected
        assert report.regions_compiled > 0
        assert report.statements_saved > 0
        kinds = {region.kind for region in resolver.compiled.regions}
        assert "blocked_flood" in kinds
        resolver.store.close()


class TestWorkersReporting:
    """BulkRunReport.workers counts the shard lanes that ran concurrently."""

    def test_sharded_compiled_run_reports_shard_lanes(self, tmp_path):
        network = figure19_network()
        store = ShardedPossStore(
            2, backends=_file_backends(tmp_path, "lanes", 2)
        )
        concurrent = store.supports_concurrent_replay
        resolver = BulkResolver(
            network,
            store=store,
            explicit_users=BELIEF_USERS,
            scheduler="compiled",
        )
        resolver.load_beliefs(generate_objects(6, seed=3))
        report = resolver.run()
        assert report.workers == (2 if concurrent else 1)
        store.close()

    def test_sharded_checkpointed_run_reports_recovery_lanes(self, tmp_path):
        network = figure19_network()
        store = ShardedPossStore(
            2, backends=_file_backends(tmp_path, "ck-lanes", 2)
        )
        concurrent = store.supports_concurrent_replay
        resolver = BulkResolver(
            network,
            store=store,
            explicit_users=BELIEF_USERS,
            scheduler="compiled",
            checkpoint="workers-report",
        )
        resolver.load_beliefs(generate_objects(6, seed=3))
        report = resolver.run()
        assert report.checkpointed
        assert report.workers == (2 if concurrent else 1)
        store.close()


class TestAdaptiveRegionLimits:
    """RegionLimits sizing from the probed bind capacity."""

    def test_for_bind_params_halves_the_budget(self):
        assert RegionLimits.for_bind_params(999).max_copy_edges == 499
        assert RegionLimits.for_bind_params(999).max_flood_pairs == 499
        assert RegionLimits.for_bind_params(32_766).max_copy_edges == 16_382
        assert RegionLimits.for_bind_params(250_000).max_copy_edges == 124_999

    def test_for_bind_params_reserves_the_bottom_parameter(self):
        # One scalar is reserved for the ⊥ literal of blocked floods, so a
        # 3-parameter budget still fits one (member, parent) pair.
        limits = RegionLimits.for_bind_params(3)
        assert limits.max_copy_edges == 1
        assert limits.max_flood_pairs == 1
        assert RegionLimits.for_bind_params(1).max_copy_edges == 1

    def test_deep_chain_collapses_to_one_region_under_the_probed_limit(self):
        from repro.bulk.backends import sqlite_max_bind_params

        network = chain_network(1600)
        plan = plan_resolution(network, explicit_users=BELIEF_USERS)
        capacity = sqlite_max_bind_params()
        compiled = compile_plan(plan, limits=RegionLimits.for_bind_params(capacity))
        historic = compile_plan(plan)
        if capacity >= 2 * 1601:
            assert compiled.region_count == 1
        assert compiled.region_count <= historic.region_count

    def test_executor_sizes_regions_from_the_store_capacity(self):
        network = chain_network(1600)
        resolver = BulkResolver(
            network, explicit_users=BELIEF_USERS, scheduler="compiled"
        )
        assert (
            resolver.region_limits
            == RegionLimits.for_bind_params(resolver.store.max_bind_params)
        )
        if resolver.store.max_bind_params >= 2 * 1601:
            assert resolver.compiled.region_count == 1
        resolver.store.close()


class TestSqliteVersionGating:
    """Monkeypatched sqlite version strings pick compile or replay, never crash.

    The dialect is derived from sqlite3.sqlite_version_info behind an
    lru_cache; each scenario clears the cache, patches the version, and
    checks that the compiled run (a) replays every region below 3.8.3 and
    compiles every region from 3.8.3 on, and (b) still passes byte-identity.
    """

    @pytest.fixture(autouse=True)
    def _fresh_dialect_cache(self):
        sqlite_dialect.cache_clear()
        yield
        sqlite_dialect.cache_clear()

    def _skeptic_run(self, serialized_relation):
        from repro.workloads.bulkload import skeptic_chain_network

        network, constraints = skeptic_chain_network(24)
        rows = [
            (user, f"k{i}", f"a{4 * (i % 5 + 1)}")
            for i in range(3)
            for user in BELIEF_USERS
        ]
        resolver = SkepticBulkResolver(
            network,
            positive_users=BELIEF_USERS,
            negative_constraints=constraints,
            scheduler="compiled",
        )
        expected = _sequential_reference(resolver.plan, rows, serialized_relation)
        resolver.load_beliefs(rows)
        report = resolver.run()
        relation = serialized_relation(resolver.store)
        kinds = [
            region.kind
            for region in resolver.compiled.regions
            if region.statement_count() or region.kind == "replay"
        ]
        # Fence-only flood regions (no pairs) complete in zero statements on
        # any dialect and always count as compiled.
        fences = sum(
            1
            for region in resolver.compiled.regions
            if region.kind in ("flood", "blocked_flood") and not region.pairs
        )
        resolver.store.close()
        return report, relation == expected, kinds, fences

    def test_pre_cte_sqlite_replays_everything(
        self, monkeypatch, serialized_relation
    ):
        monkeypatch.setattr(sqlite3, "sqlite_version_info", (3, 7, 17))
        assert sqlite_dialect() is None
        report, identical, _kinds, fences = self._skeptic_run(serialized_relation)
        assert identical
        assert report.regions_compiled == fences
        assert report.statements_saved == 0

    @pytest.mark.parametrize(
        "version", [(3, 8, 3), (3, 20, 0), (3, 26, 0), (3, 28, 0), None]
    )
    def test_every_sqlite_from_3_8_3_compiles_every_region_kind(
        self, monkeypatch, serialized_relation, version
    ):
        """No statement needs recursion or windows, so one version gate
        decides: from 3.8.3 on (``None`` = the linked library) every copy,
        flood and blocked-flood region compiles; older libraries replay
        (:meth:`test_pre_cte_sqlite_replays_everything`)."""
        if version is not None:
            monkeypatch.setattr(sqlite3, "sqlite_version_info", version)
        assert sqlite_dialect() == SqlDialect(name="sqlite")
        report, identical, kinds, fences = self._skeptic_run(serialized_relation)
        assert identical
        assert {"copy", "blocked_flood"} <= set(kinds)
        assert report.regions_compiled == fences + len(
            [kind for kind in kinds if kind != "replay"]
        )
