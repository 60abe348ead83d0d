"""End-to-end tests for the unified resolution engine (repro.engine).

The acceptance round trip: ``resolve`` → ``materialize`` → ``apply`` →
``query`` must stay consistent — the in-memory maintained state, the
``POSS`` relation and a from-scratch resolution of the mutated network all
agree — in memory, on sqlite files, and (in CI) on PostgreSQL via the
DbApiBackend round trip in ``tests/bulk/test_postgres.py``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import ResolutionEngine, TrustNetwork, resolve
from repro.bulk.backends import ShardSpec, SqliteFileBackend
from repro.bulk.planner import plan_resolution, step_io
from repro.bulk.store import PossStore, ShardedPossStore
from repro.core.beliefs import BeliefSet
from repro.core.errors import BulkProcessingError, NetworkError
from repro.engine import EngineReport
from repro.incremental import AddTrust, RemoveTrust, RemoveUser, SetBelief
from repro.workloads.oscillators import oscillator_network
from repro.workloads.updates import generate_update_stream


def _chain_network():
    tn = TrustNetwork()
    tn.add_trust("b", "a", priority=1)
    tn.add_trust("c", "b", priority=1)
    tn.set_explicit_belief("a", "v")
    return tn


def _random_network(rng, max_users=8):
    n = rng.randint(4, max_users)
    users = [f"u{i}" for i in range(n)]
    tn = TrustNetwork()
    for user in users:
        tn.add_user(user)
    n_explicit = rng.randint(1, 2)
    for child in users[n_explicit:]:
        parents = rng.sample([u for u in users if u != child], rng.randint(1, 2))
        priorities = rng.sample([1, 2], len(parents))
        for parent, priority in zip(parents, priorities):
            tn.add_trust(child, parent, priority=priority)
    for user in users[:n_explicit]:
        tn.set_explicit_belief(user, rng.choice(["v1", "v2"]))
    return tn


def _memory_rows(engine):
    """The relation implied by the engine's in-memory state, sorted."""
    rows = []
    for key, resolution in engine.resolve().resolutions.items():
        for user, values in resolution.possible.items():
            for value in values:
                rows.append((str(user), key, str(value)))
    return sorted(rows)


def _store_rows(engine):
    return sorted(
        (row.user, row.key, row.value) for row in engine.store.possible_table()
    )


class TestOpenValidation:
    def test_requires_binary_network(self):
        tn = TrustNetwork()
        for parent in ("a", "b", "c"):
            tn.add_trust("x", parent, priority=1)
        with pytest.raises(NetworkError, match="binary"):
            ResolutionEngine.open(tn)

    def test_parent_onto_a_negative_only_belief_is_rejected(self):
        """A negative-only explicit belief also pins its user to the roots."""
        tn = TrustNetwork()
        tn.set_explicit_belief("src", "v")
        tn.add_trust("x", "src", priority=1)
        tn.set_explicit_belief("neg", BeliefSet.from_negatives(["bad"]))
        before = (tn.mappings, tn.explicit_beliefs)
        with ResolutionEngine.open(tn) as engine:
            with pytest.raises(NetworkError, match="explicit belief"):
                engine.apply(AddTrust("neg", "src", 1))
            assert (engine.network.mappings, engine.network.explicit_beliefs) == before
        ResolutionEngine.open(tn).close()  # the network is still binary

    def test_store_and_shards_mutually_exclusive(self):
        with PossStore() as store:
            with pytest.raises(BulkProcessingError):
                ResolutionEngine.open(_chain_network(), store=store, shards=2)

    @pytest.mark.parametrize("keys", [(1, "1"), ("k0", "k0")])
    def test_keys_that_collide_as_str_are_rejected(self, keys):
        """Key 1's override must not be lost to a merged ``"1"`` key."""
        with pytest.raises(BulkProcessingError, match="collide"):
            ResolutionEngine.open(
                _chain_network(), keys=keys, beliefs_by_key={keys[0]: {"a": "z"}}
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(BulkProcessingError, match="mode"):
            ResolutionEngine.open(_chain_network(), mode="turbo")

    def test_shards_shorthand_builds_sharded_store(self):
        with ResolutionEngine.open(_chain_network(), shards=ShardSpec.hashed(3)) as engine:
            assert isinstance(engine.store, ShardedPossStore)
            assert len(engine.store.shards) == 3


class TestRoundTrip:
    """resolve → materialize → apply → query, against every store kind."""

    def _round_trip(self, engine):
        # resolve: warm in-memory state matches a from-scratch resolution.
        report = engine.resolve()
        assert isinstance(report, EngineReport)
        assert report.operation == "resolve"
        fresh = resolve(engine.network)
        for key in engine.keys:
            assert report.resolutions[key].possible == fresh.possible

        # materialize: the relation equals the in-memory rows.
        bulk_report = engine.materialize()
        assert bulk_report.operation == "materialize"
        assert bulk_report.bulk is not None
        assert bulk_report.plan_source in ("fresh", "cached", "patched")
        assert bulk_report.statements == bulk_report.bulk.statements
        assert _store_rows(engine) == _memory_rows(engine)

        # apply: store and memory move together; on a network this small
        # the batch's footprint exceeds the deferral bound, so the plan is
        # patched at once.
        apply_report = engine.apply(
            SetBelief("a", "w"), AddTrust("d", "c", 1), SetBelief("a", "w2")
        )
        assert apply_report.operation == "apply"
        assert apply_report.delta is not None
        assert apply_report.coalesced_from == 3
        assert apply_report.deltas == 2  # the two belief writes merged
        assert apply_report.recomputes == len(engine.keys)
        assert apply_report.plan_source == "patched"
        assert _store_rows(engine) == _memory_rows(engine)

        # query: reads the materialized relation and sees the deltas.
        assert engine.query("d") == frozenset({"w2"})
        assert engine.certain("d") == frozenset({"w2"})
        assert engine.query("c") == frozenset({"w2"})

        # a re-materialization reuses the patched plan (now "cached") and
        # reproduces the same relation from scratch.
        rows_before = _store_rows(engine)
        rematerialized = engine.materialize()
        assert rematerialized.plan_source == "cached"
        assert _store_rows(engine) == rows_before

    def test_round_trip_in_memory(self):
        with ResolutionEngine.open(_chain_network()) as engine:
            self._round_trip(engine)

    def test_round_trip_on_sqlite_file(self, tmp_path):
        store = PossStore(backend=SqliteFileBackend(str(tmp_path / "poss.db")))
        with ResolutionEngine.open(_chain_network(), store=store) as engine:
            self._round_trip(engine)

    def test_round_trip_sharded(self, tmp_path):
        backends = [
            SqliteFileBackend(str(tmp_path / f"shard{i}.db")) for i in range(2)
        ]
        store = ShardedPossStore(2, backends=backends)
        with ResolutionEngine.open(
            _chain_network(), store=store, keys=("k0", "k1", "k2")
        ) as engine:
            self._round_trip(engine)

    def test_round_trip_multi_key(self):
        with ResolutionEngine.open(
            _chain_network(), keys=("k0", "k1")
        ) as engine:
            engine.materialize()
            engine.apply(SetBelief("a", "x", key="k0"))
            assert engine.query("c", "k0") == frozenset({"x"})
            assert engine.query("c", "k1") == frozenset({"v"})
            assert _store_rows(engine) == _memory_rows(engine)


class TestQueryModes:
    def test_auto_mode_switches_to_store_after_materialize(self):
        with ResolutionEngine.open(_chain_network()) as engine:
            assert engine.query("c") == frozenset({"v"})  # memory
            engine.materialize()
            engine.store.insert_rows([("c", "k0", "planted")])
            assert "planted" in engine.query("c")  # now reading the store

    def test_memory_mode_never_touches_the_store(self):
        with ResolutionEngine.open(_chain_network(), mode="memory") as engine:
            engine.materialize()
            engine.store.insert_rows([("c", "k0", "planted")])
            assert engine.query("c") == frozenset({"v"})

    def test_store_mode_reads_the_relation_immediately(self):
        with ResolutionEngine.open(_chain_network(), mode="store") as engine:
            assert engine.query("c") == frozenset()  # nothing materialized
            engine.materialize()
            assert engine.query("c") == frozenset({"v"})


class TestApplyBeforeMaterialize:
    """Until the first materialize the store holds no relation to keep in
    step, so an apply writes nothing to it."""

    @staticmethod
    def _stored(store, table):
        rows = store.possible_table() if table == "POSS" else store.belief_table()
        return sorted((row.user, row.key, row.value) for row in rows)

    @pytest.mark.parametrize("shards", (None, 2))
    def test_apply_writes_nothing_and_materialize_loads_it_all(self, shards):
        with ResolutionEngine.open(
            oscillator_network(3), shards=shards, mode="store", keys=("k0", "k1")
        ) as engine:
            report = engine.apply(SetBelief("c0.x3", "z"), SetBelief("c1.x3", "y", key="k1"))
            assert report.users_changed > 0
            assert (report.statements, report.transactions) == (0, 0)
            assert engine.store.row_count() == 0
            assert engine.store.belief_table() == []
            assert engine.query("c0.x1") == frozenset()  # nothing materialized
            engine.materialize()
            session = engine._session
            assert self._stored(engine.store, "POSS") == session.rows()
            assert self._stored(engine.store, "BELIEF") == session.belief_rows()
            assert "z" in engine.query("c0.x1")
            # From here on every apply keeps both relations in step.
            engine.apply(SetBelief("c0.x3", "w"))
            assert self._stored(engine.store, "POSS") == session.rows()
            assert self._stored(engine.store, "BELIEF") == session.belief_rows()

    def test_a_failed_materialize_stops_the_applies_until_the_next_one(self):
        with ResolutionEngine.open(oscillator_network(3)) as engine:
            engine.materialize()
            engine.plan.steps.append("not-a-step")
            with pytest.raises(BulkProcessingError):
                engine.materialize()
            engine.plan.steps.remove("not-a-step")
            # The run rolled back to the loaded beliefs: no whole relation.
            assert engine.apply(SetBelief("c0.x3", "z")).statements == 0
            engine.materialize()
            assert self._stored(engine.store, "POSS") == engine._session.rows()


class TestPlanMaintenance:
    def test_plan_is_patched_not_replanned_across_applies(self):
        with ResolutionEngine.open(_chain_network()) as engine:
            assert engine.plan is not None
            assert engine.plans_built == 1
            for i in range(5):
                engine.apply(AddTrust(f"extra{i}", "c", 1))
            assert engine.plans_built == 1
            # Each batch alone reaches the deferral bound of a network this
            # small (TestDeferredPlanMaintenance covers large ones).
            assert engine.plans_patched == 5
            # The maintained plan matches a fresh re-plan's closed set.
            from repro.bulk.planner import plan_resolution, step_io

            def closed(plan):
                return {str(u) for s in plan.steps for u in step_io(s)[1]}

            assert closed(engine.plan) == closed(plan_resolution(engine.network))

    def test_out_of_band_mutation_forces_a_fresh_plan(self):
        with ResolutionEngine.open(_chain_network()) as engine:
            assert engine.plan is not None
            built = engine.plans_built
            # Mutate the network behind the engine's back: the version
            # hook invalidates the cached plan.
            engine.network.add_trust("rogue", "c", priority=1)
            plan = engine.plan
            assert engine.plans_built == built + 1
            assert any(
                "rogue" in str(u)
                for s in plan.steps
                for u in __import__(
                    "repro.bulk.planner", fromlist=["step_io"]
                ).step_io(s)[1]
            )

    def test_remove_user_patches_the_plan(self):
        with ResolutionEngine.open(_chain_network()) as engine:
            engine.materialize()
            engine.apply(RemoveUser("c"))
            from repro.bulk.planner import step_io

            closed = {
                str(u) for s in engine.plan.steps for u in step_io(s)[1]
            }
            assert "c" not in closed
            assert engine.query("c") == frozenset()

    def test_plan_property_matches_fresh_replan_on_random_streams(self):
        """The engine-maintained plan materializes the same relation a
        fresh plan would, across random update streams."""
        rng = random.Random(808)
        for trial in range(25):
            network = _random_network(rng)
            engine = ResolutionEngine.open(network)
            stream = list(
                generate_update_stream(network.copy(), n_ops=8, seed=trial)
            )
            try:
                for delta in stream:
                    engine.apply(delta)
                engine.materialize()
                assert _store_rows(engine) == _memory_rows(engine), f"trial {trial}"
            finally:
                engine.close()


class TestPlanSourceLifecycle:
    def test_cached_is_reported_on_reuse(self):
        with ResolutionEngine.open(_chain_network()) as engine:
            first = engine.materialize()
            second = engine.materialize()
            assert first.plan_source == "fresh"
            assert second.plan_source == "cached"

    def test_compiled_lifecycle_fresh_pending_patched_cached(self):
        with ResolutionEngine.open(_padded(_chain_network())) as engine:
            assert engine.materialize(compiled=True).plan_source == "fresh"
            assert engine.apply(AddTrust("d", "c", 1)).plan_source == "pending"
            assert engine.materialize(compiled=True).plan_source == "patched"
            assert engine.materialize(compiled=True).plan_source == "cached"
            assert (engine.plans_built, engine.plans_patched) == (1, 1)

    def test_small_network_apply_patches_at_once(self):
        with ResolutionEngine.open(_chain_network()) as engine:
            engine.materialize(compiled=True)
            assert engine.apply(SetBelief("a", "w")).plan_source == "patched"
            assert engine.materialize(compiled=True).plan_source == "cached"
            assert (engine.plans_built, engine.plans_patched) == (1, 1)

    def test_apply_before_any_plan_reports_no_source(self):
        with ResolutionEngine.open(_chain_network()) as engine:
            assert engine.apply(AddTrust("d", "c", 1)).plan_source == ""
            assert engine.materialize().plan_source == "fresh"


def _padded(network, users=200):
    """``network`` plus isolated users: no rows, but a larger deferral bound."""
    for index in range(users):
        network.add_user(f"pad{index}")
    return network


@pytest.fixture
def plan_calls(monkeypatch):
    """Count the engine's calls of ``patch_plan`` and ``splice_compiled``."""
    import repro.engine as engine_module

    calls = {"patch_plan": 0, "splice_compiled": 0}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(engine_module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(engine_module, name, counted)
    return calls


def _closed_users(plan):
    return {str(user) for step in plan.steps for user in step_io(step)[1]}


class TestDeferredPlanMaintenance:
    """``apply`` records plan changes; the next plan access patches once."""

    def test_apply_defers_the_patch_to_materialize(self, plan_calls):
        with ResolutionEngine.open(_padded(_chain_network())) as engine:
            engine.materialize(compiled=True)
            engine.apply(AddTrust("d", "c", 1))
            engine.apply(RemoveTrust("c", "b"), SetBelief("x", "v"))
            engine.apply(RemoveUser("b"))
            engine.apply(AddTrust("b", "a", 1), AddTrust("c", "b", 1))
            assert plan_calls == {"patch_plan": 0, "splice_compiled": 0}
            assert engine.materialize(compiled=True).plan_source == "patched"
            assert plan_calls == {"patch_plan": 1, "splice_compiled": 1}
            assert _store_rows(engine) == _memory_rows(engine)

    @pytest.mark.parametrize("reader", ["materialize", "plan"])
    def test_structural_applies_reconcile_once(self, plan_calls, reader):
        with ResolutionEngine.open(_padded(_chain_network())) as engine:
            engine.materialize()
            for i in range(5):
                assert engine.apply(AddTrust(f"extra{i}", "c", 1)).plan_source == "pending"
            for _ in range(2):
                if reader == "plan":
                    assert engine.plan is not None
                else:
                    engine.materialize()
                assert plan_calls["patch_plan"] == 1
                assert (engine.plans_built, engine.plans_patched) == (1, 1)
            assert _closed_users(engine.plan) == _closed_users(
                plan_resolution(engine.network)
            )

    @pytest.mark.parametrize("multi_key", [False, True], ids=["one-key", "beliefs_by_key"])
    def test_deferral_is_bounded_by_a_share_of_the_network(self, plan_calls, multi_key):
        options = {}
        if multi_key:
            options = dict(
                keys=("k0", "k1"),
                beliefs_by_key={"k0": {"a": "v"}, "k1": {"a": "u"}},
            )
        with ResolutionEngine.open(_padded(_chain_network()), **options) as engine:
            engine.materialize(compiled=True)
            plan = engine.plan
            sources = []
            # Each batch touches one new user (and adds it to the network).
            while "patched" not in sources:
                sources.append(engine.apply(AddTrust(f"extra{len(sources)}", "c", 1)).plan_source)
            # Patched by the first apply whose pending users reach 1/32.
            assert len(sources) * 32 >= len(engine.network)
            assert (len(sources) - 1) * 32 < len(engine.network) - 1
            assert set(sources[:-1]) == {"pending"}
            assert plan_calls == {"patch_plan": 1, "splice_compiled": 1}
            assert engine.plan is not plan and engine.plans_patched == 1
            # The patch settled everything: nothing is owed, so the next
            # apply starts a fresh deferral.
            assert engine.materialize(compiled=True).plan_source == "cached"
            assert engine.apply(AddTrust("late", "c", 1)).plan_source == "pending"
            assert _closed_users(engine.plan) == _closed_users(
                plan_resolution(engine.network)
            )
            assert _store_rows(engine) == _memory_rows(engine)

    def test_out_of_band_mutation_after_apply_replans_fresh(self, plan_calls):
        with ResolutionEngine.open(_padded(_chain_network())) as engine:
            engine.materialize()
            engine.apply(AddTrust("d", "c", 1))
            engine.network.add_trust("rogue", "c", priority=1)
            assert engine.materialize().plan_source == "fresh"
            assert plan_calls["patch_plan"] == 0
            assert engine.plans_built == 2
            assert {"d", "rogue"} <= _closed_users(engine.plan)

    def test_out_of_band_mutation_between_applies_replans_fresh(self, plan_calls):
        with ResolutionEngine.open(_padded(_chain_network())) as engine:
            engine.materialize()
            engine.apply(AddTrust("d", "c", 1))
            engine.network.add_trust("rogue", "c", priority=1)
            # The later batch's touched set cannot describe the rogue edge:
            # the plan is dropped, and the report says no plan is cached.
            report = engine.apply(AddTrust("e", "d", 1))
            assert (report.plan_source, report.plan_steps) == ("", 0)
            assert engine.materialize().plan_source == "fresh"
            assert plan_calls["patch_plan"] == 0
            assert {"d", "e", "rogue"} <= _closed_users(engine.plan)

    def test_a_refused_patch_replans_fresh(self, monkeypatch):
        import repro.engine as engine_module

        def refuse(*args, **kwargs):
            raise BulkProcessingError("refused")

        monkeypatch.setattr(engine_module, "patch_plan", refuse)
        with ResolutionEngine.open(_padded(_chain_network())) as engine:
            engine.materialize()
            assert engine.apply(AddTrust("d", "c", 1)).plan_source == "pending"
            assert engine.materialize().plan_source == "fresh"
            assert (engine.plans_built, engine.plans_patched) == (2, 0)
        with ResolutionEngine.open(_chain_network()) as engine:
            engine.materialize()
            # At the bound, apply drops the plan it cannot patch.
            assert engine.apply(AddTrust("d", "c", 1)).plan_source == ""
            assert engine.materialize().plan_source == "fresh"
            assert (engine.plans_built, engine.plans_patched) == (2, 0)
            assert _store_rows(engine) == _memory_rows(engine)


@pytest.fixture
def plan_derivations(monkeypatch):
    """Count the derivations of a plan's stage count from its steps.

    A lowered plan carries its count, so a fresh plan derives nothing; a
    patched one counts its stages in one pass (``count_stages``).  Neither
    builds the step DAG (``plan_dag``).
    """
    import repro.bulk.compile as compile_module
    import repro.bulk.planner as planner_module

    calls = {"plan_dag": 0, "count_stages": 0}
    for module, name in ((planner_module, "plan_dag"), (compile_module, "count_stages")):

        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestWarmMaterialize:
    """A warm compiled materialize runs its SQL and little else."""

    def test_unchanged_engine_derives_the_plan_once(self, plan_derivations):
        from repro.workloads.oscillators import oscillator_network

        with ResolutionEngine.open(oscillator_network(6), keys=("k0", "k1")) as engine:
            traced = []
            engine.store._connection.set_trace_callback(traced.append)
            reports = [engine.materialize(compiled=True) for _ in range(4)]
            engine.store._connection.set_trace_callback(None)
            assert [report.plan_source for report in reports] == ["fresh"] + ["cached"] * 3
            assert plan_derivations == {"plan_dag": 0, "count_stages": 0}
            assert len({(r.dag_stages, r.statements_saved) for r in reports}) == 1
            assert reports[0].dag_stages > 0
            # No post-run conflict scan (or any other aggregate) runs.
            assert traced
            assert not [sql for sql in traced if "GROUP BY" in sql.upper()]
            assert _store_rows(engine) == _memory_rows(engine)

    def test_a_spliced_plan_is_derived_once_more(self, plan_derivations):
        from repro.bulk.compile import compile_plan

        with ResolutionEngine.open(_padded(_chain_network())) as engine:
            before = engine.materialize(compiled=True)
            assert engine.apply(AddTrust("d", "c", 1)).plan_source == "pending"
            counts = dict(plan_derivations)
            after = [engine.materialize(compiled=True) for _ in range(3)]
            assert [report.plan_source for report in after] == [
                "patched",
                "cached",
                "cached",
            ]
            assert plan_derivations == {
                "plan_dag": counts["plan_dag"],
                "count_stages": counts["count_stages"] + 1,
            }
            # The splice keeps the old regions, so it may issue more
            # statements than a fresh compilation; what it derives from the
            # plan must still be the fresh values.
            fresh = compile_plan(engine.plan, limits=engine._region_limits())
            for report in after:
                assert report.dag_stages == fresh.dag_stages
                assert report.statements_saved == (
                    fresh.replay_statement_count() - report.statements
                )
            assert (after[0].dag_stages, after[0].statements_saved) != (
                before.dag_stages,
                before.statements_saved,
            )
            assert _store_rows(engine) == _memory_rows(engine)


_VALUES = ("v1", "v2", "v3")


def _random_batch(network, rng, removed):
    """One batch valid for ``network``; may re-add a user of ``removed``."""
    users = sorted(network.users, key=str)
    if removed and rng.random() < 0.3:
        user = removed.pop(rng.randrange(len(removed)))
        children = [
            u
            for u in users
            if len(network.incoming(u)) < 2 and not network.has_explicit_belief(u)
        ]
        how = rng.randrange(3)
        if how == 0 and children:  # back as a parent only
            return [AddTrust(rng.choice(children), user, rng.randint(1, 3))]
        if how == 1:  # back as a child
            return [AddTrust(user, rng.choice(users), rng.randint(1, 3))]
        return [SetBelief(user, rng.choice(_VALUES))]  # back as a believer
    return generate_update_stream(
        network, n_ops=rng.randint(1, 3), seed=rng.randrange(10**6), values=_VALUES
    )


class TestDeferredPlanProperty:
    """Random streams, then both materializations: byte-identical to a
    fresh engine over the final network, with the plan only ever patched."""

    TRIALS = 20
    BATCHES = 10
    #: Isolated users added to each network: its deferral bound is then a
    #: few users, so streams mix deferred batches with patches in ``apply``.
    PAD = 100

    @pytest.mark.parametrize("store_kind", ["memory", "sqlite-file", "2-shard"])
    def test_streams_then_materialize_match_a_fresh_engine(
        self, tmp_path, serialized_relation, store_kind
    ):
        rng = random.Random(4242)
        sources = Counter()
        for trial in range(self.TRIALS):
            if store_kind == "sqlite-file":
                store = PossStore(
                    backend=SqliteFileBackend(str(tmp_path / f"poss{trial}.db"))
                )
            elif store_kind == "2-shard":
                store = ShardedPossStore(2)
            else:
                store = PossStore()
            network = _padded(_random_network(rng), self.PAD)
            engine = ResolutionEngine.open(network, store=store)
            removed = []
            try:
                engine.materialize(compiled=True)
                for _ in range(self.BATCHES):
                    batch = _random_batch(engine.network, rng, removed)
                    sources[engine.apply(*batch).plan_source] += 1
                    removed += [d.user for d in batch if isinstance(d, RemoveUser)]
                    if rng.random() < 0.2:  # catch up mid-stream now and then
                        engine.materialize(compiled=rng.random() < 0.5)
                with ResolutionEngine.open(engine.network.copy()) as fresh:
                    fresh.materialize()
                    expected = serialized_relation(fresh.store)
                for compiled in (False, True):
                    sources[engine.materialize(compiled=compiled).plan_source] += 1
                    assert serialized_relation(engine.store) == expected, (
                        f"trial {trial}, compiled={compiled}"
                    )
                assert engine.plans_built == 1, f"trial {trial}"
            finally:
                engine.close()
        # Both the deferred path and the bounded patch in apply ran.
        assert sources["pending"] >= self.TRIALS
        assert sources["patched"] >= self.TRIALS


def test_engine_sessions_never_import_networkx():
    """networkx is a large import that resolution never needs."""
    code = "\n".join(
        [
            "import sys",
            "from repro import ResolutionEngine",
            "from repro.incremental import AddTrust",
            "from repro.workloads.powerlaw import WebWorkloadConfig, web_trust_network",
            "network = web_trust_network(WebWorkloadConfig(n_domains=60))",
            "with ResolutionEngine.open(network, shards=2) as engine:",
            "    engine.materialize(compiled=True)",
            "    engine.apply(AddTrust('late', sorted(network.users)[0], 1))",
            "    engine.materialize()",
            "    engine.query('late')",
            "    engine.resolve()",
            "assert 'networkx' not in sys.modules, 'networkx was imported'",
        ]
    )
    src = str(Path(__import__("repro").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


class TestMidBatchRecovery:
    def test_sibling_keys_recover_from_a_mid_batch_rejection(self):
        """A structural prefix that succeeded before a mid-batch rejection
        must be visible to EVERY key's maintained state (and the store),
        not only to the first resolver that processed it."""
        from repro.bulk.store import PossStore as _PossStore
        from repro.incremental.session import IncrementalSession

        tn = _chain_network()
        session = IncrementalSession(tn, store=_PossStore(), keys=("k0", "k1"))
        with pytest.raises(NetworkError):
            session.apply_batch(
                AddTrust("d", "c", 1),        # succeeds, mutates the network
                AddTrust("e", "e", 1),        # self-trust: rejected mid-batch
                coalesce=False,
            )
        # The shared network holds the first edge; both keys must agree.
        expected = resolve(tn).possible
        for key in ("k0", "k1"):
            for user in tn.users:
                assert session.possible_values(user, key) == expected[user], (
                    key,
                    user,
                )
            assert session.store.possible_values("d", key) == expected["d"]
        session.close()


class TestCoalesceBarriers:
    def test_remove_user_barriers_unrelated_belief_slots(self):
        """RemoveUser changes the parent sets of children it does not name,
        so no belief merge may cross it — a stream that is valid op-at-a-
        time must stay valid after coalescing."""
        from repro.incremental import RemoveBelief, RemoveUser, coalesce

        tn = TrustNetwork()
        tn.add_trust("u", "w", priority=1)
        tn.set_explicit_belief("w", "v")
        stream = [RemoveBelief("u"), RemoveUser("w"), SetBelief("u", "x")]
        condensed = coalesce(stream)
        assert condensed == stream  # nothing merged across the removal
        with ResolutionEngine.open(tn) as engine:
            report = engine.apply(*stream)
            assert report.deltas == 3
            assert engine.query("u") == frozenset({"x"})


class TestEngineReportSubsumption:
    def test_materialize_report_subsumes_bulk_run_report(self):
        with ResolutionEngine.open(_chain_network(), shards=2) as engine:
            report = engine.materialize()
            bulk = report.bulk
            assert (report.statements, report.transactions, report.shards) == (
                bulk.statements,
                bulk.transactions,
                bulk.shards,
            )
            assert report.scheduler == bulk.scheduler == "replay"
            assert report.dag_stages == bulk.dag_stages

    def test_pool_workers_accepts_only_zero(self):
        for accepted in (0, None):
            with ResolutionEngine.open(
                _chain_network(), pool_workers=accepted
            ) as engine:
                engine.materialize(compiled=True)
                assert engine.query("c") == frozenset({"v"})
        with pytest.raises(BulkProcessingError, match="pool_workers"):
            ResolutionEngine.open(_chain_network(), pool_workers=2)

    def test_apply_report_subsumes_delta_apply_report(self):
        with ResolutionEngine.open(_chain_network()) as engine:
            engine.materialize()
            report = engine.apply(SetBelief("a", "z"))
            delta = report.delta
            assert (report.deltas, report.recomputes, report.users_changed) == (
                delta.deltas,
                delta.recomputes,
                delta.users_changed,
            )
            assert report.rows_deleted == delta.rows_deleted
            assert report.rows_inserted == delta.rows_inserted
            assert report.dirty_region == delta.dirty_region
