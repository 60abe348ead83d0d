"""Tests for incremental plan maintenance (bulk/planpatch.py).

The contract: after any structural (or explicit-set) mutation, the patched
plan must produce a relation byte-identical to a from-scratch re-plan of
the mutated network, and must still lower to a valid dependency DAG.
"""

from __future__ import annotations

import random

import pytest

from repro.bulk.compile import CompiledPlan, compile_plan
from repro.bulk.executor import _execute_region, _PhaseClock, _replay_step
from repro.bulk.planner import (
    FloodStep,
    plan_dag,
    plan_resolution,
    plan_skeptic_resolution,
    step_io,
)
from repro.bulk.planpatch import PlanPatch, patch_plan, splice_compiled
from repro.bulk.store import PossStore
from repro.core.errors import BulkProcessingError
from repro.core.network import TrustNetwork


def _random_belief_network(rng, max_users: int = 10):
    """A random network whose explicit beliefs live on the network itself."""
    n = rng.randint(4, max_users)
    users = [f"u{i}" for i in range(n)]
    tn = TrustNetwork()
    for user in users:
        tn.add_user(user)
    n_explicit = rng.randint(1, 2)
    for child in users[n_explicit:]:
        parents = rng.sample([u for u in users if u != child], rng.randint(1, 2))
        priorities = (
            rng.sample([1, 2], len(parents))
            if rng.random() < 0.7
            else [1] * len(parents)
        )
        for parent, priority in zip(parents, priorities):
            tn.add_trust(child, parent, priority=priority)
    for user in users[:n_explicit]:
        tn.set_explicit_belief(user, rng.choice(["v1", "v2", "v3"]))
    return tn


def _belief_rows(network, rng, n_objects=3):
    rows = []
    for index in range(n_objects):
        key = f"k{index}"
        for user, belief in network.explicit_beliefs.items():
            if belief.has_positive:
                rows.append((user, key, rng.choice(["v1", "v2", "v3"])))
    return rows


def _replay(plan, rows, serialized_relation):
    store = PossStore()
    store.insert_explicit_beliefs(rows)
    with store.transaction():
        for step in plan.steps:
            _replay_step(store, step)
    relation = serialized_relation(store)
    store.close()
    return relation


def _mutate_randomly(network, rng):
    """Apply one random structural/explicit mutation; returns (touched, removed)."""
    explicit = {
        user
        for user, belief in network.explicit_beliefs.items()
        if belief.has_positive
    }
    users = sorted(network.users, key=str)
    incoming = network.incoming_map()
    choices = []
    addable = [
        u for u in users if u not in explicit and len(incoming.get(u, ())) < 2
    ]
    if addable:
        choices.append("add_trust")
    removable_edges = [
        e for e in network.mappings if e.child not in explicit
    ]
    if removable_edges:
        choices.append("remove_trust")
        choices.append("set_priority")
    removable_users = [u for u in users if u not in explicit]
    if removable_users and len(users) > 3:
        choices.append("remove_user")
    roots = [
        u for u in users if not incoming.get(u, ()) and u not in explicit
    ]
    if roots:
        choices.append("set_belief")
    if len(explicit) > 1:
        choices.append("remove_belief")
    kind = rng.choice(choices)

    if kind == "add_trust":
        child = rng.choice(addable)
        parents = {e.parent for e in incoming.get(child, ())}
        candidates = [u for u in users if u != child and u not in parents]
        if not candidates:
            return set(), set()
        network.add_trust(child, rng.choice(candidates), priority=rng.choice([1, 2, 3]))
        return {child}, set()
    if kind == "remove_trust":
        edge = rng.choice(removable_edges)
        network.remove_trust(edge.child, edge.parent)
        return {edge.child}, set()
    if kind == "set_priority":
        edge = rng.choice(removable_edges)
        parallel = [
            e
            for e in incoming.get(edge.child, ())
            if e.parent == edge.parent
        ]
        if len(parallel) > 1:
            return set(), set()
        network.set_priority(edge.child, edge.parent, rng.choice([1, 2, 3, 4]))
        return {edge.child}, set()
    if kind == "remove_user":
        user = rng.choice(removable_users)
        children = set(network.children(user))
        network.remove_user(user)
        return children, {user}
    if kind == "set_belief":
        user = rng.choice(roots)
        network.set_explicit_belief(user, rng.choice(["v1", "v2", "v3"]))
        return {user}, set()
    user = rng.choice(sorted(explicit, key=str))
    network.remove_explicit_belief(user)
    return {user}, set()


class TestPatchPlanProperty:
    """Patched plans must match fresh re-plans on randomized delta streams."""

    TRIALS = 120
    DELTAS_PER_TRIAL = 4

    def test_patched_plan_matches_fresh_replan(self, serialized_relation):
        rng = random.Random(1003)
        checked = 0
        for trial in range(self.TRIALS):
            network = _random_belief_network(rng)
            plan = plan_resolution(network)
            for _ in range(self.DELTAS_PER_TRIAL):
                touched, removed = _mutate_randomly(network, rng)
                if not touched and not removed:
                    continue
                patch = patch_plan(plan, network, touched, removed=removed)
                assert isinstance(patch, PlanPatch)
                plan = patch.plan
                fresh = plan_resolution(network)
                # The patched plan must lower to a valid (causal) DAG ...
                dag = plan_dag(plan)
                assert len(dag.nodes) == len(plan.steps)
                # ... close exactly the users the fresh plan closes ...
                def closers(p):
                    return {str(u) for s in p.steps for u in step_io(s)[1]}

                assert closers(plan) == closers(fresh), f"trial {trial}"
                # ... and produce the byte-identical relation.
                rows = _belief_rows(network, rng)
                if rows:
                    assert _replay(plan, rows, serialized_relation) == _replay(
                        fresh, rows, serialized_relation
                    ), f"trial {trial}"
                checked += 1
        assert checked >= self.TRIALS  # the stream generator never stalls


def _readd_randomly(network, rng, removed):
    """Bring a removed user back as a parent, a child or a believer.

    Returns the touched set, like :func:`_mutate_randomly`.  Coming back
    as a parent only touches the new child, not the user itself.
    """
    user = removed.pop(rng.randrange(len(removed)))
    users = sorted(network.users, key=str)
    children = [
        u
        for u in users
        if not network.has_explicit_belief(u) and len(network.incoming(u)) < 2
    ]
    how = rng.randrange(3)
    if how == 0 and children:
        child = rng.choice(children)
        network.add_trust(child, user, priority=rng.choice([1, 2, 3]))
        return {child}
    if how == 1:
        network.add_trust(user, rng.choice(users), priority=rng.choice([1, 2, 3]))
    else:
        network.add_user(user)
        network.set_explicit_belief(user, rng.choice(["v1", "v2", "v3"]))
    return {user}


class TestMultiBatchPatchProperty:
    """One patch over the union of several batches' touched and removed
    sets, applied to the final network, must replay like a fresh plan."""

    TRIALS = 120
    BATCHES = 5

    def test_union_patch_matches_fresh_replan(self, serialized_relation):
        rng = random.Random(3131)
        readded = 0
        for trial in range(self.TRIALS):
            network = _random_belief_network(rng)
            plan = plan_resolution(network)
            compiled = compile_plan(plan)
            touched, removed, pool = set(), set(), []
            for _ in range(self.BATCHES):
                for _ in range(rng.randint(1, 3)):  # one batch
                    if pool and rng.random() < 0.3:
                        touched |= _readd_randomly(network, rng, pool)
                        readded += 1
                        continue
                    batch_touched, batch_removed = _mutate_randomly(network, rng)
                    touched |= batch_touched
                    removed |= batch_removed
                    pool += sorted(batch_removed)
            patch = patch_plan(plan, network, touched, removed=removed)
            fresh = plan_resolution(network)
            assert len(plan_dag(patch.plan).nodes) == len(patch.plan.steps)

            def closers(p):
                return {str(u) for s in p.steps for u in step_io(s)[1]}

            assert closers(patch.plan) == closers(fresh), f"trial {trial}"
            rows = _belief_rows(network, rng)
            if rows:
                expected = _replay(fresh, rows, serialized_relation)
                assert _replay(patch.plan, rows, serialized_relation) == expected, (
                    f"trial {trial}"
                )
                spliced = splice_compiled(compiled, patch)
                assert _run_compiled(spliced, rows, serialized_relation) == expected, (
                    f"trial {trial}"
                )
        assert readded >= self.TRIALS // 4  # re-adds are actually exercised


def _run_compiled(compiled, rows, serialized_relation):
    """The relation produced by executing a compiled plan region by region."""
    store = PossStore()
    store.insert_explicit_beliefs(rows)
    with store.transaction():
        for region in compiled.regions:
            _execute_region(store, region, _PhaseClock())
    relation = serialized_relation(store)
    store.close()
    return relation


class TestSpliceCompiledProperty:
    """Patched-then-spliced compiled plans must execute identically to a
    fresh re-plan-and-compile, across randomized delta streams."""

    TRIALS = 100
    DELTAS_PER_TRIAL = 4

    def test_spliced_compilation_matches_fresh_compile(self, serialized_relation):
        rng = random.Random(2026)
        checked = 0
        reused_regions = 0
        for trial in range(self.TRIALS):
            network = _random_belief_network(rng)
            plan = plan_resolution(network)
            compiled = compile_plan(plan)
            for _ in range(self.DELTAS_PER_TRIAL):
                touched, removed = _mutate_randomly(network, rng)
                if not touched and not removed:
                    continue
                patch = patch_plan(plan, network, touched, removed=removed)
                plan = patch.plan
                spliced = splice_compiled(compiled, patch)
                assert isinstance(spliced, CompiledPlan)
                assert spliced.plan is patch.plan
                # Regions partition the patched step list contiguously.
                flattened = [s for region in spliced.regions for s in region.steps]
                assert flattened == list(plan.steps), f"trial {trial}"
                reused_regions += sum(
                    1 for region in spliced.regions if region in compiled.regions
                )
                compiled = spliced
                fresh = compile_plan(plan)
                rows = _belief_rows(network, rng)
                if rows:
                    assert _run_compiled(
                        spliced, rows, serialized_relation
                    ) == _run_compiled(fresh, rows, serialized_relation), (
                        f"trial {trial}"
                    )
                    checked += 1
        assert checked >= self.TRIALS
        # The splice must actually reuse work, not recompile everything.
        assert reused_regions > self.TRIALS // 2


class TestSpliceCompiledUnits:
    def test_untouched_leading_region_is_reused_by_identity(self):
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("c", "b", priority=1)
        tn.add_trust("p", "c", priority=1)
        tn.add_trust("p", "q", priority=1)
        tn.add_trust("q", "p", priority=1)
        tn.add_trust("e", "d", priority=1)
        tn.set_explicit_belief("a", "v")
        tn.set_explicit_belief("d", "w")
        plan = plan_resolution(tn)
        compiled = compile_plan(plan)
        # Touch only the d-subtree: every region before the divergence
        # point transfers without recompilation (same object).
        tn.add_trust("f", "e", priority=1)
        patch = patch_plan(plan, tn, {"f"})
        spliced = splice_compiled(compiled, patch)
        assert spliced.regions[0] is compiled.regions[0]

    def test_divergent_plan_recompiles_the_suffix(self):
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("c", "b", priority=1)
        tn.set_explicit_belief("a", "v")
        plan = plan_resolution(tn)
        compiled = compile_plan(plan)
        # Touching the head of the chain invalidates every step, so the
        # splice keeps nothing and recompiles from the start.
        tn.set_explicit_belief("b", "w")
        patch = patch_plan(plan, tn, {"b"})
        spliced = splice_compiled(compiled, patch)
        assert all(
            region not in compiled.regions for region in spliced.regions
        )
        flattened = [s for region in spliced.regions for s in region.steps]
        assert flattened == list(patch.plan.steps)


class TestPatchPlanUnits:
    def test_untouched_subtree_steps_are_kept(self):
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("c", "b", priority=1)
        tn.add_trust("e", "d", priority=1)
        tn.set_explicit_belief("a", "v")
        tn.set_explicit_belief("d", "w")
        plan = plan_resolution(tn)
        before = len(plan.steps)
        # Touch only the d-subtree: the a-subtree's steps must survive.
        tn.add_trust("f", "e", priority=1)
        patch = patch_plan(plan, tn, {"f"})
        assert patch.kept_steps == before  # a→b→c and d→e all kept
        assert patch.added_steps >= 1
        assert patch.region_size == 1
        closed = {
            str(u)
            for s in patch.plan.steps
            for u in step_io(s)[1]
        }
        assert "f" in closed

    def test_grouped_copy_is_split_at_the_region_boundary(self):
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("c", "a", priority=1)
        tn.set_explicit_belief("a", "v")
        plan = plan_resolution(tn)  # one grouped copy a -> (b, c)
        assert len(plan.steps) == 1
        tn.add_trust("c", "x", priority=5)
        tn.set_explicit_belief("x", "w")
        patch = patch_plan(plan, tn, {"c", "x"})
        kept = patch.plan.steps[0]
        assert kept.children == ("b",)  # c was carved out of the group
        fresh = plan_resolution(tn)
        assert patch.plan.statement_count() >= fresh.statement_count()

    def test_remove_user_drops_its_steps(self):
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("c", "b", priority=1)
        tn.set_explicit_belief("a", "v")
        plan = plan_resolution(tn)
        children = set(tn.children("b"))
        tn.remove_user("b")
        patch = patch_plan(plan, tn, children, removed={"b"})
        closed = {
            str(u)
            for s in patch.plan.steps
            for u in step_io(s)[1]
        }
        assert "b" not in closed
        assert closed == {str(u) for s in plan_resolution(tn).steps
                          for u in step_io(s)[1]}

    def test_skeptic_plans_are_rejected(self):
        tn = TrustNetwork()
        tn.add_trust("p", "source", priority=2)
        tn.add_trust("p", "filter", priority=1)
        plan = plan_skeptic_resolution(
            tn, positive_users=["source"], negative_constraints={"filter": ["v1"]}
        )
        if any(isinstance(s, FloodStep) and s.blocked for s in plan.steps):
            with pytest.raises(BulkProcessingError, match="Skeptic"):
                patch_plan(plan, tn, {"p"})
        else:  # pragma: no cover - plan shape changed
            pytest.skip("plan carries no blocked flood step")

    def test_covering_flood_detection(self):
        """A touched set that does not cover the delta is rejected instead
        of silently producing a half-patched plan."""
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("c", "b", priority=1)
        tn.add_trust("b", "c", priority=1)
        tn.set_explicit_belief("a", "v")
        plan = plan_resolution(tn)
        # Break the cycle: b no longer trusts c (the edge c -> b is gone).
        # The correct touched set is {b} (the child of the removed edge);
        # a wrong one — {c} — leaves half the flood component outside the
        # region, which the patch must reject loudly.
        tn.remove_trust("b", "c")
        with pytest.raises(BulkProcessingError, match="straddles"):
            patch_plan(plan, tn, {"c"})


class TestValueOnlyTouches:
    """A touched user that is explicit before and after the deltas reaches
    no step: the patch ignores it, and returns the input plan when nothing
    else is left."""

    def _network(self):
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("c", "b", priority=1)
        tn.add_trust("p", "c", priority=1)
        tn.add_trust("p", "q", priority=1)
        tn.add_trust("q", "p", priority=1)
        tn.add_trust("e", "d", priority=1)
        tn.set_explicit_belief("a", "v")
        tn.set_explicit_belief("d", "w")
        return tn

    def test_value_only_touches_return_the_same_plan(self):
        tn = self._network()
        plan = plan_resolution(tn)
        compiled = compile_plan(plan)
        tn.set_explicit_belief("a", "changed")
        tn.set_explicit_belief("d", "changed")
        patch = patch_plan(plan, tn, {"a", "d"})
        assert patch.plan is plan
        assert patch.region_size == 0
        assert (patch.kept_steps, patch.dropped_steps, patch.added_steps) == (
            len(plan.steps),
            0,
            0,
        )
        assert splice_compiled(compiled, patch) is compiled

    def test_value_only_touches_beside_a_structural_one_are_ignored(self):
        tn = self._network()
        plan = plan_resolution(tn)
        tn.set_explicit_belief("a", "changed")
        tn.add_trust("f", "e", priority=1)
        patch = patch_plan(plan, tn, {"a", "f"})
        assert patch.region_size == 1  # only f; a's chain is not re-planned
        assert patch.kept_steps == len(plan.steps)

    def test_a_removed_believer_is_still_patched(self):
        tn = self._network()
        plan = plan_resolution(tn)
        children = set(tn.children("a"))
        tn.remove_user("a")
        tn.set_explicit_belief("a", "back")
        tn.add_trust("b", "a", priority=1)
        patch = patch_plan(plan, tn, children | {"a"}, removed={"a"})
        fresh = plan_resolution(tn)
        closers = lambda p: {str(u) for s in p.steps for u in step_io(s)[1]}
        assert closers(patch.plan) == closers(fresh)

    def test_skeptic_plans_are_still_rejected(self):
        tn = TrustNetwork()
        tn.add_trust("p", "source", priority=2)
        tn.add_trust("p", "filter", priority=1)
        tn.set_explicit_belief("source", "v1")
        plan = plan_skeptic_resolution(
            tn, positive_users=["source"], negative_constraints={"filter": ["v1"]}
        )
        assert any(isinstance(s, FloodStep) and s.blocked for s in plan.steps)
        tn.set_explicit_belief("source", "v2")
        with pytest.raises(BulkProcessingError, match="Skeptic"):
            patch_plan(plan, tn, {"source"})

    def test_belief_round_trip_across_two_deferred_patches(self, serialized_relation):
        """An explicit user loses its belief and gains a parent (patch 1),
        then drops the parent and regains its belief (patch 2); other
        believers change value all along.  Each patch replays like a fresh
        plan, and so does one patch over the whole stream, which the
        value-only rule turns into the input plan itself."""
        rng = random.Random(1818)
        checked = same_plan = 0
        for trial in range(80):
            network = _random_belief_network(rng)
            explicit = sorted(
                (u for u, b in network.explicit_beliefs.items() if b.has_positive),
                key=str,
            )
            user = rng.choice(explicit)
            others = [u for u in sorted(network.users, key=str) if u != user]
            parent = rng.choice(others)
            value = network.explicit_belief(user).positive_value
            start = plan_resolution(network)

            def value_touches():
                touched = set()
                for other in explicit:
                    if other != user and rng.random() < 0.5:
                        network.set_explicit_belief(other, rng.choice(["v1", "v2", "v3"]))
                        touched.add(other)
                return touched

            network.remove_explicit_belief(user)
            network.add_trust(user, parent, priority=rng.choice([1, 2, 3]))
            first = patch_plan(start, network, {user} | value_touches())
            self._check(first.plan, network, rng, serialized_relation, trial)

            network.remove_trust(user, parent)
            network.set_explicit_belief(user, value)
            touched = {user} | value_touches()
            second = patch_plan(first.plan, network, touched)
            self._check(second.plan, network, rng, serialized_relation, trial)

            whole = patch_plan(start, network, touched | {user})
            assert whole.plan is start, f"trial {trial}"
            same_plan += 1
            self._check(whole.plan, network, rng, serialized_relation, trial)
            checked += 1
        assert checked == same_plan == 80

    @staticmethod
    def _check(plan, network, rng, serialized_relation, trial):
        fresh = plan_resolution(network)
        assert len(plan_dag(plan).nodes) == len(plan.steps)
        rows = _belief_rows(network, rng)
        if rows:
            assert _replay(plan, rows, serialized_relation) == _replay(
                fresh, rows, serialized_relation
            ), f"trial {trial}"
