"""Unit tests for the Algorithm-1 delta resolver (change-driven recompute)."""

from __future__ import annotations

import gc
import random

import pytest

from repro.bulk.store import PossStore
from repro.core import condensation as condensation_module
from repro.core import resolution as resolution_module
from repro.core import sccs as sccs_module
from repro.core.errors import NetworkError
from repro.core.network import TrustNetwork
from repro.core.resolution import resolve
from repro.incremental.deltas import (
    AddTrust,
    RemoveBelief,
    RemoveTrust,
    RemoveUser,
    SetBelief,
    SetPriority,
)
from repro.incremental import resolver as resolver_module
from repro.incremental.resolver import DeltaResolver
from repro.incremental.session import IncrementalSession
from repro.workloads.oscillators import oscillator_network
from repro.workloads.powerlaw import WebWorkloadConfig, web_trust_network


def assert_matches_full(resolver: DeltaResolver) -> None:
    """The maintained map must equal a from-scratch resolution."""
    assert resolver.possible == resolve(resolver.network).possible


@pytest.fixture
def oscillator(oscillator_network):
    """The Figure 4b oscillator (two stable solutions) — suite-wide fixture."""
    return oscillator_network


class TestBeliefDeltas:
    def test_set_belief_propagates_downstream(self, oscillator):
        resolver = DeltaResolver(oscillator)
        assert resolver.possible["x1"] == frozenset({"v", "w"})
        log = resolver.apply(SetBelief("x4", "v"))
        # Both sources now agree, so the cycle collapses to one value.
        assert resolver.possible["x1"] == frozenset({"v"})
        assert resolver.possible["x2"] == frozenset({"v"})
        assert {change.user for change in log.changes} == {"x1", "x2", "x4"}
        assert_matches_full(resolver)

    def test_set_belief_same_value_changes_nothing(self, oscillator):
        resolver = DeltaResolver(oscillator)
        log = resolver.apply(SetBelief("x3", "v"))
        assert log.is_empty
        assert log.dirty_region >= 1  # the touched user is always recomputed
        assert_matches_full(resolver)

    def test_set_belief_on_new_user_extends_the_network(self, oscillator):
        resolver = DeltaResolver(oscillator)
        resolver.apply(SetBelief("x9", "q"))
        assert resolver.possible["x9"] == frozenset({"q"})
        assert_matches_full(resolver)

    def test_set_belief_on_non_root_is_rejected(self, oscillator):
        resolver = DeltaResolver(oscillator)
        with pytest.raises(NetworkError):
            resolver.apply(SetBelief("x1", "v"))

    def test_remove_belief_makes_descendants_undefined(self, oscillator):
        resolver = DeltaResolver(oscillator)
        resolver.apply(RemoveBelief("x4"))
        # x2 keeps only the x1-side value; the x4 source is gone.
        assert resolver.possible["x4"] == frozenset()
        assert_matches_full(resolver)

    def test_remove_absent_belief_is_a_noop(self, oscillator):
        resolver = DeltaResolver(oscillator)
        log = resolver.apply(RemoveBelief("x1"))
        assert log.is_empty and log.dirty_region == 0


class TestStructuralDeltas:
    def test_add_trust_reaches_new_child(self, oscillator):
        resolver = DeltaResolver(oscillator)
        resolver.apply(AddTrust("x5", "x1", 10))
        assert resolver.possible["x5"] == frozenset({"v", "w"})
        assert_matches_full(resolver)

    def test_add_trust_validates_binarity(self, oscillator):
        resolver = DeltaResolver(oscillator)
        with pytest.raises(NetworkError):
            resolver.apply(AddTrust("x1", "x4", 10))  # third parent
        with pytest.raises(NetworkError):
            resolver.apply(AddTrust("x3", "x1", 10))  # belief holder
        with pytest.raises(NetworkError):
            resolver.apply(AddTrust("x7", "x7", 1))  # self-trust

    def test_remove_trust_and_priority_change(self, oscillator):
        resolver = DeltaResolver(oscillator)
        # Dropping the preferred edge x2 -> x1 leaves only x3's value.
        resolver.apply(RemoveTrust("x1", "x2"))
        assert resolver.possible["x1"] == frozenset({"v"})
        assert_matches_full(resolver)
        # Re-adding with a *lower* priority than x3 flips the preference.
        resolver.apply(AddTrust("x1", "x2", 10))
        assert_matches_full(resolver)
        resolver.apply(SetPriority("x1", "x2", 100))
        assert_matches_full(resolver)
        assert resolver.possible["x1"] == frozenset({"v", "w"})

    def test_remove_user_drops_its_rows_and_updates_children(self, oscillator):
        resolver = DeltaResolver(oscillator)
        log = resolver.apply(RemoveUser("x4"))
        assert "x4" not in resolver.possible
        removed = [change for change in log.changes if change.removed]
        assert [change.user for change in removed] == ["x4"]
        assert_matches_full(resolver)

    def test_user_removed_and_recreated_in_one_batch_starts_over(self):
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("c", "b", priority=1)
        tn.set_explicit_belief("a", "v")
        resolver = DeltaResolver(tn)
        # b comes back as a new parent of d, with no parent of its own.
        resolver.apply_batch([RemoveUser("b"), AddTrust("d", "b", 1)])
        assert resolver.possible["b"] == frozenset()
        assert_matches_full(resolver)

    def test_structural_delta_on_missing_edge_is_rejected(self, oscillator):
        resolver = DeltaResolver(oscillator)
        with pytest.raises(NetworkError):
            resolver.apply(RemoveTrust("x1", "x4"))
        with pytest.raises(NetworkError):
            resolver.apply(SetPriority("x9", "x1", 3))
        with pytest.raises(NetworkError):
            resolver.apply(RemoveUser("nope"))


def descendant_count(network, user) -> int:
    """How many users a delta on ``user`` could reach (itself included)."""
    return len(network.descendants((user,)))


class TestPruning:
    """The walk recomputes what changes; descendants that keep their
    values are never visited, so ``dirty_region == recomputed``, and the
    descendant counts come from ``TrustNetwork.descendants()``."""

    def test_disconnected_clusters_are_never_visited(self):
        network = oscillator_network(50)
        resolver = DeltaResolver(network)
        # The dirty region is one cluster's reachable half, not the network.
        assert descendant_count(network, "c0.x3") == 3
        log = resolver.apply(SetBelief("c0.x3", "fresh"))
        assert log.recomputed <= 3
        assert log.dirty_region == log.recomputed
        assert_matches_full(resolver)

    def test_equal_value_recompute_prunes_descendants(self):
        # chain: a -> b -> c -> d; flipping a's belief back and forth.
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("c", "b", priority=1)
        tn.add_trust("d", "c", priority=1)
        tn.set_explicit_belief("a", "v")
        resolver = DeltaResolver(tn)
        log = resolver.apply(SetBelief("a", "v"))
        # a is recomputed (touched), but its value is unchanged, so the
        # three downstream users are pruned without recomputation.
        assert descendant_count(tn, "a") == 4
        assert log.recomputed == 1
        assert descendant_count(tn, "a") - log.recomputed == 3
        assert log.dirty_region == 1
        assert log.is_empty

    def test_partial_pruning_stops_at_stable_values(self):
        # two sources merging: flipping the non-preferred source only
        # recomputes until values stabilize.
        tn = TrustNetwork()
        tn.add_trust("m", "hi", priority=2)
        tn.add_trust("m", "lo", priority=1)
        tn.add_trust("tail", "m", priority=1)
        tn.set_explicit_belief("hi", "v")
        tn.set_explicit_belief("lo", "w")
        resolver = DeltaResolver(tn)
        log = resolver.apply(SetBelief("lo", "zzz"))
        # m copies from the preferred parent "hi", so m (and tail) keep
        # their values: only lo and m are recomputed, tail is pruned.
        assert resolver.possible["m"] == frozenset({"v"})
        assert log.recomputed == 2
        assert descendant_count(tn, "lo") - log.recomputed == 1
        assert log.dirty_region == 2
        assert_matches_full(resolver)


class TestResolverState:
    def test_resolution_snapshot(self, oscillator):
        resolver = DeltaResolver(oscillator)
        resolver.apply(SetBelief("x4", "v"))
        snapshot = resolver.resolution()
        assert snapshot.possible == resolver.possible
        assert snapshot.certain_value("x1") == "v"
        assert snapshot.explicit_users == frozenset({"x3", "x4"})

    def test_belief_override_detaches_from_network(self, oscillator):
        resolver = DeltaResolver(oscillator, beliefs={"x3": "a", "x4": "b"})
        assert resolver.possible["x1"] == frozenset({"a", "b"})
        resolver.apply(SetBelief("x3", "zz"))
        # The network's own beliefs are untouched in override mode.
        assert oscillator.explicit_belief("x3").positive_value == "v"
        assert resolver.possible["x1"] == frozenset({"zz", "b"})

    def test_belief_override_unknown_user_rejected(self, oscillator):
        with pytest.raises(NetworkError):
            DeltaResolver(oscillator, beliefs={"ghost": "v"})

    def test_non_binary_network_rejected(self):
        tn = TrustNetwork(mappings=[("a", 1, "x"), ("b", 2, "x"), ("c", 3, "x")])
        with pytest.raises(NetworkError):
            DeltaResolver(tn)

    def test_gc_is_restored_after_every_apply(self, oscillator):
        resolver = DeltaResolver(oscillator)
        assert gc.isenabled()
        resolver.apply(SetBelief("x4", "v"))
        assert gc.isenabled()


def _raise(*_args, **_kwargs):
    raise AssertionError("the change-driven walk must not condense a region")


def forbid(monkeypatch, *targets) -> None:
    """Make ``module.name`` raise, wherever a module imported the name."""
    for module, name in targets:
        original = getattr(module, name)
        for holder in (module, resolution_module, resolver_module):
            if getattr(holder, name, None) is original:
                monkeypatch.setattr(holder, name, _raise)


def layered_dag(n_users: int = 300, roots: int = 12) -> TrustNetwork:
    """A binary DAG: every non-root trusts one or two earlier users."""
    rng = random.Random(5)
    network = TrustNetwork()
    for user in range(roots):
        network.set_explicit_belief(f"u{user}", f"v{user % 3}")
    for user in range(roots, n_users):
        for parent in rng.sample(range(user), min(user, rng.choice((1, 2)))):
            network.add_trust(f"u{user}", f"u{parent}", rng.randint(1, 3))
    return network


class TestMaintainedCondensation:
    KEYS = tuple(f"k{i}" for i in range(50))

    def session(self, network: TrustNetwork, believers) -> IncrementalSession:
        return IncrementalSession(
            network,
            store=PossStore(),
            keys=self.KEYS,
            beliefs_by_key={
                key: {user: f"{key}-{i % 4}" for i, user in enumerate(believers)}
                for key in self.KEYS
            },
        )

    def value_only_batch(self, believers):
        return [
            SetBelief(user, f"new{i}", key=self.KEYS[(7 * i) % len(self.KEYS)])
            for i, user in enumerate(believers[:5])
        ]

    def assert_matches_fresh(self, session: IncrementalSession) -> None:
        for key in self.KEYS:
            resolver = session.resolver(key)
            fresh = TrustNetwork(
                users=session.network.users,
                mappings=session.network.mappings,
                explicit_beliefs=dict(resolver.beliefs),
            )
            assert resolver.possible == resolve(fresh).possible, key

    def test_value_only_batch_runs_no_tarjan_at_all(self, monkeypatch):
        network = layered_dag()
        believers = sorted(network.explicit_beliefs, key=str)
        session = self.session(network, believers)
        forbid(
            monkeypatch,
            (sccs_module, "strongly_connected_components"),
            (sccs_module, "_tarjan_indexed"),
            (condensation_module, "_tarjan_indexed"),
        )
        report = session.apply_batch(*self.value_only_batch(believers))
        assert report.recomputed > 0
        assert report.dirty_region == report.recomputed
        monkeypatch.undo()
        self.assert_matches_fresh(session)

    def test_value_only_batch_on_a_cyclic_graph_condenses_no_region(self, monkeypatch):
        # Components with cycles run Algorithm 1 locally (its own SCC
        # engine) or evaluate the union program such a run recorded; the
        # walk itself neither builds a region nor condenses.
        network = oscillator_network(30)
        believers = sorted(network.explicit_beliefs, key=str)
        session = self.session(network, believers)
        forbid(
            monkeypatch,
            (sccs_module, "strongly_connected_components"),
            (condensation_module, "_tarjan_indexed"),
        )
        session.apply_batch(*self.value_only_batch(believers))
        monkeypatch.undo()
        self.assert_matches_fresh(session)

    def test_value_only_batch_on_other_keys_reuses_the_component_programs(
        self, monkeypatch
    ):
        # Every key has the same believers, hence the same reachability
        # masks: the warm-up batch records the union program of each SCC it
        # recomputes, and the keys of the next batch only evaluate them.
        network = web_trust_network(WebWorkloadConfig(n_domains=100, seed=3))
        cond = network.condensation()
        big = max((m for m in cond.members if m), key=len)
        assert len(big) > 10
        believers = sorted(network.explicit_beliefs, key=str)
        session = self.session(network, believers)
        session.apply_batch(*self.value_only_batch(believers))
        keys = [self.KEYS[(7 * i + 3) % len(self.KEYS)] for i in range(len(believers))]
        before = {key: [session.resolver(key).possible[u] for u in big] for key in keys}
        forbid(monkeypatch, (sccs_module, "CondensationEngine"))
        session.apply_batch(
            *[
                SetBelief(user, f"newer{i}", key=key)
                for i, (user, key) in enumerate(zip(believers, keys))
            ]
        )
        monkeypatch.undo()
        # The big component was recomputed, not merely skipped.
        assert any(
            [session.resolver(key).possible[u] for u in big] != before[key]
            for key in keys
        )
        self.assert_matches_fresh(session)

    def test_structural_delta_touches_only_its_own_cluster(self, monkeypatch):
        network = oscillator_network(3000)  # 12k users
        resolver = DeltaResolver(network)
        cond = network.condensation()

        def snapshot():
            return {
                user: (cid, cond.rank[cid])
                for user, cid in cond.component.items()
                if not user.startswith("c7.")
            }

        before = snapshot()
        condensed = []
        real = condensation_module._tarjan_indexed

        def counting(roots, *args):
            roots = list(roots)
            condensed.append(len(roots))
            return real(roots, *args)

        monkeypatch.setattr(condensation_module, "_tarjan_indexed", counting)
        logs = [
            resolver.apply(RemoveTrust("c7.x1", "c7.x2")),  # splits {x1, x2}
            resolver.apply(AddTrust("c7.x1", "c7.x2", 100)),  # closes it again
            resolver.apply(SetPriority("c7.x2", "c7.x1", 10)),
            resolver.apply(RemoveUser("c7.x4")),
        ]
        assert condensed and max(condensed) <= 4
        assert all(log.recomputed <= 4 for log in logs)
        assert snapshot() == before
        assert cond.component["c7.x1"] == cond.component["c7.x2"]
        assert_matches_full(resolver)
