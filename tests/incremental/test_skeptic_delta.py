"""The Skeptic (Algorithm 2) delta resolver vs. from-scratch resolution."""

from __future__ import annotations

import random

import pytest

from repro.core.beliefs import BeliefSet
from repro.core.errors import NetworkError
from repro.core import condensation as condensation_module
from repro.core import sccs as sccs_module
from repro.core.network import TrustNetwork
from repro.core.skeptic import resolve_skeptic
from repro.incremental.deltas import (
    AddTrust,
    RemoveBelief,
    RemoveTrust,
    RemoveUser,
    SetBelief,
    SetPriority,
)
from repro.incremental import resolver as resolver_module
from repro.incremental import skeptic as skeptic_module
from repro.incremental.skeptic import SkepticDeltaResolver
from repro.workloads.updates import generate_update_stream


def random_constrained_network(
    seed: int, n_nodes: int = 8, n_values: int = 3
) -> TrustNetwork:
    """A random binary network with distinct priorities and mixed beliefs."""
    rng = random.Random(seed)
    users = [f"u{i}" for i in range(n_nodes)]
    values = [f"val{i}" for i in range(n_values)]
    tn = TrustNetwork(users=users)
    for child in users:
        priorities = rng.sample(range(1, 10), 2)
        count = 0
        for _ in range(2):
            if count >= 2 or rng.random() > 0.7:
                continue
            parent = rng.choice(users)
            if parent == child:
                continue
            if any(m.parent == parent for m in tn.incoming(child)):
                continue
            tn.add_trust(child, parent, priority=priorities[count])
            count += 1
    for user in users:
        if tn.incoming(user):
            continue
        roll = rng.random()
        if roll < 0.4:
            tn.set_explicit_belief(user, rng.choice(values))
        elif roll < 0.65:
            tn.set_explicit_belief(
                user,
                BeliefSet.from_negatives(rng.sample(values, rng.randint(1, 2))),
            )
    return tn


def assert_matches_full(resolver: SkepticDeltaResolver) -> None:
    oracle = resolve_skeptic(resolver.network)
    got = resolver.result()
    assert got.representations == oracle.representations
    assert got.pref_neg == oracle.pref_neg
    assert got.domain == oracle.domain


class TestSkepticDeltas:
    def _filter_network(self):
        tn = TrustNetwork()
        tn.add_trust("x", "filter", priority=2)
        tn.add_trust("x", "source", priority=1)
        tn.set_explicit_belief("filter", BeliefSet.from_negatives(["bad"]))
        tn.set_explicit_belief("source", "good")
        return tn

    def test_constraint_blocks_new_value(self):
        resolver = SkepticDeltaResolver(self._filter_network())
        assert resolver.result().possible_positive_values("x") == frozenset(
            {"good"}
        )
        resolver.apply(SetBelief("source", "bad"))
        # The filtered value is rejected along the preferred chain: x
        # cannot accept it, so x floods to bottom.
        assert resolver.result().possible_positive_values("x") == frozenset()
        assert resolver.result().representation("x").has_bottom
        assert_matches_full(resolver)

    def test_constraint_update_reaches_pref_neg(self):
        resolver = SkepticDeltaResolver(self._filter_network())
        resolver.apply(SetBelief("filter", BeliefSet.from_negatives(["good"])))
        assert resolver.result().forced_negative_values("x") == frozenset(
            {"good"}
        )
        assert_matches_full(resolver)

    def test_structural_deltas(self):
        resolver = SkepticDeltaResolver(self._filter_network())
        resolver.apply(RemoveTrust("x", "filter"))
        assert_matches_full(resolver)
        resolver.apply(AddTrust("y", "x", 5))
        assert_matches_full(resolver)
        resolver.apply(SetPriority("y", "x", 7))
        assert_matches_full(resolver)
        resolver.apply(RemoveUser("source"))
        assert_matches_full(resolver)
        resolver.apply(RemoveBelief("filter"))
        assert_matches_full(resolver)

    def test_user_removed_and_recreated_in_one_batch_starts_over(self):
        resolver = SkepticDeltaResolver(self._filter_network())
        resolver.apply_batch([RemoveUser("source"), AddTrust("y", "source", 1)])
        assert resolver.result().representation("source").is_empty
        assert_matches_full(resolver)

    def test_tie_creating_deltas_are_rejected(self):
        resolver = SkepticDeltaResolver(self._filter_network())
        resolver.apply(AddTrust("y", "x", 5))
        with pytest.raises(NetworkError):
            resolver.apply(AddTrust("y", "filter", 5))  # ties y's parents
        with pytest.raises(NetworkError):
            resolver.apply(SetPriority("x", "source", 2))  # ties x's parents
        assert_matches_full(resolver)

    def test_cofinite_negative_belief_rejected(self):
        resolver = SkepticDeltaResolver(self._filter_network())
        with pytest.raises(NetworkError):
            resolver.apply(SetBelief("source", BeliefSet.bottom()))


def assert_stream_matches(seed: int, batch: int, stop: int = 25) -> None:
    """Apply the seed's stream ``batch`` deltas at a time, checking each step.

    Networks have 8 to 47 users, so streams split and merge large SCCs.
    """
    network = random_constrained_network(seed, n_nodes=8 + seed % 40, n_values=4)
    stream = list(
        generate_update_stream(
            network.copy(), n_ops=25, seed=seed * 7 + 1, distinct_priorities=True
        )
    )[:stop]
    resolver = SkepticDeltaResolver(network)
    for start in range(0, len(stream), batch):
        chunk = stream[start : start + batch]
        if batch == 1:
            log = resolver.apply(chunk[0])
        else:
            log = resolver.apply_batch(chunk)
        assert log.dirty_region == log.recomputed
        oracle = resolve_skeptic(network)
        got = resolver.result()
        assert got.representations == oracle.representations, (seed, chunk)
        assert got.pref_neg == oracle.pref_neg, (seed, chunk)
        assert got.domain == oracle.domain, (seed, chunk)


@pytest.mark.parametrize("seed", range(200))
def test_skeptic_stream_matches_full_resolution(seed):
    assert_stream_matches(seed, 1)  # apply
    assert_stream_matches(seed, 5)  # apply_batch


@pytest.mark.parametrize(
    "seed, stop, split",
    [
        # RemoveUser("u17") splits its 12-member SCC; u4 kept a stale ⊥.
        (76, 9, RemoveUser("u17")),
        # RemoveTrust("u42", "u40") splits their SCC; u32 kept a stale ⊥.
        (678, 5, RemoveTrust("u42", "u40")),
    ],
)
def test_component_split_reseeds_every_piece(seed, stop, split):
    network = random_constrained_network(seed, n_nodes=8 + seed % 40, n_values=4)
    stream = list(
        generate_update_stream(
            network.copy(), n_ops=25, seed=seed * 7 + 1, distinct_priorities=True
        )
    )
    assert stream[stop - 1] == split
    assert_stream_matches(seed, 1, stop)


def constrained_dag(n_users: int = 300, roots: int = 12) -> TrustNetwork:
    """A binary DAG with distinct priorities under positive-belief roots."""
    rng = random.Random(11)
    network = TrustNetwork()
    for user in range(roots):
        network.set_explicit_belief(f"u{user}", f"v{user % 3}")
    for user in range(roots, n_users):
        parents = rng.sample(range(user), min(user, rng.choice((1, 2))))
        for priority, parent in enumerate(parents, 1):
            network.add_trust(f"u{user}", f"u{parent}", priority=priority)
    return network


class TestNoRegionCondensation:
    """The walk reads the network's maintained condensation: an apply
    neither builds a descendant region nor condenses one."""

    @staticmethod
    def forbid(monkeypatch, *targets) -> None:
        """Make ``module.name`` raise, wherever a module imported the name."""

        def fail(*_args, **_kwargs):
            raise AssertionError("the delta walk must not condense a region")

        for module, name in targets:
            original = getattr(module, name)
            for holder in (module, skeptic_module, resolver_module):
                if getattr(holder, name, None) is original:
                    monkeypatch.setattr(holder, name, fail)

    def test_value_only_apply_runs_no_tarjan(self, monkeypatch):
        # Every user is reachable from a positive belief, so each closes
        # by a preferred copy and no component needs a flood.
        resolver = SkepticDeltaResolver(constrained_dag())
        self.forbid(
            monkeypatch,
            (sccs_module, "strongly_connected_components"),
            (sccs_module, "_tarjan_indexed"),
            (condensation_module, "_tarjan_indexed"),
        )
        log = resolver.apply_batch([SetBelief(f"u{i}", f"new{i}") for i in range(5)])
        assert log.recomputed > 5
        assert resolver.apply(SetBelief("u7", "v0")).recomputed > 1
        monkeypatch.undo()
        assert_matches_full(resolver)

    def test_value_only_apply_on_cycles_condenses_no_region(self, monkeypatch):
        # Components that flood condense their own members in Algorithm 2's
        # closing loop, as the batch algorithm does; nothing condenses the
        # descendants of the touched users.
        network = random_constrained_network(76, n_nodes=36, n_values=4)
        believers = sorted(
            user
            for user, belief in network.explicit_beliefs.items()
            if belief.has_positive
        )
        resolver = SkepticDeltaResolver(network)
        self.forbid(
            monkeypatch,
            (sccs_module, "strongly_connected_components"),
            (condensation_module, "_tarjan_indexed"),
        )
        for i, user in enumerate(believers):
            resolver.apply(SetBelief(user, f"val{(i + 1) % 4}"))
        # A positive belief turned negative-only: its preferred children's
        # prefNeg moves, and they flood instead of copying.
        resolver.apply(SetBelief(believers[0], BeliefSet.from_negatives(["val0"])))
        monkeypatch.undo()
        assert_matches_full(resolver)
