"""Tests for lineage retrieval (Section 2.5, "Retrieving lineage")."""

from __future__ import annotations

import pytest

from repro.core.network import TrustNetwork
from repro.core.resolution import resolve


class TestLineage:
    def test_lineage_of_explicit_belief_is_a_single_step(self):
        tn = TrustNetwork(explicit_beliefs={"a": "v"})
        result = resolve(tn)
        path = result.trace_lineage("a", "v")
        assert len(path) == 1
        assert path[0].user == "a" and path[0].source is None

    def test_lineage_follows_preferred_chain(self):
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("c", "b", priority=1)
        tn.set_explicit_belief("a", "v")
        result = resolve(tn)
        path = result.trace_lineage("c", "v")
        assert [step.user for step in path] == ["c", "b", "a"]
        assert path[-1].source is None
        assert all(step.value == "v" for step in path)

    def test_lineage_through_scc_flooding(self, oscillator_network):
        result = resolve(oscillator_network)
        for value, origin in (("v", "x3"), ("w", "x4")):
            path = result.trace_lineage("x1", value)
            assert path[0].user == "x1"
            assert path[-1].user == origin
            assert path[-1].source is None

    def test_every_possible_value_has_a_lineage(self, oscillator_network):
        result = resolve(oscillator_network)
        for user in oscillator_network.users:
            for value in result.possible_values(user):
                path = result.trace_lineage(user, value)
                assert path, (user, value)
                assert path[-1].source is None

    def test_lineage_of_impossible_value_raises(self, oscillator_network):
        result = resolve(oscillator_network)
        with pytest.raises(KeyError):
            result.trace_lineage("x1", "nonexistent")

    def test_lineage_terminates_on_conflicting_network(self):
        tn = TrustNetwork()
        tn.add_trust("x", "a", priority=1)
        tn.add_trust("x", "b", priority=1)
        tn.add_trust("y", "x", priority=1)
        tn.set_explicit_belief("a", "va")
        tn.set_explicit_belief("b", "vb")
        result = resolve(tn)
        for value in ("va", "vb"):
            path = result.trace_lineage("y", value)
            assert path[-1].user in {"a", "b"}
            assert path[-1].value == value


class TestLineagePointers:
    """The exact pointer sets: a copied value points at the immediate
    preferred parent, a flooded value at every closed parent of the flood
    that holds it, and an explicit value at ``None``."""

    def test_oscillator_flood_points_at_the_parents_holding_each_value(
        self, oscillator_network
    ):
        result = resolve(oscillator_network)
        assert result.lineage_pointers == {
            ("x3", "v"): frozenset({None}),
            ("x4", "w"): frozenset({None}),
            ("x1", "v"): frozenset({"x3"}),
            ("x1", "w"): frozenset({"x4"}),
            ("x2", "v"): frozenset({"x3"}),
            ("x2", "w"): frozenset({"x4"}),
        }

    def test_ring_fed_by_three_roots(self):
        # m0 -> m1 -> m2 -> m0, each member preferring its ring parent over
        # its root; r0 and r2 both believe "a".  A copy chain hangs off m0,
        # "u" ties two roots, and "w" loses its preferred (unreachable)
        # parent "z".
        tn = TrustNetwork()
        ring = ("m0", "m1", "m2")
        for i, member in enumerate(ring):
            tn.add_trust(member, ring[i - 1], priority=2)
            tn.add_trust(member, f"r{i}", priority=1)
        tn.add_trust("t1", "m0", priority=1)
        tn.add_trust("t2", "t1", priority=1)
        tn.add_trust("t3", "t2", priority=2)
        tn.add_trust("t3", "r1", priority=1)
        tn.add_trust("u", "r0", priority=1)
        tn.add_trust("u", "r1", priority=1)
        tn.add_trust("y", "z", priority=1)
        tn.add_trust("w", "z", priority=5)
        tn.add_trust("w", "r1", priority=1)
        for root, value in (("r0", "a"), ("r1", "b"), ("r2", "a")):
            tn.set_explicit_belief(root, value)

        result = resolve(tn)
        expected = {
            (root, value): frozenset({None})
            for root, value in (("r0", "a"), ("r1", "b"), ("r2", "a"))
        }
        for member in ring:
            expected[(member, "a")] = frozenset({"r0", "r2"})
            expected[(member, "b")] = frozenset({"r1"})
        for child, parent in (("t1", "m0"), ("t2", "t1"), ("t3", "t2")):
            for value in ("a", "b"):
                expected[(child, value)] = frozenset({parent})
        expected[("u", "a")] = frozenset({"r0"})
        expected[("u", "b")] = frozenset({"r1"})
        expected[("w", "b")] = frozenset({"r1"})
        assert result.lineage_pointers == expected
        assert result.possible_values("y") == result.possible_values("z") == frozenset()
        path = result.trace_lineage("t3", "b")
        assert [step.user for step in path] == ["t3", "t2", "t1", "m0", "r1"]
