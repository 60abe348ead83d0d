"""The maintained SCC condensation of a TrustNetwork.

After every mutation the condensation must equal a from-scratch
condensation of the network (same partition into components), and its
ranks must order every edge: a cross-component edge runs from a lower rank
to a higher one, an edge inside a component joins equal ranks.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import condensation as condensation_module
from repro.core.errors import NetworkError
from repro.core.network import TrustNetwork
from repro.core.sccs import strongly_connected_components


def assert_condensation_current(network: TrustNetwork) -> None:
    cond = network.condensation()
    assert set(cond.component) == set(network.users)
    live = {cid for cid, members in enumerate(cond.members) if members is not None}
    assert live == set(cond.component.values())
    for cid in live:
        assert cond.rank[cid] is not None
        for user in cond.members[cid]:
            assert cond.component[user] == cid
    actual = {frozenset(cond.members[cid]) for cid in live}
    expected = {
        frozenset(component)
        for component in strongly_connected_components(
            network.users, lambda user: [edge.child for edge in network.outgoing(user)]
        )
    }
    assert actual == expected
    ranks = [cond.rank[cid] for cid in live]
    assert len(set(ranks)) == len(ranks)
    for edge in network.mappings:
        parent = cond.component[edge.parent]
        child = cond.component[edge.child]
        if parent == child:
            continue
        assert cond.rank[parent] < cond.rank[child], edge


def fill_program_slots(network: TrustNetwork) -> None:
    """Give every live component a program slot naming its members."""
    cond = network.condensation()
    for cid, members in enumerate(cond.members):
        if members is not None:
            cond.programs[cid] = SimpleNamespace(members=members)


def assert_program_slots_current(network: TrustNetwork, changed=()) -> None:
    """Slots only for live components, recorded on their current members;
    none for the components of ``changed`` (users whose in-edges moved)."""
    cond = network.condensation()
    for cid, program in cond.programs.items():
        assert program.members is cond.members[cid], cid
    live = sum(members is not None for members in cond.members)
    assert len(cond.programs) <= live
    for user in changed:
        assert cond.component[user] not in cond.programs, user


OPS = ("add_trust", "add_trust", "remove_trust", "remove_user", "set_priority", "add_user")


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(min_value=2, max_value=9),
    edges=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 5)),
        max_size=14,
    ),
    data=st.data(),
)
def test_condensation_matches_a_fresh_one_after_every_mutation(n, edges, data):
    network = TrustNetwork(users=range(n))
    for parent, child, priority in edges:
        if parent % n != child % n:
            network.add_trust(child % n, parent % n, priority)
    network.condensation()
    assert_condensation_current(network)
    fresh = n
    for _ in range(data.draw(st.integers(5, 25), label="ops")):
        op = data.draw(st.sampled_from(OPS), label="op")
        users = sorted(network.users)
        mappings = network.mappings
        fill_program_slots(network)
        changed = ()
        if op == "add_trust" and len(users) >= 2:
            # Any ordered pair, so some close cycles across components.
            child, parent = data.draw(
                st.lists(st.sampled_from(users), min_size=2, max_size=2, unique=True),
                label="pair",
            )
            network.add_trust(child, parent, data.draw(st.integers(1, 5)))
            changed = (child,)
        elif op == "remove_trust" and mappings:
            # Edges inside a multi-node component split it.
            edge = data.draw(st.sampled_from(mappings), label="edge")
            network.remove_trust(edge.child, edge.parent)
            changed = (edge.child,)
        elif op == "remove_user" and users:
            user = data.draw(st.sampled_from(users), label="user")
            changed = network.children(user)
            network.remove_user(user)
        elif op == "set_priority" and mappings:
            edge = data.draw(st.sampled_from(mappings), label="edge")
            parallel = [e for e in network.incoming(edge.child) if e.parent == edge.parent]
            if len(parallel) == 1:
                network.set_priority(edge.child, edge.parent, edge.priority + 1)
                changed = (edge.child,)
        elif op == "add_user":
            network.add_user(fresh)
            fresh += 1
        assert_condensation_current(network)
        assert_program_slots_current(network, changed)


class TestPatches:
    def cycle(self) -> TrustNetwork:
        network = TrustNetwork()
        network.add_trust("b", "a", 1)
        network.add_trust("c", "b", 1)
        network.add_trust("a", "c", 1)
        network.add_trust("d", "c", 1)
        return network

    def test_build_groups_the_cycle_below_its_child(self):
        network = self.cycle()
        cond = network.condensation()
        assert cond.component["a"] == cond.component["b"] == cond.component["c"]
        assert cond.rank[cond.component["a"]] < cond.rank[cond.component["d"]]

    def test_removing_a_cycle_edge_splits_under_the_old_rank(self):
        network = self.cycle()
        cond = network.condensation()
        base = cond.rank[cond.component["a"]]
        network.remove_trust("a", "c")
        ranks = [cond.rank[cond.component[user]] for user in "abc"]
        assert ranks == sorted(ranks) and len(set(ranks)) == 3
        assert all(rank[: len(base)] == base for rank in ranks)
        assert_condensation_current(network)

    def test_back_edge_merges_the_components_on_the_cycle(self):
        network = TrustNetwork()
        for child, parent in (("b", "a"), ("c", "b"), ("d", "c"), ("z", "a")):
            network.add_trust(child, parent, 1)
        cond = network.condensation()
        network.add_trust("a", "c", 1)
        assert {cond.component[user] for user in "abc"} == {cond.component["a"]}
        assert cond.component["d"] != cond.component["a"]
        assert cond.component["z"] != cond.component["a"]
        assert_condensation_current(network)

    def test_back_edge_without_a_cycle_reorders(self):
        network = TrustNetwork(users=["p", "q", "r"])
        cond = network.condensation()
        # Isolated users rank in whatever order the build met them; add an
        # edge against that order.
        low, high = sorted("pqr", key=lambda user: cond.rank[cond.component[user]])[::2]
        network.add_trust(low, high, 1)
        assert cond.rank[cond.component[high]] < cond.rank[cond.component[low]]
        assert_condensation_current(network)

    def test_remove_user_inside_a_component_recondenses_it_once(self, monkeypatch):
        network = self.cycle()
        cond = network.condensation()
        calls = []
        real = condensation_module._tarjan_indexed

        def counting(roots, *args):
            roots = list(roots)
            calls.append(len(roots))
            return real(roots, *args)

        monkeypatch.setattr(condensation_module, "_tarjan_indexed", counting)
        network.remove_user("b")
        assert calls == [2]
        assert cond.component["a"] != cond.component["c"]
        assert_condensation_current(network)

    def test_copy_does_not_share_the_condensation(self):
        network = self.cycle()
        network.condensation()
        clone = network.copy()
        clone.remove_trust("a", "c")
        assert_condensation_current(network)
        assert_condensation_current(clone)


class TestProgramSlots:
    """The per-component program slots the delta resolver fills."""

    def network(self) -> TrustNetwork:
        # The cycle a -> b -> c -> a, fed by the root r, feeding d.
        network = TrustNetwork()
        for child, parent in (("b", "a"), ("c", "b"), ("a", "c"), ("a", "r"), ("d", "c")):
            network.add_trust(child, parent, 1)
        fill_program_slots(network)
        return network

    def slots(self, network: TrustNetwork):
        cond = network.condensation()
        return {frozenset(cond.members[cid]) for cid in cond.programs}

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda network: network.set_priority("a", "r", 5),
            lambda network: network.set_priority("b", "a", 5),
            lambda network: network.remove_trust("a", "r"),
            lambda network: network.add_trust("b", "s", 1),
        ],
        ids=["cross-priority", "internal-priority", "cross-remove", "cross-add"],
    )
    def test_an_in_edge_change_drops_only_its_components_slot(self, mutate):
        network = self.network()
        cond = network.condensation()
        partition = {frozenset(members) for members in cond.members if members}
        mutate(network)
        # None of these splits or merges a component.
        assert partition <= {frozenset(members) for members in cond.members if members}
        assert cond.component["a"] not in cond.programs
        assert self.slots(network) == {frozenset("r"), frozenset("d")}
        assert_program_slots_current(network)

    def test_an_out_edge_change_keeps_the_parents_slot(self):
        network = self.network()
        network.remove_trust("d", "c")
        assert self.slots(network) == {frozenset("r"), frozenset("abc")}

    def test_merged_and_split_components_start_without_a_slot(self):
        network = self.network()
        cond = network.condensation()
        network.add_trust("r", "d", 1)  # r -> a -> b -> c -> d -> r: a merge
        assert set(cond.members[cond.component["a"]]) == set("abcdr")
        assert not cond.programs
        fill_program_slots(network)
        network.remove_trust("r", "d")  # ...and its split
        assert not cond.programs
        fill_program_slots(network)
        network.remove_user("b")  # the cycle loses a member: a and c part
        assert self.slots(network) == {frozenset("r"), frozenset("d")}
        assert_program_slots_current(network)
        assert_condensation_current(network)


class TestEdgeIndex:
    def test_mapping_order_survives_removal_and_priority_changes(self):
        network = TrustNetwork(mappings=[("a", 1, "b"), ("c", 1, "d"), ("e", 1, "f")])
        network.set_priority("d", "c", 7)
        network.remove_trust("b", "a")
        network.add_trust("b", "a", 3)
        assert [(m.parent, m.priority, m.child) for m in network.mappings] == [
            ("c", 7, "d"),
            ("e", 1, "f"),
            ("a", 3, "b"),
        ]

    def test_equal_parallel_mappings_are_removed_one_at_a_time(self):
        network = TrustNetwork(mappings=[("a", 1, "b"), ("c", 1, "d"), ("a", 1, "b")])
        network.remove_mapping(("a", 1, "b"))
        assert [(m.parent, m.child) for m in network.mappings] == [("c", "d"), ("a", "b")]
        network.remove_mapping(("a", 1, "b"))
        with pytest.raises(NetworkError):
            network.remove_mapping(("a", 1, "b"))
        assert network.size == 4 + 1

    def test_order_survives_compaction_of_removed_slots(self):
        network = TrustNetwork(mappings=[(f"p{i}", 1, f"c{i}") for i in range(10)])
        for i in (0, 2, 3, 5, 7, 8):
            network.remove_trust(f"c{i}", f"p{i}")
        network.set_priority("c6", "p6", 4)
        network.add_trust("c0", "p0", 2)
        assert [(m.parent, m.priority) for m in network.mappings] == [
            ("p1", 1),
            ("p4", 1),
            ("p6", 4),
            ("p9", 1),
            ("p0", 2),
        ]
        network.remove_trust("c4", "p4")
        assert network.size == len(network.users) + 4
