"""Union programs shared by the keys of one session, property-tested.

Every multi-node SCC the delta resolver recomputes leaves a
:class:`~repro.incremental.resolver.UnionProgram` in the network
condensation, and every key's resolver evaluates it while the component's
structure and the key's reachability mask still match.  Here the keys have
different believer sets, so one component sees different masks per key, and
the streams mix key-scoped belief deltas with trust deltas aimed at SCC
members and their boundary edges (including ones that merge and split
components).  After every batch each key must equal a fresh ``resolve()``.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bulk.store import PossStore
from repro.core.network import TrustNetwork
from repro.core.resolution import resolve
from repro.incremental import resolver as resolver_module
from repro.incremental.deltas import (
    AddTrust,
    RemoveBelief,
    RemoveTrust,
    SetBelief,
    SetPriority,
)
from repro.incremental.session import IncrementalSession

ROOTS = ("r0", "r1", "r2", "r3")
KEYS = ("k0", "k1", "k2")
VALUES = ("a", "b", "c")
OPS = ("set_belief", "remove_belief", "add_trust", "add_trust", "remove_trust", "set_priority")


def build_network(inner: int, entries) -> TrustNetwork:
    """A ring ``m0 -> m1 -> ... -> m0`` whose members may trust one root."""
    network = TrustNetwork(users=ROOTS)
    members = [f"m{i}" for i in range(inner)]
    for i, member in enumerate(members):
        network.add_trust(member, members[i - 1], 2)
    for member, (root, priority) in zip(members, entries):
        if root is not None:
            network.add_trust(member, ROOTS[root], priority)
    return network


def assert_keys_match_fresh(session: IncrementalSession) -> None:
    for key in KEYS:
        resolver = session.resolver(key)
        fresh = TrustNetwork(
            users=session.network.users,
            mappings=session.network.mappings,
            explicit_beliefs=dict(resolver.beliefs),
        )
        assert resolver.possible == resolve(fresh).possible, key


def draw_delta(data, network: TrustNetwork):
    op = data.draw(st.sampled_from(OPS), label="op")
    if op == "set_belief":
        return SetBelief(
            data.draw(st.sampled_from(ROOTS)),
            data.draw(st.sampled_from(VALUES)),
            key=data.draw(st.sampled_from(KEYS)),
        )
    if op == "remove_belief":
        return RemoveBelief(
            data.draw(st.sampled_from(ROOTS)), key=data.draw(st.sampled_from(KEYS))
        )
    inner = sorted(user for user in network.users if user not in ROOTS)
    edges = [edge for edge in network.mappings if edge.child in inner]
    if op == "add_trust":
        # Any parent, root or member: member parents may close cycles
        # across components (merges), root parents add boundary edges.
        open_children = [user for user in inner if len(network.incoming(user)) < 2]
        if not open_children:
            return None
        child = data.draw(st.sampled_from(open_children), label="child")
        taken = {edge.parent for edge in network.incoming(child)} | {child}
        parents = [user for user in sorted(network.users) if user not in taken]
        return AddTrust(
            child, data.draw(st.sampled_from(parents), label="parent"), data.draw(st.integers(1, 3))
        )
    if not edges:
        return None
    edge = data.draw(st.sampled_from(edges), label="edge")
    if op == "remove_trust":
        # Inside a component this splits it; from a root it drops a
        # boundary edge and leaves the partition alone.
        return RemoveTrust(edge.child, edge.parent)
    return SetPriority(edge.child, edge.parent, data.draw(st.integers(1, 3)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    inner=st.integers(3, 6),
    entries=st.lists(
        st.tuples(st.one_of(st.none(), st.integers(0, len(ROOTS) - 1)), st.integers(1, 3)),
        min_size=6,
        max_size=6,
    ),
    believers=st.lists(
        st.lists(st.sampled_from(ROOTS), unique=True), min_size=len(KEYS), max_size=len(KEYS)
    ),
    data=st.data(),
)
def check_streams(inner, entries, believers, data):
    network = build_network(inner, entries)
    session = IncrementalSession(
        network,
        store=PossStore(),
        keys=KEYS,
        beliefs_by_key={
            key: {root: VALUES[i % len(VALUES)] for i, root in enumerate(roots)}
            for key, roots in zip(KEYS, believers)
        },
    )
    for _ in range(data.draw(st.integers(1, 8), label="batches")):
        # Each delta is drawn against the structure its predecessors leave.
        shadow = network.copy()
        batch = []
        for _ in range(data.draw(st.integers(1, 3), label="size")):
            delta = draw_delta(data, shadow)
            if delta is None:
                continue
            batch.append(delta)
            if isinstance(delta, AddTrust):
                shadow.add_trust(delta.child, delta.parent, delta.priority)
            elif isinstance(delta, RemoveTrust):
                shadow.remove_trust(delta.child, delta.parent)
            elif isinstance(delta, SetPriority):
                shadow.set_priority(delta.child, delta.parent, delta.priority)
        if batch:
            session.apply_batch(*batch)
        assert_keys_match_fresh(session)
    session.close()


def test_keys_sharing_component_programs_match_fresh_resolution():
    evaluated = []
    real = resolver_module.UnionProgram.evaluate

    def counting(program, possible):
        values = real(program, possible)
        evaluated.append(values is not None)
        return values

    with mock.patch.object(resolver_module.UnionProgram, "evaluate", counting):
        check_streams()
    assert any(evaluated)
