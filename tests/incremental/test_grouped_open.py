"""A multi-key session opens with one ``resolve()`` per believer group.

:meth:`DeltaResolver.for_keys` resolves the network once for every set of
users that hold a positive belief, with each believer's index as its
value, and decodes every key of the group from that map.  The property test
draws keys that split into several groups (including a key with no
believers, one whose override holds only a negative belief, and twins with
identical values) and checks every key against its own ``resolve()``, at
open and after a delta stream.  The other tests pin the number of
``resolve()`` calls and that a rejected override builds no resolver.
"""

from __future__ import annotations

import gc
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bulk.store import PossStore
from repro.core.beliefs import Belief
from repro.core.errors import NetworkError
from repro.core.network import TrustNetwork
from repro.core.resolution import resolve
from repro.incremental import resolver as resolver_module
from repro.incremental.deltas import (
    AddTrust,
    RemoveBelief,
    RemoveTrust,
    RemoveUser,
    SetBelief,
    SetPriority,
)
from repro.incremental.resolver import DeltaResolver
from repro.incremental.session import IncrementalSession

VALUES = ("a", "b", "c")
KINDS = ("group", "group", "empty", "negative", "twin")
OPS = ("set_belief", "remove_belief", "add_trust", "remove_trust", "set_priority", "remove_user")


def fresh_possible(network: TrustNetwork, beliefs):
    return resolve(network._with_beliefs(beliefs)).possible


def assert_keys_match_fresh(session: IncrementalSession) -> None:
    for key in session.keys:
        resolver = session.resolver(key)
        assert resolver.possible == fresh_possible(session.network, resolver.beliefs), key


@pytest.fixture
def resolve_calls(monkeypatch):
    """Count the calls of the ``resolve`` the delta resolver module runs."""
    calls = []
    original = resolver_module.resolve

    def counting(network):
        calls.append(network)
        return original(network)

    monkeypatch.setattr(resolver_module, "resolve", counting)
    return calls


# --------------------------------------------------------------------------- #
# property: decoded maps equal per-key resolution, also as delta starting      #
# points                                                                        #
# --------------------------------------------------------------------------- #


@st.composite
def binary_networks(draw):
    """A random network with fan-in at most two; cycles are allowed."""
    n = draw(st.integers(4, 8), label="users")
    users = [f"u{i}" for i in range(n)]
    network = TrustNetwork(users=users)
    for child in users:
        parents = draw(
            st.lists(st.sampled_from(users), max_size=2, unique=True), label="parents"
        )
        for parent in parents:
            if parent != child:
                network.add_trust(child, parent, draw(st.integers(1, 2)))
    return network


@st.composite
def overrides(draw, roots):
    """2-6 keys whose positive believers split into 1..k groups."""
    n_keys = draw(st.integers(2, 6), label="keys")
    groups = draw(
        st.lists(
            st.lists(st.sampled_from(roots), unique=True) if roots else st.just([]),
            min_size=1,
            max_size=n_keys,
        ),
        label="groups",
    )
    beliefs_by_key = {}
    for index in range(n_keys):
        kind = draw(st.sampled_from(KINDS), label="kind")
        if kind == "twin" and beliefs_by_key:
            twin = draw(st.sampled_from(sorted(beliefs_by_key)), label="twin")
            beliefs = dict(beliefs_by_key[twin])
        elif kind == "negative" and roots:
            beliefs = {draw(st.sampled_from(roots)): Belief.negative(draw(st.sampled_from(VALUES)))}
        elif kind == "empty":
            beliefs = {}
        else:
            group = draw(st.sampled_from(groups), label="group")
            beliefs = {root: draw(st.sampled_from(VALUES)) for root in group}
        beliefs_by_key[f"k{index}"] = beliefs
    return beliefs_by_key


def draw_delta(data, session: IncrementalSession):
    network = session.network
    users = sorted(network.users)
    edges = sorted(network.mappings, key=lambda edge: (edge.child, edge.parent))
    op = data.draw(st.sampled_from(OPS), label="op")
    if not users and op != "set_belief":
        return None  # every user was removed: only a fresh belief applies
    if op == "set_belief":
        return SetBelief(
            data.draw(st.sampled_from(users + ["fresh"])),
            data.draw(st.sampled_from(VALUES)),
            key=data.draw(st.sampled_from(session.keys)),
        )
    if op == "remove_belief":
        return RemoveBelief(
            data.draw(st.sampled_from(users)), key=data.draw(st.sampled_from(session.keys))
        )
    if op == "add_trust":
        return AddTrust(
            data.draw(st.sampled_from(users)),
            data.draw(st.sampled_from(users)),
            data.draw(st.integers(1, 2)),
        )
    if op == "remove_user":
        return RemoveUser(data.draw(st.sampled_from(users)))
    if not edges:
        return None
    edge = data.draw(st.sampled_from(edges), label="edge")
    if op == "remove_trust":
        return RemoveTrust(edge.child, edge.parent)
    return SetPriority(edge.child, edge.parent, data.draw(st.integers(1, 2)))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(network=binary_networks(), data=st.data())
def test_grouped_open_matches_per_key_resolution_and_survives_deltas(network, data):
    roots = sorted(user for user in network.users if not network.incoming(user))
    beliefs_by_key = data.draw(overrides(roots), label="overrides")
    session = IncrementalSession(
        network, store=PossStore(), keys=tuple(beliefs_by_key), beliefs_by_key=beliefs_by_key
    )
    try:
        for key, beliefs in beliefs_by_key.items():
            assert session.resolver(key).possible == fresh_possible(network, beliefs), key
        for _ in range(data.draw(st.integers(1, 10), label="ops")):
            delta = draw_delta(data, session)
            if delta is None:
                continue
            try:
                session.apply(delta)
            except NetworkError:
                pass  # rejected before any state changed
            assert_keys_match_fresh(session)
        stored = sorted((row.user, row.key, row.value) for row in session.store.possible_table())
        assert stored == session.rows()
    finally:
        session.close()


def test_special_keys_decode_like_their_own_resolution(oscillator_network):
    """No believers, a negative-only override and twins in one session."""
    network = oscillator_network
    beliefs_by_key = {
        "plain": {"x3": "a", "x4": "b"},
        "twin": {"x3": "a", "x4": "b"},
        "swapped": {"x3": "b", "x4": "a"},
        "alone": {"x3": "c"},
        "none": {},
        "negative": {"x3": Belief.negative("a")},
    }
    resolvers = DeltaResolver.for_keys(network, beliefs_by_key)
    assert list(resolvers) == list(beliefs_by_key)
    for key, beliefs in beliefs_by_key.items():
        assert resolvers[key].possible == fresh_possible(network, beliefs), key
        assert resolvers[key].beliefs == beliefs
    assert not any(resolvers["negative"].possible.values())
    assert resolvers["swapped"].possible["x1"] == frozenset({"a", "b"})


# --------------------------------------------------------------------------- #
# resolve() calls                                                              #
# --------------------------------------------------------------------------- #


class TestResolveCalls:
    def test_fifty_keys_sharing_believers_resolve_once(self, oscillator_network, resolve_calls):
        keys = tuple(f"k{i}" for i in range(50))
        session = IncrementalSession(
            oscillator_network,
            keys=keys,
            beliefs_by_key={
                key: {"x3": VALUES[i % 3], "x4": VALUES[i // 3 % 3]} for i, key in enumerate(keys)
            },
        )
        assert len(resolve_calls) == 1
        assert session.possible_values("x1", "k0") == frozenset({"a"})
        assert session.possible_values("x1", "k1") == frozenset({"a", "b"})
        session.close()

    def test_three_believer_sets_resolve_three_times(self, oscillator_network, resolve_calls):
        sets = ({"x3": "a"}, {"x4": "b"}, {"x3": "a", "x4": "c"})
        keys = tuple(f"k{i}" for i in range(9))
        session = IncrementalSession(
            oscillator_network,
            keys=keys,
            beliefs_by_key={key: dict(sets[i % 3]) for i, key in enumerate(keys)},
        )
        assert len(resolve_calls) == 3
        session.close()

    def test_keys_without_overrides_share_the_network_beliefs(
        self, oscillator_network, resolve_calls
    ):
        session = IncrementalSession(oscillator_network, keys=("k0", "k1", "k2"))
        assert len(resolve_calls) == 1
        assert session.possible_values("x1", "k2") == frozenset({"v", "w"})
        session.close()

    def test_single_key_owner_session_resolves_once(self, oscillator_network, resolve_calls):
        session = IncrementalSession(oscillator_network)
        assert len(resolve_calls) == 1
        assert resolve_calls[0] is oscillator_network
        session.close()


# --------------------------------------------------------------------------- #
# validation runs before any resolver is built                                 #
# --------------------------------------------------------------------------- #


def _live_resolvers() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is DeltaResolver)


class TestRejectedOverrideBuildsNothing:
    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"x3": "a", "ghost": "b"}, "belief override names unknown users: ['ghost']"),
            ({"x1": "a"}, "user 'x1' has both an explicit belief and parents"),
        ],
    )
    def test_one_bad_key_rejects_the_session(
        self, oscillator_network, resolve_calls, bad, message
    ):
        before = _live_resolvers()
        beliefs_by_key = {f"k{i}": {"x3": "a", "x4": "b"} for i in range(3)}
        beliefs_by_key["k3"] = bad
        with pytest.raises(NetworkError, match=re.escape(message)):
            IncrementalSession(
                oscillator_network, keys=tuple(beliefs_by_key), beliefs_by_key=beliefs_by_key
            )
        assert resolve_calls == []
        assert _live_resolvers() == before

    def test_fan_in_check_keeps_its_message(self):
        network = TrustNetwork()
        for parent in ("a", "b", "c"):
            network.add_trust("x", parent, priority=1)
        with pytest.raises(NetworkError, match=r"user 'x' has 3 parents \(max 2\)"):
            DeltaResolver.for_keys(network, {"k0": {"a": "v"}, "k1": {"b": "w"}})
