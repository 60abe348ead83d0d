"""Algorithm 1 plans are lowered closing records (``planner.lower_union``).

A fresh plan, a patched plan's region and the plan an engine session builds
from its open's ``resolve()`` all come from one
:func:`~repro.core.resolution.close_union` record.  These tests lock what
the lowering must give: every reachable non-explicit user closed exactly
once, a replay equal to ``resolve()``, the plan DAG's stage count carried
on the plan, and a step list that does not depend on which record (or which
member order) it was lowered from.
"""

from __future__ import annotations

import random

import pytest

from repro.bulk.executor import _replay_step
from repro.bulk.planner import (
    FloodStep,
    GroupedCopyStep,
    count_stages,
    plan_dag,
    plan_resolution,
    step_io,
)
from repro.bulk.store import PossStore
from repro.core import sccs
from repro.core.errors import BulkProcessingError
from repro.core.network import TrustNetwork
from repro.core.resolution import resolve
from repro.engine import ResolutionEngine
from repro.incremental.deltas import AddTrust, SetBelief
from repro.workloads.oscillators import oscillator_network
from repro.workloads.powerlaw import WebWorkloadConfig, web_trust_network
from repro.workloads.worstcase import worstcase_network

RANDOM_NETWORKS = 3000


def _random_binary_network(rng: random.Random) -> TrustNetwork:
    """A binary network: 1-2 parents per user, beliefs on roots only, with
    cycles, ties and (sometimes) roots nobody believes at."""
    n = rng.randint(3, 12)
    users = [f"u{i}" for i in range(n)]
    tn = TrustNetwork()
    for user in users:
        tn.add_user(user)
    roots = rng.randint(1, min(3, n - 1))
    for child in users[roots:]:
        parents = rng.sample([u for u in users if u != child], rng.randint(1, 2))
        priorities = (
            rng.sample([1, 2], len(parents)) if rng.random() < 0.7 else [1] * len(parents)
        )
        for parent, priority in zip(parents, priorities):
            tn.add_trust(child, parent, priority=priority)
    for user in users[:roots]:
        if rng.random() < 0.85:
            tn.set_explicit_belief(user, rng.choice(["v1", "v2", "v3"]))
    return tn


def _explicit(network):
    return {
        user: belief.positive_value
        for user, belief in network.explicit_beliefs.items()
        if belief.positive_value is not None
    }


def _expected_relation(network):
    return sorted(
        (str(user), str(value))
        for user, values in resolve(network).possible.items()
        for value in values
    )


def _replayed_relation(plan, explicit):
    """The plan replayed step by step over Python sets (one object)."""
    possible = {user: frozenset((value,)) for user, value in explicit.items()}
    for step in plan.steps:
        if isinstance(step, GroupedCopyStep):
            for child in step.children:
                possible[child] = possible[step.parent]
        else:
            values = frozenset().union(*(possible[parent] for parent in step.parents))
            for member in step.members:
                possible[member] = values
    return sorted(
        (str(user), str(value)) for user, values in possible.items() for value in values
    )


def _stored_relation(plan, explicit):
    """The plan replayed through the store's statements (one object)."""
    with PossStore() as store:
        store.insert_explicit_beliefs(
            (user, "k0", value) for user, value in explicit.items()
        )
        with store.transaction():
            for step in plan.steps:
                _replay_step(store, step)
        return sorted((row.user, row.value) for row in store.possible_table())


def _check_lowered(network, sql=False):
    explicit = _explicit(network)
    plan = plan_resolution(network)
    closed = [user for step in plan.steps for user in step_io(step)[1]]
    assert len(closed) == len(set(closed)), "a user is closed twice"
    assert set(closed) == network.descendants(explicit) - set(explicit)
    expected = _expected_relation(network)
    assert _replayed_relation(plan, explicit) == expected
    if sql:
        assert _stored_relation(plan, explicit) == expected
    assert plan.stage_count == plan_dag(plan).stage_count == count_stages(plan.steps)
    # The record resolve() keeps lowers to the very same plan.
    reused = plan_resolution(network, program=resolve(network).program)
    assert reused.steps == plan.steps
    assert reused.stage_count == plan.stage_count
    return plan


def test_random_binary_networks_lower_to_their_resolution():
    rng = random.Random(20261019)
    flooded = 0
    for index in range(RANDOM_NETWORKS):
        plan = _check_lowered(_random_binary_network(rng), sql=index % 50 == 0)
        flooded += bool(plan.flood_steps)
    assert flooded > RANDOM_NETWORKS // 10  # the sample exercises Step 2


SESSION_NETWORKS = {
    "cycles": lambda: oscillator_network(3000),
    "web": lambda: web_trust_network(WebWorkloadConfig(n_domains=2000, seed=0)),
    "objects": lambda: web_trust_network(WebWorkloadConfig(n_domains=1000, seed=0)),
    "fig15-k400": lambda: worstcase_network(400),
}


@pytest.mark.parametrize("name", sorted(SESSION_NETWORKS))
def test_session_and_worst_case_networks_lower_to_their_resolution(name):
    _check_lowered(SESSION_NETWORKS[name](), sql=True)


def test_steps_sort_by_stage_then_copies_then_name():
    tn = TrustNetwork()
    tn.add_trust("c", "a", priority=1)
    tn.add_trust("b", "a", priority=1)
    tn.add_trust("m", "b", priority=1)
    tn.add_trust("m", "n", priority=1)
    tn.add_trust("n", "m", priority=1)
    tn.add_trust("d", "c", priority=1)
    tn.set_explicit_belief("a", "v")
    plan = plan_resolution(tn)
    assert plan.steps == [
        GroupedCopyStep("a", ("b", "c")),
        GroupedCopyStep("c", ("d",)),
        FloodStep(("m", "n"), ("b",)),
    ]
    assert plan.stage_count == 2


def test_non_binary_networks_plan_through_the_same_record():
    """Three parents, a unique top priority: the top one is copied."""
    tn = TrustNetwork()
    for parent, priority in (("a", 1), ("b", 3), ("c", 2)):
        tn.add_trust("x", parent, priority=priority)
    tn.add_trust("y", "a", priority=1)
    tn.add_trust("y", "b", priority=1)
    tn.add_trust("y", "c", priority=1)
    tn.add_trust("y", "z", priority=1)
    tn.add_trust("z", "y", priority=1)
    plan = plan_resolution(tn, explicit_users=["a", "b", "c"])
    assert plan.steps == [
        GroupedCopyStep("b", ("x",)),
        FloodStep(("y", "z"), ("a", "b", "c")),
    ]


class TestCountStages:
    """The one-pass stage count rejects what ``plan_dag`` rejects."""

    def test_double_close_rejected(self):
        plan = plan_resolution(oscillator_network(2))
        with pytest.raises(BulkProcessingError, match="twice"):
            count_stages(plan.steps + plan.steps[:1])

    def test_forward_read_rejected(self):
        steps = [
            GroupedCopyStep(parent="x", children=("b",)),
            GroupedCopyStep(parent="a", children=("x",)),
        ]
        with pytest.raises(BulkProcessingError, match="not causal"):
            count_stages(steps)

    def test_a_step_reading_what_it_closes_is_rejected(self):
        with pytest.raises(BulkProcessingError, match="not causal"):
            count_stages([FloodStep(("m", "n"), ("m",))])


# ---------------------------------------------------------------------- #
# the engine plans from its open's record                                 #
# ---------------------------------------------------------------------- #


def _multi_key_beliefs(network, keys=("k0", "k1", "k2")):
    believers = sorted(_explicit(network), key=str)
    return {
        key: {user: f"{key}-{i % 3}" for i, user in enumerate(believers)}
        for key in keys
    }


@pytest.fixture
def engine_builds(monkeypatch):
    """Count the condensation engines Algorithm 1's closing loops build."""
    builds = []
    original = sccs.CondensationEngine.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(sccs.CondensationEngine, "__init__", counted)
    return builds


class TestRecordReuse:
    @pytest.mark.parametrize("multi_key", (False, True))
    def test_the_reused_plan_is_the_fresh_plan(self, multi_key):
        network = web_trust_network(WebWorkloadConfig(n_domains=150, seed=4))
        options = {}
        if multi_key:
            options = {"keys": ("k0", "k1", "k2"), "beliefs_by_key": _multi_key_beliefs(network)}
        with ResolutionEngine.open(network, **options) as engine:
            assert engine._session._opening is not None
            report = engine.materialize(compiled=True)
            assert engine._session._opening is None  # handed over once
            fresh = plan_resolution(network)
            assert engine.plan.steps == fresh.steps
            assert report.dag_stages == fresh.stage_count == plan_dag(fresh).stage_count
            assert _store_rows(engine) == _memory_rows(engine)

    def test_cold_open_and_first_materialize_close_the_network_once(self, engine_builds):
        with ResolutionEngine.open(oscillator_network(40)) as engine:
            engine.materialize(compiled=True)
        assert len(engine_builds) == 1

    def test_a_fresh_plan_without_a_record_closes_the_network(self, engine_builds):
        network = oscillator_network(40)
        plan_resolution(network)
        assert len(engine_builds) == 1

    def test_an_apply_before_the_first_materialize_drops_the_record(self):
        network = _chain()
        with ResolutionEngine.open(network) as engine:
            engine.apply(AddTrust("d", "b", 1))
            report = engine.materialize(compiled=True)
            assert report.plan_source == "fresh"
            assert engine.plan.steps == plan_resolution(network).steps
            assert "d" in {str(u) for step in engine.plan.steps for u in step_io(step)[1]}
            assert engine.query("d") == frozenset({"v"})
            assert _store_rows(engine) == _memory_rows(engine)

    def test_a_direct_mutation_before_the_first_materialize_is_not_planned_stale(self):
        network = _chain()
        with ResolutionEngine.open(network, mode="store") as engine:
            network.add_trust("d", "b", 1)
            engine.materialize(compiled=True)
            assert engine.plan.steps == plan_resolution(network).steps
            assert engine.query("d") == frozenset({"v"})

    def test_a_value_only_key_delta_keeps_the_record(self):
        network = web_trust_network(WebWorkloadConfig(n_domains=80, seed=2))
        beliefs = _multi_key_beliefs(network, keys=("k0", "k1"))
        with ResolutionEngine.open(
            network, keys=("k0", "k1"), beliefs_by_key=beliefs
        ) as engine:
            believer = sorted(beliefs["k0"], key=str)[0]
            engine.apply(SetBelief(believer, "other", key="k1"))
            assert engine._session._opening is not None
            engine.materialize(compiled=True)
            assert engine.plan.steps == plan_resolution(network).steps
            assert _store_rows(engine) == _memory_rows(engine)

    def test_no_record_when_the_keys_believe_elsewhere(self):
        network = _chain()
        network.add_trust("f", "e", priority=1)
        with ResolutionEngine.open(
            network, keys=("k0",), beliefs_by_key={"k0": {"e": "x"}}
        ) as engine:
            assert engine._session.take_opening_program() is None


def _chain():
    tn = TrustNetwork()
    tn.add_trust("b", "a", priority=1)
    tn.add_trust("c", "b", priority=1)
    tn.set_explicit_belief("a", "v")
    return tn


def _store_rows(engine):
    return sorted((row.user, row.key, row.value) for row in engine.store.possible_table())


def _memory_rows(engine):
    return engine._session.rows()
