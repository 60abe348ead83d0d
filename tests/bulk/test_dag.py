"""Tests for the dependency-DAG lowering of resolution plans."""

from __future__ import annotations

import random

import pytest

from repro.bulk.executor import BulkResolver, _replay_step
from repro.bulk.planner import (
    FloodStep,
    GroupedCopyStep,
    plan_dag,
    plan_resolution,
    plan_skeptic_resolution,
    step_io,
)
from repro.bulk.store import PossStore
from repro.core.errors import BulkProcessingError
from repro.core.network import TrustNetwork
from repro.workloads.bulkload import BELIEF_USERS, figure19_network, generate_objects


class TestStepIo:
    def test_grouped_copy_closes_all_children(self):
        reads, closes = step_io(GroupedCopyStep(parent="a", children=("b", "c")))
        assert reads == ("a",) and closes == ("b", "c")

    def test_flood_reads_parents_closes_members(self):
        step = FloodStep(members=("m1", "m2"), parents=("p1",))
        reads, closes = step_io(step)
        assert reads == ("p1",) and closes == ("m1", "m2")

    def test_unknown_step_rejected(self):
        with pytest.raises(BulkProcessingError):
            step_io("not-a-step")


class TestPlanDagStructure:
    def test_chain_is_one_node_per_stage(self):
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("c", "b", priority=1)
        dag = plan_resolution(tn, explicit_users=["a"]).dag()
        assert dag.stage_count == 2
        assert [node.depends_on for node in dag.nodes] == [(), (0,)]

    def test_independent_subtrees_share_a_stage(self):
        # Two disjoint chains hanging off two explicit users: no cross edges.
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("d", "c", priority=1)
        tn.add_trust("e", "b", priority=1)
        dag = plan_resolution(tn, explicit_users=["a", "c"]).dag()
        assert dag.stages[0] and len(dag.stages[0]) == 2
        assert dag.edge_count() == 1  # only e-after-b
        assert dag.stage_count == 2

    def test_explicit_sources_contribute_no_edges(self):
        tn = TrustNetwork()
        for child in ("b", "c", "d"):
            tn.add_trust(child, "a", priority=1)
        dag = plan_resolution(tn, explicit_users=["a"]).dag()
        (node,) = dag.nodes
        assert node.depends_on == ()
        assert node.stage == 0

    def test_flood_depends_on_its_parents_closers(self, oscillator_network):
        dag = plan_resolution(oscillator_network).dag()
        floods = [n for n in dag.nodes if isinstance(n.step, FloodStep)]
        assert floods
        for node in floods:
            closers = {
                dep
                for dep in node.depends_on
            }
            # every non-explicit parent must be closed by a dependency
            reads, _ = step_io(node.step)
            explicit = {str(u) for u in dag.plan.explicit_users}
            closed_by_deps = {
                str(user)
                for dep in closers
                for user in step_io(dag.nodes[dep].step)[1]
            }
            for parent in reads:
                assert str(parent) in explicit | closed_by_deps

    def test_figure19_dag_shape(self):
        dag = plan_resolution(
            figure19_network(), explicit_users=BELIEF_USERS
        ).dag()
        # Statement count is a plan property, untouched by the lowering.
        assert dag.statement_count() == dag.plan.statement_count()
        assert dag.stage_count >= 2
        assert len(dag.nodes) == len(dag.plan.steps)
        # Dependencies always point backwards in plan order.
        for node in dag.nodes:
            assert all(dep < node.index for dep in node.depends_on)

    def test_stages_partition_the_nodes(self):
        dag = plan_resolution(
            figure19_network(), explicit_users=BELIEF_USERS
        ).dag()
        flattened = sorted(index for stage in dag.stages for index in stage)
        assert flattened == list(range(len(dag.nodes)))
        for stage_level, stage in enumerate(dag.stages):
            for index in stage:
                assert dag.nodes[index].stage == stage_level
                assert all(
                    dag.nodes[dep].stage < stage_level
                    for dep in dag.nodes[index].depends_on
                )

    def test_double_close_rejected(self):
        plan = plan_resolution(figure19_network(), explicit_users=BELIEF_USERS)
        plan.steps.append(plan.steps[0])  # closes the same users twice
        with pytest.raises(BulkProcessingError):
            plan_dag(plan)

    def test_forward_read_rejected(self):
        """A step reading a user that only a later step closes is malformed:
        it must not lower to an (edge-less) DAG that replays wrongly."""
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("x", "a", priority=1)
        plan = plan_resolution(tn, explicit_users=["a"])
        plan.steps = [
            GroupedCopyStep(parent="x", children=("b",)),  # reads x early
            GroupedCopyStep(parent="a", children=("x",)),
        ]
        with pytest.raises(BulkProcessingError, match="not causal"):
            plan_dag(plan)


def random_topological_order(dag, rng):
    """A random topological order of the DAG (Kahn with shuffled frontier)."""
    remaining_deps = {node.index: set(node.depends_on) for node in dag.nodes}
    dependents = {node.index: [] for node in dag.nodes}
    for node in dag.nodes:
        for dep in node.depends_on:
            dependents[dep].append(node.index)
    frontier = [index for index, deps in remaining_deps.items() if not deps]
    order = []
    while frontier:
        rng.shuffle(frontier)
        index = frontier.pop()
        order.append(index)
        for dependent in dependents[index]:
            remaining_deps[dependent].discard(index)
            if not remaining_deps[dependent]:
                frontier.append(dependent)
    assert len(order) == len(dag.nodes)
    return order


def replay_in_order(plan, dag, order, rows):
    store = PossStore()
    store.insert_explicit_beliefs(rows)
    with store.transaction():
        for index in order:
            _replay_step(store, dag.nodes[index].step)
    return store


class TestTopologicalReplayEquivalence:
    """DAG topological replay must be byte-identical to sequential replay."""

    def test_figure19_any_topological_order_matches_sequential(self, serialized_relation):
        network = figure19_network()
        rows = generate_objects(25, conflict_probability=0.5, seed=23)
        resolver = BulkResolver(network, explicit_users=BELIEF_USERS)
        resolver.load_beliefs(rows)
        resolver.run()
        sequential = serialized_relation(resolver.store)
        resolver.store.close()

        # Figure 19 is not binary: the resolver plans on the binarized twin,
        # so the DAG replay must lower that same plan.
        plan = resolver.plan
        dag = plan.dag()
        rng = random.Random(5)
        orders = [
            [i for stage in dag.stages for i in stage],
            # stage order with each stage's independent nodes reversed
            [i for stage in dag.stages for i in reversed(stage)],
        ] + [random_topological_order(dag, rng) for _ in range(5)]
        for order in orders:
            store = replay_in_order(plan, dag, order, rows)
            assert serialized_relation(store) == sequential, order
            store.close()

    def test_skeptic_plan_dag_replay_matches_sequential(self, serialized_relation):
        tn = TrustNetwork()
        tn.add_trust("p", "source", priority=2)
        tn.add_trust("p", "q", priority=1)
        tn.add_trust("q", "filter", priority=2)
        tn.add_trust("q", "p", priority=1)
        tn.add_trust("r", "source", priority=2)
        plan = plan_skeptic_resolution(
            tn, positive_users=["source"], negative_constraints={"filter": ["v1"]}
        )
        rows = [("source", "k0", "v1"), ("source", "k1", "v2")]
        dag = plan.dag()
        sequential_store = replay_in_order(
            plan, dag, [i for stage in dag.stages for i in stage], rows
        )
        sequential = serialized_relation(sequential_store)
        sequential_store.close()
        rng = random.Random(9)
        for _ in range(5):
            store = replay_in_order(
                plan, dag, random_topological_order(dag, rng), rows
            )
            assert serialized_relation(store) == sequential
            store.close()

    def test_randomized_networks_dag_replay_matches_sequential(self, serialized_relation):
        """Random DAG orders over random networks stay byte-identical."""
        rng = random.Random(77)
        for trial in range(25):
            tn, explicit = _random_network(rng)
            rows = _random_rows(rng, explicit)
            plan = plan_resolution(tn, explicit_users=explicit)
            dag = plan.dag()
            reference = replay_in_order(
                plan, dag, [i for stage in dag.stages for i in stage], rows
            )
            expected = serialized_relation(reference)
            reference.close()
            store = replay_in_order(
                plan, dag, random_topological_order(dag, rng), rows
            )
            assert serialized_relation(store) == expected, f"trial {trial}"
            store.close()


def _random_network(rng, max_users: int = 9):
    """A random binary-ish trust network plus its explicit users."""
    n = rng.randint(4, max_users)
    users = [f"u{i}" for i in range(n)]
    tn = TrustNetwork()
    for user in users:
        tn.add_user(user)
    n_explicit = rng.randint(1, 2)
    explicit = users[:n_explicit]
    for child in users[n_explicit:]:
        parents = rng.sample([u for u in users if u != child], rng.randint(1, 2))
        priorities = rng.sample([1, 2], len(parents)) if rng.random() < 0.7 else [1] * len(parents)
        for parent, priority in zip(parents, priorities):
            tn.add_trust(child, parent, priority=priority)
    return tn, explicit


def _random_rows(rng, explicit, n_objects: int = 4):
    rows = []
    for index in range(n_objects):
        key = f"k{index}"
        for user in explicit:
            rows.append((user, key, rng.choice(["v1", "v2", "v3"])))
    return rows
