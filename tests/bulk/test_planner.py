"""Tests for the bulk resolution planner (Section 4 assumptions and steps)."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bulk.planner import (
    FloodStep,
    GroupedCopyStep,
    ResolutionPlan,
    plan_resolution,
    plan_skeptic_resolution,
)
from repro.bulk.planpatch import patch_plan
from repro.core.binarize import binarize
from repro.core.errors import BulkProcessingError
from repro.core.network import TrustNetwork
from repro.workloads.bulkload import BELIEF_USERS, figure19_network, skeptic_chain_network
from repro.workloads.oscillators import oscillator_network as oscillators
from repro.workloads.powerlaw import WebWorkloadConfig, web_trust_network


class TestPlanResolution:
    def test_chain_produces_copy_steps_only(self):
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("c", "b", priority=1)
        plan = plan_resolution(tn, explicit_users=["a"])
        assert all(isinstance(step, GroupedCopyStep) for step in plan.steps)
        assert plan.copied_children() == ["b", "c"]
        # Distinct parents (a and b), so grouping cannot shrink the chain.
        assert plan.statement_count() == 2

    def test_shared_parent_copies_collapse_into_one_statement(self):
        tn = TrustNetwork()
        for child in ("b", "c", "d"):
            tn.add_trust(child, "a", priority=1)
        plan = plan_resolution(tn, explicit_users=["a"])
        assert plan.statement_count() == 1
        (step,) = plan.steps
        assert isinstance(step, GroupedCopyStep)
        assert step.parent == "a"
        assert step.children == ("b", "c", "d")

    def test_cycle_produces_flood_step(self, oscillator_network):
        plan = plan_resolution(oscillator_network)
        floods = plan.flood_steps
        assert len(floods) == 1
        assert set(floods[0].members) == {"x1", "x2"}
        assert set(floods[0].parents) == {"x3", "x4"}

    def test_explicit_users_default_to_network_beliefs(self, oscillator_network):
        plan = plan_resolution(oscillator_network)
        assert plan.explicit_users == frozenset({"x3", "x4"})

    def test_unknown_explicit_user_rejected(self, oscillator_network):
        with pytest.raises(BulkProcessingError):
            plan_resolution(oscillator_network, explicit_users=["nobody"])

    def test_unreachable_users_are_not_planned(self):
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("d", "c", priority=1)  # c has no belief
        plan = plan_resolution(tn, explicit_users=["a"])
        assert plan.copied_children() == ["b"]

    def test_statement_count_independent_of_values(self, oscillator_network):
        plan = plan_resolution(oscillator_network)
        # 1 flood step over a 2-node component -> 1 multi-member statement.
        assert plan.statement_count() == 1


class TestSkepticPlan:
    def test_blocked_values_recorded_for_forced_members(self):
        tn = TrustNetwork()
        tn.add_trust("p", "source", priority=2)
        tn.add_trust("p", "q", priority=1)
        tn.add_trust("q", "filter", priority=2)
        tn.add_trust("q", "p", priority=1)
        plan = plan_skeptic_resolution(
            tn, positive_users=["source"], negative_constraints={"filter": ["a"]}
        )
        floods = plan.flood_steps
        assert floods, "the cycle must be planned as a flood step"
        blocked = floods[-1].blocked_map()
        assert blocked.get("q") == ("a",)
        assert "p" not in blocked

    def test_positive_user_with_constraint_rejected(self):
        tn = TrustNetwork()
        tn.add_trust("x", "a", priority=1)
        with pytest.raises(BulkProcessingError):
            plan_skeptic_resolution(
                tn, positive_users=["a"], negative_constraints={"a": ["v"]}
            )

    def test_plan_without_constraints_matches_plain_plan_shape(self, oscillator_network):
        plain = plan_resolution(oscillator_network)
        skeptic = plan_skeptic_resolution(
            oscillator_network,
            positive_users=["x3", "x4"],
            negative_constraints={},
        )
        assert skeptic.steps == plain.steps

    def test_unknown_positive_user_rejected(self, oscillator_network):
        with pytest.raises(BulkProcessingError, match="unknown users"):
            plan_skeptic_resolution(
                oscillator_network,
                positive_users=["x3", "nobody"],
                negative_constraints={},
            )

    def test_constraint_on_unknown_user_rejected(self, oscillator_network):
        with pytest.raises(BulkProcessingError, match="unknown users"):
            plan_skeptic_resolution(
                oscillator_network,
                positive_users=["x3", "x4"],
                negative_constraints={"nobody": ["v"]},
            )


def _grouped_statement_count(step):
    """``FloodStep.statement_count()`` by its grouping definition: one
    statement per group of members with equal blocked values, two for a
    group that blocks any; none without members or closed parents."""
    if not step.parents or not step.members:
        return 0
    blocked = step.blocked_map()
    groups = {blocked.get(str(member), ()) for member in step.members}
    return sum(2 if rejected else 1 for rejected in groups)


class TestFloodStatementCount:
    """The unblocked fast path counts what the grouping definition counts."""

    def test_plain_plans(self):
        networks = (
            oscillators(40),
            web_trust_network(WebWorkloadConfig(n_domains=200, seed=5)),
            _gadget_ring(5),
        )
        floods = [step for n in networks for step in plan_resolution(n).flood_steps]
        assert floods and not any(step.blocked for step in floods)
        for step in floods:
            assert step.statement_count() == _grouped_statement_count(step) == 1

    def test_skeptic_plans(self):
        chain, constraints = skeptic_chain_network(24)
        plan = plan_skeptic_resolution(chain, BELIEF_USERS, constraints)
        floods = plan.flood_steps
        assert any(step.blocked for step in floods)
        for step in floods:
            assert step.statement_count() == _grouped_statement_count(step)

    def test_degenerate_floods(self):
        flood = FloodStep(members=("x",), parents=())
        assert flood.statement_count() == _grouped_statement_count(flood) == 0
        flood = FloodStep(members=(), parents=("p",))
        assert flood.statement_count() == _grouped_statement_count(flood) == 0
        flood = FloodStep(members=("x", "y"), parents=("p",), blocked=(("x", ()),))
        assert flood.statement_count() == _grouped_statement_count(flood) == 1
        flood = FloodStep(members=("x", "y"), parents=("p",), blocked=(("x", ("a",)),))
        assert flood.statement_count() == _grouped_statement_count(flood) == 3


def _identity_networks():
    """(name, network, explicit users) triples the identity tests plan."""
    chain, _constraints = skeptic_chain_network(30)
    cases = [
        ("figure19", binarize(figure19_network()).btn, BELIEF_USERS),
        ("oscillators", oscillators(25), None),
        ("web", web_trust_network(WebWorkloadConfig(n_domains=120, seed=3)), None),
        ("skeptic-chain", chain, BELIEF_USERS),
        ("gadget-ring", _gadget_ring(6), None),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


def _gadget_ring(n):
    """A ring fed by ``s`` whose members each host a two-user cycle.

    Flooding the ring frees every gadget at once, so the order of the
    gadgets' flood steps hinges on the order the ring members close in.
    """
    tn = TrustNetwork()
    for i in range(n):
        tn.add_trust(f"m{i}", f"m{(i + 1) % n}", priority=1)
        tn.add_trust(f"m{i}", "s", priority=1)
        tn.add_trust(f"g{i}a", f"m{i}", priority=2)
        tn.add_trust(f"g{i}a", f"g{i}b", priority=1)
        tn.add_trust(f"g{i}b", f"m{i}", priority=1)
        tn.add_trust(f"g{i}b", f"g{i}a", priority=1)
    tn.set_explicit_belief("s", "v")
    return tn


def _shuffled_copy(network, rng):
    """``network`` rebuilt with users, mappings and beliefs in random order."""
    users = sorted(network.users, key=str)
    mappings = sorted(
        network.mappings, key=lambda m: (str(m.child), str(m.parent))
    )
    beliefs = sorted(network.explicit_beliefs.items(), key=lambda item: str(item[0]))
    for items in (users, mappings, beliefs):
        rng.shuffle(items)
    copy = TrustNetwork()
    for user in users:
        copy.add_user(user)
    for mapping in mappings:
        copy.add_trust(mapping.child, mapping.parent, priority=mapping.priority)
    for user, belief in beliefs:
        copy.set_explicit_belief(user, belief)
    return copy


class TestPlanIdentity:
    """Fresh, patched and rebuilt plans agree step for step.

    The step list is the checkpoint run id's input
    (``ResolutionEngine._run_id``), so equal networks must plan equal steps.
    """

    @pytest.mark.parametrize("name, network, explicit", _identity_networks())
    def test_whole_network_patch_of_an_empty_plan_equals_the_fresh_plan(
        self, name, network, explicit
    ):
        fresh = plan_resolution(network, explicit)
        empty = ResolutionPlan(network, frozenset())
        patched = patch_plan(
            empty, network, sorted(network.users, key=str), explicit_users=explicit
        ).plan
        assert patched.steps == fresh.steps
        assert patched.explicit_users == fresh.explicit_users

    @pytest.mark.parametrize("name, network, explicit", _identity_networks())
    def test_shuffled_construction_plans_identical_steps(self, name, network, explicit):
        rng = random.Random(name)
        fresh = plan_resolution(network, explicit)
        for _ in range(3):
            rebuilt = _shuffled_copy(network, rng)
            assert plan_resolution(rebuilt, explicit).steps == fresh.steps

    def test_plans_do_not_depend_on_the_hash_seed(self):
        """Step order follows sorted names, not set iteration order.

        That holds for the plan an engine lowers from its open's record
        too: a multi-key open numbers each believer group's users in
        frozenset order, and the plan's steps name the checkpoint journal.
        """
        script = (
            "import zlib\n"
            "from tests.bulk.test_planner import _gadget_ring\n"
            "from repro.bulk.planner import plan_resolution, plan_skeptic_resolution\n"
            "from repro.engine import ResolutionEngine\n"
            "from repro.workloads.powerlaw import WebWorkloadConfig, web_trust_network\n"
            "ring = _gadget_ring(8)\n"
            "plans = (plan_resolution(ring), plan_skeptic_resolution(ring, ['s'], {'m0': ['w']}))\n"
            "print([zlib.crc32(repr(plan.steps).encode()) for plan in plans])\n"
            "web = web_trust_network(WebWorkloadConfig(n_domains=150, seed=3))\n"
            "believers = sorted((u for u in web.users if web.has_explicit_belief(u)), key=str)\n"
            "keys = ('k0', 'k1', 'k2')\n"
            "beliefs = {k: {u: f'{k}{i % 2}' for i, u in enumerate(believers)} for k in keys}\n"
            "engine = ResolutionEngine.open(web, keys=keys, beliefs_by_key=beliefs)\n"
            "print(repr(engine.plan.steps), engine._run_id())\n"
        )
        root = Path(__file__).resolve().parents[2]
        outputs = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
            outputs.add(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env,
                    cwd=root,
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
        assert len(outputs) == 1, outputs
