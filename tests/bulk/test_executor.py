"""Integration tests: bulk SQL resolution matches per-object Algorithm 1/2."""

from __future__ import annotations

import pytest

from repro.bulk.executor import BulkResolver, SkepticBulkResolver
from repro.bulk.store import BOTTOM_VALUE
from repro.core.beliefs import BeliefSet
from repro.core.binarize import binarize
from repro.core.errors import BulkProcessingError
from repro.core.network import TrustNetwork
from repro.core.resolution import resolve
from repro.core.skeptic import resolve_skeptic
from repro.workloads.bulkload import BELIEF_USERS, figure19_network, generate_objects


def per_object_reference(network, rows):
    """Possible values per (user, key) via per-object Algorithm 1."""
    by_key = {}
    for user, key, value in rows:
        by_key.setdefault(key, []).append((user, value))
    reference = {}
    for key, beliefs in by_key.items():
        per_object = network.copy()
        for user, value in beliefs:
            per_object.set_explicit_belief(user, value)
        resolved = resolve(binarize(per_object).btn)
        for user in network.users:
            reference[(str(user), str(key))] = set(
                map(str, resolved.possible_values(user))
            )
    return reference


class TestBulkResolver:
    def test_matches_per_object_resolution_on_figure19(self):
        network = figure19_network()
        rows = generate_objects(40, conflict_probability=0.5, seed=7)
        resolver = BulkResolver(network, explicit_users=BELIEF_USERS)
        resolver.load_beliefs(rows)
        report = resolver.run()
        assert report.objects == 40
        reference = per_object_reference(network, rows)
        for (user, key), expected in reference.items():
            assert set(resolver.possible_values(user, key)) == expected, (user, key)
        resolver.store.close()

    def test_statement_count_is_independent_of_object_count(self):
        network = figure19_network()
        counts = []
        for n_objects in (5, 50):
            resolver = BulkResolver(network, explicit_users=BELIEF_USERS)
            resolver.load_beliefs(generate_objects(n_objects, seed=1))
            report = resolver.run()
            counts.append(report.statements)
            resolver.store.close()
        assert counts[0] == counts[1]

    def test_certain_values_reported(self, oscillator_network):
        resolver = BulkResolver(oscillator_network)
        resolver.load_beliefs([("x3", "k0", "v"), ("x4", "k0", "w")])
        resolver.run()
        assert resolver.certain_values("x3", "k0") == frozenset({"v"})
        assert resolver.certain_values("x1", "k0") == frozenset()
        assert resolver.possible_values("x1", "k0") == frozenset({"v", "w"})
        resolver.store.close()

    def test_bulk_assumption_ii_enforced(self):
        network = figure19_network()
        resolver = BulkResolver(network, explicit_users=BELIEF_USERS)
        with pytest.raises(BulkProcessingError):
            resolver.load_beliefs(
                [("x6", "k0", "v"), ("x7", "k0", "w"), ("x6", "k1", "v")]
            )

    def test_rejects_beliefs_from_unplanned_users(self):
        network = figure19_network()
        resolver = BulkResolver(network, explicit_users=BELIEF_USERS)
        with pytest.raises(BulkProcessingError):
            resolver.load_beliefs([("x1", "k0", "v")])

    def test_conflicting_and_agreeing_objects(self, oscillator_network):
        resolver = BulkResolver(oscillator_network)
        resolver.load_beliefs(
            [
                ("x3", "agree", "same"),
                ("x4", "agree", "same"),
                ("x3", "clash", "v"),
                ("x4", "clash", "w"),
            ]
        )
        resolver.run()
        assert resolver.certain_values("x1", "agree") == frozenset({"same"})
        assert resolver.certain_values("x1", "clash") == frozenset()
        assert resolver.store.conflict_count() > 0
        resolver.store.close()


def _row_by_row_verdict(batches, expected):
    """Bulk assumptions (i)/(ii) checked row by row, batch after batch: the
    verdict a belief load must reach, as the error message or ``None``.

    First of all a batch may not repeat a ``(user, key, value)`` by name,
    within itself or against an earlier batch (users ``1`` and ``"1"``
    collide)."""
    loaded = set()
    stored = set()
    for rows in batches:
        seen = set(stored)
        for user, key, value in rows:
            row = (str(user), str(key), str(value))
            if row in seen:
                return f"belief row {row} is loaded twice (rows are compared by name)"
            seen.add(row)
        by_user = {}
        for user, key, _value in rows:
            by_user.setdefault(str(user), set()).add(str(key))
            loaded.add(str(key))
        if expected and set(by_user) - expected:
            return (
                "beliefs supplied for users outside the planned explicit set: "
                f"{sorted(set(by_user) - expected)}"
            )
        for user, keys in by_user.items():
            if keys != loaded:
                return (
                    f"bulk assumption (ii) violated: user {user} lacks beliefs for "
                    f"{len(loaded - keys)} objects"
                )
        stored = seen
    return None


class TestBeliefLoadChecks:
    """The repeat check and the per-key set checks reach the row-by-row
    verdict, message and all."""

    def test_random_loads_match_the_row_by_row_verdict(self):
        outcomes = self._random_loads(
            users=("a", "b", 1, "1", "d"), values=lambda _batch: "vw"
        )
        verdicts = [verdict for _batches, verdict in outcomes]
        assert {verdict is None for verdict in verdicts} == {True, False}
        assert any(verdict and "loaded twice" in verdict for verdict in verdicts)

    def test_random_batches_without_repeats_match_the_row_by_row_verdict(self):
        """Each batch draws its own values, so a second batch gets past the
        repeat check to the per-key checks against the first."""
        outcomes = self._random_loads(
            users=("a", "b", "1", "d"), values=lambda batch: (f"v{batch}", f"w{batch}")
        )
        assert {batches for batches, verdict in outcomes if verdict is None} == {1, 2}
        assert {batches for batches, verdict in outcomes if verdict} == {1, 2}

    @staticmethod
    def _random_loads(users, values):
        """Load 400 random one- or two-batch belief sets, each into a fresh
        resolver, and check each outcome against the row-by-row verdict.
        Returns ``(batch count, verdict)`` per load."""
        import random

        rng = random.Random(7)
        tn = TrustNetwork()
        for child, parent in (("c", "a"), ("c", "b"), ("d", "c"), ("e", 1)):
            tn.add_trust(child, parent, priority=1 if parent != "b" else 2)
        verdicts = []
        for _ in range(400):
            resolver = BulkResolver(tn, explicit_users=["a", "b", 1])
            batches = []
            for batch in range(rng.randint(1, 2)):
                rows = [
                    (user, key, rng.choice(values(batch)))
                    for key in rng.sample(["k0", "k1", "k2", 3], rng.randint(1, 3))
                    for user in users
                    if rng.random() < (0.9 if user != "d" else 0.05)
                ]
                rng.shuffle(rows)
                batches.append(rows)
            expected = _row_by_row_verdict(batches, {"a", "b", "1"})
            verdicts.append((len(batches), expected))
            try:
                for rows in batches:
                    resolver.load_beliefs(rows)
            except BulkProcessingError as error:
                assert str(error) == expected
            else:
                assert expected is None
                loaded = sorted(
                    (str(u), str(k), str(v)) for rows in batches for u, k, v in rows
                )
                stored = sorted(
                    (row.user, row.key, row.value) for row in resolver.store.possible_table()
                )
                assert stored == loaded
            resolver.store.close()
        return verdicts


class TestGroupedCopies:
    """Copies from one parent always run as one multi-child statement."""

    def test_fanout_network_issues_one_copy_statement_per_parent(self):
        tn = TrustNetwork()
        for child in ("b", "c", "d", "e"):
            tn.add_trust(child, "a", priority=1)
        tn.add_trust("f", "b", priority=1)
        tn.add_trust("g", "b", priority=1)
        resolver = BulkResolver(tn, explicit_users=["a"])
        resolver.load_beliefs([("a", f"k{i}", f"v{i}") for i in range(10)])
        report = resolver.run()
        # 6 copied children, 2 distinct parents (a and b).
        assert report.statements == 2
        for child in "bcdefg":
            assert resolver.possible_values(child, "k3") == frozenset({"v3"})
        resolver.store.close()


class TestSkepticBulkResolver:
    @pytest.mark.parametrize(
        "rows",
        [
            # b is not a positive user: its row would sit beside a's copy.
            [("a", "k0", "v1"), ("b", "k0", "v2"), ("a", "k1", "v1")],
            # a lacks a belief for k1, which only c's row names.
            [("a", "k0", "v1"), ("c", "k1", "v2")],
        ],
    )
    def test_load_checks_both_bulk_assumptions(self, rows):
        tn = TrustNetwork()
        tn.add_trust("b", "a", priority=1)
        tn.add_trust("c", "b", priority=1)
        resolver = SkepticBulkResolver(
            tn, positive_users=["a"], negative_constraints={}
        )
        with pytest.raises(BulkProcessingError):
            resolver.load_beliefs(rows)
        assert resolver.store.possible_table() == []
        resolver.store.close()

    def test_blocked_value_becomes_bottom(self):
        tn = TrustNetwork()
        tn.add_trust("p", "source", priority=2)
        tn.add_trust("p", "q", priority=1)
        tn.add_trust("q", "filter", priority=2)
        tn.add_trust("q", "p", priority=1)
        resolver = SkepticBulkResolver(
            tn, positive_users=["source"], negative_constraints={"filter": ["v1"]}
        )
        resolver.load_beliefs([("source", "k0", "v1"), ("source", "k1", "v2")])
        resolver.run()
        # k0 carries the rejected value: q reports ⊥; k1 passes through.
        assert resolver.possible_values("q", "k0") == frozenset({BOTTOM_VALUE})
        assert resolver.possible_values("p", "k0") == frozenset({"v1"})
        assert resolver.possible_values("q", "k1") == frozenset({"v2"})
        assert resolver.bottom_value() == BOTTOM_VALUE
        resolver.store.close()

    def test_matches_algorithm2_possible_positives(self):
        tn = TrustNetwork()
        tn.add_trust("p", "source", priority=2)
        tn.add_trust("p", "q", priority=1)
        tn.add_trust("q", "filter", priority=2)
        tn.add_trust("q", "p", priority=1)
        value = "measured"
        per_object = tn.copy()
        per_object.set_explicit_belief("source", value)
        per_object.set_explicit_belief("filter", BeliefSet.from_negatives(["other"]))
        expected = resolve_skeptic(per_object)

        resolver = SkepticBulkResolver(
            tn, positive_users=["source"], negative_constraints={"filter": ["other"]}
        )
        resolver.load_beliefs([("source", "k0", value)])
        resolver.run()
        for user in ("p", "q"):
            sql_positive = {
                v for v in resolver.possible_values(user, "k0") if v != BOTTOM_VALUE
            }
            assert sql_positive == set(map(str, expected.possible_positive_values(user)))
        resolver.store.close()
