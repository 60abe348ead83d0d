"""Unit tests for the delta vocabulary and the row-level log."""

from __future__ import annotations

import random
from collections import Counter

from repro.incremental.deltas import (
    AddTrust,
    DeltaLog,
    RemoveBelief,
    RemoveTrust,
    RemoveUser,
    RowChange,
    SetBelief,
    SetPriority,
    is_structural,
    row_diff,
)


class TestDeltaKinds:
    def test_structural_classification(self):
        assert is_structural(AddTrust("c", "p", 1))
        assert is_structural(RemoveTrust("c", "p"))
        assert is_structural(SetPriority("c", "p", 2))
        assert is_structural(RemoveUser("u"))
        assert not is_structural(SetBelief("u", "v"))
        assert not is_structural(RemoveBelief("u"))

    def test_belief_deltas_carry_an_optional_key(self):
        assert SetBelief("u", "v").key is None
        assert SetBelief("u", "v", key="k3").key == "k3"
        assert RemoveBelief("u", key="k1").key == "k1"

    def test_deltas_are_hashable_and_comparable(self):
        assert SetBelief("u", "v") == SetBelief("u", "v")
        assert len({AddTrust("c", "p", 1), AddTrust("c", "p", 1)}) == 1


class TestDeltaLog:
    def _log(self):
        return DeltaLog(
            delta=SetBelief("a", "v2"),
            changes=(
                RowChange("a", frozenset({"v"}), frozenset({"v2"})),
                RowChange("b", frozenset(), frozenset({"v2", "w"})),
                RowChange("gone", frozenset({"x"}), frozenset(), removed=True),
            ),
            touched=("a",),
            dirty_region=5,
            recomputed=3,
        )

    def test_changed_users_in_order(self):
        assert self._log().changed_users() == ("a", "b", "gone")

    def test_empty_log(self):
        log = DeltaLog(delta=RemoveBelief("u"), changes=(), touched=())
        assert log.is_empty
        assert not self._log().is_empty

    def test_cost_counters(self):
        log = self._log()
        assert (log.dirty_region, log.recomputed) == (5, 3)


class TestRowDiff:
    def test_only_vanished_and_appeared_values_move(self):
        deletes, inserts = row_diff(
            [
                ("k0", RowChange("a", frozenset({"v", "w"}), frozenset({"v", "x"}))),
                # "b" had no rows, so nothing of it is deleted.
                ("k0", RowChange("b", frozenset(), frozenset({"v2", "w"}))),
                ("k1", RowChange("gone", frozenset({"x"}), frozenset(), removed=True)),
            ]
        )
        assert sorted(deletes) == [("a", "k0", "w"), ("gone", "k1", "x")]
        assert sorted(inserts) == [
            ("a", "k0", "x"),
            ("b", "k0", "v2"),
            ("b", "k0", "w"),
        ]

    def test_a_str_collision_rewrites_the_users_rows(self):
        # {1, "1", "x"} is stored as two ("a", "k0", "1") rows and an "x"
        # row; one DELETE row removes both "1" rows, so every old row goes
        # and the new set is inserted whole.
        deletes, inserts = row_diff(
            [("k0", RowChange("a", frozenset({1, "1", "x"}), frozenset({"1", "x"})))]
        )
        assert sorted(deletes) == [("a", "k0", "1"), ("a", "k0", "1"), ("a", "k0", "x")]
        assert sorted(inserts) == [("a", "k0", "1"), ("a", "k0", "x")]

    def test_diff_keeps_the_row_multiset_exact(self):
        """Deleting a row by its str and inserting one row per value lands
        on exactly the new set's rows, whatever values share a str."""
        pool = [1, "1", 2, "2", "a", (1,), "(1,)"]
        rng = random.Random(7)
        for _ in range(2000):
            old = frozenset(rng.sample(pool, rng.randint(0, 4)))
            new = frozenset(rng.sample(pool, rng.randint(0, 4)))
            rows = Counter(("a", "k0", str(value)) for value in old)
            deletes, inserts = row_diff([("k0", RowChange("a", old, new))])
            for row in set(deletes):
                del rows[row]
            rows.update(inserts)
            assert rows == Counter(("a", "k0", str(value)) for value in new), (old, new)

    def test_no_changes_no_rows(self):
        assert row_diff([]) == ([], [])
