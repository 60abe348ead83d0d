"""IncrementalSession: delta DELETE/INSERT application to the POSS store."""

from __future__ import annotations

import gc
import re

import pytest

from repro.bulk.backends import ShardSpec
from repro.bulk.store import PossStore, ShardedPossStore
from repro.core.errors import BulkProcessingError, NetworkError
from repro.incremental.deltas import AddTrust, RemoveUser, SetBelief
from repro.incremental.session import IncrementalSession


@pytest.fixture
def network(oscillator_network):
    """The Figure 4b oscillator from the suite-wide fixture."""
    return oscillator_network


def serialize(store) -> bytes:
    return "\n".join(
        f"{row.user}|{row.key}|{row.value}" for row in sorted(store.possible_table())
    ).encode()


class TestLoadingAndViews:
    def test_autoload_populates_the_store(self, network):
        session = IncrementalSession(network, store=PossStore())
        assert session.store.possible_values("x1", "k0") == frozenset({"v", "w"})
        assert session.possible_values("x1") == frozenset({"v", "w"})
        session.close()

    def test_multi_key_sessions_share_structure(self, network):
        session = IncrementalSession(
            network,
            store=PossStore(),
            keys=("k0", "k1"),
            beliefs_by_key={"k1": {"x3": "a", "x4": "b"}},
        )
        assert session.store.possible_values("x1", "k0") == frozenset({"v", "w"})
        assert session.store.possible_values("x1", "k1") == frozenset({"a", "b"})
        session.close()

    def test_unknown_key_is_rejected(self, network):
        session = IncrementalSession(network, store=PossStore())
        with pytest.raises(BulkProcessingError):
            session.resolver("k9")
        with pytest.raises(BulkProcessingError):
            session.apply(SetBelief("x3", "z", key="k9"))
        session.close()

    def test_session_needs_keys(self, network):
        with pytest.raises(BulkProcessingError):
            IncrementalSession(network, keys=())

    @pytest.mark.parametrize(
        "keys, named", [((1, "1"), "[1, '1']"), (("k0", "k0"), "['k0', 'k0']")]
    )
    def test_keys_that_collide_as_str_are_rejected(self, network, keys, named):
        with pytest.raises(BulkProcessingError, match=re.escape(named)):
            IncrementalSession(network, keys=keys, beliefs_by_key={keys[0]: {"x3": "z"}})

    def test_single_key_session_keeps_the_network_authoritative(self, network):
        """With one key and no overrides, belief deltas write back to the
        network, so resolve(session.network) equals the maintained state."""
        from repro.core.resolution import resolve

        session = IncrementalSession(network, store=PossStore())
        session.apply(SetBelief("x4", "v"))
        assert network.explicit_belief("x4").positive_value == "v"
        assert session.resolver().possible == resolve(network).possible
        session.close()


class TestDeltaApplication:
    def test_apply_moves_only_changed_rows(self, network):
        session = IncrementalSession(network, store=PossStore())
        rows_before = session.store.row_count()
        report = session.apply(SetBelief("x4", "v"))
        # x4 flips, the x1/x2 cycle collapses; x3 is untouched.
        assert report.users_changed == 3
        # Only the rows whose value vanished or appeared move: x4's old
        # value goes and "v" comes; x1 and x2 keep "v" and lose their
        # other value.
        assert report.rows_deleted == 3
        assert report.rows_inserted == 1
        assert report.statements == 2  # one DELETE batch + one INSERT batch
        assert report.transactions == 1
        assert session.store.row_count() == rows_before - 2
        assert (
            session.store.row_count()
            == rows_before - report.rows_deleted + report.rows_inserted
        )
        assert session.store.possible_values("x1", "k0") == frozenset({"v"})
        session.close()

    def test_noop_delta_touches_no_store(self, network):
        session = IncrementalSession(network, store=PossStore())
        report = session.apply(SetBelief("x3", "v"))
        assert report.users_changed == 0
        assert report.statements == 0
        assert report.transactions == 0
        session.close()

    def test_structural_delta_fans_out_to_every_key(self, network):
        session = IncrementalSession(network, store=PossStore(), keys=("k0", "k1"))
        report = session.apply(AddTrust("x5", "x1", 9))
        assert report.keys == 2
        for key in ("k0", "k1"):
            assert session.store.possible_values("x5", key) == frozenset({"v", "w"})
        assert len(network.mappings) == 5  # mutated once, not per key
        session.close()

    def test_remove_user_deletes_rows_everywhere(self, network):
        session = IncrementalSession(network, store=PossStore(), keys=("k0", "k1"))
        session.apply(RemoveUser("x4"))
        for key in ("k0", "k1"):
            assert session.store.possible_values("x4", key) == frozenset()
        assert "x4" not in session.resolver("k1").possible
        session.close()

    def test_failed_validation_leaves_relation_untouched(self, network):
        session = IncrementalSession(network, store=PossStore())
        before = serialize(session.store)
        with pytest.raises(NetworkError):
            session.apply(AddTrust("x1", "x4", 99))  # third parent of x1
        assert serialize(session.store) == before
        session.close()

    def test_mid_transaction_failure_rolls_back(self, network, monkeypatch):
        session = IncrementalSession(network, store=PossStore())
        before = serialize(session.store)
        original = PossStore.insert_rows

        def exploding_insert(self, rows):
            raise RuntimeError("backend lost")

        monkeypatch.setattr(PossStore, "insert_rows", exploding_insert)
        with pytest.raises(RuntimeError):
            session.apply(SetBelief("x4", "v"))
        monkeypatch.setattr(PossStore, "insert_rows", original)
        # The DELETE that ran before the failing INSERT was rolled back.
        assert serialize(session.store) == before
        session.close()

    def test_rejected_delta_mid_batch_flushes_the_applied_prefix(self, network):
        """A failure on delta N must not orphan deltas 1..N-1: their changes
        are flushed so the relation keeps matching the in-memory state."""
        session = IncrementalSession(network, store=PossStore())
        with pytest.raises(BulkProcessingError):
            session.apply(
                SetBelief("x4", "v"),  # applied in memory
                SetBelief("x4", "q", key="nope"),  # unknown key: rejected
            )
        # In-memory state carries the first delta ...
        assert session.possible_values("x1") == frozenset({"v"})
        # ... and so does the relation (no permanent desync).
        fresh = PossStore()
        fresh.insert_rows(session.rows())
        assert serialize(session.store) == serialize(fresh)
        fresh.close()
        session.close()

    def test_resync_reconciles_after_a_store_failure(self, network, monkeypatch):
        session = IncrementalSession(network, store=PossStore())
        original = PossStore.insert_rows
        monkeypatch.setattr(
            PossStore,
            "insert_rows",
            lambda self, rows: (_ for _ in ()).throw(RuntimeError("backend lost")),
        )
        with pytest.raises(RuntimeError):
            session.apply(SetBelief("x4", "v"))
        monkeypatch.setattr(PossStore, "insert_rows", original)
        # The rolled-back store is behind the resolvers until resync().
        session.resync()
        fresh = PossStore()
        fresh.insert_rows(session.rows())
        assert serialize(session.store) == serialize(fresh)
        fresh.close()
        session.close()

    def test_large_change_sets_are_chunked(self, network):
        """Delta deletes exceeding an engine's bind-variable limit chunk."""
        store = PossStore()
        store.insert_rows([(f"u{i}", "k0", "v") for i in range(1200)])
        assert store.delete_user_rows([f"u{i}" for i in range(1200)]) == 1200
        assert store.delta_statements == 1 + 3  # 1 insert + 3 delete chunks
        assert store.row_count() == 0
        store.close()

    def test_empty_apply_is_rejected(self, network):
        session = IncrementalSession(network, store=PossStore())
        with pytest.raises(BulkProcessingError):
            session.apply()
        session.close()


class TestShardedApplication:
    def test_delta_apply_routes_to_owning_shards(self, network):
        store = ShardedPossStore(ShardSpec.hashed(3))
        session = IncrementalSession(network, store=store, keys=("k0", "k1", "k2"))
        report = session.apply(SetBelief("x4", "v", key="k1"))
        assert report.transactions == 3  # one per shard, all-or-nothing
        assert store.possible_values("x1", "k1") == frozenset({"v"})
        assert store.possible_values("x1", "k0") == frozenset({"v", "w"})

        # Byte-identical to a freshly loaded single store.
        fresh = PossStore()
        fresh.insert_rows(session.rows())
        assert serialize(store) == serialize(fresh)
        fresh.close()
        session.close()

    def test_structural_delta_spans_all_shards(self, network):
        store = ShardedPossStore(2)
        session = IncrementalSession(network, store=store, keys=("k0", "k1"))
        session.apply(RemoveUser("x4"))
        fresh = PossStore()
        fresh.insert_rows(session.rows())
        assert serialize(store) == serialize(fresh)
        fresh.close()
        session.close()


class TestGcBatchScoping:
    def test_gc_paused_only_inside_the_apply_batch(self, network):
        """The ROADMAP PR-2 note: a long-lived session must not hold the
        cyclic collector off between apply batches."""
        observed = []
        original = PossStore.delete_user_rows

        def observing_delete(self, *args, **kwargs):
            observed.append(gc.isenabled())
            return original(self, *args, **kwargs)

        session = IncrementalSession(network, store=PossStore())
        assert gc.isenabled(), "session construction must restore the GC"
        PossStore.delete_user_rows = observing_delete
        try:
            session.apply(SetBelief("x4", "v"))
        finally:
            PossStore.delete_user_rows = original
        assert gc.isenabled(), "the GC pause must end with the batch"
        assert observed, "the delta path should have issued a DELETE"
        session.close()

    def test_gc_state_of_caller_is_preserved(self, network):
        session = IncrementalSession(network, store=PossStore())
        gc.disable()
        try:
            session.apply(SetBelief("x4", "zz"))
            assert not gc.isenabled(), "a disabled collector stays disabled"
        finally:
            gc.enable()
        session.close()
