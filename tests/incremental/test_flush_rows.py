"""The delta flush writes the row diff, and the relation stays exact.

A session's flush deletes only the ``POSS`` rows whose value vanished and
inserts only those that appeared (:func:`repro.incremental.deltas.row_diff`).
Such a flush is not idempotent, so a duplicate or a stale row would survive
it unnoticed by a set comparison.  These properties compare the store with
``session.rows()`` as a multiset after every apply: on a single store and on
2 shards, for multi-key value-only streams and structural streams, and
across a shard that is quarantined mid-stream and then recovered.
"""

from __future__ import annotations

import dataclasses
import random
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bulk.backends import SqliteFileBackend
from repro.bulk.store import PossStore, ShardedPossStore
from repro.core.errors import BackendUnavailable
from repro.incremental.deltas import RemoveBelief, SetBelief
from repro.incremental.session import IncrementalSession
from repro.workloads.updates import generate_update_stream
from tests.conftest import random_binary_network

#: Under ``ShardSpec.hashed(2)`` these keys land on both shards.
KEYS = ("k0", "k1", "k4")
VALUES = ("val0", "val1", "val2", "val3")

PROPERTY = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def store_rows(store) -> Counter:
    """Every stored row with its multiplicity (``possible_table`` is
    ``DISTINCT``, which would hide a duplicate)."""
    if isinstance(store, ShardedPossStore):
        return sum(
            (store_rows(shard) for index, shard in enumerate(store.shards)
             if not store.is_degraded(index)),
            Counter(),
        )
    return Counter(
        tuple(row) for row in store._execute("SELECT X, K, V FROM POSS").fetchall()
    )


def value_only_stream(network, rng, n_ops):
    """Belief changes of users that already believe, over every key."""
    believers = sorted(
        (user for user, belief in network.explicit_beliefs.items() if belief.has_positive),
        key=str,
    )
    return [
        SetBelief(rng.choice(believers), rng.choice(VALUES), key=rng.choice(KEYS))
        for _ in range(n_ops)
    ]


def structural_stream(network, rng, n_ops, seed):
    """A mixed structural stream; each belief op repeats for every key.

    Every key keeps the same believers (beliefs sit on roots, so a parent
    may only be added to a user no key believes in), but each key draws its
    own value.
    """
    deltas = []
    for delta in generate_update_stream(network, n_ops=n_ops, seed=seed):
        if isinstance(delta, SetBelief):
            deltas.extend(
                SetBelief(delta.user, rng.choice(VALUES), key=key) for key in KEYS
            )
        elif isinstance(delta, RemoveBelief):
            deltas.extend(dataclasses.replace(delta, key=key) for key in KEYS)
        else:
            deltas.append(delta)
    return deltas


def stream_for(seed, value_only, n_ops=14):
    network = random_binary_network(seed, n_nodes=9, n_values=3)
    rng = random.Random(seed)
    if value_only and any(b.has_positive for b in network.explicit_beliefs.values()):
        deltas = value_only_stream(network, rng, n_ops)
    else:
        deltas = structural_stream(network, rng, n_ops, seed * 7 + 1)
    return network, rng, deltas


def apply_chunks(session, rng, deltas):
    """Apply ``deltas`` in chunks of 1-3, through either apply path."""
    position = 0
    while position < len(deltas):
        size = rng.randint(1, 3)
        chunk = deltas[position : position + size]
        position += size
        if rng.random() < 0.5:
            session.apply(*chunk)
        else:
            session.apply_batch(*chunk)
        yield


def test_shards_cover_both_indices():
    store = ShardedPossStore(2)
    assert {store.spec.shard_of(key) for key in KEYS} == {0, 1}
    store.close()


@PROPERTY
@given(
    seed=st.integers(0, 10_000),
    sharded=st.booleans(),
    value_only=st.booleans(),
)
def test_store_equals_session_rows_after_every_apply(seed, sharded, value_only):
    network, rng, deltas = stream_for(seed, value_only)
    store = ShardedPossStore(2) if sharded else PossStore()
    session = IncrementalSession(network.copy(), store=store, keys=KEYS)
    assert store_rows(store) == Counter(session.rows())
    for _ in apply_chunks(session, rng, deltas):
        assert store_rows(store) == Counter(session.rows())
    session.close()


def _kill(store, index):
    """Close one shard's connection; its next reconnect succeeds."""
    store.shards[index]._connection.close()


@PROPERTY
@given(
    seed=st.integers(0, 10_000),
    value_only=st.booleans(),
    durable=st.booleans(),
    dead=st.sampled_from((0, 1)),
    kill_at=st.integers(1, 4),
    outage=st.integers(1, 3),
)
def test_quarantined_flush_recovers_to_session_rows(
    seed, value_only, durable, dead, kill_at, outage
):
    """A shard dies between applies, misses ``outage`` applies, recovers.

    A durable (file-backed) shard keeps its committed rows, so replaying
    its queued fragments alone must bring it back: the slice rebuild, the
    one caller of the whole-user delete, must not run.  An in-memory shard
    comes back empty and is rebuilt.
    """
    network, rng, deltas = stream_for(seed, value_only, n_ops=16)
    with tempfile.TemporaryDirectory() as directory:
        backends = (
            [SqliteFileBackend(str(Path(directory) / f"shard{i}.db")) for i in range(2)]
            if durable
            else None
        )
        store = ShardedPossStore(2, backends=backends)
        session = IncrementalSession(network.copy(), store=store, keys=KEYS)
        rebuilds = []
        shard = store.shards[dead]
        delete = shard.delete_user_rows

        def spy(users=(), key=None, rows=None):
            if rows is None:
                rebuilds.append(key)
            return delete(users, key=key, rows=rows)

        shard.delete_user_rows = spy
        applies = 0
        killed = False
        for _ in apply_chunks(session, rng, deltas):
            applies += 1
            if killed and store.degraded_shards:
                live = 1 - dead
                expected = Counter(
                    row for row in session.rows() if store.spec.shard_of(row[1]) == live
                )
                assert store_rows(store.shards[live]) == expected
                if applies >= kill_at + outage:
                    session.recover_shard(dead)
                    killed = False
            if applies == kill_at:
                _kill(store, dead)
                killed = True
            if not killed:
                assert store_rows(store) == Counter(session.rows())
        if killed:
            session.recover_shard(dead)
        if durable:
            assert rebuilds == []
        assert session.pending_shards() == ()
        assert store_rows(store) == Counter(session.rows())
        session.close()


def test_retry_after_a_partial_commit_does_not_duplicate_rows():
    """Shards commit one after another.  When shard 0's commit fails after
    shard 1 committed its fragment, the retry must rewrite shard 1's rows,
    not insert them a second time."""
    network, _rng, deltas = stream_for(1, value_only=True)
    store = ShardedPossStore(2)
    session = IncrementalSession(network.copy(), store=store, keys=KEYS)
    shard = store.shards[0]
    commit = shard._commit_connection
    failures = []

    def fail_once():
        if not failures:
            failures.append(True)
            shard._connection.close()
            raise BackendUnavailable("connection lost at commit")
        commit()

    shard._commit_connection = fail_once
    report = session.apply(*deltas)
    assert failures and report.recovered
    assert store.degraded_shards == (0,)
    expected = Counter(row for row in session.rows() if store.spec.shard_of(row[1]) == 1)
    assert store_rows(store.shards[1]) == expected
    session.recover_shard(0)
    assert store_rows(store) == Counter(session.rows())
    session.close()
