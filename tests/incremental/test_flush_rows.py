"""The delta flush writes the row diff, and the relation stays exact.

A session's flush deletes only the ``POSS`` rows whose value vanished and
inserts only those that appeared (:func:`repro.incremental.deltas.row_diff`).
Such a flush is not idempotent, so a duplicate or a stale row would survive
it unnoticed by a set comparison.  These properties compare the store with
``session.rows()`` as a multiset after every apply: on a single store and on
2 shards, for multi-key value-only streams and structural streams, and
across a shard that is quarantined mid-stream and then recovered.

The flush also rewrites the ``BELIEF`` slots of the batch's belief changes,
so the same properties compare ``BELIEF`` with ``session.belief_rows()``,
and an engine's warm ``materialize``, which loads its beliefs from
``BELIEF``, with a fresh engine's.
"""

from __future__ import annotations

import dataclasses
import random
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.bulk.backends import SqliteFileBackend
from repro.bulk.store import PossStore, ShardedPossStore
from repro.core.errors import BackendUnavailable
from repro.core.network import TrustNetwork
from repro.engine import ResolutionEngine
from repro.incremental.deltas import RemoveBelief, SetBelief
from repro.incremental.resolver import DeltaResolver
from repro.incremental.session import IncrementalSession
from repro.workloads.updates import generate_update_stream
from tests.conftest import random_binary_network

#: Under ``ShardSpec.hashed(2)`` these keys land on both shards.
KEYS = ("k0", "k1", "k4")
VALUES = ("val0", "val1", "val2", "val3")

PROPERTY = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def store_rows(store, table="POSS") -> Counter:
    """Every stored row of ``table`` on the serving shards, with its
    multiplicity (a set comparison would hide a duplicate)."""
    if isinstance(store, ShardedPossStore):
        return sum(
            (store_rows(shard, table) for index, shard in enumerate(store.shards)
             if not store.is_degraded(index)),
            Counter(),
        )
    return Counter(
        tuple(row) for row in store._execute(f"SELECT X, K, V FROM {table}").fetchall()
    )


def assert_in_step(session, shard=None):
    """``POSS`` and ``BELIEF`` hold exactly the session's rows and beliefs:
    those of the serving shards' keys, or of shard ``shard`` alone."""
    store = session.store
    if shard is None:
        target = store
        owned = {k for k in session.keys if store.spec.shard_of(k) not in store.degraded_shards}
    else:
        target = store.shards[shard]
        owned = {k for k in session.keys if store.spec.shard_of(k) == shard}
    assert store_rows(target) == Counter(r for r in session.rows() if r[1] in owned)
    assert store_rows(target, "BELIEF") == Counter(
        r for r in session.belief_rows() if r[1] in owned
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
    """Apply ``deltas`` in chunks of 1-3, through either apply path of a
    session (an engine has one)."""
    position = 0
    while position < len(deltas):
        size = rng.randint(1, 3)
        chunk = deltas[position : position + size]
        position += size
        if isinstance(session, ResolutionEngine) or rng.random() < 0.5:
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
    assert_in_step(session)
    for _ in apply_chunks(session, rng, deltas):
        assert_in_step(session)
    session.close()


def _single_key(deltas):
    """``deltas`` for a one-key session: belief ops on ``k0`` lose their key."""
    return [
        dataclasses.replace(d, key=None) if isinstance(d, (SetBelief, RemoveBelief)) else d
        for d in deltas
        if not isinstance(d, (SetBelief, RemoveBelief)) or d.key == "k0"
    ]


def _open_store(kind, directory, name):
    if kind == "file":
        return PossStore(backend=SqliteFileBackend(str(Path(directory) / f"{name}.db")))
    return ShardedPossStore(2) if kind == "sharded" else PossStore()


@PROPERTY
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(("memory", "file", "sharded")),
    single_key=st.booleans(),
    value_only=st.booleans(),
)
def test_warm_materialize_loads_the_belief_relation_the_applies_kept(
    seed, kind, single_key, value_only
):
    """An engine's applies keep ``BELIEF`` equal to the session's beliefs,
    and each warm materialize, which only copies ``BELIEF``, is
    byte-identical to a fresh engine's over the same state.  The session
    owns the network's beliefs with one key, and holds them per key
    (``beliefs_by_key``) with several."""
    network, rng, deltas = stream_for(seed, value_only or not single_key)
    base = {
        user: belief.positive_value
        for user, belief in network.explicit_beliefs.items()
        if belief.positive_value is not None
    }
    if single_key:
        keys, options, deltas = ("k0",), {}, _single_key(deltas)
    else:
        # The plan's explicit set is the network's believers, which only a
        # one-key session moves: per-key sessions change values only.
        assume(base)
        keys = KEYS
        options = {"beliefs_by_key": {key: dict(base) for key in KEYS}}
    with tempfile.TemporaryDirectory() as directory:
        engine = ResolutionEngine.open(
            network.copy(), store=_open_store(kind, directory, "live"), keys=keys, **options
        )
        session = engine._session
        engine.materialize(compiled=True)
        assert session.beliefs_stored
        assert_in_step(session)
        fresh_stores = 0
        for _ in apply_chunks(engine, rng, deltas):
            assert_in_step(session)
            if rng.random() < 0.5:
                continue
            report = engine.materialize(compiled=rng.random() < 0.5)
            assert report.bulk.objects == 0  # copied from BELIEF, not handed rows
            fresh_stores += 1
            beliefs = {key: dict(session.resolver(key).beliefs) for key in keys}
            fresh = ResolutionEngine.open(
                engine.network.copy(),
                store=_open_store(kind, directory, f"fresh{fresh_stores}"),
                keys=keys,
                **({} if single_key else {"beliefs_by_key": beliefs}),
            )
            fresh.materialize()
            assert sorted(engine.store.possible_table()) == sorted(
                fresh.store.possible_table()
            )
            assert store_rows(engine.store, "BELIEF") == store_rows(fresh.store, "BELIEF")
            fresh.close()
        engine.close()


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
                assert_in_step(session, shard=1 - dead)
                if applies >= kill_at + outage:
                    session.recover_shard(dead)
                    killed = False
            if applies == kill_at:
                _kill(store, dead)
                killed = True
            if not killed:
                assert_in_step(session)
        if killed:
            session.recover_shard(dead)
        if durable:
            assert rebuilds == []
        assert session.pending_shards() == ()
        assert_in_step(session)
        assert session.beliefs_stored
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
    assert_in_step(session, shard=1)
    session.recover_shard(0)
    assert_in_step(session)
    session.close()


def _chain_engine():
    network = TrustNetwork()
    network.add_trust("b", "a", priority=1)
    network.add_trust("c", "b", priority=1)
    network.set_explicit_belief("a", "v")
    engine = ResolutionEngine.open(network)
    engine.materialize()
    return engine


def test_an_apply_that_raises_before_its_flush_makes_materialize_rewrite_beliefs(
    monkeypatch,
):
    """An apply that dies after its recompute leaves ``BELIEF`` behind the
    session, so the next materialize must rewrite it, not copy it."""
    engine = _chain_engine()
    recompute = DeltaResolver.apply_batch

    def crash(self, *args, **kwargs):
        recompute(self, *args, **kwargs)
        raise RuntimeError("died between recompute and flush")

    monkeypatch.setattr(DeltaResolver, "apply_batch", crash)
    with pytest.raises(RuntimeError):
        engine.apply(SetBelief("a", "w"))
    monkeypatch.undo()
    assert not engine._session.beliefs_stored
    assert store_rows(engine.store, "BELIEF") == Counter({("a", "k0", "v"): 1})
    engine.materialize()
    assert_in_step(engine._session)
    assert engine.query("c") == frozenset({"w"})
    engine.close()


def test_a_reconnect_makes_materialize_rewrite_beliefs():
    """An in-memory database comes back from a reconnect empty, ``BELIEF``
    included, so the next materialize must rewrite it."""
    engine = _chain_engine()
    engine.store.reconnect()
    assert not engine._session.beliefs_stored
    engine.materialize()
    assert_in_step(engine._session)
    assert engine.query("c") == frozenset({"v"})
    engine.close()
