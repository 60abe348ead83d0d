"""Committed work survives the death of the process that made it.

The other fault suites raise errors inside a live process.  Here a child
process opens a file-backed engine, materializes, applies one batch and then
kills itself with ``SIGKILL`` while its connection is still open: no
``close()``, no checkpoint of the write-ahead log, no interpreter shutdown.
The parent reopens a store on the same file and compares the relation, as a
multiset, with a fresh ``resolve()`` of the network the batch produced, and
the ``BELIEF`` relation with that network's beliefs: the batch changes and
removes a belief, and its flush rewrote those slots in the same commit.

A second child kills itself in the middle of a checkpointed compiled
materialize, right after its k-th journal marker (inside that region's
transaction, so only the markers before it commit).  A third process, under
another hash seed, resumes the run: its plan must name the same journal, and
the relation it finishes must equal a clean run's as a multiset.

Power loss cannot be simulated in a test; that the log is synced before a
commit returns is pinned by the ``synchronous`` check in
``tests/bulk/test_backends.py``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.bulk.backends import SqliteFileBackend
from repro.bulk.store import PossStore
from repro.core.resolution import resolve
from repro.workloads.oscillators import oscillator_network

CLUSTERS = 50

#: One batch mixing a value change, a removed belief, a removed edge, a
#: re-prioritized edge and a new user, as ``(delta class, *arguments)``.
BATCH = (
    ("SetBelief", "c0.x3", "z"),
    ("RemoveBelief", "c1.x4"),
    ("RemoveTrust", "c2.x1", "c2.x3"),
    ("SetPriority", "c3.x1", "c3.x3", 120),
    ("AddTrust", "late", "c4.x3", 1),
)

CHILD = """
import json, os, signal, sys
from repro.bulk.backends import SqliteFileBackend
from repro.bulk.store import PossStore
from repro.engine import ResolutionEngine
from repro.incremental import deltas
from repro.workloads.oscillators import oscillator_network

path, clusters, batch = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
engine = ResolutionEngine(
    oscillator_network(clusters), store=PossStore(backend=SqliteFileBackend(path))
)
engine.materialize()
engine.apply(*(getattr(deltas, name)(*args) for name, *args in batch))
rows = [[row.user, row.key, row.value] for row in engine.store.possible_table()]
print(json.dumps(rows), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def mutated_network():
    """The child's network after its batch, built without the delta path."""
    network = oscillator_network(CLUSTERS)
    mutations = {
        "SetBelief": network.set_explicit_belief,
        "RemoveBelief": network.remove_explicit_belief,
        "RemoveTrust": network.remove_trust,
        "SetPriority": network.set_priority,
        "AddTrust": network.add_trust,
    }
    for name, *args in BATCH:
        mutations[name](*args)
    return network


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_committed_apply_survives_sigkill(tmp_path):
    path = str(tmp_path / "poss.db")
    src = str(Path(__import__("repro").__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", CHILD, path, str(CLUSTERS), json.dumps(BATCH)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr
    # The child died with its connection open, so the log was never
    # checkpointed into the database file: the reopen below must replay it.
    assert os.path.exists(path + "-wal")
    seen_by_child = Counter(tuple(row) for row in json.loads(child.stdout))

    expected = Counter(
        (str(user), "k0", str(value))
        for user, values in resolve(mutated_network()).possible.items()
        for value in values
    )
    beliefs = Counter(
        (str(user), "k0", str(belief.positive_value))
        for user, belief in mutated_network().explicit_beliefs.items()
        if belief.positive_value is not None
    )
    with PossStore(backend=SqliteFileBackend(path)) as reopened:
        survived = Counter(
            (row.user, row.key, row.value) for row in reopened.possible_table()
        )
        stored_beliefs = Counter(
            (row.user, row.key, row.value) for row in reopened.belief_table()
        )
    assert seen_by_child == expected
    assert survived == expected
    assert ("c0.x3", "k0", "z") in stored_beliefs
    assert not [row for row in stored_beliefs if row[0] == "c1.x4"]
    assert stored_beliefs == beliefs


#: A web graph whose compiled plan has three regions, so a checkpointed
#: materialize records four journal markers (the belief load's, then one per
#: region), opened with three keys over the network's believers.
CHECKPOINT_CHILD = """
import json, os, signal, sys
from repro.bulk.backends import SqliteFileBackend
from repro.bulk.store import PossStore
from repro.engine import ResolutionEngine
from repro.workloads.powerlaw import WebWorkloadConfig, web_trust_network

path, kill_after = sys.argv[1], int(sys.argv[2])
network = web_trust_network(WebWorkloadConfig(n_domains=120, seed=3))
believers = sorted((u for u in network.users if network.has_explicit_belief(u)), key=str)
keys = ("k0", "k1", "k2")
beliefs = {k: {u: f"{k}-{i % 3}" for i, u in enumerate(believers)} for k in keys}
engine = ResolutionEngine(
    network,
    store=PossStore(backend=SqliteFileBackend(path)),
    keys=keys,
    beliefs_by_key=beliefs,
)
if kill_after:
    record = PossStore.journal_record
    recorded = []

    def journal_record(store, run_id, node):
        record(store, run_id, node)
        recorded.append(node)
        if len(recorded) == kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    PossStore.journal_record = journal_record
    engine.materialize(checkpoint=True, compiled=True)
    sys.exit("the run recorded fewer journal markers than expected")
report = engine.materialize(resume=True, compiled=True)
engine.close()
print(json.dumps({"skipped": report.nodes_skipped, "regions": report.regions_compiled}))
"""


def _run_checkpoint_child(path, kill_after, hash_seed):
    src = str(Path(__import__("repro").__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", CHECKPOINT_CHILD, path, str(kill_after)],
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
        capture_output=True,
        text=True,
        timeout=120,
    )


def _clean_checkpoint_rows():
    from repro.engine import ResolutionEngine
    from repro.workloads.powerlaw import WebWorkloadConfig, web_trust_network

    network = web_trust_network(WebWorkloadConfig(n_domains=120, seed=3))
    believers = sorted(
        (u for u in network.users if network.has_explicit_belief(u)), key=str
    )
    keys = ("k0", "k1", "k2")
    beliefs = {k: {u: f"{k}-{i % 3}" for i, u in enumerate(believers)} for k in keys}
    with ResolutionEngine(network, keys=keys, beliefs_by_key=beliefs) as engine:
        report = engine.materialize(compiled=True)
        assert report.regions_compiled == 3
        return Counter((row.user, row.key, row.value) for row in engine.store.possible_table())


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
@pytest.mark.parametrize("kill_after", (1, 2, 3, 4))
def test_checkpointed_materialize_resumes_after_sigkill(tmp_path, kill_after):
    path = str(tmp_path / "poss.db")
    crashed = _run_checkpoint_child(path, kill_after, hash_seed="1")
    assert crashed.returncode == -signal.SIGKILL, crashed.stderr
    resumed = _run_checkpoint_child(path, 0, hash_seed="2")
    assert resumed.returncode == 0, resumed.stderr
    report = json.loads(resumed.stdout)
    with PossStore(backend=SqliteFileBackend(path)) as reopened:
        finished = Counter(
            (row.user, row.key, row.value) for row in reopened.possible_table()
        )
    clean = _clean_checkpoint_rows()
    assert max(finished.values()) == 1  # no region ran twice
    assert finished == clean
    # Markers before the k-th committed; the first is the belief load's,
    # so from k = 3 on the resume skips at least one region's steps.
    assert (report["skipped"] > 0) == (kill_after >= 3)
    assert report["regions"] == 3 - max(kill_after - 2, 0)
