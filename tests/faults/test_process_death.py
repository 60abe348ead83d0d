"""A committed apply survives the death of the process that made it.

The other fault suites raise errors inside a live process.  Here a child
process opens a file-backed engine, materializes, applies one batch and then
kills itself with ``SIGKILL`` while its connection is still open: no
``close()``, no checkpoint of the write-ahead log, no interpreter shutdown.
The parent reopens a store on the same file and compares the relation, as a
multiset, with a fresh ``resolve()`` of the network the batch produced.

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
    with PossStore(backend=SqliteFileBackend(path)) as reopened:
        survived = Counter(
            (row.user, row.key, row.value) for row in reopened.possible_table()
        )
    assert seen_by_child == expected
    assert survived == expected
