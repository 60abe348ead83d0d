"""Shared helpers for the bulk test suite."""

from __future__ import annotations

import pytest


@pytest.fixture
def serialized_relation():
    """The byte-level equivalence oracle: the full POSS relation of a store
    (single or sharded) as one canonical byte string.

    Every equivalence test in this package — DAG topological replay,
    sharded scatter/gather, PostgreSQL vs. sqlite —
    compares relations through this single serialization.
    """

    def serialize(store) -> bytes:
        rows = sorted(store.possible_table())
        return "\n".join(
            f"{row.user}|{row.key}|{row.value}" for row in rows
        ).encode()

    return serialize
