"""Delta operations and change logs for incremental maintenance.

The paper computes the possible/certain-value relation from scratch per run
(Algorithms 1/2, Section 2.4); a live service instead absorbs a *stream* of
small updates — a user revises their belief, a trust mapping appears or
disappears, a priority changes.  This module fixes the vocabulary of that
stream:

* the **delta** types below describe one mutation of a trust network (or of
  one object's explicit beliefs);
* a :class:`DeltaLog` records what one delta did to the resolved state — the
  per-user row-level changes plus the instrumentation that makes the
  incremental engine auditable (how large the dirty region was, how much of
  it the value-equality pruning skipped).

Deltas are plain frozen dataclasses so streams can be generated, stored and
replayed deterministically (see :mod:`repro.workloads.updates`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.beliefs import Value
from repro.core.network import User


@dataclass(frozen=True)
class SetBelief:
    """Set (or replace) the explicit belief of ``user`` to ``value``.

    ``value`` is anything :class:`~repro.core.network.TrustNetwork` accepts
    as an explicit belief (a plain positive value for Algorithm 1; a
    :class:`~repro.core.beliefs.BeliefSet` with negatives for Algorithm 2).
    ``key`` optionally targets one object of an
    :class:`~repro.incremental.session.IncrementalSession`; resolvers ignore
    it.
    """

    user: User
    value: object
    key: Optional[str] = None


@dataclass(frozen=True)
class RemoveBelief:
    """Revoke the explicit belief of ``user`` (no-op when there is none)."""

    user: User
    key: Optional[str] = None


@dataclass(frozen=True)
class AddTrust:
    """``child`` starts trusting ``parent`` with ``priority``."""

    child: User
    parent: User
    priority: int


@dataclass(frozen=True)
class RemoveTrust:
    """``child`` stops trusting ``parent`` (all parallel mappings)."""

    child: User
    parent: User


@dataclass(frozen=True)
class SetPriority:
    """Change the priority of the mapping ``parent -> child``."""

    child: User
    parent: User
    priority: int


@dataclass(frozen=True)
class RemoveUser:
    """Remove ``user`` together with its incident mappings and belief."""

    user: User


Delta = Union[SetBelief, RemoveBelief, AddTrust, RemoveTrust, SetPriority, RemoveUser]

#: Deltas that mutate the shared trust structure (vs. one key's beliefs).
STRUCTURAL_DELTAS = (AddTrust, RemoveTrust, SetPriority, RemoveUser)


def is_structural(delta: Delta) -> bool:
    """Whether the delta mutates the trust structure shared by every object."""
    return isinstance(delta, STRUCTURAL_DELTAS)


@dataclass(frozen=True)
class RowChange:
    """One user's possible-value change: ``old_values`` became ``new_values``.

    ``removed`` marks users that left the network entirely (their entry
    disappears from the resolved map instead of becoming empty).
    """

    user: User
    old_values: FrozenSet[Value]
    new_values: FrozenSet[Value]
    removed: bool = False


#: One ``POSS`` row: ``(user, key, value)``, each as its ``str``.
Row = Tuple[str, str, str]


def row_diff(changes: Iterable[Tuple[str, RowChange]]) -> Tuple[List[Row], List[Row]]:
    """The ``POSS`` rows that ``(key, change)`` pairs delete and insert.

    The store holds one ``(str(user), key, str(value))`` row per possible
    value, so a change moves only the rows of the values that vanished or
    appeared: a user whose set went from ``{a, b}`` to ``{a, c}`` deletes
    ``b`` and inserts ``c``, and its ``a`` row stays.  A ``DELETE`` row
    removes every row with its ``str``, so when two old values share one
    (``1`` and ``"1"``) the change rewrites all of the user's rows instead.
    Returns ``(deletes, inserts)``.  This is the one definition of the
    row-change contract; the session's flush writes exactly these rows.
    """
    deletes: List[Row] = []
    inserts: List[Row] = []
    delete = deletes.append
    insert = inserts.append
    for key, change in changes:
        user = str(change.user)
        old = change.old_values
        new = change.new_values
        if len(set(map(str, old))) == len(old):
            vanished, appeared = old - new, new - old
        else:
            vanished, appeared = old, new
        for value in vanished:
            delete((user, key, str(value)))
        for value in appeared:
            insert((user, key, str(value)))
    return deletes, inserts


@dataclass(frozen=True)
class DeltaLog:
    """What one delta did to the resolved state.

    ``changes`` lists every user whose possible-value set (for
    :class:`~repro.incremental.skeptic.SkepticDeltaResolver`, whose
    representation) actually changed; users recomputed to their old value
    do not appear.  The two counters expose the incremental engine's cost
    model: ``dirty_region`` counts the users the recomputation visited and
    ``recomputed`` how many of them were re-resolved.  Both delta resolvers
    walk only the components whose inputs changed, so ``dirty_region ==
    recomputed``; descendants that keep their values are never visited.
    The descendant count of a delta is
    :meth:`TrustNetwork.descendants <repro.core.network.TrustNetwork.descendants>`.
    """

    delta: Delta
    changes: Tuple[RowChange, ...]
    touched: Tuple[User, ...]
    dirty_region: int = 0
    recomputed: int = 0

    @property
    def is_empty(self) -> bool:
        """True when the delta left every possible-value set unchanged."""
        return not self.changes

    def changed_users(self) -> Tuple[User, ...]:
        """The users whose possible values changed, in change order."""
        return tuple(change.user for change in self.changes)

    def iter_changes(self) -> Iterator[RowChange]:
        return iter(self.changes)
