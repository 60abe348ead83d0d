"""Delta resolution for Algorithm 2: maintain ``repPoss`` under updates.

:class:`SkepticDeltaResolver` is the Skeptic paradigm of the change-driven
walk in :mod:`repro.incremental.resolver`: it keeps the representations
computed by :func:`repro.core.skeptic.resolve_skeptic` consistent while the
network changes.  Validation, mutation, ``apply`` / ``apply_batch`` and the
rank-ordered walk over the network's maintained condensation are
:class:`~repro.incremental.resolver.DeltaWalk`'s; this module supplies only
what the paradigm adds:

* its state: ``representations`` and ``pref_neg`` (its positive beliefs
  are :attr:`beliefs`, the network's positive assignment; the negative
  ones are read off the network, which this resolver owns);
* the no-ties and finite-negatives checks of Definition 3.3;
* the per-component evaluation.  A popped component first recomputes
  ``prefNeg`` (phase P of Algorithm 2) locally: each member starts from its
  explicit negatives plus, unless it holds a positive belief, the cached
  ``prefNeg`` of an external preferred parent, and
  :func:`~repro.core.skeptic.propagate_forced_negatives` pushes them along
  the internal preferred edges.  Then :func:`~repro.core.skeptic.close_skeptic`,
  Algorithm 2's one closing loop, runs over the members with the external
  parents closed at their current representations.  A member whose
  representation **or** ``prefNeg`` changed pushes its children's
  components.

Algorithm 2's ⊥ depends on how members fall into SCCs (a value that
cannot reach part of its component floods ⊥ there), so a delta that splits
a component — a :class:`~repro.incremental.deltas.RemoveTrust` whose ends
share one, or a :class:`~repro.incremental.deltas.RemoveUser` inside one —
seeds every member of the old component.  Unlike Algorithm 1, Algorithm 2
never drops edges: parents with empty representations stay closed
contributors of nothing, exactly as in the batch algorithm.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.beliefs import Value
from repro.core.errors import NetworkError
from repro.core.network import TrustNetwork, User, _coerce_explicit_belief
from repro.core.skeptic import (
    SkepticRepresentation,
    SkepticResult,
    close_skeptic,
    propagate_forced_negatives,
    resolve_skeptic,
)
from repro.incremental.deltas import (
    AddTrust,
    Delta,
    DeltaLog,
    RemoveTrust,
    RemoveUser,
    RowChange,
    SetBelief,
    SetPriority,
)
from repro.incremental.resolver import DeltaWalk, _positive_beliefs

_EMPTY_REP = SkepticRepresentation()
_EMPTY: FrozenSet[Value] = frozenset()

#: A Skeptic delta's row change and log are Algorithm 1's types; their
#: values are :class:`~repro.core.skeptic.SkepticRepresentation` objects.
SkepticRowChange = RowChange
SkepticDeltaLog = DeltaLog


class SkepticDeltaResolver(DeltaWalk):
    """Maintain Algorithm 2's output for a network under a delta stream.

    The resolver owns the network's beliefs (Skeptic beliefs may carry
    negatives, so there is no per-object override mode): belief deltas are
    written back to the network, and ``resolve_skeptic(resolver.network)``
    always agrees with the maintained state — the invariant the property
    suite locks.
    """

    _empty = _EMPTY_REP

    def __init__(self, network: TrustNetwork) -> None:
        self.network = network
        self._owns_beliefs = True
        result = resolve_skeptic(network)  # validates binarity, ties, beliefs
        self.beliefs = _positive_beliefs(network)
        self.representations: Dict[User, SkepticRepresentation] = dict(
            result.representations
        )
        self.pref_neg: Dict[User, FrozenSet[Value]] = dict(result.pref_neg)
        network.condensation()

    def result(self) -> SkepticResult:
        """The maintained state as a :class:`SkepticResult` snapshot."""
        negatives = frozenset(
            value
            for belief in self.network.explicit_beliefs.values()
            if not belief.has_positive
            for value in belief.negatives
        )
        return SkepticResult(
            representations=dict(self.representations),
            pref_neg=dict(self.pref_neg),
            domain=frozenset(self.beliefs.values()) | negatives,
        )

    def validate(self, delta: Delta) -> None:
        """The binary checks, plus no ties and finite negative beliefs."""
        super().validate(delta)
        if isinstance(delta, SetBelief):
            belief = _coerce_explicit_belief(delta.value)
            if belief.cofinite_negatives and not belief.has_positive:
                raise NetworkError(
                    "explicit beliefs must be a positive value or a finite "
                    "set of negative values"
                )
        elif isinstance(delta, (AddTrust, SetPriority)):
            rivals = [
                edge
                for edge in self.network.incoming(delta.child)
                if isinstance(delta, AddTrust) or edge.parent != delta.parent
            ]
            if any(edge.priority == delta.priority for edge in rivals):
                raise NetworkError(
                    f"ties between parents of {delta.child!r} are not "
                    "allowed with constraints"
                )

    def ensure_user(self, user: User) -> None:
        super().ensure_user(user)
        if user in self.representations:
            self.pref_neg.setdefault(user, _EMPTY)

    def _state(self) -> Dict[User, SkepticRepresentation]:
        return self.representations

    def _mutate(
        self,
        delta: Delta,
        mutate_network: bool,
        touched: Optional[Tuple[User, ...]],
    ) -> Tuple[Set[User], Optional[User]]:
        # A split regroups the old component's members, and ⊥ depends on
        # the grouping: seed every piece, not only the delta's own ends.
        split: Tuple[User, ...] = ()
        if isinstance(delta, (RemoveTrust, RemoveUser)):
            condensation = self.network.condensation()
            ends = (
                (delta.child, delta.parent)
                if isinstance(delta, RemoveTrust)
                else (delta.user,)
            )
            cids = {condensation.component.get(user) for user in ends}
            if len(cids) == 1 and None not in cids:
                split = condensation.members[cids.pop()]
        touched_users, gone = super()._mutate(delta, mutate_network, touched)
        touched_users.update(split)
        if gone is not None:
            self.pref_neg.pop(gone, None)
        return touched_users, gone

    def _evaluate(
        self, members: Tuple[User, ...], programs: Dict[int, object], cid: int
    ) -> Tuple[List[SkepticRepresentation], Set[User]]:
        """``prefNeg``, then localized Algorithm 2, on one component."""
        network = self.network
        incoming = network.incoming_map()
        preferred_of = network.preferred_parent_map()
        beliefs = self.beliefs

        # Members are nodes 0..m-1; their external parents follow.
        m = len(members)
        node_of = {member: i for i, member in enumerate(members)}
        boundary: List[User] = []
        parents_of: List[List[Tuple[int, bool]]] = [[] for _ in range(m)]
        successors: List[List[int]] = [[] for _ in range(m)]
        preferred: List[int] = [-1] * m
        children_pref: List[List[int]] = [[] for _ in range(m)]
        for i, member in enumerate(members):
            preferred_parent = preferred_of.get(member)
            for edge in incoming.get(member, ()):
                node = node_of.get(edge.parent)
                if node is None:
                    node = node_of[edge.parent] = m + len(boundary)
                    boundary.append(edge.parent)
                    children_pref.append([])
                is_preferred = edge.parent == preferred_parent
                parents_of[i].append((node, is_preferred))
                if is_preferred:
                    preferred[i] = node
                    children_pref[node].append(i)
                if node < m:
                    successors[node].append(i)

        # Phase P scoped to the component: external preferred parents
        # contribute their cached prefNeg.
        positive = {i for i, member in enumerate(members) if member in beliefs}
        pref_neg: List[Set[Value]] = [set() for _ in range(m)]
        pending: List[int] = []
        for i, member in enumerate(members):
            belief = network.explicit_belief(member)
            if belief is not None and not belief.has_positive:
                pref_neg[i].update(belief.negatives)
            if preferred[i] >= m and i not in positive:
                pref_neg[i].update(self.pref_neg.get(boundary[preferred[i] - m], _EMPTY))
            if pref_neg[i]:
                pending.append(i)
        propagate_forced_negatives(pref_neg, pending, children_pref.__getitem__, positive)
        moved: Set[User] = set()
        for member, negatives in zip(members, pref_neg):
            negatives = frozenset(negatives)
            if negatives != self.pref_neg.get(member, _EMPTY):
                self.pref_neg[member] = negatives
                moved.add(member)

        total = m + len(boundary)
        rep_pos: List[Set[Value]] = [set() for _ in range(total)]
        rep_neg: List[Set[Value]] = [set() for _ in range(total)]
        rep_bottom = bytearray(total)
        closed = bytearray(total)
        for i in positive:
            rep_pos[i].add(beliefs[members[i]])
            closed[i] = 1
        for node, parent in enumerate(boundary, m):
            rep = self.representations.get(parent, _EMPTY_REP)
            rep_pos[node] = set(rep.positives)
            rep_neg[node] = set(rep.negatives)
            rep_bottom[node] = rep.has_bottom
            closed[node] = 1
        close_skeptic(
            m,
            closed,
            preferred,
            children_pref,
            parents_of,
            successors,
            pref_neg,
            rep_pos,
            rep_neg,
            rep_bottom,
        )
        return [
            SkepticRepresentation(
                positives=frozenset(rep_pos[i]),
                negatives=frozenset(rep_neg[i]),
                has_bottom=bool(rep_bottom[i]),
            )
            for i in range(m)
        ], moved
