"""Delta resolution for Algorithm 2: maintain ``repPoss`` under updates.

:class:`SkepticDeltaResolver` is the Skeptic-paradigm sibling of
:class:`~repro.incremental.resolver.DeltaResolver`: it keeps the
representations computed by :func:`repro.core.skeptic.resolve_skeptic`
consistent while the network changes, recomputing only the dirty region.

It walks the dirty region — descendants of the touched users, SCC
condensation of the region, topological walk with value-equality pruning.
(The Algorithm-1 resolver instead walks the network's maintained
condensation from the touched users; this one keeps the region because its
``prefNeg`` phase is scoped to it.)  Two Skeptic-specific twists:

* ``prefNeg`` (the negatives forced along preferred chains, phase P of
  Algorithm 2) is itself recomputed over the region first, seeded from the
  cached ``prefNeg`` of out-of-region preferred parents; a component whose
  members' ``prefNeg`` changed is dirty even when no representation
  upstream moved.
* The per-component recomputation replays Algorithm 2's main loop with the
  component's external parents closed at their current representations,
  reusing the flooding primitive of :mod:`repro.core.skeptic` verbatim so
  the local and batch semantics cannot drift apart.

Unlike Algorithm 1, Algorithm 2 never drops edges: parents with empty
representations stay closed contributors of nothing, exactly as in the
batch algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.beliefs import Value
from repro.core.errors import NetworkError
from repro.core.gcpause import paused_gc
from repro.core.network import TrustNetwork, User, _coerce_explicit_belief
from repro.core.sccs import CondensationEngine, strongly_connected_components
from repro.core.skeptic import (
    SkepticRepresentation,
    SkepticResult,
    _flood_skeptic_component,
    propagate_forced_negatives,
    resolve_skeptic,
)
from repro.incremental.deltas import (
    AddTrust,
    Delta,
    RemoveBelief,
    RemoveTrust,
    RemoveUser,
    SetBelief,
    SetPriority,
)
from repro.incremental.region import dirty_region

_EMPTY_REP = SkepticRepresentation()
_EMPTY: FrozenSet[Value] = frozenset()


@dataclass(frozen=True)
class SkepticRowChange:
    """One user's representation change under a Skeptic delta."""

    user: User
    old: SkepticRepresentation
    new: SkepticRepresentation


@dataclass(frozen=True)
class SkepticDeltaLog:
    """What one delta did to the Skeptic representations."""

    delta: Delta
    changes: Tuple[SkepticRowChange, ...]
    touched: Tuple[User, ...]
    dirty_region: int = 0
    recomputed: int = 0
    pruned: int = 0

    @property
    def is_empty(self) -> bool:
        return not self.changes

    def changed_users(self) -> Tuple[User, ...]:
        return tuple(change.user for change in self.changes)


class SkepticDeltaResolver:
    """Maintain Algorithm 2's output for a network under a delta stream.

    The resolver owns the network's beliefs (Skeptic beliefs may carry
    negatives, so there is no per-object override mode): belief deltas are
    written back to the network, and ``resolve_skeptic(resolver.network)``
    always agrees with the maintained state — the invariant the property
    suite locks.
    """

    def __init__(self, network: TrustNetwork) -> None:
        self.network = network
        result = resolve_skeptic(network)  # validates binarity and ties
        self.representations: Dict[User, SkepticRepresentation] = dict(
            result.representations
        )
        self.pref_neg: Dict[User, FrozenSet[Value]] = dict(result.pref_neg)
        self._explicit_positive: Dict[User, Value] = {}
        self._explicit_negative: Dict[User, FrozenSet[Value]] = {}
        for user, belief in network.explicit_beliefs.items():
            if belief.has_positive:
                self._explicit_positive[user] = belief.positive
            elif belief.negatives:
                self._explicit_negative[user] = belief.negatives

    # ------------------------------------------------------------------ #
    # views                                                               #
    # ------------------------------------------------------------------ #

    def result(self) -> SkepticResult:
        """The maintained state as a :class:`SkepticResult` snapshot."""
        domain = frozenset(self._explicit_positive.values()) | frozenset(
            value
            for values in self._explicit_negative.values()
            for value in values
        )
        return SkepticResult(
            representations=dict(self.representations),
            pref_neg=dict(self.pref_neg),
            domain=domain,
        )

    # ------------------------------------------------------------------ #
    # validation                                                          #
    # ------------------------------------------------------------------ #

    def validate(self, delta: Delta) -> None:
        """Reject deltas breaking binarity or the no-ties restriction."""
        if isinstance(delta, SetBelief):
            if delta.user in self.network and self.network.incoming(delta.user):
                raise NetworkError(
                    f"cannot set a belief on {delta.user!r}: beliefs are "
                    "restricted to root nodes in a binary network"
                )
            belief = _coerce_explicit_belief(delta.value)
            if belief.cofinite_negatives and not belief.has_positive:
                raise NetworkError(
                    "explicit beliefs must be a positive value or a finite "
                    "set of negative values"
                )
        elif isinstance(delta, AddTrust):
            if delta.child == delta.parent:
                raise NetworkError(f"self-trust mapping is not allowed: {delta}")
            if self.network.has_explicit_belief(delta.child):
                raise NetworkError(
                    f"cannot add a parent to {delta.child!r}: it holds an "
                    "explicit belief (beliefs are restricted to roots)"
                )
            existing = self.network.incoming(delta.child)
            if len(existing) >= 2:
                raise NetworkError(
                    f"{delta.child!r} already has two parents; a third "
                    "would break binarity"
                )
            if any(edge.priority == delta.priority for edge in existing):
                raise NetworkError(
                    f"ties between parents of {delta.child!r} are not "
                    "allowed with constraints"
                )
        elif isinstance(delta, SetPriority):
            siblings = [
                edge
                for edge in self.network.incoming(delta.child)
                if edge.parent != delta.parent
            ]
            if any(edge.priority == delta.priority for edge in siblings):
                raise NetworkError(
                    f"ties between parents of {delta.child!r} are not "
                    "allowed with constraints"
                )

    # ------------------------------------------------------------------ #
    # the delta pipeline                                                  #
    # ------------------------------------------------------------------ #

    def apply(self, delta: Delta) -> SkepticDeltaLog:
        """Apply one delta; recompute only the dirty region."""
        with paused_gc():
            touched, removed = self._mutate(delta)
            return self._recompute(
                delta, touched, () if removed is None else (removed,)
            )

    def apply_batch(self, deltas) -> SkepticDeltaLog:
        """Apply several deltas with one merged-region recomputation.

        The Skeptic sibling of
        :meth:`~repro.incremental.resolver.DeltaResolver.apply_batch`: all
        mutations first, then a single ``prefNeg`` re-propagation and
        representation recompute over the union of the dirty regions.  The
        returned log's ``delta`` field holds the tuple of applied deltas.
        A mid-batch rejection recomputes the already-mutated prefix before
        propagating, keeping the maintained state consistent.
        """
        deltas = tuple(deltas)
        if not deltas:
            raise NetworkError("apply_batch() needs at least one delta")
        touched_all: Set[User] = set()
        removed: List[User] = []
        with paused_gc():
            try:
                for position, delta in enumerate(deltas):
                    touched, gone = self._mutate(delta)
                    touched_all |= set(touched)
                    if gone is not None:
                        removed.append(gone)
            except NetworkError:
                if touched_all or removed:
                    self._recompute(deltas[:position], touched_all, removed)
                raise
            return self._recompute(deltas, touched_all, removed)

    def _mutate(self, delta: Delta) -> Tuple[Set[User], Optional[User]]:
        network = self.network
        if isinstance(delta, SetBelief):
            self.validate(delta)
            network.add_user(delta.user)
            self.representations.setdefault(delta.user, _EMPTY_REP)
            self.pref_neg.setdefault(delta.user, _EMPTY)
            belief = _coerce_explicit_belief(delta.value)
            network.set_explicit_belief(delta.user, delta.value)
            self._explicit_positive.pop(delta.user, None)
            self._explicit_negative.pop(delta.user, None)
            if belief.has_positive:
                self._explicit_positive[delta.user] = belief.positive
            elif belief.negatives:
                self._explicit_negative[delta.user] = belief.negatives
            return {delta.user}, None
        if isinstance(delta, RemoveBelief):
            had = network.has_explicit_belief(delta.user)
            network.remove_explicit_belief(delta.user)
            self._explicit_positive.pop(delta.user, None)
            self._explicit_negative.pop(delta.user, None)
            return ({delta.user} if had else set()), None
        if isinstance(delta, AddTrust):
            self.validate(delta)
            network.add_trust(delta.child, delta.parent, delta.priority)
            self.representations.setdefault(delta.child, _EMPTY_REP)
            self.pref_neg.setdefault(delta.child, _EMPTY)
            self.representations.setdefault(delta.parent, _EMPTY_REP)
            self.pref_neg.setdefault(delta.parent, _EMPTY)
            return {delta.child}, None
        if isinstance(delta, RemoveTrust):
            network.remove_trust(delta.child, delta.parent)
            return {delta.child}, None
        if isinstance(delta, SetPriority):
            self.validate(delta)
            network.set_priority(delta.child, delta.parent, delta.priority)
            return {delta.child}, None
        if isinstance(delta, RemoveUser):
            children = set(network.children(delta.user))
            network.remove_user(delta.user)
            self._explicit_positive.pop(delta.user, None)
            self._explicit_negative.pop(delta.user, None)
            return children, delta.user
        raise NetworkError(f"unknown delta {delta!r}")

    # ------------------------------------------------------------------ #
    # dirty-region recomputation                                          #
    # ------------------------------------------------------------------ #

    def _recompute(
        self,
        delta: "Delta | Tuple[Delta, ...]",
        touched: Set[User],
        removed: "Tuple[User, ...] | List[User]",
    ) -> SkepticDeltaLog:
        changes: List[SkepticRowChange] = []
        for gone in removed:
            old = self.representations.pop(gone, None)
            self.pref_neg.pop(gone, None)
            if old is not None and old != _EMPTY_REP:
                changes.append(SkepticRowChange(gone, old, _EMPTY_REP))

        network = self.network
        touched_live = sorted((u for u in touched if u in network), key=str)

        region, region_set, successors = dirty_region(network, touched_live)

        # Phase P over the region: prefNeg flows along preferred edges only;
        # out-of-region preferred parents contribute their cached values.
        preferred = network.preferred_parent_map()
        positives = self._explicit_positive
        local_neg: Dict[User, Set[Value]] = {}
        pending: List[User] = []
        children_pref_region: Dict[User, List[User]] = {}
        for user in region:
            seed: Set[Value] = set(self._explicit_negative.get(user, ()))
            parent = preferred.get(user)
            if (
                parent is not None
                and parent not in region_set
                and user not in positives
            ):
                seed |= self.pref_neg.get(parent, _EMPTY)
            local_neg[user] = seed
            if seed:
                pending.append(user)
            if parent is not None and parent in region_set:
                children_pref_region.setdefault(parent, []).append(user)
        propagate_forced_negatives(
            local_neg,
            pending,
            lambda parent: children_pref_region.get(parent, ()),
            set(positives),
        )
        pref_neg_changed: Set[User] = set()
        for user in region:
            new_neg = frozenset(local_neg[user])
            if new_neg != self.pref_neg.get(user, _EMPTY):
                self.pref_neg[user] = new_neg
                pref_neg_changed.add(user)

        n = len(region)
        components = strongly_connected_components(range(n), successors.__getitem__)

        incoming = network.incoming_map()
        forced = set(touched_live)
        changed: Set[User] = set()
        recomputed = pruned = 0
        for component in reversed(components):
            members = [region[i] for i in component]
            dirty = any(
                member in forced or member in pref_neg_changed for member in members
            )
            if not dirty:
                member_set = set(members)
                for member in members:
                    for edge in incoming.get(member, ()):
                        if edge.parent not in member_set and edge.parent in changed:
                            dirty = True
                            break
                    if dirty:
                        break
            if not dirty:
                pruned += len(members)
                continue
            recomputed += len(members)
            new_reps = self._recompute_component(members)
            for member in members:
                old = self.representations.get(member, _EMPTY_REP)
                new = new_reps[member]
                if new != old:
                    self.representations[member] = new
                    changed.add(member)
                    changes.append(SkepticRowChange(member, old, new))

        return SkepticDeltaLog(
            delta=delta,
            changes=tuple(changes),
            touched=tuple(touched_live),
            dirty_region=n,
            recomputed=recomputed,
            pruned=pruned,
        )

    def _recompute_component(
        self, members: List[User]
    ) -> Dict[User, SkepticRepresentation]:
        """Localized Algorithm 2 on one SCC with a closed boundary."""
        network = self.network
        incoming = network.incoming_map()
        preferred = network.preferred_parent_map()

        member_index = {member: i for i, member in enumerate(members)}
        m = len(members)
        boundary: List[User] = []
        boundary_index: Dict[User, int] = {}

        def node_id(user: User) -> int:
            internal = member_index.get(user)
            if internal is not None:
                return internal
            known = boundary_index.get(user)
            if known is None:
                known = m + len(boundary)
                boundary_index[user] = known
                boundary.append(user)
            return known

        parents_of: List[List[Tuple[int, bool]]] = [[] for _ in range(m)]
        internal_successors: List[List[int]] = [[] for _ in range(m)]
        preferred_ids: List[int] = [-1] * m
        for i, member in enumerate(members):
            preferred_parent = preferred.get(member)
            for edge in incoming.get(member, ()):
                parent_id = node_id(edge.parent)
                is_preferred = edge.parent == preferred_parent
                parents_of[i].append((parent_id, is_preferred))
                if is_preferred:
                    preferred_ids[i] = parent_id
                if parent_id < m:
                    internal_successors[parent_id].append(i)

        total = m + len(boundary)
        # Pad the per-node arrays so boundary ids index them too; boundary
        # nodes are closed with their current (final) state.
        parents_of.extend([] for _ in range(len(boundary)))
        rep_pos: List[Set[Value]] = [set() for _ in range(total)]
        rep_neg: List[Set[Value]] = [set() for _ in range(total)]
        rep_bottom = bytearray(total)
        pref_neg: List[Set[Value]] = [set() for _ in range(total)]
        closed = bytearray(total)
        children_pref: List[List[int]] = [[] for _ in range(total)]
        for i, member in enumerate(members):
            pref_neg[i] = set(self.pref_neg.get(member, _EMPTY))
            if preferred_ids[i] >= 0:
                children_pref[preferred_ids[i]].append(i)
        for k, parent in enumerate(boundary):
            rep = self.representations.get(parent, _EMPTY_REP)
            rep_pos[m + k] = set(rep.positives)
            rep_neg[m + k] = set(rep.negatives)
            rep_bottom[m + k] = 1 if rep.has_bottom else 0
            pref_neg[m + k] = set(self.pref_neg.get(parent, _EMPTY))
            closed[m + k] = 1

        open_count = m
        worklist: List[int] = []
        for i, member in enumerate(members):
            value = self._explicit_positive.get(member)
            if value is not None:
                rep_pos[i].add(value)
                closed[i] = 1
                open_count -= 1
                worklist.extend(children_pref[i])
        for k in range(len(boundary)):
            worklist.extend(children_pref[m + k])

        engine = CondensationEngine(
            (i for i in range(m) if not closed[i]), internal_successors, m
        )
        while open_count:
            while worklist:
                node = worklist.pop()
                if node >= m or closed[node]:
                    continue
                parent = preferred_ids[node]
                if parent < 0 or not closed[parent]:
                    continue
                if not (rep_pos[parent] or rep_bottom[parent]):
                    continue  # parent is not Type 2: wait for Step 2
                rep_pos[node].update(rep_pos[parent])
                rep_neg[node].update(rep_neg[parent])
                rep_bottom[node] = rep_bottom[node] or rep_bottom[parent]
                closed[node] = 1
                open_count -= 1
                engine.close(node)
                worklist.extend(children_pref[node])
            if not open_count:
                break
            scc = set(engine.pop_minimal())
            _flood_skeptic_component(
                scc, closed, parents_of, pref_neg, rep_pos, rep_neg, rep_bottom
            )
            for node in scc:
                closed[node] = 1
                open_count -= 1
                engine.close(node)
                worklist.extend(children_pref[node])

        return {
            members[i]: SkepticRepresentation(
                positives=frozenset(rep_pos[i]),
                negatives=frozenset(rep_neg[i]),
                has_bottom=bool(rep_bottom[i]),
            )
            for i in range(m)
        }
