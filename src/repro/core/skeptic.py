"""The Skeptic Resolution Algorithm (Algorithm 2, Section 3.2).

Under the Skeptic paradigm a positive belief ``v+`` carries the maximal
constraint rejecting every other value, so propagating constraints stays
tractable: Algorithm 2 computes for every node ``x`` a *representation*
``repPoss(x)`` of its possible beliefs.

``repPoss(x)`` may contain positive values, negative values and the marker
⊥.  It is decoded into possible / certain beliefs by the five cases of
Figure 18 (see :class:`SkepticRepresentation`).  Following the paper, the
algorithm focuses on *positive* possible and certain beliefs; nodes that can
only ever hold negative beliefs are reported with an empty representation
(their forced constraints remain available through ``pref_neg``).

The algorithm extends Algorithm 1 with a pre-processing phase that computes
``prefNeg(x)``: the negative beliefs forced onto ``x`` through chains of
preferred edges from explicit constraints.  During SCC flooding a positive
value only reaches the part of the component not forced to reject it; the
unreachable part receives ⊥ instead, because in the Skeptic paradigm
rejecting the value of one's trusted source leaves no acceptable value at
all (``{v-} ⊎_S {v+} = ⊥``).

Complexity
----------
Like Algorithm 1, the skeleton of Algorithm 2 (Step-1 propagation plus
minimal-SCC discovery) runs in near-linear time here: minimal SCCs come from
the incremental condensation engine of :mod:`repro.core.sccs` (condense
once, maintain in-degree counters as nodes close) and both Step 1 and the
``prefNeg`` pre-pass are event-driven worklists seeded from newly closed
nodes instead of full rescans.  The paper's quadratic bound survives only in
the per-component flooding itself, where every (closed parent, positive
value) pair triggers a reachability sweep restricted to the component — the
cost the paper accepts for constraint handling (Section 3.2).  No
third-party graph library is used on this hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.beliefs import Belief, Value
from repro.core.errors import NetworkError
from repro.core.gcpause import paused_gc
from repro.core.network import TrustNetwork, User
from repro.core.sccs import CondensationEngine


class Bottom:
    """Singleton marker for ⊥ inside ``repPoss`` sets."""

    _instance: Optional["Bottom"] = None

    def __new__(cls) -> "Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return "⊥"


BOTTOM_MARKER = Bottom()


@dataclass(frozen=True)
class SkepticRepresentation:
    """The decoded content of ``repPoss(x)`` (Figure 18).

    Attributes
    ----------
    positives:
        Positive values present in ``repPoss(x)``.
    negatives:
        Bare negative values present in ``repPoss(x)``.
    has_bottom:
        Whether ⊥ is present.
    """

    positives: FrozenSet[Value] = frozenset()
    negatives: FrozenSet[Value] = frozenset()
    has_bottom: bool = False

    @property
    def is_type2(self) -> bool:
        """Type 2 representations contain a positive value or ⊥ (Section 3.2)."""
        return bool(self.positives) or self.has_bottom

    @property
    def is_empty(self) -> bool:
        return not self.positives and not self.negatives and not self.has_bottom

    def possible_positive_values(self) -> FrozenSet[Value]:
        """Positive values possible at the node."""
        return self.positives

    def certain_positive_values(self) -> FrozenSet[Value]:
        """Positive values held in *every* stable solution.

        By Figure 18 this is non-empty only in case 3: a single positive value
        and no evidence that the value can also be rejected.
        """
        if len(self.positives) == 1 and not self.has_bottom:
            (value,) = self.positives
            if value not in self.negatives:
                return frozenset({value})
        return frozenset()

    def possible_beliefs(self, domain: Iterable[Value]) -> FrozenSet[Belief]:
        """All possible beliefs over a finite domain (Figure 18, poss column)."""
        domain_set = frozenset(domain) | self.positives | self.negatives
        result: Set[Belief] = set()
        for value in self.negatives:
            result.add(Belief.negative(value))
        if self.has_bottom:
            result.update(Belief.negative(value) for value in domain_set)
        for value in self.positives:
            result.add(Belief.positive(value))
            result.update(
                Belief.negative(other) for other in domain_set if other != value
            )
        return frozenset(result)

    def certain_beliefs(self, domain: Iterable[Value]) -> FrozenSet[Belief]:
        """All certain beliefs over a finite domain (Figure 18, cert column)."""
        domain_set = frozenset(domain) | self.positives | self.negatives
        if self.is_empty:
            return frozenset()
        if not self.positives:
            # Cases 1 and 2.
            if self.has_bottom:
                return frozenset(Belief.negative(value) for value in domain_set)
            return frozenset(Belief.negative(value) for value in self.negatives)
        if len(self.positives) == 1:
            (value,) = self.positives
            rejected = self.has_bottom or value in self.negatives
            if not rejected:
                # Case 3: the positive value is certain, so is every other negative.
                result = {Belief.positive(value)}
                result.update(
                    Belief.negative(other) for other in domain_set if other != value
                )
                return frozenset(result)
            # Case 4: all negatives except v- are certain.
            return frozenset(
                Belief.negative(other) for other in domain_set if other != value
            )
        # Case 5: all negatives except those of the possible positives.
        return frozenset(
            Belief.negative(other)
            for other in domain_set
            if other not in self.positives
        )


@dataclass
class SkepticResult:
    """Output of Algorithm 2 for an entire network."""

    representations: Dict[User, SkepticRepresentation]
    pref_neg: Dict[User, FrozenSet[Value]]
    domain: FrozenSet[Value]

    def representation(self, user: User) -> SkepticRepresentation:
        return self.representations.get(user, SkepticRepresentation())

    def possible_positive_values(self, user: User) -> FrozenSet[Value]:
        """Positive values possible at ``user`` in some stable solution."""
        return self.representation(user).possible_positive_values()

    def certain_positive_values(self, user: User) -> FrozenSet[Value]:
        """Positive values held by ``user`` in every stable solution."""
        return self.representation(user).certain_positive_values()

    def certain_positive_value(self, user: User) -> Optional[Value]:
        values = self.certain_positive_values(user)
        for value in values:
            return value
        return None

    def possible_beliefs(self, user: User) -> FrozenSet[Belief]:
        """Possible beliefs of ``user`` over the network's value alphabet."""
        return self.representation(user).possible_beliefs(self.domain)

    def certain_beliefs(self, user: User) -> FrozenSet[Belief]:
        """Certain beliefs of ``user`` over the network's value alphabet."""
        return self.representation(user).certain_beliefs(self.domain)

    def forced_negative_values(self, user: User) -> FrozenSet[Value]:
        """``prefNeg(user)`` — negatives forced through preferred edges."""
        return self.pref_neg.get(user, frozenset())


def resolve_skeptic(network: TrustNetwork) -> SkepticResult:
    """Run Algorithm 2 on a binary trust network with constraints.

    Explicit beliefs must be either a positive value, a (finite) set of
    negative values, or absent, and every node may have at most two parents
    with distinct priorities (ties are not supported with constraints,
    Definition 3.3).
    """
    if not network.is_binary():
        raise NetworkError(
            "Algorithm 2 requires a binary trust network; call binarize() first"
        )
    _reject_ties(network)
    # Pause the cyclic collector for the batch run (see repro.core.gcpause):
    # the algorithm allocates no reference cycles and large networks
    # otherwise pay repeated full-heap generation-2 scans.
    with paused_gc():
        return _resolve_skeptic_impl(network)


def _resolve_skeptic_impl(network: TrustNetwork) -> SkepticResult:
    explicit_positive: Dict[User, Value] = {}
    explicit_negative: Dict[User, FrozenSet[Value]] = {}
    for user, belief in network.explicit_beliefs.items():
        if belief.has_positive:
            explicit_positive[user] = belief.positive
        elif belief.cofinite_negatives:
            raise NetworkError(
                "explicit beliefs must be finite sets of negative values"
            )
        elif belief.negatives:
            explicit_negative[user] = belief.negatives

    domain = frozenset(explicit_positive.values()) | frozenset(
        value for values in explicit_negative.values() for value in values
    )

    # Index every user with a dense integer id so the engine and the main
    # loop run on arrays (Algorithm 2 is defined over all users, including
    # ones unreachable from any belief — those flood to empty sets).
    order: List[User] = list(network.users)
    index: Dict[User, int] = {user: i for i, user in enumerate(order)}
    n = len(order)

    preferred_users = network.preferred_parent_map()
    preferred: List[int] = [-1] * n
    # Children reached through preferred edges, used to seed both the
    # prefNeg pre-pass and the Step-1 worklist from newly closed nodes
    # instead of rescanning every open node.
    children_pref: List[List[int]] = [[] for _ in range(n)]
    for i, user in enumerate(order):
        parent = preferred_users.get(user)
        if parent is not None:
            parent_id = index[parent]
            preferred[i] = parent_id
            children_pref[parent_id].append(i)

    positive_ids = {index[user] for user in explicit_positive}

    # Phase P: propagate forced negative beliefs along preferred edges,
    # worklist-driven from the explicitly constrained nodes.
    pref_neg: List[Set[Value]] = [set() for _ in range(n)]
    pending: List[int] = []
    for user, negatives in explicit_negative.items():
        i = index[user]
        pref_neg[i].update(negatives)
        pending.append(i)
    propagate_forced_negatives(
        pref_neg, pending, children_pref.__getitem__, positive_ids
    )

    # Phase I: close nodes with explicit positive beliefs.
    rep_pos: List[Set[Value]] = [set() for _ in range(n)]
    rep_neg: List[Set[Value]] = [set() for _ in range(n)]
    rep_bottom = bytearray(n)
    closed = bytearray(n)
    for user, value in explicit_positive.items():
        i = index[user]
        rep_pos[i].add(value)
        closed[i] = 1

    incoming = network.incoming_map()
    parents_of: List[List[Tuple[int, bool]]] = [[] for _ in range(n)]
    successors: List[List[int]] = [[] for _ in range(n)]
    for i, user in enumerate(order):
        entries = parents_of[i]
        for edge in incoming.get(user, ()):
            parent_id = index[edge.parent]
            entries.append((parent_id, parent_id == preferred[i]))
            successors[parent_id].append(i)

    close_skeptic(
        n,
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

    representations = {
        user: SkepticRepresentation(
            positives=frozenset(rep_pos[i]),
            negatives=frozenset(rep_neg[i]),
            has_bottom=bool(rep_bottom[i]),
        )
        for i, user in enumerate(order)
    }
    return SkepticResult(
        representations=representations,
        pref_neg={user: frozenset(pref_neg[index[user]]) for user in order},
        domain=domain,
    )


# ---------------------------------------------------------------------- #
# internals                                                               #
# ---------------------------------------------------------------------- #


def propagate_forced_negatives(pref_neg, pending, children_of, skip) -> None:
    """Phase P of Algorithm 2: push ``prefNeg`` along preferred edges.

    Worklist-driven fixpoint shared by :func:`resolve_skeptic` (int-indexed
    structures) and the bulk planner (user-keyed structures): ``pref_neg``
    is any indexable node → mutable-set mapping, ``pending`` seeds the
    worklist with the explicitly constrained nodes, ``children_of`` maps a
    node to its preferred children, and nodes in ``skip`` (those holding
    explicit positive beliefs) never accumulate forced negatives.
    """
    while pending:
        parent = pending.pop()
        parent_neg = pref_neg[parent]
        for child in children_of(parent):
            if child in skip:
                continue
            missing = parent_neg - pref_neg[child]
            if missing:
                pref_neg[child].update(missing)
                pending.append(child)


def close_skeptic(
    size: int,
    closed: bytearray,
    preferred: List[int],
    children_pref: List[List[int]],
    parents_of: List[List[Tuple[int, bool]]],
    successors: List[List[int]],
    pref_neg: List[Set[Value]],
    rep_pos: List[Set[Value]],
    rep_neg: List[Set[Value]],
    rep_bottom: bytearray,
) -> None:
    """Algorithm 2's main loop: close every open node ``0..size-1``.

    Shared by :func:`resolve_skeptic` (every user) and the delta resolver
    (one component's members, whose external parents sit past ``size``,
    closed with their final representations).  Nodes already ``closed``
    are final inputs; Step 1 and Step 2 drain one worklist/engine pair:
    Step 1 copies a Type-2 preferred parent, Step 2 floods a minimal SCC of
    the open subgraph (``successors`` holds its edges among ``0..size-1``).
    """
    engine = CondensationEngine(
        (i for i in range(size) if not closed[i]), successors, size
    )
    open_count = size - closed.count(1, 0, size)
    # Step-1 worklist seeded from the closed (final) nodes.
    worklist: List[int] = [
        child
        for node, is_closed in enumerate(closed)
        if is_closed
        for child in children_pref[node]
    ]
    while open_count:
        while worklist:
            node = worklist.pop()
            if closed[node]:
                continue
            parent = preferred[node]
            if parent < 0 or not closed[parent]:
                continue
            # Per Appendix B.7 a node is only closed along its preferred edge
            # when the parent's representation is of Type 2 (positive or ⊥);
            # otherwise positive values may still arrive through the
            # non-preferred edge and the node must wait for Step 2.
            if not (rep_pos[parent] or rep_bottom[parent]):
                continue
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


def _flood_skeptic_component(
    scc: Set[int],
    closed: bytearray,
    parents_of: List[List[Tuple[int, bool]]],
    pref_neg: List[Set[Value]],
    rep_pos: List[Set[Value]],
    rep_neg: List[Set[Value]],
    rep_bottom: bytearray,
) -> None:
    """Step 2: flood one minimal SCC of the open subgraph.

    A positive value ``v+`` entering the component from a closed parent only
    reaches the nodes not forced to reject ``v`` (those without ``v-`` in
    ``prefNeg``); the other nodes of the component receive ⊥.  Bare negative
    values of closed parents are copied to every node of the component.

    Every SCC that is minimal draws its inputs exclusively from
    already-closed nodes whose representations are final, so the flood result
    does not depend on the order minimal SCCs are processed.
    """
    inputs: List[Tuple[int, int]] = []  # (closed parent, entry node in scc)
    for node in scc:
        for parent, _preferred in parents_of[node]:
            if closed[parent]:
                inputs.append((parent, node))

    internal_edges = [
        (parent, node)
        for node in scc
        for parent, _pref in parents_of[node]
        if parent in scc
    ]

    for parent, entry in inputs:
        for value in rep_pos[parent]:
            blocked = {node for node in scc if value in pref_neg[node]}
            allowed = scc - blocked
            reachable = _reachable_within(entry, allowed, internal_edges)
            for node in scc:
                if node in reachable:
                    rep_pos[node].add(value)
                else:
                    rep_bottom[node] = 1
        for value in rep_neg[parent]:
            for node in scc:
                rep_neg[node].add(value)


def _reachable_within(
    entry: int, allowed: Set[int], internal_edges: List[Tuple[int, int]]
) -> Set[int]:
    """Nodes of ``allowed`` reachable from ``entry`` using edges inside ``allowed``.

    ``entry`` is the node of the component adjacent to the closed parent; the
    value can reach it only if it is itself allowed.
    """
    if entry not in allowed:
        return set()
    adjacency: Dict[User, List[User]] = {}
    for parent, child in internal_edges:
        if parent in allowed and child in allowed:
            adjacency.setdefault(parent, []).append(child)
    reachable = {entry}
    stack = [entry]
    while stack:
        node = stack.pop()
        for child in adjacency.get(node, ()):
            if child not in reachable:
                reachable.add(child)
                stack.append(child)
    return reachable


def _reject_ties(network: TrustNetwork) -> None:
    incoming = network.incoming_map()
    for user in network.users:
        priorities = [edge.priority for edge in incoming.get(user, ())]
        if len(priorities) != len(set(priorities)):
            raise NetworkError(
                f"ties between parents of {user!r} are not allowed with constraints"
            )
