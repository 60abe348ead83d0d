"""Priority trust networks (Definitions 2.1–2.3 and Section 2.2).

A *priority trust mapping* ``(parent, priority, child)`` states that user
``child`` is willing to accept the value believed by user ``parent``, and
that among the child's trusted parents, the one with the largest priority
wins (ties are broken arbitrarily, i.e. both values become possible).

A :class:`TrustNetwork` bundles the set of users, the set of mappings and the
explicit beliefs ``b0``.  Explicit beliefs may be plain positive values
(Section 2) or :class:`~repro.core.beliefs.BeliefSet` objects containing
negative beliefs (Section 3).

A :class:`BinaryTrustNetwork` (Section 2.2) restricts every node to at most
two incoming edges and requires explicit beliefs to appear only on root nodes
(nodes without parents).  Every trust network can be converted into an
equivalent binary one (Proposition 2.8, implemented in
:mod:`repro.core.binarize`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.core.beliefs import Belief, BeliefSet, Value
from repro.core.condensation import Condensation
from repro.core.errors import NetworkError, NotBinaryError
from repro.core.gcpause import paused_gc

if TYPE_CHECKING:
    import networkx as nx  # imported where used: large, and resolution never needs it

User = Hashable
"""Type alias for user identifiers.  Any hashable object may identify a user."""


@dataclass(frozen=True, order=True, slots=True)
class TrustMapping:
    """A priority trust mapping ``m = (parent, priority, child)`` (Def. 2.2).

    The child trusts the parent's value with the given integer priority.
    Priorities are only comparable among mappings *entering the same child*.
    ``slots=True`` keeps large networks off the cyclic garbage collector's
    radar (hundreds of thousands of instance dicts otherwise dominate every
    generation-2 scan during resolution).
    """

    parent: User
    priority: int
    child: User

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.parent} --{self.priority}--> {self.child}"


def _coerce_explicit_belief(raw: object) -> BeliefSet:
    """Accept a plain value, a Belief, an iterable of Beliefs, or a BeliefSet."""
    if isinstance(raw, BeliefSet):
        return raw
    if isinstance(raw, Belief):
        return BeliefSet.from_beliefs([raw])
    if isinstance(raw, (list, tuple, set, frozenset)):
        return BeliefSet.from_beliefs(raw)
    return BeliefSet.from_positive(raw)


class TrustNetwork:
    """A priority trust network ``TN = (U, E, b0)`` (Definition 2.3).

    Parameters
    ----------
    users:
        The set of users.  Users mentioned in mappings or beliefs are added
        automatically, so this may be omitted.
    mappings:
        Iterable of :class:`TrustMapping` or ``(parent, priority, child)``
        triples.
    explicit_beliefs:
        Mapping from user to an explicit belief.  A plain value ``v`` is
        interpreted as the positive belief ``v+``; a :class:`BeliefSet` (or an
        iterable of :class:`Belief`) may contain negative beliefs for the
        constraint model of Section 3.
    """

    def __init__(
        self,
        users: Iterable[User] = (),
        mappings: Iterable[TrustMapping | Tuple[User, int, User]] = (),
        explicit_beliefs: Optional[Mapping[User, object]] = None,
    ) -> None:
        self._users: Set[User] = set(users)
        # The mappings in insertion order (None marks a removed one), and
        # the slot of each mapping's first live copy, built at the first
        # removal or priority change: from then on both are O(1).  The
        # removed slots are compacted away once they outnumber the live ones.
        self._mappings: List[Optional[TrustMapping]] = []
        self._slot: Optional[Dict[TrustMapping, int]] = None
        self._removed = 0
        self._incoming: Dict[User, List[TrustMapping]] = {}
        self._outgoing: Dict[User, List[TrustMapping]] = {}
        self._beliefs: Dict[User, BeliefSet] = {}
        # Lazily-built indexed adjacency (and preferred-parent) caches; they
        # are invalidated whenever a mapping mutates the graph so that the
        # resolution hot paths can use them without defensive re-copies.
        self._adjacency_cache: Optional[
            Tuple[Dict[User, Tuple[TrustMapping, ...]], Dict[User, Tuple[TrustMapping, ...]]]
        ] = None
        self._preferred_cache: Optional[Dict[User, Optional[User]]] = None
        self._binary_cache: Optional[bool] = None
        # Monotonic mutation counters (the cache hooks consumed by
        # repro.engine): structure_version ticks on every user/mapping
        # mutation, belief_version on every explicit-belief change, so a
        # caller holding a derived artifact (a ResolutionPlan, a DAG) can
        # cheaply detect that the network moved underneath it.
        self._structure_version = 0
        self._belief_version = 0
        # The SCC condensation, built on first request and from then on
        # patched by every structural mutator (repro.core.condensation).
        self._condensation: Optional[Condensation] = None

        for mapping in mappings:
            if not isinstance(mapping, TrustMapping):
                mapping = TrustMapping(*mapping)
            self.add_mapping(mapping)
        for user, belief in (explicit_beliefs or {}).items():
            self.set_explicit_belief(user, belief)

    # ------------------------------------------------------------------ #
    # construction                                                        #
    # ------------------------------------------------------------------ #

    def add_user(self, user: User) -> None:
        """Add a user (idempotent)."""
        if user not in self._users:
            self._users.add(user)
            self._structure_version += 1
            # An isolated user has no edges and no belief: the adjacency and
            # binary caches stay valid, only the preferred map gains a slot.
            if self._preferred_cache is not None:
                self._preferred_cache[user] = None
            if self._condensation is not None:
                self._condensation.add_user(user)

    def add_mapping(
        self, mapping: TrustMapping | Tuple[User, int, User]
    ) -> TrustMapping:
        """Add a priority trust mapping, creating its endpoints if needed."""
        if not isinstance(mapping, TrustMapping):
            mapping = TrustMapping(*mapping)
        if mapping.parent == mapping.child:
            raise NetworkError(f"self-trust mapping is not allowed: {mapping}")
        self.add_user(mapping.parent)
        self.add_user(mapping.child)
        if self._slot is not None:
            self._slot.setdefault(mapping, len(self._mappings))
        self._mappings.append(mapping)
        self._incoming.setdefault(mapping.child, []).append(mapping)
        self._outgoing.setdefault(mapping.parent, []).append(mapping)
        self._structure_version += 1
        self._patch_structure_caches(mapping.parent, mapping.child)
        if self._condensation is not None:
            self._condensation.add_edge(mapping.parent, mapping.child)
        return mapping

    def _invalidate_structure_caches(self) -> None:
        self._adjacency_cache = None
        self._preferred_cache = None
        self._binary_cache = None

    def _patch_structure_caches(self, parent: User, child: User) -> None:
        """Surgically repair the structure caches after one edge mutation.

        A single mapping change only affects the child's incoming list, the
        parent's outgoing list and the child's preferred parent, so warm
        caches are patched in place instead of being rebuilt from scratch —
        the incremental engine applies structural deltas in time
        proportional to the affected region, and a full ``O(|U| + |E|)``
        cache rebuild per delta would defeat that.  The binary verdict can
        flip either way and is recomputed lazily.
        """
        cache = self._adjacency_cache
        if cache is not None:
            incoming_cache, outgoing_cache = cache
            edges_in = self._incoming.get(child)
            if edges_in:
                incoming_cache[child] = tuple(edges_in)
            else:
                incoming_cache.pop(child, None)
            edges_out = self._outgoing.get(parent)
            if edges_out:
                outgoing_cache[parent] = tuple(edges_out)
            else:
                outgoing_cache.pop(parent, None)
        if self._preferred_cache is not None:
            self._preferred_cache[child] = self._preferred_parent_of(child)
        self._binary_cache = None
        # The child's in-edges moved: its component's Algorithm 1 program
        # (recorded by the delta resolver) no longer describes it.
        if self._condensation is not None:
            self._condensation.drop_program(child)

    def add_trust(self, child: User, parent: User, priority: int) -> TrustMapping:
        """Convenience wrapper: ``child`` trusts ``parent`` with ``priority``."""
        return self.add_mapping(TrustMapping(parent, priority, child))

    # ------------------------------------------------------------------ #
    # mutation (the network is not append-only)                           #
    # ------------------------------------------------------------------ #

    def remove_mapping(self, mapping: TrustMapping | Tuple[User, int, User]) -> TrustMapping:
        """Remove one exact mapping; raises :class:`NetworkError` if absent.

        Endpoints stay in the network even when they lose their last edge
        (use :meth:`remove_user` to drop a user entirely).
        """
        mapping = self._unlink(mapping)
        if self._condensation is not None:
            self._condensation.remove_edge(mapping.parent, mapping.child)
        return mapping

    def _unlink(self, mapping: TrustMapping | Tuple[User, int, User]) -> TrustMapping:
        """:meth:`remove_mapping` without the condensation patch."""
        if not isinstance(mapping, TrustMapping):
            mapping = TrustMapping(*mapping)
        index = self._slot_index()
        slot = index.pop(mapping, None)
        if slot is None:
            raise NetworkError(f"no such mapping: {mapping}")
        self._mappings[slot] = None
        self._removed += 1
        incoming = self._incoming[mapping.child]
        incoming.remove(mapping)
        if mapping in incoming:
            # An equal parallel mapping survives: index its next copy.
            index[mapping] = self._mappings.index(mapping, slot + 1)
        if not incoming:
            del self._incoming[mapping.child]
        self._outgoing[mapping.parent].remove(mapping)
        if not self._outgoing[mapping.parent]:
            del self._outgoing[mapping.parent]
        self._structure_version += 1
        self._patch_structure_caches(mapping.parent, mapping.child)
        if self._removed > len(self._mappings) // 2:
            self._compact_mappings()
        return mapping

    def _compact_mappings(self) -> None:
        """Drop the removed slots (amortized O(1) per removal)."""
        self._mappings = list(filter(None, self._mappings))
        self._slot = None
        self._removed = 0

    def _slot_index(self) -> Dict[TrustMapping, int]:
        """``mapping -> slot of its first live copy``, built on first use."""
        index = self._slot
        if index is None:
            index = {}
            for slot, mapping in enumerate(self._mappings):
                if mapping is not None:
                    index.setdefault(mapping, slot)
            self._slot = index
        return index

    def remove_trust(self, child: User, parent: User) -> Tuple[TrustMapping, ...]:
        """Remove every mapping ``parent -> child`` (any priority).

        Returns the removed mappings; raises :class:`NetworkError` when the
        child does not trust the parent at all.
        """
        doomed = tuple(
            edge for edge in self._incoming.get(child, ()) if edge.parent == parent
        )
        if not doomed:
            raise NetworkError(f"{child!r} does not trust {parent!r}")
        for edge in doomed:
            self._unlink(edge)
        if self._condensation is not None:
            self._condensation.remove_edge(parent, child)
        return doomed

    def set_priority(self, child: User, parent: User, priority: int) -> TrustMapping:
        """Change the priority of the mapping ``parent -> child``.

        The mapping must exist and be unique (parallel mappings between the
        same pair would make the update ambiguous); the frozen
        :class:`TrustMapping` is replaced in place, preserving its position
        in insertion order, and the structure caches are invalidated.
        """
        edges = [
            edge for edge in self._incoming.get(child, ()) if edge.parent == parent
        ]
        if not edges:
            raise NetworkError(f"{child!r} does not trust {parent!r}")
        if len(edges) > 1:
            raise NetworkError(
                f"{child!r} trusts {parent!r} through {len(edges)} parallel "
                f"mappings; set_priority needs a unique edge"
            )
        old = edges[0]
        if old.priority == priority:
            return old
        new = TrustMapping(parent, priority, child)
        # The edge is unique, so its mapping holds exactly one slot.
        index = self._slot_index()
        slot = index.pop(old)
        self._mappings[slot] = new
        index[new] = slot
        incoming = self._incoming[child]
        incoming[incoming.index(old)] = new
        outgoing = self._outgoing[parent]
        outgoing[outgoing.index(old)] = new
        self._structure_version += 1
        self._patch_structure_caches(parent, child)
        return new

    def remove_user(self, user: User) -> None:
        """Remove a user, its incident mappings and its explicit belief.

        Raises :class:`NetworkError` for unknown users.
        """
        if user not in self._users:
            raise NetworkError(f"unknown user: {user!r}")
        # One condensation patch for the whole user, not one per edge.
        for edge in tuple(self._incoming.get(user, ())):
            self._unlink(edge)
        for edge in tuple(self._outgoing.get(user, ())):
            self._unlink(edge)
        self._users.discard(user)
        if self._condensation is not None:
            self._condensation.remove_user(user)
        if self._beliefs.pop(user, None) is not None:
            self._belief_version += 1
        self._structure_version += 1
        # The edge removals above already patched the adjacency and
        # preferred caches of every (former) neighbour; only the departing
        # user's own slots remain to drop.
        if self._preferred_cache is not None:
            self._preferred_cache.pop(user, None)
        self._binary_cache = None

    def set_explicit_belief(self, user: User, belief: object) -> None:
        """Set (or replace) the explicit belief ``b0(user)``."""
        self.add_user(user)
        self._beliefs[user] = _coerce_explicit_belief(belief)
        self._belief_version += 1
        self._binary_cache = None

    def remove_explicit_belief(self, user: User) -> None:
        """Revoke the explicit belief of a user (no-op if there is none)."""
        if self._beliefs.pop(user, None) is not None:
            self._belief_version += 1
        self._binary_cache = None

    # ------------------------------------------------------------------ #
    # basic accessors                                                     #
    # ------------------------------------------------------------------ #

    @property
    def users(self) -> FrozenSet[User]:
        """The set of users ``U``."""
        return frozenset(self._users)

    @property
    def mappings(self) -> Tuple[TrustMapping, ...]:
        """The set of priority trust mappings ``E`` (in insertion order)."""
        return tuple(filter(None, self._mappings))

    def condensation(self) -> Condensation:
        """The SCC condensation with topological ranks (read-only).

        Built on the first call with one Tarjan pass; from then on every
        structural mutator patches it in time bounded by the components
        the mutation involves (see :mod:`repro.core.condensation`), so
        holders such as the delta resolver always read the current one.
        """
        if self._condensation is None:
            # A batch build like resolve(): pausing the collector keeps its
            # short-lived lists from triggering a run of collections.
            with paused_gc():
                self._condensation = Condensation(self)
        return self._condensation

    @property
    def size(self) -> int:
        """``|U| + |E|`` — the size measure used throughout the paper's plots."""
        return len(self._users) + len(self._mappings) - self._removed

    @property
    def structure_version(self) -> int:
        """Counter ticked by every user/mapping mutation (a cache hook).

        Artifacts derived from the structure (a bulk
        :class:`~repro.bulk.planner.ResolutionPlan`, its DAG) record the
        version they were built at; a mismatch later tells the holder the
        network was mutated out-of-band and the artifact must be rebuilt
        (or, in :class:`repro.engine.ResolutionEngine`, patched).
        """
        return self._structure_version

    @property
    def belief_version(self) -> int:
        """Counter ticked by every explicit-belief change (a cache hook)."""
        return self._belief_version

    @property
    def version(self) -> Tuple[int, int]:
        """``(structure_version, belief_version)`` — one token for both."""
        return (self._structure_version, self._belief_version)

    def explicit_belief(self, user: User) -> Optional[BeliefSet]:
        """The explicit belief ``b0(user)`` or ``None``."""
        return self._beliefs.get(user)

    def explicit_positive_value(self, user: User) -> Optional[Value]:
        """The explicit positive value of ``user`` or ``None``."""
        belief = self._beliefs.get(user)
        if belief is None:
            return None
        return belief.positive_value

    @property
    def explicit_beliefs(self) -> Dict[User, BeliefSet]:
        """Copy of the explicit-belief assignment ``b0``."""
        return dict(self._beliefs)

    def has_explicit_belief(self, user: User) -> bool:
        """True iff ``b0(user)`` is defined (positive or negative)."""
        return user in self._beliefs

    def incoming(self, user: User) -> Tuple[TrustMapping, ...]:
        """All mappings entering ``user`` (its trusted parents)."""
        return self.incoming_map().get(user, ())

    def outgoing(self, user: User) -> Tuple[TrustMapping, ...]:
        """All mappings leaving ``user`` (the users that trust it)."""
        return self.outgoing_map().get(user, ())

    def incoming_map(self) -> Dict[User, Tuple[TrustMapping, ...]]:
        """Cached index ``user -> incoming mappings``.

        Built once per network and invalidated on mutation; hot paths
        (resolution, planning) iterate it without per-call tuple copies.
        The returned mapping must be treated as read-only.
        """
        return self._adjacency()[0]

    def outgoing_map(self) -> Dict[User, Tuple[TrustMapping, ...]]:
        """Cached index ``user -> outgoing mappings`` (read-only)."""
        return self._adjacency()[1]

    def _adjacency(
        self,
    ) -> Tuple[
        Dict[User, Tuple[TrustMapping, ...]], Dict[User, Tuple[TrustMapping, ...]]
    ]:
        cache = self._adjacency_cache
        if cache is None:
            cache = (
                {user: tuple(edges) for user, edges in self._incoming.items()},
                {user: tuple(edges) for user, edges in self._outgoing.items()},
            )
            self._adjacency_cache = cache
        return cache

    def preferred_parent_map(self) -> Dict[User, Optional[User]]:
        """Cached index ``user -> preferred parent (or None)`` (read-only)."""
        cache = self._preferred_cache
        if cache is None:
            cache = {user: self._preferred_parent_of(user) for user in self._users}
            self._preferred_cache = cache
        return cache

    def parents(self, user: User) -> Tuple[User, ...]:
        """The parents of ``user`` in descending priority order."""
        edges = sorted(
            self._incoming.get(user, ()), key=lambda m: m.priority, reverse=True
        )
        return tuple(edge.parent for edge in edges)

    def children(self, user: User) -> Tuple[User, ...]:
        """The users that trust ``user``."""
        return tuple(edge.child for edge in self._outgoing.get(user, ()))

    def roots(self) -> FrozenSet[User]:
        """Users without incoming mappings."""
        return frozenset(u for u in self._users if not self._incoming.get(u))

    def __contains__(self, user: User) -> bool:
        return user in self._users

    def __len__(self) -> int:
        return len(self._users)

    def __iter__(self) -> Iterator[User]:
        return iter(self._users)

    # ------------------------------------------------------------------ #
    # structure queries                                                   #
    # ------------------------------------------------------------------ #

    def preferred_parent(self, user: User) -> Optional[User]:
        """The preferred parent of ``user`` (Section 2.2), if any.

        A single parent is preferred; with two or more parents the unique
        parent of strictly highest priority is preferred; if the highest
        priority is shared, no parent is preferred.
        """
        return self._preferred_parent_of(user)

    def _preferred_parent_of(self, user: User) -> Optional[User]:
        edges = self._incoming.get(user, ())
        if not edges:
            return None
        if len(edges) == 1:
            return edges[0].parent
        ordered = sorted(edges, key=lambda m: m.priority, reverse=True)
        if ordered[0].priority > ordered[1].priority:
            return ordered[0].parent
        return None

    def preferred_edges(self) -> List[TrustMapping]:
        """All edges ``z -> x`` where ``z`` is the preferred parent of ``x``."""
        result = []
        for user in self._users:
            preferred = self.preferred_parent(user)
            if preferred is None:
                continue
            for edge in self._incoming.get(user, ()):
                if edge.parent == preferred:
                    result.append(edge)
                    break
        return result

    def non_preferred_edges(self) -> List[TrustMapping]:
        """All edges that are not preferred edges."""
        preferred = set()
        for user in self._users:
            parent = self.preferred_parent(user)
            if parent is None:
                continue
            for edge in self._incoming.get(user, ()):
                if edge.parent == parent:
                    preferred.add(edge)
                    break
        return [edge for edge in filter(None, self._mappings) if edge not in preferred]

    def is_binary(self) -> bool:
        """True iff every node has at most two incoming edges and explicit
        beliefs appear only on root nodes.

        The verdict is cached (mutations invalidate it) so repeated
        resolutions of one network skip the structural scan.
        """
        cached = self._binary_cache
        if cached is None:
            cached = all(len(edges) <= 2 for edges in self._incoming.values()) and not any(
                self._incoming.get(user) for user in self._beliefs
            )
            self._binary_cache = cached
        return cached

    def is_acyclic(self) -> bool:
        """True iff the trust graph contains no directed cycle."""
        import networkx as nx

        return nx.is_directed_acyclic_graph(self.to_digraph())

    def to_digraph(self) -> nx.DiGraph:
        """The underlying directed graph (parent → child) with priorities."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._users)
        for mapping in filter(None, self._mappings):
            graph.add_edge(mapping.parent, mapping.child, priority=mapping.priority)
        return graph

    def descendants(self, users: Iterable[User]) -> Set[User]:
        """``users`` and every user reachable from them; unknown users are skipped.

        Influence flows parent → child only, so a change at ``users`` can
        reach at most these users.
        """
        outgoing = self._outgoing
        found: Set[User] = set()
        stack: List[User] = []
        for user in users:
            if user in self._users and user not in found:
                found.add(user)
                stack.append(user)
        while stack:
            for edge in outgoing.get(stack.pop(), ()):
                if edge.child not in found:
                    found.add(edge.child)
                    stack.append(edge.child)
        return found

    def reachable_from_roots_with_beliefs(self) -> FrozenSet[User]:
        """Users reachable from some user with an explicit belief."""
        return frozenset(self.descendants(self._beliefs))

    def copy(self) -> "TrustNetwork":
        """A structural copy sharing no mutable state with the original."""
        clone = type(self).__new__(type(self))
        TrustNetwork.__init__(clone)
        clone._users = set(self._users)
        clone._mappings = list(filter(None, self._mappings))
        clone._incoming = {u: list(edges) for u, edges in self._incoming.items()}
        clone._outgoing = {u: list(edges) for u, edges in self._outgoing.items()}
        clone._beliefs = dict(self._beliefs)
        clone._invalidate_structure_caches()
        return clone

    def _with_beliefs(self, beliefs: Mapping[User, object]) -> "TrustNetwork":
        """This network's structure under other explicit beliefs, to read once.

        The result shares the users, the mappings and the adjacency cache
        with this network instead of copying them, so building it costs
        ``O(|beliefs|)``.  Read it (e.g. :func:`~repro.core.resolution.resolve`
        it) and drop it; never mutate it, nor this network while it lives.
        """
        view = type(self).__new__(type(self))
        TrustNetwork.__init__(view)
        view._users = self._users
        view._mappings = self._mappings
        view._removed = self._removed
        view._incoming = self._incoming
        view._outgoing = self._outgoing
        view._adjacency_cache = self._adjacency()
        view._beliefs = {
            user: _coerce_explicit_belief(belief) for user, belief in beliefs.items()
        }
        return view

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"{type(self).__name__}(|U|={len(self._users)}, "
            f"|E|={len(self._mappings) - self._removed}, |b0|={len(self._beliefs)})"
        )


class BinaryTrustNetwork(TrustNetwork):
    """A binary trust network (Section 2.2).

    Enforces the two structural restrictions at validation time:

    * every node has at most two incoming edges, and
    * explicit beliefs are defined only for root nodes.

    Use :func:`repro.core.binarize.binarize` to convert an arbitrary
    :class:`TrustNetwork` into an equivalent binary one.
    """

    def validate(self) -> None:
        """Raise :class:`NotBinaryError` if the restrictions are violated."""
        for user in self.users:
            if len(self.incoming(user)) > 2:
                raise NotBinaryError(
                    f"user {user!r} has {len(self.incoming(user))} parents (max 2)"
                )
        for user in self.explicit_beliefs:
            if self.incoming(user):
                raise NotBinaryError(
                    f"user {user!r} has both an explicit belief and parents"
                )

    @classmethod
    def from_network(cls, network: TrustNetwork) -> "BinaryTrustNetwork":
        """Reinterpret an already-binary network as a :class:`BinaryTrustNetwork`."""
        btn = cls(
            users=network.users,
            mappings=network.mappings,
            explicit_beliefs=network.explicit_beliefs,
        )
        btn.validate()
        return btn
