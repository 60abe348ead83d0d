"""Delta resolution: the change-driven walk, and Algorithm 1 on it.

:class:`DeltaResolver` keeps the possible-value map of an already-resolved
binary trust network consistent while the network changes, without full
re-resolution.  Its delta pipeline — validation, mutation, ``apply`` /
``apply_batch`` and the walk below — is :class:`DeltaWalk`, which
:class:`~repro.incremental.skeptic.SkepticDeltaResolver` runs too with
Algorithm 2's per-component evaluation.  The key observations:

* Resolution is modular over the SCC condensation: the possible values of
  a component are a function of its members' structure and of the possible
  values of its external parents (Algorithm 1 closes a minimal component
  only when all its inputs are final, so the function is well defined and
  order-independent).  A single-user component is recomputed inline; a
  multi-node one by Algorithm 1's closing loop,
  :func:`~repro.core.resolution.close_union` — the same loop
  :func:`~repro.core.resolution.resolve` runs — over its members, with the
  external parents closed at their current possible values.
* That run's closing order depends only on the component's in-edges and
  on which external parents are reachable, not on the values (Section 4:
  one plan serves every object), so the loop returns it as a value-free
  :class:`~repro.core.resolution.UnionProgram` (re-exported here), and
  later recomputes — for any key of a multi-key session — evaluate it with
  one union per flood instead of re-running Algorithm 1.  Programs live in
  slots of the network's condensation, shared by every resolver on it; a
  program is used only while the component's members tuple and
  reachability mask are the ones it was recorded for, and the network
  drops a component's slot whenever an in-edge of a member changes.
* The network keeps its condensation current under mutation
  (:meth:`TrustNetwork.condensation <repro.core.network.TrustNetwork.condensation>`,
  built when the first resolver on the network is constructed and shared
  by every resolver on it), and its components carry topological ranks.
* The recomputation is **change-driven**: a heap keyed by rank starts with
  the components of the touched users; each popped component is
  recomputed, and only the members whose value changed push their
  children's components.  Influence flows parent → child and ranks grow
  along edges, so every component is popped after all of its parents that
  could still change.  A component whose inputs all kept their old values
  is never reached, so the work is proportional to the components actually
  recomputed — not to the descendants of the touched users, and not to
  ``|U| + |E|``.  The network mutators patch the structure caches, the
  edge index and the condensation in time bounded by what they touch, so
  structural deltas stay in the same cost class.
* A multi-key session opens with one ``resolve()`` per *believer group*
  (:meth:`DeltaResolver.for_keys`): the keys whose positive beliefs sit on
  the same users.  Algorithm 1's copies and floods depend only on the
  structure and on which users believe, never on the values, so resolving
  once with each believer's index as its value leaves every user holding
  ``S(u)``, the believers whose belief reaches it; key *k*'s ``poss_k(u)``
  is *k*'s values at ``S(u)``.  Preferred copies alias one set, so a key
  decodes each distinct ``S`` once.

Equivalence to from-scratch resolution (``resolve`` on the mutated network)
is locked by the property suite in ``tests/incremental``: every update
stream must leave the resolver's map byte-identical to a full re-resolution.

A parent whose possible set is empty is exactly an unreachable parent (it
can never hold a belief), so, as in ``resolve``, its edges are ignored and
preferred parents are re-derived on the surviving edges.
"""

from __future__ import annotations

import heapq
from typing import (
    Container,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.beliefs import Value
from repro.core.errors import NetworkError
from repro.core.gcpause import paused_gc
from repro.core.network import TrustMapping, TrustNetwork, User, _coerce_explicit_belief
from repro.core.resolution import ResolutionResult, UnionProgram, close_union, resolve
from repro.incremental.deltas import (
    AddTrust,
    Delta,
    DeltaLog,
    RemoveBelief,
    RemoveTrust,
    RemoveUser,
    RowChange,
    SetBelief,
    SetPriority,
)

_EMPTY: FrozenSet[Value] = frozenset()


def _check_known(network: TrustNetwork, beliefs: Mapping[User, object]) -> None:
    unknown = [u for u in beliefs if u not in network]
    if unknown:
        raise NetworkError(
            f"belief override names unknown users: {sorted(map(str, unknown))}"
        )


def _check_fan_in(incoming: Mapping[User, Tuple[TrustMapping, ...]]) -> None:
    for user, edges in incoming.items():
        if len(edges) > 2:
            raise NetworkError(
                f"user {user!r} has {len(edges)} parents (max 2); "
                "the incremental engine maintains binary networks only"
            )


def _check_roots(
    incoming: Mapping[User, Tuple[TrustMapping, ...]], belief_users: Iterable[User]
) -> None:
    for user in belief_users:
        if incoming.get(user):
            raise NetworkError(
                f"user {user!r} has both an explicit belief and parents"
            )


def _positive_beliefs(network: TrustNetwork) -> Dict[User, Value]:
    """The network's positive belief assignment ``user -> value``."""
    return {
        user: belief.positive_value
        for user, belief in network.explicit_beliefs.items()
        if belief.positive_value is not None
    }


class DeltaWalk:
    """The delta pipeline both paradigms share: validate, mutate, walk.

    A subclass keeps one maintained map (:meth:`_state`; :attr:`_empty` is
    the value of a user nothing reaches), the positive beliefs it resolves
    with (:attr:`beliefs`) and :attr:`network`; it evaluates one component
    with its external parents closed (:meth:`_evaluate`).  Everything else
    — the binary-restriction checks, the mutations, ``apply`` /
    ``apply_batch`` and the change-driven walk over the network's
    condensation — is written here once.
    """

    network: TrustNetwork
    beliefs: Dict[User, Value]
    _owns_beliefs: bool
    _empty: object = _EMPTY

    def _state(self) -> Dict[User, object]:
        """The maintained ``user -> value`` map the walk compares and updates."""
        raise NotImplementedError

    def _evaluate(
        self, members: Tuple[User, ...], programs: Dict[int, object], cid: int
    ) -> Tuple[Sequence[object], Container[User]]:
        """One component's new values (member order), and the members whose
        other state moved, so that their children are revisited too."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # validation                                                          #
    # ------------------------------------------------------------------ #

    def validate(self, delta: Delta) -> None:
        """Reject a delta that would break the binary restrictions.

        Raises before any state is mutated, so a session can pre-check a
        structural delta against every per-key resolver and fail atomically.
        """
        if isinstance(delta, SetBelief):
            if delta.user in self.network and self.network.incoming(delta.user):
                raise NetworkError(
                    f"cannot set a belief on {delta.user!r}: beliefs are "
                    "restricted to root nodes in a binary network"
                )
        elif isinstance(delta, AddTrust):
            if delta.child == delta.parent:
                raise NetworkError(f"self-trust mapping is not allowed: {delta}")
            if delta.child in self.beliefs or (
                self._owns_beliefs and self.network.has_explicit_belief(delta.child)
            ):
                raise NetworkError(
                    f"cannot add a parent to {delta.child!r}: it holds an "
                    "explicit belief (beliefs are restricted to roots)"
                )
            if len(self.network.incoming(delta.child)) >= 2:
                raise NetworkError(
                    f"{delta.child!r} already has two parents; a third "
                    "would break binarity"
                )
        elif isinstance(delta, (RemoveTrust, SetPriority)):
            if not any(
                edge.parent == delta.parent
                for edge in self.network.incoming(delta.child)
            ):
                raise NetworkError(f"{delta.child!r} does not trust {delta.parent!r}")
        elif isinstance(delta, RemoveUser):
            if delta.user not in self.network:
                raise NetworkError(f"unknown user: {delta.user!r}")

    # ------------------------------------------------------------------ #
    # the delta pipeline                                                  #
    # ------------------------------------------------------------------ #

    def apply(
        self,
        delta: Delta,
        mutate_network: bool = True,
        touched: Optional[Tuple[User, ...]] = None,
    ) -> DeltaLog:
        """Apply one delta and return the log of row-level changes.

        ``mutate_network=False`` skips the structural mutation (for
        resolvers sharing a network on which the delta was already applied);
        ``touched`` overrides the touched-user set in that case (required
        for :class:`RemoveUser`, whose children are unrecoverable after the
        fact).  The recomputation runs under a batch-scoped
        :func:`~repro.core.gcpause.paused_gc` — the collector is restored
        before this method returns, never held across a session's lifetime.
        """
        with paused_gc():
            touched_users, removed = self._mutate(delta, mutate_network, touched)
            return self._recompute(
                delta, touched_users, () if removed is None else (removed,)
            )

    def apply_batch(
        self,
        deltas: Sequence[Delta],
        mutate_network: bool = True,
        touched_overrides: Optional[Sequence[Optional[Tuple[User, ...]]]] = None,
        record_touched: Optional[List[Tuple[User, ...]]] = None,
    ) -> DeltaLog:
        """Apply several deltas with **one** recomputation.

        All mutations are applied first; one change-driven walk seeded with
        every touched user then recomputes them together, so a batch of *k*
        updates inside one subtree recomputes each affected component once
        instead of *k* times (the delta-batching half of the coalescing
        design; pair with :func:`~repro.incremental.coalesce.coalesce` to also
        dedupe the deltas themselves).  The returned log's ``delta`` field
        holds the tuple of applied deltas and its ``changes`` the *net*
        row-level effect of the whole batch.

        ``touched_overrides`` supplies per-delta touched tuples for
        resolvers sharing an already-mutated network (``mutate_network=
        False``); ``record_touched`` — a caller-owned list — receives each
        delta's touched tuple so a session can replay the batch on sibling
        resolvers.

        If a delta in the middle of the batch is rejected, the mutations
        before it have already been applied; the maintained map is then
        recomputed for those before the exception propagates, so the
        resolver never ends up inconsistent with its network.
        """
        deltas = tuple(deltas)
        if not deltas:
            raise NetworkError("apply_batch() needs at least one delta")
        touched_all: Set[User] = set()
        removed: List[User] = []
        with paused_gc():
            try:
                for position, delta in enumerate(deltas):
                    override = (
                        touched_overrides[position]
                        if touched_overrides is not None
                        else None
                    )
                    touched, gone = self._mutate(delta, mutate_network, override)
                    if record_touched is not None:
                        record_touched.append(tuple(touched))
                    touched_all |= set(touched)
                    if gone is not None:
                        removed.append(gone)
            except NetworkError:
                if touched_all or removed:
                    self._recompute(deltas[:position], touched_all, removed)
                raise
            return self._recompute(deltas, touched_all, removed)

    def ensure_user(self, user: User) -> None:
        """Give a (new) network user its empty entry in the maintained map."""
        state = self._state()
        if user in self.network and user not in state:
            state[user] = self._empty

    # ------------------------------------------------------------------ #
    # mutation                                                            #
    # ------------------------------------------------------------------ #

    def _mutate(
        self,
        delta: Delta,
        mutate_network: bool,
        touched: Optional[Tuple[User, ...]],
    ) -> Tuple[Set[User], Optional[User]]:
        if isinstance(delta, SetBelief):
            self.validate(delta)
            self.network.add_user(delta.user)
            self.ensure_user(delta.user)
            value = _coerce_explicit_belief(delta.value).positive_value
            if value is None:
                self.beliefs.pop(delta.user, None)
            else:
                self.beliefs[delta.user] = value
            if self._owns_beliefs:
                self.network.set_explicit_belief(delta.user, delta.value)
            return {delta.user}, None

        if isinstance(delta, RemoveBelief):
            had_network_belief = self.network.has_explicit_belief(delta.user)
            had_value = self.beliefs.pop(delta.user, None) is not None
            if self._owns_beliefs:
                self.network.remove_explicit_belief(delta.user)
            if not had_value and not had_network_belief:
                return set(), None
            return {delta.user}, None

        if isinstance(delta, AddTrust):
            if mutate_network:
                self.validate(delta)
                self.network.add_trust(delta.child, delta.parent, delta.priority)
            self.ensure_user(delta.child)
            self.ensure_user(delta.parent)
            return {delta.child}, None

        if isinstance(delta, RemoveTrust):
            if mutate_network:
                self.network.remove_trust(delta.child, delta.parent)
            return {delta.child}, None

        if isinstance(delta, SetPriority):
            if mutate_network:
                self.validate(delta)
                self.network.set_priority(delta.child, delta.parent, delta.priority)
            return {delta.child}, None

        if isinstance(delta, RemoveUser):
            if mutate_network:
                children = set(self.network.children(delta.user))
                self.network.remove_user(delta.user)
            else:
                children = set(touched or ())
            self.beliefs.pop(delta.user, None)
            return children, delta.user

        raise NetworkError(f"unknown delta {delta!r}")

    # ------------------------------------------------------------------ #
    # change-driven recomputation                                         #
    # ------------------------------------------------------------------ #

    def _recompute(
        self, delta: "Delta | Tuple[Delta, ...]", touched: Set[User], removed: Sequence[User]
    ) -> DeltaLog:
        state = self._state()
        empty = self._empty
        changes: List[RowChange] = []
        network = self.network
        for gone in removed:
            old = state.pop(gone, None)
            if old is not None:
                changes.append(RowChange(gone, old, empty, removed=True))
            if gone in network:
                # Removed, then re-created later in the same batch: the
                # user starts over.
                self.ensure_user(gone)
                touched = touched | {gone}
        touched_live = sorted((u for u in touched if u in network), key=str)

        condensation = network.condensation()
        component = condensation.component
        component_members = condensation.members
        rank = condensation.rank
        programs = condensation.programs
        outgoing = network.outgoing_map()
        # Components keyed by rank: every edge between two components runs
        # to a higher rank, so popping in rank order recomputes a component
        # only after every parent that could still change.
        heap: List[Tuple[Tuple[int, ...], int]] = []
        queued: Set[int] = set()
        for user in touched_live:
            cid = component[user]
            if cid not in queued:
                queued.add(cid)
                heap.append((rank[cid], cid))
        heapq.heapify(heap)
        recomputed = 0
        while heap:
            _rank, cid = heapq.heappop(heap)
            members = component_members[cid]
            recomputed += len(members)
            new_values, moved = self._evaluate(members, programs, cid)
            for member, new in zip(members, new_values):
                old = state.get(member, empty)
                if new != old:
                    state[member] = new
                    changes.append(RowChange(member, old, new))
                elif member not in moved:
                    continue
                for edge in outgoing.get(member, ()):
                    child = component[edge.child]
                    if child not in queued:
                        queued.add(child)
                        heapq.heappush(heap, (rank[child], child))

        return DeltaLog(
            delta=delta,
            changes=tuple(changes),
            touched=tuple(touched_live),
            dirty_region=recomputed,
            recomputed=recomputed,
        )


class OpeningRecord(NamedTuple):
    """Algorithm 1's closing record from the ``resolve()`` that opened a resolver.

    ``program`` closed every user reachable from the network's positive
    believers while the network stood at ``version``; it describes the
    network only as long as the version has not moved.
    """

    version: Tuple[int, int]
    program: UnionProgram


class DeltaResolver(DeltaWalk):
    """Maintain ``poss`` for one belief assignment under a delta stream.

    Parameters
    ----------
    network:
        A binary trust network (Section 2.2).  The resolver mutates it in
        place when structural deltas are applied.
    beliefs:
        Optional positive-belief override ``user -> value``.  When omitted
        the resolver *owns* the network's beliefs: belief deltas are written
        back to the network, so ``resolve(resolver.network)`` always agrees
        with the maintained state.  Passing a mapping detaches belief state
        from the network — several resolvers can then share one structure
        with per-object beliefs (the multi-key mode of
        :class:`~repro.incremental.session.IncrementalSession`).

    The maintained map is :attr:`possible` (``user -> frozenset`` of
    values, one entry per network user, empty for unreachable users) —
    exactly the ``possible`` attribute of a
    :class:`~repro.core.resolution.ResolutionResult`.

    :attr:`opening` is the closing record of the ``resolve()`` that opened
    the resolver, when its believers are the network's own positive
    believers (``None`` otherwise): the bulk plan of the network as it was
    opened (:func:`repro.bulk.planner.plan_resolution` lowers it).  An
    :class:`~repro.incremental.session.IncrementalSession` takes it over.
    """

    opening: Optional["OpeningRecord"] = None

    def __init__(
        self,
        network: TrustNetwork,
        beliefs: Optional[Mapping[User, Value]] = None,
    ) -> None:
        self.network = network
        self._owns_beliefs = beliefs is None
        if beliefs is None:
            self.beliefs: Dict[User, Value] = _positive_beliefs(network)
        else:
            self.beliefs = dict(beliefs)
            _check_known(network, self.beliefs)
        self._validate_binary()
        # Built here, not in the first apply, and shared by every resolver
        # on this network.
        network.condensation()
        # self.beliefs is exactly the network's positive assignment when the
        # resolver owns it; otherwise resolve the shared structure under
        # this resolver's beliefs, without copying it.
        source = network if self._owns_beliefs else network._with_beliefs(self.beliefs)
        result = resolve(source)
        self.possible: Dict[User, FrozenSet[Value]] = dict(result.possible)
        if self._owns_beliefs:
            self.opening = OpeningRecord(network.version, result.program)

    @classmethod
    def for_keys(
        cls,
        network: TrustNetwork,
        beliefs_by_key: Mapping[str, Mapping[User, Value]],
    ) -> Dict[str, "DeltaResolver"]:
        """Detached resolvers for several keys, one ``resolve()`` per believer group.

        Equivalent to ``{key: DeltaResolver(network, beliefs) for key,
        beliefs in beliefs_by_key.items()}``, but keys whose positive
        beliefs sit on the same users share one resolution: it runs with
        each believer's index in the group as its value, so every user ends
        up holding the set of believers whose belief reaches it, and a
        key's map decodes that set through the key's own values.  Every
        check runs before any resolution, so a rejected key builds nothing.
        """
        incoming = network.incoming_map()
        _check_fan_in(incoming)
        checked: Set[FrozenSet[User]] = set()
        groups: Dict[FrozenSet[User], List[Tuple[str, Dict[User, Value]]]] = {}
        for key, beliefs in beliefs_by_key.items():
            users = frozenset(beliefs)
            if users not in checked:
                _check_known(network, beliefs)
                _check_roots(incoming, users)
                checked.add(users)
            positive: Dict[User, Value] = {}
            for user, belief in beliefs.items():
                value = _coerce_explicit_belief(belief).positive_value
                if value is not None:
                    positive[user] = value
            groups.setdefault(frozenset(positive), []).append((key, positive))

        network.condensation()
        network_believers = frozenset(_positive_beliefs(network))
        resolvers: Dict[str, DeltaResolver] = dict.fromkeys(beliefs_by_key)
        for believers, members in groups.items():
            order = tuple(believers)
            result = resolve(
                network._with_beliefs({user: i for i, user in enumerate(order)})
            )
            sources = result.possible
            opening = None
            if believers == network_believers:
                opening = OpeningRecord(network.version, result.program)
            # Preferred copies alias their parent's set, so a network has
            # far fewer distinct source sets than users.
            distinct = {id(source): source for source in sources.values()}
            for key, positive in members:
                column = [positive[user] for user in order]
                decoded = {
                    ident: frozenset(map(column.__getitem__, source))
                    for ident, source in distinct.items()
                }
                resolver = cls.__new__(cls)
                resolver.network = network
                resolver._owns_beliefs = False
                resolver.beliefs = dict(beliefs_by_key[key])
                resolver.possible = {
                    user: decoded[id(source)] for user, source in sources.items()
                }
                resolver.opening = opening
                resolvers[key] = resolver
        return resolvers

    def _validate_binary(self) -> None:
        incoming = self.network.incoming_map()
        _check_fan_in(incoming)
        belief_users = set(self.beliefs)
        if self._owns_beliefs:
            belief_users |= set(self.network.explicit_beliefs)
        _check_roots(incoming, belief_users)

    def rebuild(self) -> None:
        """Re-derive the maintained map from a fresh resolution.

        The recovery path after a partially applied batch: the network (and
        this resolver's belief map) hold whatever prefix of the batch
        succeeded, so a from-scratch resolution of that state is by
        definition the consistent map.  Costs one full ``resolve()`` —
        acceptable on an error path.
        """
        if self._owns_beliefs:
            self.beliefs = _positive_beliefs(self.network)
            source = self.network
        else:
            self.beliefs = {
                user: value
                for user, value in self.beliefs.items()
                if user in self.network
            }
            source = self.network._with_beliefs(self.beliefs)
        self.possible = dict(resolve(source).possible)

    def resolution(self) -> ResolutionResult:
        """The maintained state as a :class:`ResolutionResult` snapshot.

        Lineage pointers are not maintained incrementally; call
        :func:`repro.core.resolution.resolve` when a lineage trace is
        needed.
        """
        return ResolutionResult(
            possible=dict(self.possible),
            explicit_users=frozenset(self.beliefs),
        )

    # ------------------------------------------------------------------ #
    # Algorithm 1 per component                                           #
    # ------------------------------------------------------------------ #

    def _state(self) -> Dict[User, FrozenSet[Value]]:
        return self.possible

    def _evaluate(
        self, members: Tuple[User, ...], programs: Dict[int, UnionProgram], cid: int
    ) -> Tuple[Sequence[FrozenSet[Value]], Container[User]]:
        """Localized Algorithm 1 on one SCC with a closed boundary.

        Returns the members' new values, in member order (no member has
        other state).  The component's external parents are closed with
        their current possible values; parents with empty sets are
        unreachable and their edges are dropped, with preferred parents
        re-derived on the survivors — exactly the treatment of
        :func:`repro.core.resolution.resolve`.

        A multi-node component evaluates its :class:`UnionProgram` from
        ``programs`` (the network condensation's slots, shared by every
        resolver on the network) when one is recorded for its current
        members and reachability mask; otherwise
        :func:`~repro.core.resolution.close_union` records one.
        """
        incoming = self.network.incoming_map()
        possible = self.possible

        if len(members) == 1:
            member = members[0]
            belief = self.beliefs.get(member)
            if belief is not None:
                return (frozenset((belief,)),), ()
            surviving = [
                edge for edge in incoming.get(member, ()) if possible.get(edge.parent)
            ]
            if not surviving:
                return (_EMPTY,), ()
            if len(surviving) == 1:
                return (possible[surviving[0].parent],), ()
            first, second = surviving
            if first.priority > second.priority:
                return (possible[first.parent],), ()
            if second.priority > first.priority:
                return (possible[second.parent],), ()
            return (possible[first.parent] | possible[second.parent],), ()

        program = programs.get(cid)
        if program is not None and program.members is members:
            values = program.evaluate(possible)
            if values is not None:
                return values, ()
        # Multi-node SCC.  Members cannot carry beliefs (each has an internal
        # in-edge, and binary networks put beliefs on roots only), so the
        # external parents are the closed boundary.
        index = {member: i for i, member in enumerate(members)}
        program = programs[cid] = close_union(members, index, incoming, possible.get)
        values = program.node_values(list(map(possible.get, program.leaves)))
        return [values[node] for node in program.reads], ()
