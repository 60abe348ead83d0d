"""The bulk-insert workload of Figure 8c (network of Figure 19).

The experiment fixes a small trust network — 7 users, 12 mappings, 2 users
with explicit beliefs — and varies the number of objects in the database.
For every object the two explicit users' beliefs are chosen at random to be
either in conflict or in agreement (about half of the objects conflict).

Figure 19 gives the node and mapping counts and marks the two belief users,
but the full priority assignment is not recoverable from the figure; the
network below has the stated counts, a mixture of preferred and tied edges
and a cycle among the derived users, which is the behaviour the experiment
exercises (the substitution is recorded in DESIGN.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.bulk.backends import ShardSpec
from repro.core.errors import WorkloadError
from repro.core.network import TrustNetwork

#: The two users carrying explicit beliefs ("dark nodes" in Figure 19).
BELIEF_USERS = ("x6", "x7")


def figure19_network() -> TrustNetwork:
    """The fixed 7-user / 12-mapping network used by the bulk experiment.

    ``x6`` and ``x7`` are the two root users with explicit (per-object)
    beliefs; ``x1`` and ``x5`` have three parents each — the network is not
    binary, exactly as in Figure 19, and the bulk resolver binarizes it
    internally — and ``x4`` / ``x5`` form a cycle so that the SCC-flooding
    step of the plan is exercised.
    """
    network = TrustNetwork()
    users = [f"x{i}" for i in range(1, 8)]
    for user in users:
        network.add_user(user)
    mappings = [
        ("x6", 2, "x2"),
        ("x7", 1, "x2"),
        ("x6", 3, "x1"),
        ("x2", 2, "x1"),
        ("x7", 1, "x1"),
        ("x7", 2, "x3"),
        ("x2", 1, "x3"),
        ("x1", 2, "x4"),
        ("x5", 1, "x4"),
        ("x3", 3, "x5"),
        ("x4", 2, "x5"),
        ("x6", 1, "x5"),
    ]
    for parent, priority, child in mappings:
        network.add_trust(child, parent, priority=priority)
    return network


def chain_network(depth: int) -> TrustNetwork:
    """A ``depth``-stage chain below the two Figure 19 belief users.

    ``d1`` prefers ``x6`` over ``x7``; every later ``d<i>`` copies from its
    predecessor, so the plan is ``depth`` single-parent copy steps
    whose dependency DAG is one long chain — ``dag_stages == depth``.  This
    is the deep-chain workload of the compiled-versus-replay experiments:
    replay pays one statement per link, the compiled plan one copy-region
    statement per region.
    """
    if depth < 1:
        raise WorkloadError("a chain needs at least one derived user")
    network = TrustNetwork()
    for user in BELIEF_USERS:
        network.add_user(user)
    network.add_trust("d1", BELIEF_USERS[0], priority=2)
    network.add_trust("d1", BELIEF_USERS[1], priority=1)
    for index in range(2, depth + 1):
        network.add_trust(f"d{index}", f"d{index - 1}", priority=1)
    return network


def skeptic_chain_network(
    depth: int, filter_every: int = 4
) -> Tuple[TrustNetwork, Dict[str, Tuple[str, ...]]]:
    """A ``depth``-stage chain with constrained 2-cycles every few links.

    Plain links copy from the predecessor like :func:`chain_network`; every
    ``filter_every``-th link becomes a two-node cycle ``d<i> ↔ m<i>`` whose
    mate prefers a negative-only filter user ``f<i>`` (the Skeptic-test
    shape), so the plan interleaves copy steps with flood components
    carrying blocked values — the workload of the Skeptic compiled-execution
    experiments.  Returns the network and the negative-constraint mapping
    (``f<i>`` rejects the value ``a<i>``).
    """
    if depth < 1:
        raise WorkloadError("a chain needs at least one derived user")
    if filter_every < 2:
        raise WorkloadError("filters need at least one plain link between them")
    network = TrustNetwork()
    for user in BELIEF_USERS:
        network.add_user(user)
    network.add_trust("d1", BELIEF_USERS[0], priority=2)
    network.add_trust("d1", BELIEF_USERS[1], priority=1)
    constraints: Dict[str, Tuple[str, ...]] = {}
    for index in range(2, depth + 1):
        previous, user = f"d{index - 1}", f"d{index}"
        if index % filter_every == 0:
            mate = f"m{index}"
            network.add_trust(user, previous, priority=2)
            network.add_trust(user, mate, priority=1)
            network.add_trust(mate, f"f{index}", priority=2)
            network.add_trust(mate, user, priority=1)
            constraints[f"f{index}"] = (f"a{index}",)
        else:
            network.add_trust(user, previous, priority=1)
    return network, constraints


def multi_chain_network(
    chains: int, depth: int
) -> Tuple[TrustNetwork, List[str]]:
    """``chains`` independent copy chains, each under its own explicit root.

    Chain ``c`` hangs ``depth`` single-parent copy users below root ``r<c>``;
    the chains share no users, so the compiled plan holds one independent
    copy region per chain.  Returns the network and the explicit root
    users.
    """
    if chains < 1 or depth < 1:
        raise WorkloadError("need at least one chain of at least one user")
    network = TrustNetwork()
    roots: List[str] = []
    for chain in range(chains):
        root = f"r{chain}"
        network.add_user(root)
        roots.append(root)
        previous = root
        for index in range(depth):
            user = f"c{chain}u{index}"
            network.add_trust(user, previous, priority=1)
            previous = user
    return network, roots


def count_summary(network: TrustNetwork) -> Dict[str, int]:
    """Users / mappings / belief users of the bulk network (sanity check)."""
    return {
        "users": len(network.users),
        "mappings": len(network.mappings),
        "belief_users": len(BELIEF_USERS),
    }


def generate_objects(
    n_objects: int,
    conflict_probability: float = 0.5,
    seed: int = 0,
    belief_users: Sequence[str] = BELIEF_USERS,
) -> List[Tuple[str, str, str]]:
    """Explicit beliefs for ``n_objects`` objects as (user, key, value) rows.

    For each object the two belief users either agree on a common value or
    conflict on two distinct values, with the given probability of conflict.
    """
    if n_objects < 1:
        raise WorkloadError("at least one object is required")
    if len(belief_users) != 2:
        raise WorkloadError("the bulk workload uses exactly two belief users")
    rng = random.Random(seed)
    rows: List[Tuple[str, str, str]] = []
    first, second = belief_users
    for index in range(n_objects):
        key = f"k{index}"
        if rng.random() < conflict_probability:
            rows.append((first, key, f"a{index}"))
            rows.append((second, key, f"b{index}"))
        else:
            shared = f"a{index}"
            rows.append((first, key, shared))
            rows.append((second, key, shared))
    return rows


def partition_rows(
    rows: Sequence[Tuple[str, str, str]], spec: "ShardSpec | int"
) -> List[List[Tuple[str, str, str]]]:
    """Partition ``(user, key, value)`` rows by object key under a shard spec.

    This is the loading side of the scatter/gather decomposition: every row
    of one object lands on the same shard (routing is a function of the key
    alone), so each partition can be bulk-loaded into its shard's ``POSS``
    relation independently — e.g. by parallel loader processes.  Routing
    defers to :meth:`ShardSpec.partition_rows`, the same code path the
    sharded store loads through, so pre-partitioned rows land exactly where
    the store would put them.
    """
    if isinstance(spec, int):
        spec = ShardSpec.hashed(spec)
    return spec.partition_rows(rows)


def generate_sharded_objects(
    n_objects: int,
    spec: "ShardSpec | int",
    conflict_probability: float = 0.5,
    seed: int = 0,
    belief_users: Sequence[str] = BELIEF_USERS,
) -> List[List[Tuple[str, str, str]]]:
    """The Figure 8c workload pre-partitioned for a sharded store.

    Generates exactly the rows of :func:`generate_objects` (same seed, same
    values) and routes them with :func:`partition_rows`, so a sharded run
    over these partitions resolves the identical data an unsharded run
    loads in one piece.
    """
    rows = generate_objects(
        n_objects,
        conflict_probability=conflict_probability,
        seed=seed,
        belief_users=belief_users,
    )
    return partition_rows(rows, spec)


def object_sweep(max_objects: int, points: int = 6) -> List[int]:
    """A geometric sweep of object counts for the Figure 8c experiment."""
    if max_objects < 1:
        raise WorkloadError("max_objects must be positive")
    if points < 2:
        return [max_objects]
    sizes = []
    current = 10.0
    ratio = (max_objects / current) ** (1 / (points - 1)) if max_objects > 10 else 1.0
    for _ in range(points):
        size = int(round(current))
        if not sizes or size > sizes[-1]:
            sizes.append(min(size, max_objects))
        current *= ratio
    if sizes[-1] != max_objects:
        sizes.append(max_objects)
    return sizes
