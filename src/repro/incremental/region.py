"""The dirty region of a delta: touched users and everything downstream.

Influence only flows parent → child, so a delta touching users ``T`` can
change at most the descendants of ``T``.  The Algorithm 2 delta resolver
(:mod:`repro.incremental.skeptic`) walks this region, and the incremental
experiment reports its size; the Algorithm 1 resolver visits only the
components whose inputs changed and never builds it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.core.network import TrustNetwork, User


def dirty_region(
    network: TrustNetwork, touched: Iterable[User]
) -> Tuple[List[User], Dict[User, int], List[List[int]]]:
    """Index the descendants of ``touched`` (inclusive) for condensation.

    Returns ``(region, position, successors)``: the region members in
    discovery order, their dense indexes, and the successor lists of the
    region-induced subgraph.  The region is successor-closed by
    construction — no edge leaves it, so every boundary-crossing edge
    enters from a node whose resolved value is already final.
    """
    outgoing = network.outgoing_map()
    region: List[User] = []
    position: Dict[User, int] = {}
    stack: List[User] = []
    for user in touched:
        if user not in position:
            position[user] = len(region)
            region.append(user)
            stack.append(user)
    while stack:
        user = stack.pop()
        for edge in outgoing.get(user, ()):
            child = edge.child
            if child not in position:
                position[child] = len(region)
                region.append(child)
                stack.append(child)
    successors: List[List[int]] = [[] for _ in region]
    for index, user in enumerate(region):
        for edge in outgoing.get(user, ()):
            successors[index].append(position[edge.child])
    return region, position, successors
