#!/usr/bin/env python
"""Bulk curation of a shared scientific database (Section 4).

A community database holds thousands of objects.  Two measurement teams
publish (sometimes conflicting) values for every object, and the rest of the
community derives its view through a fixed network of prioritized trust
mappings.  Re-running per-object resolution for every object is wasteful: the
sequence of resolution steps depends only on the network, so it is planned
once and replayed as SQL bulk statements over the ``POSS(X, K, V)`` relation.

Run with ``python examples/bulk_curation.py [n_objects]``.
"""

from __future__ import annotations

import sys

from repro import binarize, resolve
from repro.bulk import BulkResolver
from repro.workloads.bulkload import BELIEF_USERS, figure19_network, generate_objects


def main(n_objects: int = 5_000) -> None:
    network = figure19_network()
    print(
        f"Trust network: {len(network.users)} users, {len(network.mappings)} mappings; "
        f"belief users: {', '.join(BELIEF_USERS)}"
    )

    resolver = BulkResolver(network, explicit_users=BELIEF_USERS)
    print(
        f"Resolution plan: {len(resolver.plan.steps)} steps, "
        f"{resolver.plan.statement_count()} SQL statements (independent of object count)"
    )

    rows = generate_objects(n_objects, conflict_probability=0.5, seed=3)
    resolver.load_beliefs(rows)
    report = resolver.run()
    print(
        f"Resolved {report.objects} objects in {report.elapsed_seconds:.3f}s "
        f"({report.rows_inserted} rows inserted, "
        f"{resolver.store.conflict_count()} user/object conflicts remain)"
    )
    print(
        f"Execution: {report.statements} statements in {report.transactions} transaction "
        f"on {report.backend}; "
        f"copy phase {report.phase_seconds['copy']:.3f}s, "
        f"flood phase {report.phase_seconds['flood']:.3f}s"
    )

    # Spot-check one conflicting and one agreeing object against per-object
    # resolution with Algorithm 1.
    sample_keys = ["k0", "k1"]
    by_key = {}
    for user, key, value in rows:
        by_key.setdefault(key, []).append((user, value))
    for key in sample_keys:
        per_object = network.copy()
        for user, value in by_key[key]:
            per_object.set_explicit_belief(user, value)
        reference = resolve(binarize(per_object).btn)
        print(f"\nObject {key}:")
        for user in sorted(map(str, network.users)):
            sql_values = sorted(resolver.possible_values(user, key))
            ra_values = sorted(map(str, reference.possible_values(user)))
            marker = "ok" if sql_values == ra_values else "MISMATCH"
            print(f"  {user}: SQL {sql_values}  |  Algorithm 1 {ra_values}   [{marker}]")
            assert sql_values == ra_values

    resolver.store.close()
    print("\nOK: bulk SQL resolution matches per-object resolution on the sampled objects.")


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 5_000
    main(count)
