"""Figure 15: quadratic behaviour of the Resolution Algorithm on nested SCCs.

On the parameterized family of Appendix B.5 (linear size in ``k``, nested
strongly connected components) the paper's algorithm must recompute the SCC
graph of all open nodes once per block, giving quadratic total time — the
paper fits roughly ``1e-7·x²`` seconds.  That recondense-per-pass strategy
is preserved in :mod:`repro.experiments.legacy` and still shows the fitted
log-log slope near 2; the production incremental SCC engine
(:mod:`repro.core.sccs`) resolves the very same family in near-linear time,
defeating the constructed worst case.  ``run(include_legacy=True)`` reports
both so the figure's shape and the improvement stay visible side by side.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.resolution import resolve
from repro.experiments.runner import (
    average_time,
    format_table,
    log_log_slope,
    report,
)
from repro.obs.logs import install_cli_handler
from repro.workloads.worstcase import expected_sizes, worstcase_network


def run(
    block_counts: Sequence[int] = (25, 50, 100, 200, 400),
    repeats: int = 1,
    include_legacy: bool = False,
) -> List[Dict[str, object]]:
    """Time the Resolution Algorithm on the nested-SCC family.

    With ``include_legacy`` each row also times the seed's
    recondense-per-pass strategy (:mod:`repro.experiments.legacy`), which is
    the implementation the paper's quadratic analysis describes — the
    incremental SCC engine itself resolves this family in near-linear time.
    """
    rows: List[Dict[str, object]] = []
    for k in block_counts:
        network = worstcase_network(k)
        users, edges = expected_sizes(k)
        seconds = average_time(lambda: resolve(network), repeats=repeats)
        row: Dict[str, object] = {
            "k": k,
            "size": network.size,
            "expected_size": users + edges,
            "ra_seconds": seconds,
        }
        if include_legacy:
            from repro.experiments.legacy import legacy_resolve

            # One untimed call first: the legacy path imports networkx on
            # its first call, which would otherwise inflate the smallest k
            # and flatten the fitted slope.
            row["legacy_seconds"] = average_time(
                lambda: legacy_resolve(network), repeats=repeats, warmup=1
            )
        rows.append(row)
    return rows


def summarize(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    points = [(row["size"], row["ra_seconds"]) for row in rows]
    slope = log_log_slope(points)
    summary: Dict[str, object] = {
        "log_log_slope": round(slope, 2) if len(points) > 1 else None,
        "superlinear": len(points) > 1 and slope > 1.5,
        "largest_size": max((row["size"] for row in rows), default=0),
    }
    legacy_points = [
        (row["size"], row["legacy_seconds"])
        for row in rows
        if row.get("legacy_seconds")
    ]
    if len(legacy_points) > 1:
        legacy_slope = log_log_slope(legacy_points)
        summary["legacy_log_log_slope"] = round(legacy_slope, 2)
        summary["legacy_superlinear"] = legacy_slope > 1.5
    return summary


def main() -> None:  # pragma: no cover - CLI convenience
    install_cli_handler()
    rows = run()
    report("Figure 15 — worst-case (nested SCC) scaling of the Resolution Algorithm")
    report(format_table(rows, columns=["k", "size", "expected_size", "ra_seconds"]))
    report(f"summary: {summarize(rows)}")


if __name__ == "__main__":  # pragma: no cover
    main()
