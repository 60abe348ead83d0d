"""Figure 8b: sampled scale-free (web-like) trust network — RA vs. LP solver.

The original experiment samples increasing fractions of a real web-link graph
(270k domains, 5.4M links), identifies domains with users and links with
trust mappings, assigns random priorities, and compares the Resolution
Algorithm against DLV.  The offline substitute generates a synthetic
preferential-attachment graph with the same power-law structure (see
``repro.workloads.powerlaw``); the comparison and its shape are unchanged:
the Resolution Algorithm is quasi-linear, the logic-program baseline degrades
quickly once cycles appear in the sample.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.resolution import resolve
from repro.experiments.runner import (
    average_time,
    format_table,
    log_log_slope,
    per_unit,
    quartiles,
    report,
    timed,
)
from repro.logicprog.solver import solve_network
from repro.obs.logs import install_cli_handler
from repro.workloads.powerlaw import WebWorkloadConfig, web_trust_network


def run(
    config: WebWorkloadConfig = WebWorkloadConfig(n_domains=4000, seed=7),
    edge_fractions: Sequence[float] = (0.05, 0.1, 0.25, 0.5, 1.0),
    lp_max_size: int = 400,
    repeats: int = 1,
) -> List[Dict[str, object]]:
    """One row per sampled fraction with RA time and LP time where feasible.

    RA runs ``repeats`` times per fraction, the rounds interleaved across
    fractions so every fraction sees the same machine load: ``ra_seconds``
    is the median and ``ra_seconds_p25`` / ``ra_seconds_p75`` its spread.
    """
    networks = [
        web_trust_network(config, edge_fraction=fraction)
        for fraction in edge_fractions
    ]
    samples: List[List[float]] = [[] for _ in networks]
    for _ in range(max(repeats, 1)):
        for network, seconds in zip(networks, samples):
            seconds.append(timed(lambda: resolve(network)).seconds)
    rows: List[Dict[str, object]] = []
    for fraction, network, seconds in zip(edge_fractions, networks, samples):
        p25, ra_seconds, p75 = quartiles(seconds)
        lp_seconds: Optional[float] = None
        if network.size <= lp_max_size:
            lp_seconds = average_time(
                lambda: solve_network(network, semantics="brave"), repeats=repeats
            )
        rows.append(
            {
                "edge_fraction": fraction,
                "size": network.size,
                "users": len(network.users),
                "mappings": len(network.mappings),
                "ra_seconds": ra_seconds,
                "ra_seconds_p25": p25,
                "ra_seconds_p75": p75,
                "ra_seconds_per_unit": per_unit(ra_seconds, network.size),
                "lp_seconds": lp_seconds,
            }
        )
    return rows


def summarize(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    ra_points = [(row["size"], row["ra_seconds"]) for row in rows if row["ra_seconds"]]
    slope = log_log_slope(ra_points)
    return {
        "ra_log_log_slope": round(slope, 2) if ra_points else None,
        "ra_quasi_linear": bool(ra_points) and slope < 1.5,
        "largest_size": max((row["size"] for row in rows), default=0),
        "lp_covered_sizes": [row["size"] for row in rows if row["lp_seconds"]],
    }


def main() -> None:  # pragma: no cover - CLI convenience
    install_cli_handler()
    rows = run()
    report("Figure 8b — sampled scale-free trust network, one object")
    report(
        format_table(
            rows,
            columns=[
                "edge_fraction",
                "size",
                "users",
                "mappings",
                "ra_seconds",
                "ra_seconds_per_unit",
                "lp_seconds",
            ],
        )
    )
    report(f"summary: {summarize(rows)}")


if __name__ == "__main__":  # pragma: no cover
    main()
