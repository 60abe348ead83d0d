"""Figure 8b: sampled scale-free (web-like) trust network — RA vs. LP baseline.

The synthetic preferential-attachment graph stands in for the paper's web
crawl (see DESIGN.md); increasing edge fractions are sampled and the
Resolution Algorithm must stay quasi-linear across the sweep.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import full_sweep, record_scenario
from repro.core.resolution import resolve
from repro.experiments import fig8b_web
from repro.experiments.runner import format_table
from repro.workloads.powerlaw import WebWorkloadConfig, web_trust_network

CONFIG = (
    WebWorkloadConfig(n_domains=4_000, seed=7)
    if not full_sweep()
    else WebWorkloadConfig(n_domains=40_000, seed=7)
)
FRACTIONS = (0.05, 0.1, 0.25, 0.5, 1.0)
#: Timed rounds per fraction in the shape sweep: one cold ``resolve()`` of a
#: few milliseconds spreads too widely to record, so each stored row is the
#: median of these rounds with its quartiles.
SHAPE_REPEATS = 5


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_fig8b_resolution_algorithm(benchmark, fraction):
    network = web_trust_network(CONFIG, edge_fraction=fraction)
    benchmark.extra_info["figure"] = "8b"
    benchmark.extra_info["edge_fraction"] = fraction
    benchmark.extra_info["network_size"] = network.size
    result = benchmark.pedantic(lambda: resolve(network), rounds=1, iterations=1)
    reachable = network.reachable_from_roots_with_beliefs()
    assert all(result.possible_values(user) for user in reachable)


def test_fig8b_shape_quasi_linear(benchmark, bench_report_lines, bench_json_records):
    rows = benchmark.pedantic(
        lambda: fig8b_web.run(
            config=CONFIG,
            edge_fractions=FRACTIONS,
            lp_max_size=300,
            repeats=SHAPE_REPEATS,
        ),
        rounds=1,
        iterations=1,
    )
    summary = fig8b_web.summarize(rows)
    for row in rows:
        if row.get("ra_seconds"):
            record_scenario(
                bench_json_records,
                f"fig8b_web/domains={CONFIG.n_domains}/fraction={row['edge_fraction']}",
                seconds=row["ra_seconds"],
                seconds_p25=row["ra_seconds_p25"],
                seconds_p75=row["ra_seconds_p75"],
                nodes=row["users"],
                edges=row["mappings"],
            )
    bench_report_lines.append("Figure 8b — sampled scale-free trust network, one object")
    bench_report_lines.append(format_table(rows))
    bench_report_lines.append(f"summary: {summary}")
    assert summary["ra_quasi_linear"], summary
    # Average cost per size unit stays in the paper's rough 1e-5 s regime
    # (shape, not absolute: allow a generous upper bound).
    per_unit_costs = [row["ra_seconds_per_unit"] for row in rows if row["ra_seconds_per_unit"]]
    assert max(per_unit_costs) < 1e-3
