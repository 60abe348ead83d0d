"""Smoke tests for the experiment drivers (tiny parameterizations).

The full sweeps live in ``benchmarks/``; here each driver is exercised with
the smallest meaningful parameters so that the row schemas, summaries and
shape checks stay correct.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import (
    fig5_lp_exponential,
    fig8a_cycles,
    fig8b_web,
    fig8c_bulk,
    fig11_binarization,
    fig15_worstcase,
)
from repro.experiments.runner import (
    average_time,
    doubling_ratios,
    format_table,
    gather_balance,
    log_log_slope,
    per_unit,
    quartiles,
    timed,
)
from repro.experiments.tables import FEATURE_COLUMNS, feature_rows, render_feature_table
from repro.workloads.powerlaw import WebWorkloadConfig


class TestRunnerHelpers:
    def test_timed_and_average(self):
        measurement = timed(lambda: sum(range(1000)))
        assert measurement.seconds >= 0
        assert measurement.result == sum(range(1000))
        assert average_time(lambda: None, repeats=2) >= 0

    def test_quartiles(self):
        assert quartiles([3.0]) == (3.0, 3.0, 3.0)
        assert quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)

    def test_per_unit(self):
        assert per_unit(2.0, 4) == 0.5
        assert math.isnan(per_unit(1.0, 0))

    def test_log_log_slope_detects_linear_and_quadratic(self):
        linear = [(x, 1e-5 * x) for x in (10, 100, 1000, 10000)]
        quadratic = [(x, 1e-7 * x * x) for x in (10, 100, 1000, 10000)]
        assert abs(log_log_slope(linear) - 1.0) < 0.01
        assert abs(log_log_slope(quadratic) - 2.0) < 0.01
        assert math.isnan(log_log_slope([(1, 1)]))

    def test_gather_balance(self):
        assert gather_balance([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        # one shard carries everything: mean/max -> 1/n
        assert gather_balance([0.0, 0.0, 3.0]) == pytest.approx(1 / 3)
        assert gather_balance([0.0, 0.0]) == 1.0
        assert math.isnan(gather_balance([]))

    def test_doubling_ratios(self):
        ratios = doubling_ratios([(1, 1.0), (2, 2.0), (4, 8.0)])
        assert ratios == [2.0, 4.0]

    def test_format_table(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": None}]
        text = format_table(rows)
        assert "a" in text and "1" in text and "-" in text
        assert format_table([]) == "(no data)"


class TestFigureDrivers:
    def test_fig5_rows(self):
        rows = fig5_lp_exponential.run(cluster_counts=(1, 2), repeats=1)
        assert len(rows) == 2
        assert rows[0]["size"] == 8
        summary = fig5_lp_exponential.summarize(rows)
        assert summary["points"] == 2

    def test_fig8a_rows(self):
        rows = fig8a_cycles.run(ra_sizes=(80, 400), lp_max_clusters=2, repeats=1)
        sizes = [row["size"] for row in rows]
        assert sizes == sorted(sizes)
        assert any(row["ra_seconds"] for row in rows)
        assert any(row["lp_seconds"] for row in rows)
        summary = fig8a_cycles.summarize(rows)
        assert summary["ra_points"] >= 2

    def test_fig8b_rows(self):
        rows = fig8b_web.run(
            config=WebWorkloadConfig(n_domains=300, seed=1),
            edge_fractions=(0.5, 1.0),
            lp_max_size=0,
            repeats=3,
        )
        assert len(rows) == 2
        assert all(row["ra_seconds"] > 0 for row in rows)
        assert all(
            row["ra_seconds_p25"] <= row["ra_seconds"] <= row["ra_seconds_p75"]
            for row in rows
        )
        summary = fig8b_web.summarize(rows)
        assert summary["largest_size"] >= rows[0]["size"]

    def test_fig8c_rows(self):
        rows = fig8c_bulk.run(object_counts=(5, 20), lp_max_objects=5, ra_max_objects=20)
        assert len(rows) == 2
        assert all(row["bulk_sql_seconds"] > 0 for row in rows)
        assert rows[0]["per_object_lp_seconds"] is not None
        assert rows[1]["per_object_lp_seconds"] is None
        summary = fig8c_bulk.summarize(rows)
        assert summary["largest_object_count"] == 20

    def test_fig8c_shard_sweep_rows(self):
        sweep = fig8c_bulk.run_shard_sweep(
            object_counts=(30,), shard_counts=(1, 2)
        )
        assert [row["shards"] for row in sweep] == [1, 2]
        summary = fig8c_bulk.summarize_shard_sweep(sweep)
        assert summary["statements_per_shard_fixed"]
        assert summary["one_transaction_per_shard"]
        assert summary["largest_shard_count"] == 2
        assert 0.0 < summary["mean_shard_balance"] <= 1.0

    def test_fig8_incremental_rows(self):
        from repro.experiments import fig8_incremental

        rows = fig8_incremental.run(sizes=(80, 400), workload="fig8a")
        assert [row["workload"] for row in rows] == ["fig8a", "fig8a"]
        assert all(row["byte_identical"] for row in rows)
        assert all(row["dirty_region"] >= 1 for row in rows)
        assert all(row["delta_apply_seconds"] > 0 for row in rows)
        summary = fig8_incremental.summarize(rows)
        assert summary["all_byte_identical"]
        assert summary["largest_size"] == rows[-1]["size"]

    def test_fig8_incremental_web_rows(self):
        from repro.experiments import fig8_incremental

        rows = fig8_incremental.run(sizes=(150,), workload="fig8b")
        assert rows[0]["byte_identical"]
        assert rows[0]["rows_touched"] >= 1

    def test_fig8_incremental_rejects_unknown_workload(self):
        from repro.experiments import fig8_incremental

        with pytest.raises(ValueError):
            fig8_incremental.run(sizes=(80,), workload="fig9z")

    def test_fig11_rows(self):
        rows = fig11_binarization.run(clique_sizes=(4, 6))
        assert all(row["binarized_users"] == row["expected_users"] for row in rows)
        summary = fig11_binarization.summarize(rows)
        assert summary["edge_factor_below_2"]
        assert summary["size_factor_below_3"]

    def test_fig15_rows(self):
        rows = fig15_worstcase.run(block_counts=(5, 10), repeats=1)
        assert [row["k"] for row in rows] == [5, 10]
        assert all(row["size"] == row["expected_size"] for row in rows)


class TestFeatureTable:
    def test_rows_have_all_columns(self):
        rows = feature_rows()
        assert len(rows) >= 5
        for row in rows:
            assert set(FEATURE_COLUMNS) <= set(row)

    def test_this_paper_supports_everything(self):
        rows = {row["system"]: row for row in feature_rows()}
        ours = rows["This paper (trust-mapping resolution)"]
        assert all(ours[column] == "x" for column in FEATURE_COLUMNS)

    def test_render(self):
        text = render_feature_table()
        assert "Orchestra" in text and "Youtopia" in text
