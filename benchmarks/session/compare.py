"""Compare two result sets of the engine-session benchmark.

Each result set is a JSON-lines file written by ``run.py --out``.  Run the
two sides interleaved, with the parent checked out in ``a/`` and the change
in ``b/``, alternating which runs first, so that the i-th run of each side
forms a pair measured under the same machine weather::

    for i in $(seq 10); do
      order="a b"; [ $((i % 2)) = 0 ] && order="b a"
      for side in $order; do
        (cd $side && python3 benchmarks/session/run.py --out ../$side.jsonl)
      done
    done
    python3 benchmarks/session/compare.py a.jsonl b.jsonl --claim cycles-stream:apply_ms_p50

For every workload and end-to-end metric it prints each side's median and
quartiles and one verdict, using the bound and direction ``BENCHMARK.json``
fixes for the metric:

``unresolved``
    the run-to-run spread (quartile distance over median, the wider side) is
    larger than the bound, and not every B run beats every A run;
``regressed``
    B's median is worse than A's by more than the bound;
``improved``
    B wins at least nine tenths of the pairs (ties count for neither) and the
    medians differ by more than A's quartile distance;
``within-bound``
    otherwise.

Every record of either side counts, in file order: a workload with a run
that is incorrect, has failed operations, has no metrics or ran at smoke-test
sizes, or whose two sides have different run counts, is not compared and
fails.  A ``--claim workload:metric`` is met only by ``improved`` over at
least ten pairs.  Every workload process times a fixed pure-Python loop
beside each timed call, and ``host.calib_s`` is the run's median reading;
pairs whose readings differ by more than 10% are flagged as machine
weather.  The end-to-end values are already host-adjusted by those
readings, so a flagged pair says the wall times moved, not that the
comparison is void.  The exit status is 1 when any
workload is not compared, any metric regressed or is unresolved, or a claim
is not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Calibration readings of a pair further apart than this are flagged.
WEATHER = 0.10
#: Pairs a claimed gain needs.
CLAIM_PAIRS = 10


def load_runs(path: str) -> Dict[str, List[Dict[str, object]]]:
    """Every untraced record of one result set, by workload, in file order."""
    runs: Dict[str, List[Dict[str, object]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if not record.get("trace"):
                runs.setdefault(record["workload"], []).append(record)
    return runs


def unusable(record: Dict[str, object]) -> Optional[str]:
    """Why a run cannot be compared, or None."""
    if not record.get("correct"):
        return "incorrect"
    if record.get("failed"):
        return f"{record['failed']} failed operations"
    if "metrics" not in record:
        return "no metrics"
    if record.get("size") != "full":
        return "smoke-test sizes"
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    a: Sequence[float], b: Sequence[float], bound: float, lower_is_better: bool
) -> Dict[str, object]:
    """Compare one metric of one workload between the two sides."""
    sign = 1.0 if lower_is_better else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worse = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    every_b_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not every_b_better:
        outcome = "unresolved"
    elif worse > bound:
        outcome = "regressed"
    elif pairs and wins >= 0.9 * len(pairs) and abs(b_med - a_med) > a_q3 - a_q1:
        outcome = "improved"
    else:
        outcome = "within-bound"
    return {
        "a": (a_q1, a_med, a_q3),
        "b": (b_q1, b_med, b_q3),
        "worse": worse,
        "spread": spread,
        "wins": wins,
        "pairs": len(pairs),
        "verdict": outcome,
    }


def weather(a_runs, b_runs) -> List[int]:
    """Indices of pairs whose host calibrations differ by more than 10%."""
    flagged = []
    for index, (a, b) in enumerate(zip(a_runs, b_runs)):
        ca, cb = a["host"]["calib_s"], b["host"]["calib_s"]
        if abs(ca - cb) / min(ca, cb) > WEATHER:
            flagged.append(index)
    return flagged


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline result set (run.py --out)")
    parser.add_argument("b", help="candidate result set (run.py --out)")
    parser.add_argument(
        "--claim",
        action="append",
        default=[],
        metavar="WORKLOAD:METRIC",
        help="a metric the candidate claims to improve (repeatable)",
    )
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text())
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    claims = set(args.claim)
    failing = False
    seen = set()
    header = (
        f"{'workload':<14} {'metric':<14} {'A median [q1, q3]':>30} "
        f"{'B median [q1, q3]':>30} {'worse':>7} {'spread':>7} {'bound':>6} "
        f"{'won':>5}  verdict"
    )
    print(header)
    print("-" * len(header))
    for entry in benchmark["workloads"]:
        workload = entry["name"]
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        problems = [
            f"{side} run {index + 1} {why}"
            for side, runs in (("A", a), ("B", b))
            for index, run in enumerate(runs)
            if (why := unusable(run))
        ]
        if not a or len(a) != len(b):
            problems.append(f"{len(a)} A runs against {len(b)} B runs")
        if problems:
            print(f"{workload:<14} not compared: {'; '.join(problems)}")
            failing = True
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            result = verdict(
                [run["metrics"][name] for run in a],
                [run["metrics"][name] for run in b],
                metric["bound"],
                metric["better"] == "lower",
            )
            claim = f"{workload}:{name}"
            seen.add(claim)
            mark = ""
            if claim in claims:
                met = result["verdict"] == "improved" and len(a) >= CLAIM_PAIRS
                mark = "  CLAIM MET" if met else "  CLAIM NOT MET"
                if len(a) < CLAIM_PAIRS:
                    mark += f" ({len(a)} pairs, a claim needs {CLAIM_PAIRS})"
                failing = failing or not met
            failing = failing or result["verdict"] in ("regressed", "unresolved")
            a_q1, a_med, a_q3 = result["a"]
            b_q1, b_med, b_q3 = result["b"]
            print(
                f"{workload:<14} {name:<14} "
                f"{f'{a_med:.4g} [{a_q1:.4g}, {a_q3:.4g}]':>30} "
                f"{f'{b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]':>30} "
                f"{result['worse']:>+7.1%} {result['spread']:>7.1%} "
                f"{metric['bound']:>6.0%} {result['wins']:>2}/{result['pairs']:<2}  "
                f"{result['verdict']}{mark}"
            )
        flagged = weather(a, b)
        calib = [
            f"{x['host']['calib_s'] * 1e6:.0f}/{y['host']['calib_s'] * 1e6:.0f}"
            for x, y in zip(a, b)
        ]
        print(
            f"{workload:<14} pairs {len(a)}; calib us A/B: {' '.join(calib)}; "
            f"machine weather (>10% calib gap) in pairs: {flagged or 'none'}"
        )
    for claim in sorted(claims - seen):
        print(f"unknown claim {claim}: no such workload and metric")
        failing = True
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())
