"""Entry point of the engine-session benchmark.

One workload, in the form automated runs use (the last line of standard
output is the result JSON; ``--trace 1`` reports the per-layer metrics)::

    python3 benchmarks/session/run.py --workload web-session --seed 7 --seconds 25 --trace 0

Every workload, printed as tables (``--trace 1`` adds the per-layer split and,
with ``--trace-dir``, writes a Chrome trace and a layer table per workload)::

    python3 benchmarks/session/run.py --seed 7
    python3 benchmarks/session/run.py --seed 7 --trace 1 --trace-dir session-traces

Each workload runs in its own process (``benchmarks.session.workload``) whose
environment has every ``REPRO_*`` variable removed, so fault injection and
pool settings cannot leak in.  ``--out FILE`` appends each process's full
record (metrics, host calibration, versions, seed, wall time) as a JSON line;
``compare.py`` reads two such files.  The exit status is non-zero when a
verb raised, the correctness gate failed, or the program is missing.

This file uses the standard library only, so it can report a missing
program instead of failing on an import.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = ROOT / "BENCHMARK.json"

#: A workload process that outlives this is killed; well inside the 180 s a
#: run may take, so the failure is still reported.
CHILD_TIMEOUT_S = 170


def child_env() -> Dict[str, str]:
    """This process's environment without ``REPRO_*``, with ``src`` importable."""
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Fixed string hashing, so set and dict orders repeat for one seed.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, args: argparse.Namespace) -> Dict[str, object]:
    """Run one workload process and return its record (plus ``run_s``)."""
    command = [
        sys.executable,
        "-m",
        "benchmarks.session.workload",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.tiny:
        command.append("--tiny")
    if args.trace and args.trace_dir is not None:
        command += ["--trace-dir", str(Path(args.trace_dir).resolve())]
    started = time.perf_counter()
    try:
        completed = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {
            "workload": workload,
            "correct": False,
            "error": f"workload process exceeded {CHILD_TIMEOUT_S} s",
            "attempted": 0,
            "failed": 0,
            "run_s": time.perf_counter() - started,
        }
    run_s = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {
            "workload": workload,
            "correct": False,
            "error": f"workload process printed no record (exit {completed.returncode})",
            "attempted": 0,
            "failed": 0,
        }
    record["run_s"] = run_s
    record["exit_code"] = completed.returncode
    if completed.returncode != 0:
        record["correct"] = False
    return record


def select(
    names: Sequence[Dict[str, str]], values: Dict[str, float]
) -> Dict[str, Dict[str, object]]:
    """The metrics ``BENCHMARK.json`` names, with its units; all must exist."""
    missing = [entry["name"] for entry in names if entry["name"] not in values]
    if missing:
        raise SystemExit(f"error: the workload process reported no {', '.join(missing)}")
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in names
    }


def measure(
    workload: str, args: argparse.Namespace, benchmark: Dict[str, object]
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Run one workload; returns its process record and the result object."""
    record = run_child(workload, args)
    result: Dict[str, object] = {
        "correct": record["correct"],
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"],
        "metrics": {},
    }
    if record["correct"]:
        if args.trace:
            result["metrics"] = select(benchmark["per_layer"], record["per_layer"])
        else:
            result["metrics"] = select(benchmark["end_to_end"], record["metrics"])
    return record, result


def describe(workload: str, record, result) -> str:
    status = "correct" if result["correct"] else "FAILED"
    lines = [
        f"{workload}: seed {record.get('seed')}, {record.get('rounds')} measured round trips, "
        f"{result['attempted']} verb calls, {result['failed']} failed, "
        f"run {record['run_s']:.1f} s, {status}"
    ]
    for failure in record.get("gate_failures") or ():
        lines.append(f"  gate: {failure}")
    if record.get("error"):
        lines.append(f"  error: {record['error'].strip().splitlines()[-1]}")
    for name, metric in result.get("metrics", {}).items():
        lines.append(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    if not record.get("trace") and "metrics" in record:
        lines.append(f"  {'ops_failed_frac':<40} {record['metrics']['ops_failed_frac']:>14.6g} ratio")
    for check in record.get("checks", ()):
        mark = "ok" if check["holds"] else "NOT MET"
        lines.append(
            f"  check: {check['check']} = {check['share']:.1%} (expect {check['expect']}) {mark}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not BENCHMARK.is_file() or not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(
            f"error: the program is not here: {ROOT / 'src' / 'repro'} or "
            f"{BENCHMARK} is missing\n"
        )
        return 2
    benchmark = json.loads(BENCHMARK.read_text())
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=None, help="write Chrome traces and layer tables")
    parser.add_argument("--out", default=None, help="append each process record to this JSONL file")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    ok = True
    result: Dict[str, object] = {}
    for workload in [args.workload] if args.workload else workloads:
        record, result = measure(workload, args, benchmark)
        ok = ok and result["correct"] and not result["failed"]
        sys.stdout.write(describe(workload, record, result) + "\n")
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
    if args.workload:
        sys.stdout.write(json.dumps(result) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
