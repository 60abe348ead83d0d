"""One measured engine session: the workload process of the session benchmark.

Run by ``run.py`` (one process per workload, one thread, environment
scrubbed of ``REPRO_*``)::

    PYTHONPATH=src python -m benchmarks.session.workload --workload web-session

The process generates its inputs from ``--seed`` before any timer starts,
then drives one :class:`~repro.engine.ResolutionEngine` session through the
public API as one closed-loop client:

1. ``SETUPS`` cold setups, ``open`` + ``materialize(compiled=True)`` on a
   fresh network copy and a fresh store; the last engine is kept;
2. round trips until ``--seconds`` have passed since the first setup began,
   at least ``MIN_ROUNDS``.  A round trip is a sequence of excursions, each
   ``EXCURSION`` forward batches followed by the batches that undo them,
   newest first; so it ends where it began and every round trip repeats
   the same applies on the same states.  Each apply is followed by
   ``queries_per_apply`` store-mode queries, and each round trip by
   ``warm`` warm materializations;
3. the correctness gate.

Every timed call is host-adjusted: its wall time is scaled by
``REFERENCE_S`` over the mean of the host readings (:func:`host_reading`)
taken right before and right after it.  The host is shared, and its speed
drifts up to 2x over tens of seconds; an adjusted time is what the call
would take with the host at the speed where a reading takes
``REFERENCE_S``.  The wall times are kept in the record as ``raw``.

A traced run (``--trace 1``) makes one round trip with two engines in
lockstep: each verb call runs on the first with the layer wrappers
installed and on the second, next to it, with the original functions in
place, which is what ``trace.overhead`` compares.

It prints one JSON record as the last line of standard output and exits
non-zero when a verb raised or the gate failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import shutil
import sqlite3
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.bulk.store import PossStore
from repro.core.network import TrustNetwork
from repro.core.resolution import resolve
from repro.engine import ResolutionEngine
from repro.incremental.deltas import (
    AddTrust,
    Delta,
    RemoveBelief,
    RemoveTrust,
    SetBelief,
    SetPriority,
)
from repro.obs.export import export_chrome_trace
from repro.workloads.oscillators import oscillator_network
from repro.workloads.powerlaw import WebWorkloadConfig, web_trust_network
from repro.workloads.updates import generate_update_stream

from .layers import VERBS, LayerRecorder, check_shares, format_table

ROOT = Path(__file__).resolve().parents[2]

#: Scratch space for file-backed stores; inside the checkout, removed after.
SCRATCH = ROOT / ".session-bench"

#: Cold setups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Round trips a run makes at least, whatever ``--seconds`` says.
MIN_ROUNDS = 2
#: Forward batches per excursion.  A delta can leave the network in a state
#: that makes every later apply up to 2x dearer until it is undone: with one
#: 50-delta stream per seed, cycles-stream's apply median read anywhere from
#: 13 to 23 ms by seed.  Excursions undo their deltas after a few applies, so
#: an apply's cost depends on its own delta and a round trip averages many.
EXCURSION = 5
BELIEF_VALUES = tuple(f"val{i}" for i in range(5))
#: Generator seed of the web graphs and the object beliefs (see :func:`generate`).
GRAPH_SEED = 0
#: Iterations of the host-speed loop; one reading takes about half a
#: millisecond, about 1% of an apply.
HOST_LOOP = 4000
#: Seconds one host reading takes at the reference speed.  It only sets the
#: scale of adjusted times; 0.4 ms is near the fastest readings on the
#: 2-vCPU Xeon VM (Python 3.11.7) the bounds were set on, so adjusted times
#: are close to that host's wall times when undisturbed.
REFERENCE_S = 0.0004


@dataclass(frozen=True)
class Spec:
    """Sizes and session shape of one workload."""

    family: str  # "web" (Fig 8b graph) or "oscillators" (Fig 8a clusters)
    size: int  # web domains, or oscillator clusters of 4 users
    keys: int  # object keys the session maintains
    file_backed: bool
    #: objects-bulk applies batches of key-scoped SetBelief deltas; the
    #: single-key workloads apply consecutive generate_update_stream deltas.
    deltas_per_apply: int
    applies: int  # forward apply calls; a round trip makes twice as many
    queries_per_apply: int
    warm: int = 5  # warm materializations per round trip


WORKLOADS: Dict[str, Spec] = {
    "objects-bulk": Spec("web", 1000, 50, False, 5, 100, 50),
    # Stream deltas either dirty most of the users or a handful; three per
    # apply keep most applies in the big-region mode.
    "web-session": Spec("web", 2000, 1, False, 3, 100, 50),
    "cycles-stream": Spec("oscillators", 3000, 1, True, 1, 100, 50),
}

#: The smoke-test sizes: every code path, in about a second per workload.
TINY: Dict[str, Spec] = {
    name: replace(
        spec,
        size=40 if spec.family == "web" else 20,
        keys=min(spec.keys, 4),
        applies=EXCURSION,
        queries_per_apply=3,
        warm=1,
    )
    for name, spec in WORKLOADS.items()
}


# --------------------------------------------------------------------------- #
# inputs                                                                        #
# --------------------------------------------------------------------------- #


@dataclass
class Inputs:
    network: TrustNetwork
    keys: Tuple[str, ...]
    beliefs_by_key: Optional[Dict[str, Dict[str, str]]]
    #: The batches of one round trip, one per apply call: excursions of
    #: EXCURSION forward batches, each followed by their inverses.
    round_trip: List[Tuple[Delta, ...]]
    #: (user, key) pairs to query, ``queries_per_apply`` after each apply of
    #: a round trip.
    queries: List[Tuple[str, str]]
    #: Keys whose from-scratch resolve() the gate compares.
    checked_keys: Tuple[str, ...]


def generate(spec: Spec, seed: int) -> Inputs:
    """All inputs of one run, a pure function of ``spec`` and ``seed``.

    The network and its object beliefs are fixed per workload, and ``seed``
    draws the deltas and the queries.  Web graphs from different generator
    seeds differ up to 1.9x in rows and 2.5x in materialize time, which
    would let the seed rather than the program decide the numbers; fixed,
    every setup and materialization of a workload does the same work.  The
    streams have no ``RemoveUser``, whose inverse would have to rebuild the
    user.
    """
    rng = random.Random(seed)
    if spec.family == "web":
        network = web_trust_network(WebWorkloadConfig(n_domains=spec.size, seed=GRAPH_SEED))
    else:
        network = oscillator_network(spec.size)
    keys = tuple(f"k{index}" for index in range(spec.keys))
    beliefs_by_key = None
    if spec.keys > 1:
        believers = sorted(
            (user for user in network.users if network.has_explicit_belief(user)),
            key=str,
        )
        fixed = random.Random(GRAPH_SEED)
        beliefs_by_key = {
            key: {user: fixed.choice(BELIEF_VALUES) for user in believers}
            for key in keys
        }
        checked_keys = tuple(sorted(rng.sample(keys, min(4, len(keys)))))
    else:
        checked_keys = keys
    round_trip = []
    for _ in range(spec.applies // EXCURSION):
        if beliefs_by_key is not None:
            batches = [
                tuple(
                    SetBelief(
                        rng.choice(believers), rng.choice(BELIEF_VALUES), key=rng.choice(keys)
                    )
                    for _ in range(spec.deltas_per_apply)
                )
                for _ in range(EXCURSION)
            ]
        else:
            stream = generate_update_stream(
                network,
                n_ops=EXCURSION * spec.deltas_per_apply,
                seed=rng.randrange(2**32),
                values=BELIEF_VALUES,
                weights={"remove_user": 0.0},
            )
            step = spec.deltas_per_apply
            batches = [tuple(stream[i : i + step]) for i in range(0, len(stream), step)]
        round_trip += batches + inverses(network, beliefs_by_key, batches)
    users = sorted(str(user) for user in network.users)
    queries = [
        (rng.choice(users), rng.choice(keys))
        for _ in range(len(round_trip) * spec.queries_per_apply)
    ]
    return Inputs(network, keys, beliefs_by_key, round_trip, queries, checked_keys)


def inverses(network: TrustNetwork, beliefs, batches) -> List[Tuple[Delta, ...]]:
    """The batches that undo ``batches``, in the order that undoes them."""
    network = network.copy()
    beliefs = None if beliefs is None else {key: dict(values) for key, values in beliefs.items()}
    undo = []
    for batch in batches:
        inverse: List[Delta] = []
        for delta in batch:
            inverse[:0] = _inverse(network, beliefs, delta)
            replay(network, beliefs, delta)
        undo.append(tuple(inverse))
    return undo[::-1]


def _inverse(network: TrustNetwork, beliefs, delta: Delta) -> List[Delta]:
    """The deltas that undo ``delta`` on ``network`` as it is before it."""
    if beliefs is not None:
        return [SetBelief(delta.user, beliefs[delta.key][delta.user], key=delta.key)]
    if isinstance(delta, (SetBelief, RemoveBelief)):
        old = network.explicit_positive_value(delta.user)
        return [RemoveBelief(delta.user)] if old is None else [SetBelief(delta.user, old)]
    if isinstance(delta, AddTrust):
        return [RemoveTrust(delta.child, delta.parent)]
    edges = [edge for edge in network.incoming(delta.child) if edge.parent == delta.parent]
    if isinstance(delta, RemoveTrust):
        return [AddTrust(edge.child, edge.parent, edge.priority) for edge in edges]
    if isinstance(delta, SetPriority):
        return [SetPriority(delta.child, delta.parent, edges[0].priority)]
    raise TypeError(f"no inverse for {delta!r}")


def replay(network: TrustNetwork, beliefs, delta: Delta) -> None:
    """Apply one of the benchmark's deltas to a private copy of the inputs."""
    if beliefs is not None:
        # Multi-key sessions only receive key-scoped SetBelief deltas.
        if not isinstance(delta, SetBelief):
            raise TypeError(f"unexpected delta on a multi-key session: {delta!r}")
        beliefs[delta.key][delta.user] = delta.value
    elif isinstance(delta, SetBelief):
        network.set_explicit_belief(delta.user, delta.value)
    elif isinstance(delta, RemoveBelief):
        network.remove_explicit_belief(delta.user)
    elif isinstance(delta, AddTrust):
        network.add_trust(delta.child, delta.parent, delta.priority)
    elif isinstance(delta, RemoveTrust):
        network.remove_trust(delta.child, delta.parent)
    elif isinstance(delta, SetPriority):
        network.set_priority(delta.child, delta.parent, delta.priority)
    else:
        raise TypeError(f"unknown delta {delta!r}")


def expected_possible(inputs: Inputs, applied) -> Dict[str, Dict[str, FrozenSet[str]]]:
    """From-scratch ``resolve()`` of each checked key after the ``applied`` batches."""
    network = inputs.network.copy()
    beliefs = (
        None
        if inputs.beliefs_by_key is None
        else {key: dict(values) for key, values in inputs.beliefs_by_key.items()}
    )
    for batch in applied:
        for delta in batch:
            replay(network, beliefs, delta)
    expected = {}
    for key in inputs.checked_keys:
        keyed = network
        if beliefs is not None:
            keyed = TrustNetwork(
                users=network.users, mappings=network.mappings, explicit_beliefs=beliefs[key]
            )
        expected[key] = _possible_map(resolve(keyed).possible)
    return expected


def _possible_map(possible) -> Dict[str, FrozenSet[str]]:
    return {
        str(user): frozenset(str(value) for value in values)
        for user, values in possible.items()
        if values
    }


# --------------------------------------------------------------------------- #
# the session                                                                   #
# --------------------------------------------------------------------------- #


def _percentile(samples: Sequence[float], percent: int) -> float:
    """Linearly interpolated percentile (``statistics.quantiles``, inclusive)."""
    return statistics.quantiles(samples, n=100, method="inclusive")[percent - 1]


def host_reading() -> float:
    """Seconds of a fixed pure-Python loop: how fast the host runs right now."""
    started = time.perf_counter()
    total = 0
    table = {}
    for index in range(HOST_LOOP):
        total += index * index
        table[index & 255] = total
    return time.perf_counter() - started


def _speed(before: float, after: float) -> float:
    """Factor that turns wall seconds between two host readings into adjusted seconds."""
    return REFERENCE_S * 2 / (before + after)


class Session:
    """Drive one workload's engine session and collect its samples."""

    def __init__(self, spec: Spec, inputs: Inputs, workdir: Path, recorder) -> None:
        self.spec = spec
        self.inputs = inputs
        self.workdir = workdir
        self.recorder = recorder
        #: Host-adjusted and wall seconds of each timed call, by metric:
        #: ``setup`` and ``materialize`` are flat lists, ``apply`` and
        #: ``query`` one list per measured round trip, in stream order.
        self.adjusted: Dict[str, list] = {"setup": [], "materialize": [], "apply": [], "query": []}
        self.raw: Dict[str, list] = {name: [] for name in self.adjusted}
        #: Every host reading, in seconds.
        self.readings: List[float] = []
        #: A traced run's verb calls, keyed by whether the layer wrappers
        #: were installed, then by verb.
        self.paired: Dict[bool, Dict[str, List[float]]] = {
            traced: {verb: [] for verb in VERBS} for traced in (True, False)
        }
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.plan_sources: Counter = Counter()
        self.retries = 0
        self.peak_rss_mb: Optional[float] = None
        self.gate_failures: List[str] = []
        self._answers: Optional[list] = None
        self._stores = 0

    def read_host(self) -> float:
        reading = host_reading()
        self.readings.append(reading)
        return reading

    def call(self, verb: str, traced: bool, function, *args, **kwargs):
        """One timed engine verb call; returns ``(result, seconds)``."""
        self.attempted += 1
        recorder = self.recorder if traced else None
        with recorder if recorder is not None else contextlib.nullcontext():
            # The span the layer spans nest under (see layers.LayerRecorder).
            span = recorder.tracer.start(f"engine.{verb}") if recorder is not None else None
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except Exception:
                self.failed += 1
                raise
            finally:
                elapsed = time.perf_counter() - started
                if span is not None:
                    recorder.tracer.finish(span)
        if self.recorder is not None:
            self.paired[traced][verb].append(elapsed)
        return result, elapsed

    def _count(self, traced: bool, report) -> None:
        if traced:
            self.plan_sources[report.plan_source] += 1

    def _keep(self, metric: str, seconds: float, before: float, after: float) -> None:
        """Record one setup or materialization, host-adjusted by the readings around it."""
        self.raw[metric].append(seconds)
        self.adjusted[metric].append(seconds * _speed(before, after))

    def open(self, traced: bool) -> ResolutionEngine:
        """A cold setup: ``open`` + first ``materialize`` on fresh copies."""
        inputs = self.inputs
        network = inputs.network.copy()
        self._stores += 1
        path = ":memory:"
        if self.spec.file_backed:
            path = str(self.workdir / f"store{self._stores}.db")
        gc.collect()
        before = self.read_host()

        def open_engine() -> ResolutionEngine:
            return ResolutionEngine.open(
                network,
                store=PossStore(path),
                keys=inputs.keys,
                beliefs_by_key=inputs.beliefs_by_key,
                mode="store",
                pool_workers=0,
            )

        engine, opened = self.call("open", traced, open_engine)
        report, materialized = self.call("materialize", traced, engine.materialize, compiled=True)
        self._count(traced, report)
        self._keep("setup", opened + materialized, before, self.read_host())
        return engine

    def close(self, engine: ResolutionEngine) -> None:
        self.retries += engine.store.retries
        engine.close()

    def materialize(self, engines, tracing) -> None:
        for index in range(self.spec.warm):
            for _, engine, traced in self._order(index, engines, tracing):
                before = self.read_host()
                report, elapsed = self.call("materialize", traced, engine.materialize, compiled=True)
                self._count(traced, report)
                self._keep("materialize", elapsed, before, self.read_host())

    @staticmethod
    def _order(index: int, engines, tracing):
        """``(lane, engine, traced)`` for the index-th call, first lane alternating."""
        lanes = list(zip(range(len(engines)), engines, tracing))
        return lanes if index % 2 == 0 else lanes[::-1]

    def round_trip(self, engines, tracing) -> None:
        """Apply every batch of a round trip, querying after each.

        The first round trip checks every answer against ``engine.resolve()``,
        outside the timed calls; later ones must give the first one's answers.
        """
        first = self._answers is None
        answers = []
        raw: Dict[str, List[float]] = {"apply": [], "query": []}
        adjusted: Dict[str, List[float]] = {"apply": [], "query": []}
        pairs = iter(self.inputs.queries)
        gc.collect()
        before = self.read_host()
        for index, batch in enumerate(self.inputs.round_trip):
            asked = [next(pairs) for _ in range(self.spec.queries_per_apply)]
            timed = []
            for lane, engine, traced in self._order(index, engines, tracing):
                report, elapsed = self.call("apply", traced, engine.apply, *batch)
                self._count(traced, report)
                timed.append(("apply", elapsed))
                values = []
                for user, key in asked:
                    value, elapsed = self.call("query", traced, engine.query, user, key)
                    timed.append(("query", elapsed))
                    values.append(value)
                if first:
                    self.check_answers(engine, asked, values)
                if lane == 0:
                    answers += values
            after = self.read_host()
            speed = _speed(before, after)
            for metric, elapsed in timed:
                raw[metric].append(elapsed)
                adjusted[metric].append(elapsed * speed)
            before = after
        if first:
            self._answers = answers
        elif answers != self._answers:
            self.gate_failures.append(
                "query answers: a round trip answered differently from the first"
            )
        self.rounds += 1
        for metric in raw:
            self.raw[metric].append(raw[metric])
            self.adjusted[metric].append(adjusted[metric])

    def run(self, seconds: float) -> None:
        """The untraced session: setups, round trips for ``seconds``, gates."""
        started = time.perf_counter()
        engine = None
        for _ in range(SETUPS):
            if engine is not None:
                self.close(engine)
            engine = self.open(False)
        try:
            while self.rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
                self.round_trip([engine], (False,))
                self.materialize([engine], (False,))
            # Read before any gate: the gates hold the whole relation in
            # Python objects and would otherwise set the peak.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            self.gate(engine, "after the round trips", applied=())
            excursion = self.inputs.round_trip[:EXCURSION]
            for batch in excursion:
                self.call("apply", False, engine.apply, *batch)
            self.gate(engine, "after one excursion's forward batches", applied=excursion)
        finally:
            self.close(engine)

    def run_traced(self) -> None:
        """Two engines in lockstep through setup, materializations and one round trip."""
        tracing = (True, False)
        engines = []
        try:
            for traced in tracing:
                engines.append(self.open(traced))
            self.materialize(engines, tracing)
            self.round_trip(engines, tracing)
            for engine in engines:
                self.gate(engine, "after a round trip", applied=())
        finally:
            for engine in engines:
                self.close(engine)

    # -- correctness ---------------------------------------------------------

    def check_answers(self, engine, asked, answers) -> None:
        """Store-mode answers must match the engine's in-memory state."""
        if not asked:
            return
        resolutions = engine.resolve().resolutions
        wrong = [
            (user, key)
            for (user, key), values in zip(asked, answers)
            if values != frozenset(str(v) for v in resolutions[key].possible.get(user, ()))
        ]
        if wrong:
            self.gate_failures.append(
                f"query answers: {len(wrong)} of {len(asked)} store-mode "
                f"answers differ from engine.resolve(), first {wrong[0]}"
            )

    def gate(self, engine, label: str, applied) -> None:
        """Store rows == engine.resolve() rows == from-scratch resolve() after ``applied``."""
        resolutions = engine.resolve().resolutions
        engine_rows = {
            (str(user), key, str(value))
            for key, result in resolutions.items()
            for user, values in result.possible.items()
            for value in values
        }
        store_rows = {(row.user, row.key, row.value) for row in engine.store.possible_table()}
        if store_rows != engine_rows:
            self.gate_failures.append(
                f"{label}: store.possible_table() and engine.resolve() differ "
                f"in {len(store_rows ^ engine_rows)} rows"
            )
        del store_rows, engine_rows
        for key, expected in expected_possible(self.inputs, applied).items():
            actual = _possible_map(resolutions[key].possible)
            if actual != expected:
                differing = {
                    user
                    for user in set(expected) | set(actual)
                    if expected.get(user) != actual.get(user)
                }
                self.gate_failures.append(
                    f"{label}: engine.resolve() and a from-scratch resolve() "
                    f"differ for key {key!r} on {len(differing)} users"
                )

    # -- results ------------------------------------------------------------

    def end_to_end(self, times: Dict[str, list]) -> Dict[str, float]:
        """The end-to-end metrics from one set of call times.

        Each apply and query of the round trip is taken at its fastest round,
        the one the host disturbed least (host adjustment under-corrects
        when the host is very slow); the percentiles are over those.
        """
        applies = [min(rounds) for rounds in zip(*times["apply"])]
        queries = [min(rounds) for rounds in zip(*times["query"])]
        deltas = sum(len(batch) for batch in self.inputs.round_trip)
        return {
            "setup_s": statistics.median(times["setup"]),
            "materialize_s": statistics.median(times["materialize"]),
            "apply_ms_p50": _percentile(applies, 50) * 1e3,
            "apply_ms_p90": _percentile(applies, 90) * 1e3,
            "deltas_per_s": deltas / sum(applies),
            "query_us_p50": _percentile(queries, 50) * 1e6,
            "query_us_p90": _percentile(queries, 90) * 1e6,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def trace_overhead(self) -> Dict[str, float]:
        """Traced over untraced time of the same calls, made side by side.

        ``trace.overhead.<verb>`` is the median ratio of a traced call to
        its untraced twin; ``trace.overhead`` weights those by the verbs'
        untraced time.
        """
        values = {}
        weighted = total = 0.0
        for verb in VERBS:
            traced, untraced = self.paired[True][verb], self.paired[False][verb]
            ratio = statistics.median(t / u for t, u in zip(traced, untraced))
            values[f"trace.overhead.{verb}"] = ratio
            weighted += sum(untraced) * ratio
            total += sum(untraced)
        values["trace.overhead"] = weighted / total
        return values


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool,
    trace_dir: Optional[Path],
) -> Dict[str, object]:
    """Run one workload and return its JSON-ready record."""
    spec = (TINY if tiny else WORKLOADS)[workload]
    inputs = generate(spec, seed)
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    recorder = LayerRecorder() if trace else None
    session = Session(spec, inputs, workdir, recorder)
    error = None
    try:
        if trace:
            session.run_traced()
        else:
            session.run(seconds)
    except Exception:
        error = traceback.format_exc()
        sys.stderr.write(error)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when no concurrent run still uses it

    for failure in session.gate_failures:
        sys.stderr.write(f"correctness gate failed: {failure}\n")
    record: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "size": "tiny" if tiny else "full",
        "trace": int(trace),
        "correct": error is None and not session.gate_failures,
        "gate_failures": session.gate_failures,
        "error": error,
        "attempted": session.attempted,
        "failed": session.failed,
        "rounds": session.rounds,
        "deltas": sum(len(batch) for batch in inputs.round_trip) * session.rounds,
        "host": {
            "calib_s": statistics.median(session.readings) if session.readings else None,
            "python": platform.python_version(),
            "sqlite": sqlite3.sqlite_version,
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    if error is not None:
        return record
    if recorder is None:
        # Plain values: BENCHMARK.json names the reported metrics and their units.
        record["metrics"] = session.end_to_end(session.adjusted)
        record["metrics"]["ops_failed_frac"] = session.failed / session.attempted
        record["raw"] = session.end_to_end(session.raw)
        return record
    values = recorder.metrics(session.plan_sources, session.retries)
    values.update(session.trace_overhead())
    checks = check_shares(workload, values)
    record["per_layer"] = values
    record["checks"] = checks
    record["fired"] = list(recorder.fired())
    if trace_dir is not None:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {entry["name"]: entry["unit"] for entry in benchmark["per_layer"]}
        trace_dir.mkdir(parents=True, exist_ok=True)
        export_chrome_trace(recorder.tracer, str(trace_dir / f"{workload}.trace.json"))
        (trace_dir / f"{workload}.layers.txt").write_text(
            format_table(workload, values, checks, units) + "\n"
        )
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    record = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, args.trace_dir
    )
    sys.stdout.write(json.dumps(record) + "\n")
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
