"""The three benchmark workloads: ``sweep``, ``refresh`` and ``serve``.

Each workload builds its inputs from the seed alone, measures untraced
for a given number of seconds (:meth:`measure`), or runs once untraced
and once under the :class:`~perfbench.tracer.Tracer` (:meth:`trace`).
Both return a :class:`Result` whose ``problems`` list is empty only when
every output check passed.

Why these three (see ``README.md`` for the full reasoning):

* ``sweep`` — the paper's all-pairs campaign with fixed sampling. Probe
  heavy: most host time is the per-cell path (crypto, addresses, engine,
  relay).
* ``refresh`` — ``repro plan --run`` + ``repro health`` at 1,000 relays.
  Circuit heavy and light on probes; runs the shard fork/steal/merge,
  isolated tasks, the planner, dataset absorb/save and live ``obs``.
* ``serve`` — a mixed read load on a frozen 1,000-relay index. No
  simulator code runs, so a write-path change must not move it.
"""

from __future__ import annotations

import gc
import itertools
import resource
import statistics
import time
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from perfbench import checks
from perfbench.tracer import Tracer
from repro.core.dataset import CampaignDataset, RttMatrix
from repro.core.parallel import ISOLATED_ESTIMATE_DECIMALS, ParallelCampaign
from repro.core.planner import CampaignPlanner
from repro.core.sampling import AdaptiveSpec, SamplePolicy
from repro.core.shard import ShardedCampaign
from repro.obs import health as obs_health
from repro.serve.index import MatrixIndex
from repro.serve.server import QueryServer
from repro.serve.telemetry import ServeTelemetry
from repro.testbeds.livetor import LiveTorTestbed

#: Relays in the world beyond the measured set, as in ``repro bench``.
SPARE_RELAYS = 15

#: Standalone set-ups timed before the measured repetitions: at least
#: ``SETUP_MIN_SAMPLES``, more while ``SETUP_BUDGET_S`` lasts (cheap
#: set-ups get more samples), never more than ``SETUP_MAX_SAMPLES``.
#: ``setup_s`` is the median over these and every repetition's own.
SETUP_MIN_SAMPLES = 5
SETUP_MAX_SAMPLES = 30
SETUP_BUDGET_S = 0.5

#: Worker processes for ``refresh`` and ``serve``'s batch phase: the
#: box the benchmark was sized on has two cores.
WORKERS = 2

clock = time.perf_counter


@dataclass
class Result:
    """What one benchmark run reports."""

    attempted: int = 0
    failed: int = 0
    #: End-to-end metrics by their own names: name -> value.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics (traced runs only): name -> value.
    layers: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    #: Sizes, repetition counts, sample counts and notes.
    info: dict[str, Any] = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Largest RSS of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _timed(fn, *args, **kwargs) -> tuple[Any, float]:
    gc.collect()
    start = clock()
    value = fn(*args, **kwargs)
    return value, clock() - start


def sample_setups(setup) -> tuple[list[float], Any]:
    """Time ``setup()`` repeatedly; returns the times and the last state."""
    times: list[float] = []
    start = clock()
    while len(times) < SETUP_MIN_SAMPLES or (
        clock() - start < SETUP_BUDGET_S and len(times) < SETUP_MAX_SAMPLES
    ):
        state = None  # free the previous state before building the next
        state, elapsed = _timed(setup)
        times.append(elapsed)
    return times, state


def _testbed_cells(testbed: LiveTorTestbed) -> int:
    cells = sum(relay.cells_processed for relay in testbed.relays)
    cells += testbed.measurement.relay_w.cells_processed
    cells += testbed.measurement.relay_z.cells_processed
    return cells


def _layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float):
    """The tracer-derived per-layer metrics shared by every workload."""
    out = {f"{layer}.self_s": s for layer, s in tracer.layer_self_s().items()}
    c = tracer.counters
    base = c.get("netsim.latency.base_calls", 0)
    out.update(
        {
            "netsim.transport.packets": c.get("netsim.transport.packets", 0),
            "netsim.latency.samples": c.get("netsim.latency.samples", 0),
            "netsim.latency.base_miss_frac": (
                c.get("netsim.routing.latency_calls", 0) / base if base else 0.0
            ),
            "netsim.addresses.calls": c.get("netsim.addresses.calls", 0),
            "tor.crypto.cells": c.get("tor.crypto.cells", 0),
            "tor.crypto.bytes": c.get("tor.crypto.bytes", 0),
            "tor.crypto.handshakes": c.get("tor.crypto.handshakes", 0),
            "tor.cells.packs": c.get("tor.cells.packs", 0),
            "tor.relay.cells": c.get("tor.relay.cells", 0),
            "tor.client.circuits": c.get("tor.client.circuits", 0),
            "tor.client.circuit_fail_frac": (
                c.get("tor.client.circuits_failed", 0)
                / max(1, c.get("tor.client.circuits", 0))
            ),
            "obs.spans": c.get("obs.spans", 0),
            "obs.provenance_rows": c.get("obs.provenance_rows", 0),
            "trace.wall_s": traced_wall,
            "trace.unattributed_s": traced_wall - sum(tracer.self_s),
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        }
    )
    return out


def _check_accounting(tracer: Tracer, wall: float, problems: list[str]) -> None:
    attributed = sum(tracer.self_s)
    if attributed > wall * (1 + 1e-9) or min(tracer.self_s) < -1e-9:
        problems.append(
            f"trace accounting: layer self times {attributed:.6f}s do not "
            f"fit in the traced wall {wall:.6f}s"
        )


# ----------------------------------------------------------------------
# Campaign workloads


@dataclass
class CampaignRun:
    """One timed campaign repetition and the outputs the checks read."""

    setup_s: float
    wall_s: float
    campaign_wall_s: float
    matrix: RttMatrix
    pairs_attempted: int
    pairs_measured: int
    pairs_failed: int
    events: int
    cells: int
    probes: int
    early_stops: int
    legs_measured: int
    circuits_leaked: int
    #: Oracle RTT of every pair the campaign was asked to measure.
    oracle: dict[tuple[str, str], float]
    testbed: LiveTorTestbed
    extra: dict[str, Any] = field(default_factory=dict)
    #: Resolution to which the matrix repeats. 0 means bit for bit. A
    #: forked ``ShardedCampaign`` repeats only to its estimate quantum:
    #: work stealing changes which worker (at which absolute sim time)
    #: measures a pair, and the nanosecond rounding then flips an
    #: occasional entry by one quantum between runs of one seed.
    quantum: float = 0.0

    @property
    def oracle_err_ms(self) -> np.ndarray:
        """|estimate - oracle| of every measured pair."""
        rtts, oracle = checks.oracle_pairs(self.matrix, self.oracle)
        return np.abs(rtts - oracle)

    def deterministic(self) -> dict[str, Any]:
        """The outputs that must repeat exactly for one seed."""
        return {
            "matrix_hash": self.matrix.content_hash(),
            "events": self.events,
            "cells": self.cells,
            "probes": self.probes,
            "oracle_err_p50_ms": float(np.median(self.oracle_err_ms)),
        }


def oracle_rtts(
    testbed: LiveTorTestbed, pairs: Iterable[tuple[str, str]]
) -> dict[tuple[str, str], float]:
    """``LiveTorTestbed.oracle_rtt`` of every fingerprint pair in ``pairs``."""
    by_fp = {relay.fingerprint: relay.descriptor() for relay in testbed.relays}
    return {(a, b): testbed.oracle_rtt(by_fp[a], by_fp[b]) for a, b in pairs}


class CampaignWorkload:
    """Shared loop of the two campaign workloads."""

    name = ""
    #: What ``circuits_leaked`` covers in a measured (untraced) run.
    leak_scope = "every circuit"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    # Subclasses provide these two.
    def setup(self) -> Any:
        raise NotImplementedError

    def execute(self, state: Any, inline: bool = False) -> CampaignRun:
        raise NotImplementedError

    @property
    def default_sizes(self) -> bool:
        raise NotImplementedError

    def sizes(self) -> dict[str, Any]:
        raise NotImplementedError

    def expected_pairs(self) -> int:
        raise NotImplementedError

    def _run(self, inline: bool = False) -> CampaignRun:
        state, setup_s = _timed(self.setup)
        gc.collect()
        run = self.execute(state, inline=inline)
        run.setup_s = setup_s
        return run

    def measure(self, seconds: float) -> Result:
        """Repeat set-up + campaign until ``seconds`` would be exceeded."""
        start = clock()
        setups, _ = sample_setups(self.setup)
        runs: list[CampaignRun] = []
        while True:
            rep_start = clock()
            runs.append(self._run())
            runs[-1].testbed = None  # free the world before the next rep
            rep_s = clock() - rep_start
            if clock() - start + rep_s > seconds:
                break
        setups += [r.setup_s for r in runs]
        result = Result()
        for run in runs:
            result.attempted += run.pairs_attempted
            result.failed += run.pairs_failed
        result.problems += checks.check_repeats(runs)
        for run in runs:
            result.problems += self.check(run)
        # Repetitions of one seed fail the same way: report each once.
        result.problems = list(dict.fromkeys(result.problems))
        first = runs[0]
        result.metrics = {
            "setup_s": statistics.median(setups),
            "pairs_per_s": statistics.median(
                r.pairs_attempted / r.wall_s for r in runs
            ),
            "events_per_s": statistics.median(
                r.events / r.campaign_wall_s for r in runs
            ),
            "oracle_err_p50_ms": float(np.median(first.oracle_err_ms)),
            "failed_frac": result.failed / max(1, result.attempted),
            "peak_rss_mb": peak_rss_mb(),
        }
        result.info = {
            "sizes": self.sizes(),
            "repetitions": len(runs),
            "setup_samples": len(setups),
            "oracle_pairs": int(first.oracle_err_ms.size),
            "circuits_leaked_covers": self.leak_scope,
            "deterministic": first.deterministic(),
            "matrix_hash_repeats": len(
                {r.deterministic()["matrix_hash"] for r in runs}
            )
            == 1,
        }
        return result

    def check(self, run: CampaignRun, inline: bool = False) -> list[str]:
        pins = checks.load_pins().get(self.name) if self.default_sizes else None
        if pins is None or pins.get("seed") != self.seed:
            pins = None
        elif inline:
            # The in-process shard emulation counts one more engine event
            # than forked workers and repeats bit for bit, where forked
            # matrices repeat only to QUANTUM_MS: it has exact pins of
            # its own.
            pins = pins["inline"]
        return checks.check_campaign(run, self.expected_pairs(), pins)

    def trace(self, seconds: float) -> Result:
        """One untraced run, then the same run traced (in one process)."""
        del seconds  # a traced run is one repetition, however long
        result = Result()
        extra_layers = self._untraced_layer_metrics(result)
        start = clock()
        baseline = self._run(inline=True)
        untraced_wall = clock() - start
        tracer = Tracer().install()
        try:
            start = clock()
            run = self._run(inline=True)
            traced_wall = clock() - start
        finally:
            tracer.uninstall()
        result.attempted = run.pairs_attempted
        result.failed = run.pairs_failed
        result.problems += checks.check_repeats([baseline, run])
        result.problems += self.check(run, inline=True)
        _check_accounting(tracer, traced_wall, result.problems)
        layers = _layer_metrics(tracer, traced_wall, untraced_wall)
        sim = run.testbed.sim
        layers.update(
            {
                "netsim.engine.events": run.events,
                "netsim.engine.cancelled_frac": sim.events_cancelled
                / max(1, tracer.counters["netsim.engine.scheduled"]),
                "netsim.engine.heap_peak": sim.heap_peak,
                "tor.client.circuits_leaked": run.circuits_leaked,
                "echo.probes": run.probes,
                "echo.probes_per_pair": run.probes / max(1, run.pairs_attempted),
                "echo.early_stops": run.early_stops,
                "core.pairs_attempted": run.pairs_attempted,
                "core.pairs_failed": run.pairs_failed,
                "core.legs_measured": run.legs_measured,
            }
        )
        layers.update(extra_layers)
        result.layers = layers
        spans = self.workdir.parent / f"spans-{self.name}-seed{self.seed}.npz"
        result.info = {
            "sizes": self.sizes(),
            "deterministic": run.deterministic(),
            "traced": "in one process (ShardedCampaign force_inline=True)"
            if self.name == "refresh"
            else "in one process",
            "circuits_leaked_covers": "every circuit",
            "spans_total": tracer.spans_total,
            "spans_kept": tracer.spans_kept,
            "spans_file": str(tracer.write_spans(spans).relative_to(spans.parents[1])),
        }
        return result

    def _untraced_layer_metrics(self, result: Result) -> dict[str, float]:
        return {}


#: Pair circuits ``sweep`` keeps in flight at once.
SWEEP_CONCURRENCY = 16


class Sweep(CampaignWorkload):
    """A fixed-sample all-pairs ``ParallelCampaign`` in one process."""

    name = "sweep"

    def __init__(
        self,
        seed: int,
        workdir: Path,
        relays: int = 16,
        samples: int = 20,
    ) -> None:
        super().__init__(seed, workdir)
        self.relays = relays
        self.samples = samples

    @property
    def default_sizes(self) -> bool:
        return (self.relays, self.samples) == (16, 20)

    def expected_pairs(self) -> int:
        return self.relays * (self.relays - 1) // 2

    def sizes(self) -> dict[str, Any]:
        return {
            "relays": self.relays,
            "pairs": self.relays * (self.relays - 1) // 2,
            "samples": self.samples,
            "interval_ms": 2.0,
            "concurrency": SWEEP_CONCURRENCY,
        }

    def setup(self):
        testbed = LiveTorTestbed.build(
            seed=self.seed, n_relays=self.relays + SPARE_RELAYS
        )
        selected = testbed.random_relays(
            self.relays, testbed.streams.get("perfbench.sweep")
        )
        return testbed, selected

    def execute(self, state, inline: bool = False) -> CampaignRun:
        testbed, selected = state
        events0 = testbed.sim.events_processed
        start = clock()
        report = ParallelCampaign(
            testbed.measurement,
            selected,
            policy=SamplePolicy(samples=self.samples, interval_ms=2.0),
            concurrency=SWEEP_CONCURRENCY,
        ).run()
        wall = clock() - start
        return CampaignRun(
            setup_s=0.0,
            wall_s=wall,
            campaign_wall_s=wall,
            matrix=report.matrix,
            pairs_attempted=report.pairs_attempted,
            pairs_measured=report.pairs_measured,
            pairs_failed=len(report.failures),
            events=testbed.sim.events_processed - events0,
            cells=_testbed_cells(testbed),
            probes=report.probes_sent,
            early_stops=report.early_stops,
            legs_measured=report.legs_measured,
            circuits_leaked=testbed.measurement.proxy.open_circuit_count,
            oracle=oracle_rtts(
                testbed, itertools.combinations([d.fingerprint for d in selected], 2)
            ),
            testbed=testbed,
        )


#: The resolution isolated (sharded) campaign estimates are rounded to.
QUANTUM_MS = 10.0 ** -ISOLATED_ESTIMATE_DECIMALS

#: ``refresh``'s probe policy: adaptive early stop under a small cap.
REFRESH_POLICY = SamplePolicy(
    samples=6,
    interval_ms=None,
    adaptive=AdaptiveSpec(absolute_ms=1.0, min_samples=2, patience=2, confirm_k=2),
)


class Refresh(CampaignWorkload):
    """Plan, sharded adaptive campaign, absorb, save, reload, health."""

    name = "refresh"
    leak_scope = (
        "leg circuits only: forked workers build the pair circuits and "
        "keep them; the traced (inline) run checks every circuit"
    )

    def __init__(
        self,
        seed: int,
        workdir: Path,
        relays: int = 1000,
        budget: int = 1000,
    ) -> None:
        super().__init__(seed, workdir)
        self.relays = relays
        self.budget = budget

    @property
    def default_sizes(self) -> bool:
        return (self.relays, self.budget) == (1000, 1000)

    def expected_pairs(self) -> int:
        return min(self.budget, self.relays * (self.relays - 1) // 2)

    def sizes(self) -> dict[str, Any]:
        return {
            "relays": self.relays,
            "budget_pairs": self.budget,
            "samples_cap": 6,
            "adaptive": "absolute_ms=1.0 min_samples=2 patience=2 confirm_k=2",
            "workers": WORKERS,
        }

    def setup(self):
        testbed = LiveTorTestbed.build(
            seed=self.seed, n_relays=self.relays + SPARE_RELAYS
        )
        relays = testbed.random_relays(
            self.relays, testbed.streams.get("perfbench.refresh")
        )
        fingerprints = [d.fingerprint for d in relays]
        plan, plan_s = _timed(
            CampaignPlanner(fingerprints, seed=self.seed).plan,
            budget_pairs=self.budget,
        )
        return testbed, fingerprints, plan, plan_s

    def execute(self, state, inline: bool = False) -> CampaignRun:
        testbed, fingerprints, plan, plan_s = state
        path = self.workdir / f"refresh-{self.seed}.npz"
        start = clock()
        report = ShardedCampaign(
            lambda: testbed,
            fingerprints,
            policy=REFRESH_POLICY,
            workers=WORKERS,
            pairs=plan.pairs,
            observe=True,
            force_inline=inline,
        ).run()
        campaign_wall = clock() - start
        t0 = clock()
        dataset = CampaignDataset(matrix=RttMatrix(fingerprints))
        dataset.absorb(
            report.matrix,
            provenance=report.provenance,
            meta={"seed": self.seed, "planned_pairs": len(plan.pairs)},
        )
        t1 = clock()
        dataset.save(path)
        t2 = clock()
        reloaded = CampaignDataset.load(path)
        t3 = clock()
        health = obs_health.health_report(reloaded, seed=self.seed)
        t4 = clock()
        shards = [s.wall_s for s in report.shards]
        leg_s = report.leg_phase.wall_s if report.leg_phase else 0.0
        busy = sum(shards)
        extra = {
            "core.planner.plan_s": plan_s,
            "core.dataset.absorb_s": t1 - t0,
            "core.dataset.save_s": t2 - t1,
            "core.dataset.npz_bytes": path.stat().st_size,
            "core.dataset.load_s": t3 - t2,
            "obs.health.report_s": t4 - t3,
            "core.shard.leg_phase_s": leg_s,
            "core.shard.worker_busy_s": busy,
            "core.shard.imbalance": max(shards) / (busy / len(shards))
            if busy
            else 1.0,
            "core.shard.chunks": sum(s.chunks for s in report.shards),
            # Forked shards overlap, so the critical path is the slowest;
            # inline shards run one after another.
            "core.shard.merge_s": report.wall_s
            - leg_s
            - (busy if inline else max(shards)),
            "health_grade": health.grade,
            "roundtrip_hash": reloaded.matrix.content_hash(),
            "dataset_hash": dataset.matrix.content_hash(),
        }
        path.unlink()
        return CampaignRun(
            setup_s=0.0,
            wall_s=clock() - start,
            campaign_wall_s=campaign_wall,
            matrix=report.matrix,
            pairs_attempted=report.pairs_attempted,
            pairs_measured=report.pairs_measured,
            pairs_failed=len(report.failures),
            events=report.events_processed,
            cells=report.cells_processed,
            probes=report.probes_sent,
            early_stops=report.early_stops,
            legs_measured=report.legs_measured,
            circuits_leaked=testbed.measurement.proxy.open_circuit_count,
            oracle=oracle_rtts(testbed, plan.pairs),
            testbed=testbed,
            extra=extra,
            quantum=0.0 if inline else QUANTUM_MS,
        )

    def _untraced_layer_metrics(self, result: Result) -> dict[str, float]:
        """Shard and dataset timings come from a forked untraced run."""
        run = self._run()
        result.problems += self.check(run)
        return {
            k: v
            for k, v in run.extra.items()
            if k.startswith(("core.", "obs.")) and isinstance(v, (int, float))
        }


# ----------------------------------------------------------------------
# Serve workload

#: The inline query mix: op -> share (the remainder is ~0.5% of queries
#: naming an unknown relay, drawn across every op).
QUERY_MIX = {"point": 0.70, "knn": 0.20, "percentile": 0.05, "path": 0.04, "via": 0.01}
UNKNOWN_SHARE = 0.005
KNN_K = 10
PATH_HOPS = 3

#: Share of ``serve``'s matrix entries left unmeasured (NaN).
HOLE_FRACTION = 0.1

#: Share of a measured ``serve`` run given to the inline phase; the batch
#: phase and the output checks take the rest.
INLINE_SHARE = 0.6


def serve_matrix(seed: int, relays: int):
    """A seeded symmetric RTT matrix with :data:`HOLE_FRACTION` NaN holes."""
    rng = np.random.default_rng([seed, 1])
    nodes = [f"relay{i:04d}" for i in range(relays)]
    iu, ju = np.triu_indices(relays, k=1)
    rtts = rng.uniform(2.0, 400.0, size=iu.size)
    rtts[rng.random(iu.size) < HOLE_FRACTION] = np.nan
    values = np.full((relays, relays), np.nan)
    values[iu, ju] = rtts
    values[ju, iu] = rtts
    return nodes, values


def serve_queries(seed: int, nodes: list[str], count: int) -> list[dict[str, Any]]:
    """``count`` seeded queries in the :data:`QUERY_MIX` proportions."""
    rng = np.random.default_rng([seed, 2])
    ops = list(QUERY_MIX)
    picks = rng.choice(len(ops), size=count, p=list(QUERY_MIX.values()))
    n = len(nodes)
    pairs = rng.integers(0, n, size=(count, 2))
    hop_rng = np.random.default_rng([seed, 3])
    qs = rng.uniform(0.0, 100.0, size=count)
    unknown = rng.random(count) < UNKNOWN_SHARE
    queries: list[dict[str, Any]] = []
    for k in range(count):
        i, j = int(pairs[k, 0]), int(pairs[k, 1])
        if i == j:
            j = (j + 1) % n
        x, y = nodes[i], nodes[j]
        if unknown[k]:
            x = f"unknown{k:06d}"
        op = ops[int(picks[k])]
        if op == "point":
            queries.append({"op": "point", "x": x, "y": y})
        elif op == "knn":
            queries.append({"op": "knn", "x": x, "k": KNN_K})
        elif op == "percentile":
            queries.append({"op": "percentile", "x": x, "q": float(qs[k])})
        elif op == "path":
            path = [
                nodes[int(h)]
                for h in hop_rng.choice(n, size=PATH_HOPS, replace=False)
            ]
            if unknown[k]:
                path[0] = x
            queries.append({"op": "path", "hops": path})
        else:
            queries.append({"op": "via", "x": x, "y": y})
    return queries


class Serve:
    """Closed-loop inline queries, then the same queries batched."""

    name = "serve"

    def __init__(
        self,
        seed: int,
        workdir: Path,
        relays: int = 1000,
        pool: int = 30_000,
    ) -> None:
        self.seed = seed
        self.workdir = workdir
        self.relays = relays
        self.pool = pool
        self.nodes, self.values = serve_matrix(seed, relays)
        self.queries = serve_queries(seed, self.nodes, pool)
        self.path = workdir / f"serve-{seed}.npz"
        matrix = RttMatrix.from_array(self.nodes, self.values, copy=True)
        CampaignDataset(matrix=matrix).save(self.path)
        self.matrix_hash = matrix.content_hash()

    @property
    def default_sizes(self) -> bool:
        return (self.relays, self.pool) == (1000, 30_000)

    def sizes(self) -> dict[str, Any]:
        return {
            "relays": self.relays,
            "hole_fraction": HOLE_FRACTION,
            "query_pool": self.pool,
            "mix": QUERY_MIX,
            "unknown_share": UNKNOWN_SHARE,
            "client": "closed loop, 1 client",
            "batch_workers": WORKERS,
        }

    def setup(self) -> tuple[QueryServer, float, float]:
        """mmap load, index build, server with ``--stats`` telemetry."""
        start = clock()
        dataset = CampaignDataset.load(self.path, mmap=True)
        loaded = clock()
        index = MatrixIndex.build(dataset)
        built = clock()
        telemetry = ServeTelemetry(slow_ms=1.0, sample_every=100)
        return QueryServer(index, telemetry=telemetry), loaded - start, built - loaded

    def _inline(self, server: QueryServer, seconds: float):
        """Cycle the query pool until ``seconds`` pass; keep pass one.

        Returns the first pass's answers, per-op latencies, queries sent,
        the phase wall, and the wall of every complete pass.
        """
        lat = {op: array("d") for op in (*QUERY_MIX, "unknown")}
        recorders = [
            lat["unknown" if _names_unknown(q) else q["op"]].append
            for q in self.queries
        ]
        query = server.query
        answers: list[dict[str, Any]] = []
        start = clock()
        deadline = start + seconds
        t1 = start
        for q, record in zip(self.queries, recorders):
            t0 = clock()
            answers.append(query(q))
            t1 = clock()
            record(t1 - t0)
            if t1 >= deadline:
                break
        passes = [t1 - start] if len(answers) == len(self.queries) else []
        while t1 < deadline:
            pass_start = t1
            for q, record in zip(self.queries, recorders):
                t0 = clock()
                query(q)
                t1 = clock()
                record(t1 - t0)
                if t1 >= deadline:
                    break
            else:
                passes.append(t1 - pass_start)
        sent = sum(len(a) for a in lat.values())
        return answers, lat, sent, t1 - start, passes

    def _batch(self, server: QueryServer, queries, seconds: float):
        walls = []
        answers = None
        start = clock()
        while not walls or clock() - start + walls[-1] <= seconds:
            got, wall = _timed(server.batch, queries, workers=WORKERS)
            walls.append(wall)
            if answers is None:
                answers = got
            del got
        return answers, walls

    def _run(self, seconds: float, result: Result) -> dict[str, Any]:
        """Set-ups, inline phase, batch phase; checks into ``result``."""
        start = clock()
        loads: list[float] = []
        builds: list[float] = []

        def setup() -> QueryServer:
            server, load_s, build_s = self.setup()
            loads.append(load_s)
            builds.append(build_s)
            return server

        setups, server = sample_setups(setup)
        remaining = max(1.0, seconds - (clock() - start))
        gc.collect()
        answers, lat, sent, inline_s, passes = self._inline(
            server, remaining * INLINE_SHARE
        )
        checked = self.queries[: len(answers)]
        remaining = max(0.5, seconds - (clock() - start))
        batch_answers, batch_walls = self._batch(server, checked, remaining * 0.7)
        failed, problems = checks.check_serve_answers(
            checked, answers, self.values, self.nodes
        )
        if batch_answers != answers:
            problems.append("serve: batch answers differ from inline answers")
        if self.default_sizes:
            pins = checks.load_pins().get("serve")
            if pins and pins.get("seed") == self.seed:
                problems += checks.check_serve_pins(
                    pins, self.matrix_hash, answers
                )
        result.attempted += sent + len(checked) * len(batch_walls)
        result.failed += failed
        result.problems += problems
        return {
            "server": server,
            "setups": setups,
            "load_s": statistics.median(loads),
            "build_s": statistics.median(builds),
            "lat": lat,
            "sent": sent,
            "inline_s": inline_s,
            "passes": passes,
            "checked": len(checked),
            "answers": answers,
            "batch_walls": batch_walls,
        }

    def measure(self, seconds: float) -> Result:
        result = Result()
        run = self._run(seconds, result)
        us = {op: np.frombuffer(a, dtype=np.float64) * 1e6 for op, a in run["lat"].items()}
        metrics = {
            "setup_s": statistics.median(run["setups"]),
            "failed_frac": result.failed / max(1, result.attempted),
            "peak_rss_mb": peak_rss_mb(),
            "qps": _median_rate(len(self.queries), run["passes"])
            or run["sent"] / run["inline_s"],
        }
        for op in ("point", "knn", "via"):
            metrics[f"{op}_p50_us"] = float(np.percentile(us[op], 50))
            metrics[f"{op}_p99_us"] = float(np.percentile(us[op], 99))
        metrics["batch_qps"] = _median_rate(run["checked"], run["batch_walls"])
        result.metrics = metrics
        result.info = {
            "sizes": self.sizes(),
            "setup_samples": len(run["setups"]),
            "latency_samples": {op: int(a.size) for op, a in us.items()},
            "answers_checked": run["checked"],
            "batch_runs": len(run["batch_walls"]),
            "matrix_hash": self.matrix_hash,
            "answers_digest": checks.answers_digest(
                run["answers"][: checks.PINNED_ANSWERS]
            ),
        }
        return result

    def trace(self, seconds: float) -> Result:
        """Half the time untraced, half traced, same inputs."""
        result = Result()
        half = max(1.0, seconds / 2)
        untraced = self._run(half, result)
        tracer = Tracer().install()
        try:
            start = clock()
            traced = self._run(half, result)
            traced_wall = clock() - start
        finally:
            tracer.uninstall()
        _check_accounting(tracer, traced_wall, result.problems)
        # Both halves run for the same time, so the tracing overhead shows
        # as a lower query rate, not as a longer wall.
        untraced_wall = traced_wall * (traced["sent"] / traced["inline_s"]) / (
            untraced["sent"] / untraced["inline_s"]
        )
        layers = _layer_metrics(tracer, traced_wall, untraced_wall)

        def mean_us(entry: str) -> float:
            calls = tracer.calls_of(entry)
            return 0.0 if not calls else tracer.inclusive_s(entry) / calls * 1e6

        queries = tracer.counters.get("serve.server.queries", 0)
        index_s = sum(
            tracer.inclusive_s(f"serve.index:MatrixIndex.{m}")
            for m in ("point", "k_nearest", "percentile", "path_rtt", "best_via")
        )
        record_s = tracer.inclusive_s("serve.telemetry:ServeTelemetry.record")
        query_s = tracer.inclusive_s("serve.server:QueryServer.query")
        telemetry = traced["server"].telemetry
        errors = {
            cat: telemetry.registry.counter(f"serve.errors.{cat}")
            for cat in ("unknown_op", "unknown_node", "bad_arg", "internal")
        }
        layers.update(
            {
                "serve.index.build_s": untraced["build_s"],
                "core.dataset.load_s": untraced["load_s"],
                "serve.index.point_us": mean_us("serve.index:MatrixIndex.point"),
                "serve.index.knn_us": mean_us("serve.index:MatrixIndex.k_nearest"),
                "serve.index.percentile_us": mean_us(
                    "serve.index:MatrixIndex.percentile"
                ),
                "serve.index.path_us": mean_us("serve.index:MatrixIndex.path_rtt"),
                "serve.index.via_us": mean_us("serve.index:MatrixIndex.best_via"),
                "serve.server.dispatch_us": (query_s - index_s - record_s)
                / max(1, queries)
                * 1e6,
                "serve.server.errors": sum(errors.values()),
                "serve.server.batch_overhead_s": statistics.median(
                    untraced["batch_walls"]
                )
                - statistics.median(untraced["passes"] or [untraced["inline_s"]])
                / WORKERS,
                "serve.telemetry.record_us": mean_us(
                    "serve.telemetry:ServeTelemetry.record"
                ),
            }
        )
        result.layers = layers
        spans = self.workdir.parent / f"spans-serve-seed{self.seed}.npz"
        result.info = {
            "sizes": self.sizes(),
            "errors_by_category": errors,
            "spans_total": tracer.spans_total,
            "spans_kept": tracer.spans_kept,
            "spans_file": str(tracer.write_spans(spans).relative_to(spans.parents[1])),
            "note": "batch workers are forked: their spans stay in the "
            "children, so the parent's wait counts as serve.server time",
        }
        return result


def _median_rate(count: int, walls: list[float]) -> float | None:
    """Median of ``count / wall`` over ``walls`` (None if there are none)."""
    return statistics.median(count / w for w in walls) if walls else None


def _names_unknown(query: dict[str, Any]) -> bool:
    names = query.get("hops") or [query.get("x")]
    return any(str(n).startswith("unknown") for n in names)


WORKLOADS = {"sweep": Sweep, "refresh": Refresh, "serve": Serve}
