"""The benchmark's own tests: tiny-scale smoke runs and check mutations.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, metrics
from perfbench.run import render
from perfbench.tracer import ENTRY_POINTS, Tracer
from perfbench.workloads import WORKLOADS, Refresh, Serve, Sweep
from repro.core.dataset import CampaignDataset, RttMatrix
from repro.netsim.engine import Simulator
from repro.serve.index import MatrixIndex
from repro.serve.server import QueryServer

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "sweep": lambda seed, wd: Sweep(seed, wd, relays=6, samples=4),
    "refresh": lambda seed, wd: Refresh(seed, wd, relays=20, budget=24),
    "serve": lambda seed, wd: Serve(seed, wd, relays=40, pool=1500),
}


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One untraced and one traced tiny run of every workload."""
    out = {}
    for name, make in TINY.items():
        workdir = tmp_path_factory.mktemp(name)
        workload = make(3, workdir)
        out[name] = (workload.measure(1.0), workload.trace(1.0))
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_reports_every_metric_with_its_unit(tiny_runs, name):
    measured, traced = tiny_runs[name]
    assert measured.problems == [] and traced.problems == []
    assert measured.attempted > 0 and measured.failed == 0

    named, gated = render(measured, traced=False)
    expected = {m for m, spec in metrics.END_TO_END.items() if name in spec[1]}
    assert set(named) == expected
    for metric, entry in named.items():
        assert entry["unit"] == metrics.END_TO_END[metric][0]
        assert np.isfinite(entry["value"])
    assert {m: e["unit"] for m, e in gated.items()} == {
        m: spec[0] for m, spec in metrics.GATED.items()
    }
    assert all(e["value"] > 0 for e in gated.values())

    layers, layer_gated = render(traced, traced=True)
    assert layers == layer_gated
    assert [(m, e["unit"]) for m, e in layers.items()] == [
        (m, unit) for m, unit, _ in metrics.PER_LAYER
    ]
    assert set(traced.layers) <= set(layers), "unlisted per-layer metric"


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_self_times_account_for_the_wall(tiny_runs, name):
    _, traced = tiny_runs[name]
    layers = traced.layers
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert layers["trace.unattributed_s"] >= 0
    assert self_total + layers["trace.unattributed_s"] == pytest.approx(
        layers["trace.wall_s"], rel=1e-9
    )
    assert "trace.overhead_frac" in layers


def test_campaign_counts_repeat_for_one_seed(tiny_runs):
    _, traced = tiny_runs["sweep"]
    assert traced.layers["netsim.engine.events"] > 0
    assert traced.layers["tor.crypto.cells"] > 0
    assert traced.layers["echo.probes"] > 0
    assert traced.layers["tor.client.circuits_leaked"] == 0


def test_tracer_uninstall_restores_entry_points():
    before = {
        (module, path): _resolve(module, path) for _, module, path, _ in ENTRY_POINTS
    }
    tracer = Tracer().install()
    assert Simulator.__dict__["run"] is not before[("repro.netsim.engine", "Simulator.run")]
    tracer.uninstall()
    for key, original in before.items():
        assert _resolve(*key) is original, key


def _resolve(module: str, path: str):
    obj = sys.modules[module] if module in sys.modules else __import__(
        module, fromlist=["_"]
    )
    owner, _, attr = path.rpartition(".")
    if owner:
        return getattr(obj, owner).__dict__[attr]
    return getattr(obj, attr)


# ----------------------------------------------------------------------
# Campaign checks fail on wrong outputs


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    return Sweep(5, tmp_path_factory.mktemp("sweep"), relays=8, samples=4)._run()


def _with_matrix(run, transform):
    nodes = list(run.matrix.nodes)
    values = transform(run.matrix.as_array().copy())
    matrix = RttMatrix.from_array(nodes, values)
    return dataclasses.replace(run, matrix=matrix)


def test_correct_sweep_passes(sweep_run):
    assert checks.check_campaign(sweep_run, 28, None) == []


def test_shuffled_matrix_fails_the_oracle_check(sweep_run):
    rng = np.random.default_rng(0)

    def shuffle(values):
        iu = np.triu_indices(len(values), k=1)
        upper = values[iu]
        rng.shuffle(upper)
        values[iu] = upper
        values.T[iu] = upper
        return values

    wrong = _with_matrix(sweep_run, shuffle)
    assert any("correlate" in p for p in checks.check_campaign(wrong, 28, None))


def test_few_inflated_estimates_pass_the_oracle_check(sweep_run):
    # Self-congestion inflates a few sweep estimates by 100+ ms.
    def inflate(values):
        for i, j in ((0, 1), (2, 3)):
            values[i, j] += 150.0
            values[j, i] += 150.0
        return values

    inflated = _with_matrix(sweep_run, inflate)
    assert checks.check_campaign(inflated, 28, None) == []


def test_offset_matrix_fails_the_oracle_check(sweep_run):
    wrong = _with_matrix(sweep_run, lambda v: v + 25.0)
    assert any("median" in p for p in checks.check_campaign(wrong, 28, None))


def test_missing_entry_fails_the_completeness_check(sweep_run):
    def drop(values):
        values[0, 1] = values[1, 0] = np.nan
        return values

    wrong = _with_matrix(sweep_run, drop)
    problems = checks.check_campaign(wrong, 28, None)
    assert any("matrix holds" in p for p in problems)


def test_entry_outside_the_planned_pairs_fails(sweep_run):
    a, b, _ = next(iter(sweep_run.matrix.measured_pairs()))
    planned = {k: v for k, v in sweep_run.oracle.items() if set(k) != {a, b}}
    unplanned = dataclasses.replace(sweep_run, oracle=planned)
    problems = checks.check_campaign(unplanned, 28, None)
    assert any("1 matrix entries for pairs" in p for p in problems)


def test_leaked_circuit_and_pair_accounting_fail(sweep_run):
    leaked = dataclasses.replace(sweep_run, circuits_leaked=2)
    assert any("circuits left open" in p for p in checks.check_campaign(leaked, 28, None))
    short = dataclasses.replace(sweep_run, pairs_failed=1)
    assert any("pair accounting" in p for p in checks.check_campaign(short, 28, None))
    assert any("expected 30" in p for p in checks.check_campaign(sweep_run, 30, None))


def test_refresh_roundtrip_and_health_failures_are_caught(sweep_run):
    bad = dataclasses.replace(
        sweep_run,
        extra={"roundtrip_hash": "a", "dataset_hash": "b", "health_grade": "fail"},
    )
    problems = checks.check_campaign(bad, 28, None)
    assert any("round trip" in p for p in problems)
    assert any("health" in p for p in problems)


def test_pins_and_repeats_catch_a_changed_matrix(sweep_run):
    pins = dict(sweep_run.deterministic())
    assert checks.check_campaign(sweep_run, 28, pins) == []
    nudged = _with_matrix(sweep_run, lambda v: v + 1e-3)
    assert any("pinned matrix_hash" in p for p in checks.check_campaign(nudged, 28, pins))
    assert any("matrix hash differs" in p for p in checks.check_repeats([sweep_run, nudged]))
    more_events = dataclasses.replace(sweep_run, events=sweep_run.events + 1)
    assert any("events" in p for p in checks.check_repeats([sweep_run, more_events]))


def test_quantum_repeats_allow_one_quantum_only(sweep_run):
    forked = dataclasses.replace(sweep_run, quantum=1e-6)

    def flip(step):
        def apply(values):
            values[0, 1] += step
            values[1, 0] += step
            return values

        return apply

    one = _with_matrix(forked, flip(1e-6))
    assert checks.check_repeats([forked, one]) == []
    two = _with_matrix(forked, flip(1e-4))
    assert any("values differ" in p for p in checks.check_repeats([forked, two]))


def test_committed_pins_cover_the_default_seed():
    pins = checks.load_pins()
    assert set(pins) == set(WORKLOADS)
    assert all(entry["seed"] == 47 for entry in pins.values())
    with np.load(checks.PINS_FILE.with_name(pins["refresh"]["matrix_file"])) as m:
        assert m["rtts"].size == 1000
    # The traced (inline) refresh run is checked against these alone.
    assert set(pins["refresh"]["inline"]) == set(pins["sweep"]) - {"seed"}


# ----------------------------------------------------------------------
# Serve checks fail on corrupted answers


@pytest.fixture(scope="module")
def serve_case(tmp_path_factory):
    workload = Serve(9, tmp_path_factory.mktemp("serve"), relays=30, pool=2000)
    dataset = CampaignDataset.load(workload.path)
    server = QueryServer(MatrixIndex.build(dataset))
    answers = [server.query(q) for q in workload.queries]
    return workload, answers


def _first(workload, answers, predicate):
    for k, (q, a) in enumerate(zip(workload.queries, answers)):
        if predicate(q, a):
            return k
    raise AssertionError("no such query in the pool")


def test_correct_answers_pass(serve_case):
    workload, answers = serve_case
    assert any(a.get("category") == "unknown_node" for a in answers)
    wrong, problems = checks.check_serve_answers(
        workload.queries, answers, workload.values, workload.nodes
    )
    assert (wrong, problems) == (0, [])


def _measured_point(q, a):
    return q["op"] == "point" and a.get("rtt_ms") is not None


def _knn_with_neighbors(q, a):
    return q["op"] == "knn" and len(a.get("neighbors", [])) > 1


CORRUPTIONS = {
    "point value": (_measured_point, lambda a: {**a, "rtt_ms": a["rtt_ms"] + 1.0}),
    "knn order": (
        _knn_with_neighbors,
        lambda a: {**a, "neighbors": a["neighbors"][::-1]},
    ),
    "percentile value": (
        lambda q, a: q["op"] == "percentile" and "rtt_ms" in a,
        lambda a: {**a, "rtt_ms": a["rtt_ms"] * 1.01},
    ),
    "path value": (
        lambda q, a: q["op"] == "path" and a.get("rtt_ms") is not None,
        lambda a: {**a, "rtt_ms": a["rtt_ms"] - 0.5},
    ),
    "via detour": (
        lambda q, a: q["op"] == "via" and "detours" in a,
        lambda a: {**a, "detours": [{**a["detours"][0], "via_rtt_ms": 0.0}]},
    ),
    "unknown relay answered": (
        lambda q, a: a.get("category") == "unknown_node",
        lambda a: {"op": a["op"], "rtt_ms": 1.0},
    ),
    "valid query errors": (
        _measured_point,
        lambda a: {"op": "point", "error": "boom", "category": "internal"},
    ),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupted_answer_fails(serve_case, kind):
    workload, answers = serve_case
    predicate, corrupt = CORRUPTIONS[kind]
    k = _first(workload, answers, predicate)
    bad = list(answers)
    bad[k] = corrupt(bad[k])
    wrong, problems = checks.check_serve_answers(
        workload.queries, bad, workload.values, workload.nodes
    )
    assert wrong == 1 and f"serve query {k}" in problems[0]


def test_batch_mismatch_fails_the_run(tmp_path, monkeypatch):
    original = QueryServer.batch

    def corrupting_batch(self, queries, workers=None):
        out = original(self, queries, workers=workers)
        out[0] = {**out[0], "version": "other"}
        return out

    monkeypatch.setattr(QueryServer, "batch", corrupting_batch)
    result = Serve(2, tmp_path, relays=30, pool=300).measure(0.5)
    assert "serve: batch answers differ from inline answers" in result.problems


def test_serve_pins_catch_changed_answers(serve_case):
    workload, answers = serve_case
    assert len(answers) >= checks.PINNED_ANSWERS
    pins = {
        "matrix_hash": workload.matrix_hash,
        "answers_digest": checks.answers_digest(answers[: checks.PINNED_ANSWERS]),
    }
    assert checks.check_serve_pins(pins, workload.matrix_hash, answers) == []
    changed = [{**answers[0], "version": "x"}] + answers[1:]
    assert checks.check_serve_pins(pins, workload.matrix_hash, changed)
    assert checks.check_serve_pins(pins, "other", answers)


# ----------------------------------------------------------------------
# The benchmark definition and the command line


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} == (
        metrics.GATED
    )
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, "higher" if name in metrics.HIGHER_IS_BETTER else "lower")
        for name, unit, _ in metrics.PER_LAYER
    ]


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
