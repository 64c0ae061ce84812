"""Output checks: every benchmark run verifies what it measured.

* Campaign matrices: pair accounting adds up, every attempted pair is in
  the matrix or counted as failed, every entry is a pair the campaign was
  asked to measure, every value is finite, and the estimates agree with
  the simulator's oracle RTTs. No circuit the benchmark's process can see
  is left open (forked ``refresh`` workers keep their own circuits).
  ``refresh``'s ``.npz`` round-trips to the same hash and its health
  report does not grade ``fail``.
* Determinism: repetitions of one seed produce identical matrix hashes
  and exact counts; for the default seed and sizes these are pinned in
  ``pins.json``.
* Serve answers: every answer of the first pass over the query pool is
  re-derived by brute force from the raw numpy matrix (in the style of
  ``repro.serve.server.selftest``); each query naming an unknown relay
  must come back as an ``unknown_node`` error record.

Each check returns human-readable problem strings; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import numpy as np

PINS_FILE = Path(__file__).with_name("pins.json")

#: Ceiling on the median |estimate - oracle| of a campaign. Healthy runs
#: sit near 3 ms (sweep: 16 concurrent circuits queue at the local relays)
#: and 2 ms (refresh) over seeds 1, 2 and 47, so 10 ms trips on a matrix
#: that is wrong, not on one that is noisy.
ORACLE_P50_MAX_MS = 10.0

#: Floor on the Pearson correlation of estimates with oracle RTTs over
#: the pairs closest to the oracle. A matrix with misplaced entries loses
#: the correlation (shuffled sweep matrices: at most 0.49).
ORACLE_MIN_CORR = 0.95

#: Share of pairs, those furthest from the oracle, left out of that
#: correlation. ``sweep`` keeps 16 circuits in flight through the same
#: measurement relays, and the self-congestion EXPERIMENTS.md reports for
#: concurrent campaigns inflates a few estimates by 100-200 ms. Over sweep
#: seeds 1-40 up to 16% of pairs were off by more than 20 ms and the
#: correlation over all pairs fell to 0.952 (0.941 on seed 610); without
#: the worst 10% it stayed at 0.993 or more.
ORACLE_CORR_TRIM = 0.1

#: Answers whose canonical JSON the serve pin hashes.
PINNED_ANSWERS = 2000


def load_pins() -> dict[str, Any]:
    """The pinned outputs for the default seed (empty if none)."""
    if not PINS_FILE.exists():
        return {}
    return json.loads(PINS_FILE.read_text())


def matrix_entries(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, column, rtt) of every measured pair, in node order."""
    ids = {node: i for i, node in enumerate(matrix.nodes)}
    pairs = list(matrix.measured_pairs())
    rows = np.array([ids[a] for a, _, _ in pairs], dtype=np.int32)
    cols = np.array([ids[b] for _, b, _ in pairs], dtype=np.int32)
    rtts = np.array([rtt for _, _, rtt in pairs], dtype=np.float64)
    return rows, cols, rtts


def oracle_pairs(matrix, oracle: dict[tuple[str, str], float]):
    """(estimates, oracle RTTs) over the matrix's measured pairs; the
    oracle is NaN for a pair the campaign was not asked to measure."""
    pairs = list(matrix.measured_pairs())
    rtts = np.array([rtt for _, _, rtt in pairs], dtype=np.float64)
    truth = np.array(
        [oracle.get((a, b), oracle.get((b, a), np.nan)) for a, b, _ in pairs],
        dtype=np.float64,
    )
    return rtts, truth


def _entries_differ(a, b, quantum: float) -> str | None:
    """Why two (rows, cols, rtts) entry sets differ by more than ``quantum``."""
    if a[0].shape != b[0].shape or not (
        np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    ):
        return "different measured pairs"
    off = np.abs(a[2] - b[2]) > quantum * 1.5
    if off.any():
        return f"{int(off.sum())} values differ by more than {quantum:g} ms"
    return None


def check_repeats(runs) -> list[str]:
    """Every repetition of one seed reproduces the first one's outputs.

    Counts must repeat exactly. Matrices must repeat exactly, or within
    the run's ``quantum`` (forked ``refresh``: see ``CampaignRun``).
    """
    problems = []
    first = runs[0]
    base = first.deterministic()
    for i, run in enumerate(runs[1:], start=1):
        out = run.deterministic()
        for key in ("events", "cells", "probes"):
            if out[key] != base[key]:
                problems.append(
                    f"repetition {i}: {key} {out[key]} != {base[key]} "
                    "(same seed, different output)"
                )
        quantum = max(first.quantum, run.quantum)
        if quantum == 0.0:
            if out["matrix_hash"] != base["matrix_hash"]:
                problems.append(f"repetition {i}: matrix hash differs (same seed)")
        else:
            why = _entries_differ(
                matrix_entries(first.matrix), matrix_entries(run.matrix), quantum
            )
            if why:
                problems.append(f"repetition {i}: matrix differs: {why}")
    return problems


def check_campaign(run, expected_pairs: int, pins: dict | None) -> list[str]:
    """Check one campaign repetition (a ``workloads.CampaignRun``)."""
    problems = []
    if run.pairs_attempted != expected_pairs:
        problems.append(
            f"campaign attempted {run.pairs_attempted} pairs, "
            f"expected {expected_pairs}"
        )
    if run.pairs_measured + run.pairs_failed != run.pairs_attempted:
        problems.append(
            f"pair accounting: {run.pairs_measured} measured + "
            f"{run.pairs_failed} failed != {run.pairs_attempted} attempted"
        )
    values, oracle = oracle_pairs(run.matrix, run.oracle)
    if values.size != run.pairs_measured:
        problems.append(
            f"matrix holds {values.size} entries but the campaign "
            f"measured {run.pairs_measured} pairs"
        )
    if not np.all(np.isfinite(values)):
        problems.append(f"{int(np.sum(~np.isfinite(values)))} non-finite RTTs")
    if np.isnan(oracle).any():
        problems.append(
            f"{int(np.isnan(oracle).sum())} matrix entries for pairs the "
            "campaign was not asked to measure"
        )
    elif values.size:
        p50 = float(np.median(np.abs(values - oracle)))
        if not p50 <= ORACLE_P50_MAX_MS:
            problems.append(
                f"median |estimate - oracle| {p50:.3f} ms > {ORACLE_P50_MAX_MS} ms"
            )
        err = np.abs(values - oracle)
        kept = err <= np.quantile(err, 1.0 - ORACLE_CORR_TRIM)
        corr = (
            float(np.corrcoef(values[kept], oracle[kept])[0, 1])
            if kept.sum() > 2
            else 1.0
        )
        if not corr >= ORACLE_MIN_CORR:
            problems.append(
                f"estimates correlate {corr:.3f} with the oracle (< "
                f"{ORACLE_MIN_CORR}) over the {1 - ORACLE_CORR_TRIM:.0%} of "
                "pairs closest to it"
            )
    if run.circuits_leaked:
        problems.append(f"{run.circuits_leaked} circuits left open")
    extra = run.extra
    if "roundtrip_hash" in extra and extra["roundtrip_hash"] != extra["dataset_hash"]:
        problems.append("npz round trip changed the matrix hash")
    if extra.get("health_grade") == "fail":
        problems.append("health report grades the refreshed dataset 'fail'")
    if pins:
        problems += _check_pins(run, pins)
    return problems


def _check_pins(run, pins: dict[str, Any]) -> list[str]:
    problems = []
    got = run.deterministic()
    for key in ("matrix_hash", "events", "cells", "probes"):
        if key in pins and pins[key] != got[key]:
            problems.append(f"pinned {key}: got {got[key]!r}, pinned {pins[key]!r}")
    key = "oracle_err_p50_ms"
    if key in pins and abs(pins[key] - got[key]) > run.quantum * 1.5:
        problems.append(f"pinned {key}: got {got[key]!r}, pinned {pins[key]!r}")
    if "matrix_file" in pins:
        with np.load(PINS_FILE.with_name(pins["matrix_file"])) as pinned:
            why = _entries_differ(
                matrix_entries(run.matrix),
                (pinned["rows"], pinned["cols"], pinned["rtts"]),
                run.quantum,
            )
        if why:
            problems.append(f"pinned matrix: {why}")
    return problems


def _reference_problem(
    query: dict[str, Any],
    answer: dict[str, Any],
    values: np.ndarray,
    ids: dict[str, int],
) -> str | None:
    """Why ``answer`` is wrong for ``query``, or ``None`` if it is right."""
    op = query["op"]
    names = query["hops"] if op == "path" else [query["x"], query.get("y")]
    if any(n is not None and n not in ids for n in names):
        if answer.get("category") == "unknown_node":
            return None
        return "expected unknown_node"
    if "error" in answer:
        return f"unexpected error {answer.get('category')}: {answer['error']}"
    if op == "point":
        v = values[ids[query["x"]], ids[query["y"]]]
        want = None if np.isnan(v) else float(v)
        if answer.get("rtt_ms") != want or answer.get("measured") != (want is not None):
            return f"point rtt {answer.get('rtt_ms')} != {want}"
        return None
    if op == "path":
        hop_ids = [ids[h] for h in query["hops"]]
        legs = [values[a, b] for a, b in zip(hop_ids, hop_ids[1:])]
        want = None if any(np.isnan(v) for v in legs) else float(sum(legs))
        if answer.get("rtt_ms") != want:
            return f"path rtt {answer.get('rtt_ms')} != {want}"
        return None
    i = ids[query["x"]]
    row = values[i].copy()
    row[i] = np.nan
    finite = np.flatnonzero(~np.isnan(row))
    if op == "knn":
        expect = finite[np.argsort(row[finite], kind="stable")][: query["k"]]
        got = answer.get("neighbors", [])
        if [ids.get(n["y"]) for n in got] != expect.tolist():
            return "knn ranking mismatch"
        if [n["rtt_ms"] for n in got] != [float(row[e]) for e in expect]:
            return "knn value mismatch"
        return None
    if op == "percentile":
        want = float(np.percentile(row[finite], query["q"]))
        if not np.isclose(answer.get("rtt_ms", np.nan), want, rtol=0, atol=1e-9):
            return f"percentile {answer.get('rtt_ms')} != {want}"
        return None
    if op == "via":
        j = ids[query["y"]]
        detour = values[i, :] + values[:, j]
        detour[i] = detour[j] = np.nan
        ok = np.flatnonzero(~np.isnan(detour))
        best = answer.get("detours", [{}])[0]
        if ok.size == 0:
            return None if best.get("via") is None else "via: expected no detour"
        want = float(detour[ok].min())
        via = ids.get(best.get("via"))
        if best.get("via_rtt_ms") != want or via is None or detour[via] != want:
            return f"via rtt {best.get('via_rtt_ms')} != {want}"
        direct = values[i, j]
        want_direct = None if np.isnan(direct) else float(direct)
        if best.get("direct_rtt_ms") != want_direct:
            return "via direct rtt mismatch"
        return None
    return f"unexpected op {op!r}"


def check_serve_answers(
    queries: list[dict[str, Any]],
    answers: list[dict[str, Any]],
    values: np.ndarray,
    nodes: list[str],
) -> tuple[int, list[str]]:
    """Re-derive every answer by brute force; returns (wrong, problems)."""
    ids = {node: i for i, node in enumerate(nodes)}
    wrong = 0
    problems: list[str] = []
    if len(answers) != len(queries):
        problems.append(f"{len(answers)} answers for {len(queries)} queries")
    for k, (query, answer) in enumerate(zip(queries, answers)):
        problem = _reference_problem(query, answer, values, ids)
        if problem is not None:
            wrong += 1
            if len(problems) < 10:
                problems.append(f"serve query {k} ({query['op']}): {problem}")
    if wrong > 10:
        problems.append(f"... {wrong} wrong answers in total")
    return wrong, problems


def answers_digest(answers: list[dict[str, Any]]) -> str:
    """SHA-256 over the canonical JSON of an answer list."""
    digest = hashlib.sha256()
    for answer in answers:
        digest.update(json.dumps(answer, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def check_serve_pins(
    pins: dict[str, Any], matrix_hash: str, answers: list[dict[str, Any]]
) -> list[str]:
    """The default seed's matrix and first answers match the pins."""
    problems = []
    if pins.get("matrix_hash") != matrix_hash:
        problems.append("pinned serve matrix_hash differs")
    if len(answers) >= PINNED_ANSWERS and pins.get("answers_digest") != answers_digest(
        answers[:PINNED_ANSWERS]
    ):
        problems.append(f"pinned digest of the first {PINNED_ANSWERS} answers differs")
    return problems
