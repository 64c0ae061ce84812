"""Golden outputs: pinned matrix hashes and work counts of canonical runs.

Seeded bit-for-bit determinism is the core contract of the simulator,
so it is pinned here rather than claimed: each case runs a small
campaign and compares :meth:`RttMatrix.content_hash` plus the simulated
event, relay-cell and probe counts against values recorded from the
code before any hot-path optimisation. A speed change that moves any of
them changed the simulation, not just its cost.

To re-record after a deliberate behaviour change, run this file as a
script (``PYTHONPATH=src python tests/golden/test_golden_outputs.py``)
and paste its output over :data:`GOLDEN`.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.core.campaign import AllPairsCampaign
from repro.core.parallel import ParallelCampaign
from repro.core.sampling import AdaptiveSpec, SamplePolicy
from repro.core.shard import ShardedCampaign, _testbed_cells
from repro.core.ting import TingMeasurer
from repro.testbeds.livetor import LiveTorTestbed

SEED = 47
#: World size well above the selection, so isolation resets and chunk
#: shipping see relays (and matrix cells) the campaign never touches.
N_RELAYS = 40
FIXED = SamplePolicy(samples=6, interval_ms=2.0)
ADAPTIVE = SamplePolicy(
    samples=6,
    interval_ms=None,
    adaptive=AdaptiveSpec(absolute_ms=1.0, min_samples=2, patience=2, confirm_k=2),
)
FACTORY = functools.partial(LiveTorTestbed.build, seed=SEED, n_relays=N_RELAYS)

GOLDEN: dict[str, dict[str, object]] = {
    "all_pairs": {
        "hash": "d1f1d23b73d3cdfb8c8762bd201fc0af13bfdbf6cee7a24cc06a63e8100946c0",
        "events": 2510,
        "cells": 972,
        "probes": 90,
    },
    "parallel": {
        "hash": "535ad49827f8b318adf2aebf278356534e3b567a47e28eb64fd3e8e2303a1c40",
        "events": 6206,
        "cells": 2436,
        "probes": 216,
    },
    "sharded_w1": {
        "hash": "4f892bc9633e9ce1e5aed3756519a0012b267961257df326a3d9827a313bac1c",
        "events": 7304,
        "cells": 2686,
        "probes": 214,
    },
    "sharded_w2": {
        "hash": "4f892bc9633e9ce1e5aed3756519a0012b267961257df326a3d9827a313bac1c",
        "events": 7304,
        "cells": 2686,
        "probes": 214,
    },
}


def _selection(testbed: LiveTorTestbed, n: int):
    return testbed.random_relays(n, testbed.streams.get("golden.sel"))


def run_parallel() -> dict[str, object]:
    testbed = FACTORY()
    selected = _selection(testbed, 8)
    events0 = testbed.sim.events_processed
    report = ParallelCampaign(
        testbed.measurement, selected, policy=FIXED, concurrency=16
    ).run()
    return {
        "hash": report.matrix.content_hash(),
        "events": testbed.sim.events_processed - events0,
        "cells": _testbed_cells(testbed),
        "probes": report.probes_sent,
    }


def run_sharded(workers: int) -> dict[str, object]:
    fingerprints = [d.fingerprint for d in _selection(FACTORY(), 9)]
    report = ShardedCampaign(
        FACTORY,
        fingerprints,
        policy=ADAPTIVE,
        workers=workers,
        force_inline=True,
        steal_chunk_pairs=5,
    ).run()
    return {
        "hash": report.matrix.content_hash(),
        "events": report.events_processed,
        "cells": report.cells_processed,
        "probes": report.probes_sent,
    }


def run_all_pairs() -> dict[str, object]:
    testbed = FACTORY()
    selected = _selection(testbed, 5)
    measurer = TingMeasurer(testbed.measurement, policy=FIXED, cache_legs=True)
    events0 = testbed.sim.events_processed
    report = AllPairsCampaign(
        measurer, selected, rng=testbed.streams.get("golden.order")
    ).run()
    return {
        "hash": report.matrix.content_hash(),
        "events": testbed.sim.events_processed - events0,
        "cells": _testbed_cells(testbed),
        "probes": report.probes_sent,
    }


CASES = {
    "parallel": run_parallel,
    "sharded_w1": functools.partial(run_sharded, 1),
    "sharded_w2": functools.partial(run_sharded, 2),
    "all_pairs": run_all_pairs,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output_unchanged(case):
    assert CASES[case]() == GOLDEN[case]


if __name__ == "__main__":
    outputs = {name: CASES[name]() for name in sorted(CASES)}
    print("GOLDEN: dict[str, dict[str, object]] =", json.dumps(outputs, indent=4))
