"""Rewrite the pinned outputs for the default seed and sizes.

Only for a deliberate change of the model or of the workloads: a change
that should keep outputs identical must leave ``pins.json`` alone. Run
from the root of a checkout (about a minute)::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench.workloads import Refresh, Serve, Sweep  # noqa: E402

SEED = 47
MATRIX_FILE = f"refresh-matrix-seed{SEED}.npz"


def main() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        workdir = Path(tmp)
        sweep = Sweep(SEED, workdir)._run().deterministic()
        refresh = Refresh(SEED, workdir)
        forked = refresh._run(inline=False)
        inline = refresh._run(inline=True).deterministic()
        rows, cols, rtts = checks.matrix_entries(forked.matrix)
        np.savez_compressed(
            checks.PINS_FILE.with_name(MATRIX_FILE), rows=rows, cols=cols, rtts=rtts
        )
        serve = Serve(SEED, workdir)
        server, _, _ = serve.setup()
        answers = [server.query(q) for q in serve.queries[: checks.PINNED_ANSWERS]]
        counts = ("events", "cells", "probes", "oracle_err_p50_ms")
        pins = {
            "sweep": {"seed": SEED, **sweep},
            "refresh": {
                "seed": SEED,
                "matrix_file": MATRIX_FILE,
                **{k: forked.deterministic()[k] for k in counts},
                "inline": inline,
            },
            "serve": {
                "seed": SEED,
                "matrix_hash": serve.matrix_hash,
                "answers_digest": checks.answers_digest(answers),
            },
        }
    checks.PINS_FILE.write_text(json.dumps(pins, indent=2) + "\n")
    print(json.dumps(pins, indent=2))


if __name__ == "__main__":
    main()
