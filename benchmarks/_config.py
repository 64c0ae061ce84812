"""Benchmark scale control.

``REPRO_SCALE`` (default 1.0) multiplies every experiment size: pair
counts, sample counts, rounds. At the default, ``pytest benchmarks/
--benchmark-only`` takes about 2 minutes on a 2-core Xeon;
``REPRO_SCALE=2`` or more approaches the paper's full scale.
"""

from __future__ import annotations

import os


def scale() -> float:
    """The global experiment-scale multiplier."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def scaled(base: int, minimum: int = 1) -> int:
    """Scale an experiment size by REPRO_SCALE, with a floor."""
    return max(minimum, int(round(base * scale())))
