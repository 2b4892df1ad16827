"""The Figure 3 grid is pinned to its recorded digest.

``perfbench/grid_digests.json`` holds the SHA-256 of the canonical JSON
form of ``run_performance()`` over the default suite, recorded from a
serial pass.  A two-worker run must hash to the same value, so the grid
is pinned to recorded data rather than to a second code path.  The file
is only read here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.runner import run_performance
from repro.serve.queries import jsonable

GRID_DIGESTS = Path(__file__).resolve().parents[2] / "perfbench" \
    / "grid_digests.json"


@pytest.mark.slow
def test_parallel_grid_matches_recorded_digest():
    records = run_performance(n_jobs=2)
    blob = json.dumps(jsonable(records), sort_keys=True,
                      separators=(",", ":")).encode()
    expected = json.loads(GRID_DIGESTS.read_text())["perf"]
    assert hashlib.sha256(blob).hexdigest() == expected
