"""Tier-2 scale budget: the N=256 flagship commits its epoch in under 1 GB.

The flagship is the ``columnar-scale`` catalog entry with the four overrides
of ``docs/performance.md`` ("The N=256 flagship"): 256 express nodes, one
epoch of 4096-transaction blocks per proposer, 1 048 576 transactions and
about 151.5 M events.  A child process resolves the one-liner's flags through
the CLI's own resolver and runs its one point, so ``ru_maxrss`` of
``RUSAGE_CHILDREN`` is that run's peak, not the test session's.

Only memory is bounded.  ROADMAP's wall-clock aim of 100 s is not met: the
run takes about 190 s on a shared 2-core Xeon (160 s when measured before
the retrieval containers shrank), so no time bound is asserted.  The test is
deselected by default; run it alone with ``pytest -m scale``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.scale

SRC = Path(__file__).resolve().parents[1] / "src"

#: The ``--set`` assignments of the flagship one-liner (run with ``--seed 1``).
FLAGSHIP_SETTINGS = (
    "topology.num_nodes=256",
    "node.max_block_size=1024000",
    "node.nagle_size=1024000",
    "workload.target_pending_bytes=2048000",
)

#: Peak resident memory budget of the flagship run.
MAX_RSS_MB = 1024

_CHILD = """
import json, sys
from repro.experiments import run_scenario
from repro.experiments.cli import resolve_scenario

_entry, spec, _grid = resolve_scenario("columnar-scale", overrides=sys.argv[1:], seed=1)
point = run_scenario(spec)
print(json.dumps({"summary": point.summary(), "tx_committed": point.result.tx_committed}))
"""


def test_n256_flagship_commits_its_epoch_within_1_gb():
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, *FLAGSHIP_SETTINGS],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["summary"]["num_nodes"] == 256
    assert result["summary"]["delivered_epochs"] == 1
    assert result["tx_committed"] == 256 * 4096 == 1_048_576
    assert peak_mb <= MAX_RSS_MB, f"the flagship peaked at {peak_mb:.0f} MB"
