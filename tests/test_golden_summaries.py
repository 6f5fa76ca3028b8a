"""Golden-summary regression suite.

Every named catalog scenario is re-run at its pinned golden configuration
(`repro.experiments.golden`) and the canonical JSON of its summaries is
compared **bit-for-bit** against the snapshot under ``tests/golden/``.  A
behaviour change anywhere in the stack — event loop, pipes, codec, protocol
logic, summary schema — shows up as a snapshot diff; perf-only PRs must
leave every file untouched.

The suite is two-tier: scenarios in ``SLOW_GOLDEN`` are marked ``slow`` and
deselected from plain ``pytest`` runs (see ``pytest.ini``), so the local
tier-1 loop verifies the fast tier only; CI runs both tiers with
``-m golden``.  Regenerate **all** snapshots after an intentional behaviour
change with::

    PYTHONPATH=src python -m pytest tests/test_golden_summaries.py -m golden --update-golden

(the ``-m golden`` overrides the default ``-m "not slow"`` so the slow tier
regenerates too) and commit the diff alongside the change that caused it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import canonical_json
from repro.experiments.golden import (
    SLOW_GOLDEN,
    golden_names,
    golden_payload,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

pytestmark = pytest.mark.golden


def test_every_snapshot_belongs_to_a_scenario():
    """Stale snapshot files (renamed/removed scenarios) fail loudly."""
    known = set(golden_names())
    on_disk = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert on_disk <= known, f"stale golden files: {sorted(on_disk - known)}"


def test_slow_tier_names_real_scenarios():
    """The slow tier is a subset of the catalog (no stale names)."""
    assert SLOW_GOLDEN <= set(golden_names()), sorted(SLOW_GOLDEN - set(golden_names()))


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=[pytest.mark.slow] if name in SLOW_GOLDEN else [])
        for name in golden_names()
    ],
)
def test_golden_summary(name: str, update_golden: bool):
    path = GOLDEN_DIR / f"{name}.json"
    text = canonical_json(golden_payload(name))
    if update_golden:
        path.write_text(text)
        return
    assert path.exists(), (
        f"missing golden snapshot {path}; generate it with "
        f"`pytest tests/test_golden_summaries.py --update-golden`"
    )
    stored = path.read_text()
    if stored != text:
        # Surface *which* summaries moved before the exact-bytes assertion,
        # so a failure names the drifted fields instead of a wall of JSON.
        old = json.loads(stored)
        new = json.loads(text)
        assert old == new, f"golden summaries drifted for {name!r}"
    assert stored == text, f"golden snapshot for {name!r} is not byte-identical"
