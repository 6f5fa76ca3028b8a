"""Golden telemetry-envelope regression suite.

The scenarios in ``ENVELOPE_CONFIGS`` are re-recorded at their pinned
configuration and the per-node time-weighted mean/max of every telemetry
series is checked against the ``repro-envelope-v1`` snapshot under
``tests/golden/envelopes/`` — within the tolerances the envelope itself
declares, not byte-for-byte (see :mod:`repro.trace.diff`).  This is the
guard the bit-exact summary goldens can't provide: a change that leaves the
end-of-run summary intact but doubles a mid-run queue spike trips here.

Regenerate after an intentional behaviour change with the same flow as the
summary goldens::

    PYTHONPATH=src python -m pytest tests/test_golden_envelopes.py --update-golden

and commit the diff.  CI additionally runs the standalone gate — ``trace
export`` + ``trace diff`` against the pinned envelope — on every push, with
the recordings uploaded as an artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import canonical_json
from repro.experiments.golden import (
    ENVELOPE_CONFIGS,
    envelope_names,
    envelope_payload,
    golden_names,
    record_envelope_rows,
)
from repro.trace.diff import breaches, check_envelope, is_envelope

ENVELOPE_DIR = Path(__file__).parent / "golden" / "envelopes"

pytestmark = pytest.mark.golden


def test_envelope_scenarios_exist_in_the_catalog():
    assert set(envelope_names()) <= set(golden_names()), sorted(
        set(envelope_names()) - set(golden_names())
    )


def test_every_envelope_file_belongs_to_a_pinned_scenario():
    """Stale envelope files (renamed/removed scenarios) fail loudly."""
    on_disk = {path.stem for path in ENVELOPE_DIR.glob("*.json")}
    stale = sorted(on_disk - set(envelope_names()))
    assert not stale, f"stale envelopes: {stale}"


@pytest.mark.parametrize("name", envelope_names())
def test_golden_envelope(name: str, update_golden: bool):
    path = ENVELOPE_DIR / f"{name}.json"
    if update_golden:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(canonical_json(envelope_payload(name)))
        return
    assert path.exists(), (
        f"missing envelope {path}; generate it with "
        f"`pytest tests/test_golden_envelopes.py --update-golden`"
    )
    stored = json.loads(path.read_text(encoding="utf-8"))
    assert is_envelope(stored), f"{path} is not a repro-envelope-v1 file"
    # Staleness guard: an envelope checked against a *different* pinned run
    # configuration would pass or fail for the wrong reasons entirely.
    assert stored["run"] == ENVELOPE_CONFIGS[name].run_fields(), (
        f"envelope {path} was recorded under different pins; regenerate it "
        f"with `pytest tests/test_golden_envelopes.py --update-golden`"
    )
    rows = record_envelope_rows(name)
    failed = breaches(check_envelope(rows, stored))
    assert not failed, "telemetry drifted outside the pinned envelope:\n" + "\n".join(
        f"  node {d.node} {d.series}.{d.stat}: reference {d.reference:g}, "
        f"observed {d.observed:g} (allowed ±{d.allowed:g})"
        for d in failed
    )


def test_drift_outside_the_envelope_is_detected():
    """The gate actually gates: a recording whose queue series drifts 2x
    past the pinned envelope breaches it (the failure mode the CI
    telemetry-envelope job exists to catch)."""
    name = envelope_names()[0]
    stored = json.loads((ENVELOPE_DIR / f"{name}.json").read_text(encoding="utf-8"))
    drifted = [dict(row) for row in record_envelope_rows(name)]
    for row in drifted:
        if row.get("kind") == "sample":
            row["egress_queue"] *= 2
    failed = breaches(check_envelope(drifted, stored))
    assert failed
    assert {delta.series for delta in failed} == {"egress_queue"}
