#!/usr/bin/env python3
"""Compare two ``repro-bench-v1`` envelopes: ``compare.py A.json B.json``.

``A`` is the reference (the parent commit), ``B`` the candidate.  For every
workload and end-to-end metric, ``B`` breaches when it is worse than ``A`` by
more than ``max(abs_floor, bound * A)`` — ``trace diff``'s rule, made
one-sided by the metric's direction.  ``bound`` comes from ``BENCHMARK.json``;
the absolute floors below keep a tiny reference from turning scheduler jitter
into a breach.  When ``A``'s own min-max spread is wider than the allowance
the row is *unresolved*: the pair of files cannot tell a regression from
noise, which is not the same as "unchanged".

A differing ``summary_digest`` is flagged as "simulated results changed" —
a flag, not a failure, so a correctness fix can land with a justified diff.
Per-layer ``self_s`` deltas are ranked beside each workload so a breach points
at the layer that moved.

Exit status: 0 no breach, 1 at least one breach, 2 usage or file error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

SCHEMA = "repro-bench-v1"
ROOT = Path(__file__).resolve().parents[2]

#: Below these absolute differences a metric never breaches (its own unit).
ABS_FLOOR = {"wall_s": 0.15, "peak_rss_mb": 8.0, "setup_s": 0.05}

TOP_LAYERS = 4


def load_envelope(path: str) -> dict[str, Any]:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        raise ValueError(f"{path} is not a {SCHEMA} envelope")
    return payload


def judge(metric: dict[str, Any], reference: dict, candidate: dict) -> dict[str, Any]:
    """One row of the comparison for one workload and end-to-end metric."""
    ref, new = reference["value"], candidate["value"]
    worse_by = new - ref if metric["better"] == "lower" else ref - new
    allowance = max(ABS_FLOOR.get(metric["name"], 0.0), metric["bound"] * abs(ref))
    spread = reference.get("max", ref) - reference.get("min", ref)
    if spread > allowance:
        verdict = "unresolved"
    elif worse_by > allowance:
        verdict = "BREACH"
    else:
        verdict = "ok"
    return {
        "metric": metric["name"],
        "reference": ref,
        "candidate": new,
        "worse_by": worse_by,
        "allowance": allowance,
        "reference_spread": spread,
        "verdict": verdict,
    }


def layer_deltas(reference: dict, candidate: dict) -> list[tuple[str, float, float]]:
    """``(layer, reference self_s, delta)`` ranked by how much the layer moved."""
    rows = []
    for name, entry in reference.items():
        if name.endswith(".self_s") and name in candidate:
            rows.append((name[: -len(".self_s")], entry["value"], candidate[name]["value"] - entry["value"]))
    return sorted(rows, key=lambda row: abs(row[2]), reverse=True)


def compare(reference: dict, candidate: dict, benchmark: dict) -> tuple[list[str], int]:
    """The report lines and the number of breaches."""
    lines, breaches = [], 0
    for note in ("seed", "reps", "smoke"):
        if reference.get(note) != candidate.get(note):
            lines.append(
                f"note: {note} differs ({reference.get(note)} vs {candidate.get(note)}); "
                "the files are not a like-for-like pair"
            )
    for name, ref in reference["workloads"].items():
        new = candidate["workloads"].get(name)
        if new is None:
            lines.append(f"{name}: missing from the candidate")
            continue
        lines.append(f"{name}")
        if new.get("ops_failed", 0) > ref.get("ops_failed", 0):
            breaches += 1
            lines.append(
                f"  BREACH      ops_failed {ref.get('ops_failed', 0)} -> {new['ops_failed']}"
            )
        if ref.get("summary_digest") != new.get("summary_digest"):
            lines.append("  simulated results changed (summary_digest differs)")
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            if key not in ref.get("end_to_end", {}) or key not in new.get("end_to_end", {}):
                lines.append(f"  missing     {key}")
                continue
            row = judge(metric, ref["end_to_end"][key], new["end_to_end"][key])
            breaches += row["verdict"] == "BREACH"
            lines.append(
                f"  {row['verdict']:11s} {key:20s} {row['reference']:12.5g} -> "
                f"{row['candidate']:12.5g} {metric['unit']:5s} worse by {row['worse_by']:+.4g} "
                f"(allowed {row['allowance']:.4g}, reference spread {row['reference_spread']:.4g})"
            )
        moved = layer_deltas(ref.get("per_layer", {}), new.get("per_layer", {}))[:TOP_LAYERS]
        if moved:
            lines.append(
                "  layers that moved most (traced self_s): "
                + ", ".join(f"{layer} {base:.3f}{delta:+.3f}" for layer, base, delta in moved)
            )
    return lines, breaches


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    try:
        reference, candidate = (load_envelope(path) for path in argv)
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    lines, breaches = compare(reference, candidate, benchmark)
    print("\n".join(lines))
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
