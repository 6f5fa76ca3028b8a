"""Client A/B report: per-arrival submission vs batch submission.

Runs the same saturating express scenario with both kinds of client in front
of the node's one mempool — the per-arrival client (``kind="saturating"``:
one ``Transaction`` record per arrival through ``submit_transaction``) and
the batch client (``kind="saturating-columnar"``: one ``TxBatch`` per refill
through ``submit_batch``) — and appends the throughput comparison to
``benchmarks/BENCH_workload.json``.  Everything behind the two submit calls
is the same code, so the ratio is the cost of building and handing over one
Python record per transaction.  (Entries written before the transaction
plane was unified label the two variants ``object`` and ``columnar``; then
they also ran different mempools, blocks and collectors.)  Run standalone:

    PYTHONPATH=src python benchmarks/bench_workload_report.py

The A/B runs are **interleaved** (per-arrival, batch, per-arrival, ...)
so a slow drift in machine load lands evenly on both variants instead of
biasing whichever ran second.  Every run executes in a fresh worker process
so ``ru_maxrss`` is a true per-run peak RSS — the monotone high-water mark
of a long-lived process would otherwise smear across runs.

``--scale`` additionally times the million-transaction flagship: the
N = 256 express cluster committing 256 x 4096 = 1,048,576 transactions in
one epoch from batch clients (budget: under 10 minutes on one core).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.core.config import NodeConfig
from repro.experiments.runner import WorkloadSpec
from repro.experiments.scenario import BandwidthSpec, ScenarioSpec, TopologySpec

OUTPUT_PATH = Path(__file__).parent / "BENCH_workload.json"

#: The two clients under comparison: variant label -> workload kind.
VARIANTS = {
    "per-arrival": "saturating",
    "batch": "saturating-columnar",
}


def variant_spec(
    variant: str,
    *,
    num_nodes: int,
    tx_size: int,
    block_bytes: int,
    seed: int = 1,
) -> ScenarioSpec:
    """One point of the A/B: identical cluster and load, different client."""
    workload_kind = VARIANTS[variant]
    return ScenarioSpec(
        name=f"bench-workload-{variant}",
        protocol="dl",
        topology=TopologySpec(kind="uniform", num_nodes=num_nodes, delay=0.05, express=True),
        bandwidth=BandwidthSpec(kind="unlimited"),
        workload=WorkloadSpec(
            kind=workload_kind, target_pending_bytes=2 * block_bytes, tx_size=tx_size
        ),
        node=NodeConfig(max_block_size=block_bytes, nagle_size=block_bytes),
        duration=2.0,
        warmup=0.0,
        warmup_fraction=0.0,
        max_epochs=1,
        seed=seed,
    )


def _run_one(spec: ScenarioSpec) -> dict:
    """Worker-process body: run one spec, return its measurements + peak RSS."""
    from repro.experiments.engine import run_scenario

    started = time.perf_counter()
    result = run_scenario(spec).result
    wall = time.perf_counter() - started
    assert result is not None
    return {
        "wall_seconds": wall,
        "events_processed": result.events_processed,
        "tx_generated": result.tx_generated,
        "tx_committed": result.tx_committed,
        # Linux reports ru_maxrss in kilobytes.
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_report(*, num_nodes: int, tx_size: int, block_bytes: int, repeats: int) -> dict:
    # Interleave the variants and give every run a fresh process (one task
    # per child) so load drift and RSS high-water marks stay per-run.
    order = [name for _ in range(repeats) for name in VARIANTS]
    runs: dict[str, list[dict]] = {name: [] for name in VARIANTS}
    with ProcessPoolExecutor(max_workers=1, max_tasks_per_child=1) as pool:
        for name in order:
            spec = variant_spec(
                name, num_nodes=num_nodes, tx_size=tx_size, block_bytes=block_bytes
            )
            runs[name].append(pool.submit(_run_one, spec).result())

    variants = {}
    for name, samples in runs.items():
        wall = sum(sample["wall_seconds"] for sample in samples)
        generated = sum(sample["tx_generated"] for sample in samples)
        committed = sum(sample["tx_committed"] for sample in samples)
        variants[name] = {
            "runs": len(samples),
            "wall_seconds_mean": wall / len(samples),
            "events_processed": samples[0]["events_processed"],
            "tx_generated": samples[0]["tx_generated"],
            "tx_committed": samples[0]["tx_committed"],
            "tx_generated_per_s": generated / wall,
            "tx_committed_per_s": committed / wall,
            "peak_rss_mb": max(sample["peak_rss_kb"] for sample in samples) / 1024.0,
        }
    return {
        "workload": {
            "num_nodes": num_nodes,
            "tx_size": tx_size,
            "block_bytes": block_bytes,
            "tx_per_block": block_bytes // tx_size,
            "repeats": repeats,
        },
        "cpus": os.cpu_count() or 1,
        "variants": variants,
        "speedup": {
            "tx_generated_per_s": (
                variants["batch"]["tx_generated_per_s"]
                / variants["per-arrival"]["tx_generated_per_s"]
            ),
            "tx_committed_per_s": (
                variants["batch"]["tx_committed_per_s"]
                / variants["per-arrival"]["tx_committed_per_s"]
            ),
        },
    }


def run_scale(num_nodes: int = 256, tx_per_block: int = 4096, tx_size: int = 250) -> dict:
    """The million-transaction flagship, batch clients only."""
    spec = variant_spec(
        "batch",
        num_nodes=num_nodes,
        tx_size=tx_size,
        block_bytes=tx_per_block * tx_size,
    )
    with ProcessPoolExecutor(max_workers=1, max_tasks_per_child=1) as pool:
        sample = pool.submit(_run_one, spec).result()
    return {
        "num_nodes": num_nodes,
        "tx_committed": sample["tx_committed"],
        "wall_seconds": sample["wall_seconds"],
        "events_processed": sample["events_processed"],
        "events_per_second": sample["events_processed"] / sample["wall_seconds"],
        "tx_committed_per_s": sample["tx_committed"] / sample["wall_seconds"],
        "peak_rss_mb": sample["peak_rss_kb"] / 1024.0,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Per-arrival vs batch client A/B report")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced A/B for CI (N=16, 1 repeat); writes BENCH_workload.json "
        "to the working directory instead of appending to the history",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help="also time the million-transaction N=256 flagship (minutes)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        entry = run_report(num_nodes=4, tx_size=250, block_bytes=500_000, repeats=1)
        # CI uploads this single-entry report as a build artifact.
        Path("BENCH_workload.json").write_text(
            json.dumps(entry, indent=2) + "\n", encoding="utf-8"
        )
    else:
        # N = 4 keeps the consensus machinery cheap so the comparison is
        # client-bound: 4 proposers x 20,000 transactions per 5 MB block.
        entry = run_report(num_nodes=4, tx_size=250, block_bytes=5_000_000, repeats=2)
        if args.scale:
            entry["scale"] = run_scale()
        history: list[dict] = []
        if OUTPUT_PATH.exists():
            history = json.loads(OUTPUT_PATH.read_text(encoding="utf-8"))
        history.append(entry)
        OUTPUT_PATH.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
        print(f"appended entry #{len(history)} to {OUTPUT_PATH}")
    for name, variant in entry["variants"].items():
        print(
            f"{name:<11} {variant['wall_seconds_mean']:.2f}s/run, "
            f"{variant['tx_committed_per_s']:,.0f} tx committed/s, "
            f"{variant['peak_rss_mb']:.0f} MB peak RSS"
        )
    print(
        f"batch/per-arrival  {entry['speedup']['tx_generated_per_s']:.1f}x generated/s, "
        f"{entry['speedup']['tx_committed_per_s']:.1f}x committed/s"
    )
    if "scale" in entry:
        scale = entry["scale"]
        print(
            f"scale    N={scale['num_nodes']}: {scale['tx_committed']:,} tx in "
            f"{scale['wall_seconds']:.1f}s ({scale['events_per_second']:,.0f} events/s)"
        )


if __name__ == "__main__":
    main()
