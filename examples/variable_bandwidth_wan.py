#!/usr/bin/env python3
"""DispersedLedger vs HoneyBadger on a bandwidth-varying WAN.

This is the paper's core scenario (Fig. 1 / Fig. 9) in miniature, and the
short form of the ``bandwidth-flapping`` entry in ``docs/scenarios.md``: an
8-node wide-area network (f = 2) where *three* nodes take turns having
their bandwidth collapse — so at any moment more than f nodes have been
slow recently, and a lockstep protocol cannot simply leave them all behind.

Everything about the conditions lives in one declarative
:class:`~repro.experiments.scenario.ScenarioSpec`; the comparison is a
one-axis sweep over the protocol.  The same run is available from the CLI::

    python -m repro.experiments run bandwidth-flapping

Run with::

    python examples/variable_bandwidth_wan.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.catalog import get_scenario
from repro.experiments.engine import sweep

# The catalog entry IS the experiment; the example only renames the run and
# disables warmup so the printed per-node numbers cover the whole run.
SPEC = replace(
    get_scenario("bandwidth-flapping").base,
    name="variable-bandwidth-wan",
    warmup=0.0,
)
NUM_NODES = SPEC.topology.num_nodes
NUM_FLAKY = SPEC.bandwidth.count  # more than f, so lockstep cannot ignore them all
FAST_RATE = SPEC.bandwidth.rate
SLOW_RATE = SPEC.bandwidth.degraded_rate  # during a flaky node's bad periods


def main() -> None:
    num_healthy = NUM_NODES - NUM_FLAKY
    print(f"{NUM_NODES}-node WAN: nodes {num_healthy}..{NUM_NODES - 1} take turns dropping from "
          f"{FAST_RATE/1e6:.0f} MB/s to {SLOW_RATE/1e6:.1f} MB/s\n")
    outcome = sweep(SPEC, {"protocol": ("dl", "hb")})
    results = {point.spec.protocol: point.result.throughputs for point in outcome.points}

    header = f"{'node':>6} " + "".join(f"{protocol:>14}" for protocol in results)
    print(header)
    for node_id in range(NUM_NODES):
        label = f"{node_id}*" if node_id >= num_healthy else str(node_id)
        row = f"{label:>6} " + "".join(
            f"{results[protocol][node_id] / 1e6:>11.2f} MB/s" for protocol in results
        )
        print(row)
    print("   (*) nodes with flaky links\n")

    for protocol, throughputs in results.items():
        healthy = sum(throughputs[:num_healthy]) / num_healthy
        flaky = sum(throughputs[num_healthy:]) / NUM_FLAKY
        print(f"{protocol:>4}: healthy-node average {healthy/1e6:.2f} MB/s, "
              f"flaky-node average {flaky/1e6:.2f} MB/s")

    dl_healthy = sum(results['dl'][:num_healthy]) / num_healthy
    hb_healthy = sum(results['hb'][:num_healthy]) / num_healthy
    print(f"\nDispersedLedger lets the healthy nodes confirm "
          f"{dl_healthy / max(hb_healthy, 1e-9):.1f}x faster than HoneyBadger "
          "under the same conditions.")


if __name__ == "__main__":
    main()
