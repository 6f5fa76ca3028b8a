"""Direct probes: one layer at a time, at fixed sizes, through public calls.

The traced run says what share of a workload a layer owns; a probe says how
fast that layer is on its own, so a change to one layer can be checked
without a simulation around it.  Inputs are fixed (not seeded): a probe's
value should move only when the layer's code does.  Each probe is timed
:data:`ROUNDS` times and the median is reported.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.common.ids import VIDInstanceId
from repro.common.params import ProtocolParams
from repro.core.block import Transaction
from repro.core.mempool import ColumnarMempool, Mempool
from repro.core.txbatch import TxBatch
from repro.crypto.merkle import MerkleTree, verify_proof
from repro.erasure.rs_code import ReedSolomonCode
from repro.experiments import apply_overrides, build_network_config, get_scenario
from repro.experiments.runner import build_experiment
from repro.sim.bandwidth import ConstantBandwidth, PiecewiseConstantBandwidth
from repro.sim.context import NodeContext
from repro.sim.events import Simulator
from repro.sim.instant import InstantNetwork
from repro.sim.messages import Priority
from repro.sim.pipe import Pipe
from repro.sim.snapshot import load_checkpoint, save_checkpoint
from repro.vid.avid_m import AvidMInstance
from repro.vid.codec import RealCodec

ROUNDS = 3
NUM_NODES = 16
MB = 1_000_000


def _median_seconds(body: Callable[[], object]) -> float:
    samples = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        body()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _block(size: int) -> bytes:
    return bytes(range(256)) * (size // 256)


def _erasure_and_merkle(block_bytes: int) -> dict[str, float]:
    params = ProtocolParams.for_n(NUM_NODES)
    code = ReedSolomonCode(params.data_shards, params.total_shards)
    block = _block(block_bytes)
    shards = code.encode(block)
    # The parity-heavy subset forces the matrix-inversion path; the first k
    # shards are systematic and skip the kernel.
    parity = {i: shards[i] for i in range(NUM_NODES - params.data_shards, NUM_NODES)}
    systematic = {i: shards[i] for i in range(params.data_shards)}
    if code.decode(parity) != block or code.decode(systematic) != block:
        raise AssertionError("Reed-Solomon probe decoded the wrong block")
    megabytes = len(block) / MB
    leaves = [bytes([i]) * 64 for i in range(128)]
    tree = MerkleTree(leaves)
    proof = tree.proof(77)
    verifications = max(200, block_bytes // 500)

    def verify() -> None:
        for _ in range(verifications):
            if not verify_proof(tree.root, leaves[77], proof):
                raise AssertionError("Merkle probe rejected a valid proof")

    return {
        "erasure.encode_mb_per_s": megabytes / _median_seconds(lambda: code.encode(block)),
        "erasure.decode_mb_per_s": megabytes / _median_seconds(lambda: code.decode(parity)),
        "erasure.decode_systematic_mb_per_s": megabytes
        / _median_seconds(lambda: code.decode(systematic)),
        "crypto.merkle_build_mb_per_s": megabytes / _median_seconds(lambda: MerkleTree(shards)),
        "crypto.verify_proof_per_s": verifications / _median_seconds(verify),
    }


class _VidAdapter:
    """One AVID-M instance behind the router's Process interface."""

    def __init__(self, instance: AvidMInstance):
        self.instance = instance

    def start(self) -> None:
        return

    def on_message(self, src, msg) -> None:
        self.instance.handle(src, msg)


def _vid_real(block_bytes: int) -> dict[str, float]:
    params = ProtocolParams.for_n(NUM_NODES)
    block = _block(block_bytes)
    disperse_s, retrieve_s = [], []
    for _ in range(ROUNDS):
        network = InstantNetwork(NUM_NODES, seed=1)
        codec = RealCodec(params)
        servers = []
        for node in range(NUM_NODES):
            instance = AvidMInstance(
                params=params,
                instance=VIDInstanceId(epoch=1, proposer=0),
                ctx=NodeContext(node, network, network),
                codec=codec,
                on_complete=lambda _id: None,
                allowed_disperser=0,
            )
            network.attach(node, _VidAdapter(instance))
            servers.append(instance)
        started = time.perf_counter()
        servers[0].disperse(block)
        network.run()
        disperse_s.append(time.perf_counter() - started)
        results = []
        started = time.perf_counter()
        servers[NUM_NODES - 1].retrieve(results.append)
        network.run()
        retrieve_s.append(time.perf_counter() - started)
        if not (results and results[0].ok and results[0].payload == block):
            raise AssertionError("AVID-M probe retrieved the wrong block")
    megabytes = len(block) / MB
    return {
        "vid.real_disperse_mb_per_s": megabytes / statistics.median(disperse_s),
        "vid.real_retrieve_mb_per_s": megabytes / statistics.median(retrieve_s),
    }


def _bare_events(events: int) -> float:
    """No-op events through 64 self-rescheduling timers (heap depth 64)."""

    def body() -> None:
        sim = Simulator()
        remaining = [events]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] >= 64:
                sim.schedule(1.0, tick)

        for offset in range(64):
            sim.schedule(offset / 64.0, tick)
        sim.run()
        if sim.processed_events != events:
            raise AssertionError(f"event probe ran {sim.processed_events} of {events} events")

    return events / _median_seconds(body)


def _pipe_transfers(transfers: int, piecewise: bool) -> float:
    """Back-to-back 10 kB transfers through one pipe at a mean 1 MB/s."""

    def body() -> None:
        sim = Simulator()
        if piecewise:
            horizon = transfers // 100 + 2  # 100 transfers per virtual second
            trace = PiecewiseConstantBandwidth(
                [(step / 10.0, 0.5 * MB if step % 2 else 1.5 * MB) for step in range(horizon * 10)]
            )
        else:
            trace = ConstantBandwidth(float(MB))
        pipe = Pipe(sim, trace)
        done = [0]

        def on_done() -> None:
            done[0] += 1

        for _ in range(transfers):
            pipe.submit(10_000, Priority.DISPERSAL, on_done)
        sim.run()
        if done[0] != transfers:
            raise AssertionError(f"pipe probe finished {done[0]} of {transfers} transfers")

    return transfers / _median_seconds(body)


def _txplane_cuts(count: int) -> dict[str, float]:
    """Fill a mempool with 250-byte transactions and cut it into 1000-tx blocks."""

    def object_plane() -> None:
        pool = Mempool()
        pool.submit_many(Transaction(i, 0, 0.0, 250) for i in range(count))
        taken = 0
        while not pool.is_empty:
            taken += len(pool.take_batch(250_000, 1.0))
        if taken != count:
            raise AssertionError(f"object mempool returned {taken} of {count} transactions")

    def columnar_plane() -> None:
        pool = ColumnarMempool()
        for start in range(0, count, 4000):
            ids = np.arange(start, min(start + 4000, count), dtype=np.uint64)
            pool.submit_batch(TxBatch.uniform(0, ids, np.zeros(len(ids)), 250))
        taken = 0
        while not pool.is_empty:
            taken += len(pool.take_batch(250_000, 1.0))
        if taken != count:
            raise AssertionError(f"columnar mempool returned {taken} of {count} transactions")

    return {
        "core.txplane.object_cut_tx_per_s": count / _median_seconds(object_plane),
        "core.txplane.columnar_cut_tx_per_s": count / _median_seconds(columnar_plane),
    }


def _snapshot(duration: float, workdir: Path) -> dict[str, float]:
    """Save and reload the state of the WAN replay after ``duration`` virtual s."""
    spec = apply_overrides(
        get_scenario("trace-replay-wan").base, {"protocol": "dl", "duration": duration}
    )
    state = build_experiment(
        spec.protocol,
        build_network_config(spec),
        spec.duration,
        workload=spec.workload,
        node_config=spec.node,
        params=spec.params(),
        seed=spec.seed,
        warmup=spec.effective_warmup(),
        adversary=spec.adversary,
    )
    state.sim.run(until=spec.duration)
    path = workdir / "probe.ckpt"
    save_s = _median_seconds(lambda: save_checkpoint(path, state))
    load_s = _median_seconds(lambda: load_checkpoint(path))
    if load_checkpoint(path).sim.processed_events != state.sim.processed_events:
        raise AssertionError("snapshot probe reloaded a different simulation")
    return {
        "sim.snapshot.save_s": save_s,
        "sim.snapshot.load_s": load_s,
        "sim.snapshot.bytes": path.stat().st_size,
    }


def run_probes(smoke: bool, workdir: Path) -> dict[str, float]:
    """Every direct probe; ``smoke`` runs them at a tenth of the size."""
    scale = 10 if smoke else 1
    values = _erasure_and_merkle(MB // scale)
    values.update(_vid_real(MB // scale))
    values["sim.events.bare_events_per_s"] = _bare_events(1_000_000 // scale)
    values["sim.pipe.transfers_per_s"] = _pipe_transfers(60_000 // scale, piecewise=False)
    values["sim.pipe.piecewise_transfers_per_s"] = _pipe_transfers(
        60_000 // scale, piecewise=True
    )
    values.update(_txplane_cuts(200_000 // scale))
    values.update(_snapshot(10.0 / scale, workdir))
    return values
