"""Simulation checkpoints: the ``repro-ckpt-v1`` on-disk format.

A checkpoint captures a *running* experiment — the event queue with its
sequence counters and lazily-deleted slots, every pipe's in-flight
transfers, node protocol state, RNG streams, telemetry rows, and workload
cursors — such that restoring it in a fresh process and continuing produces
byte-identical summaries to the uninterrupted run.

Three layers live here:

* :class:`SnapshotState` (defined in :mod:`repro.common.snapshot`,
  re-exported here) — a mixin giving a stateful class an explicit
  ``snapshot_state()/restore_state()`` pair driven by a declared
  ``_SNAPSHOT_FIELDS`` tuple.  The pair is also wired into pickling
  (``__getstate__``/``__setstate__``), so one deep ``pickle`` of the
  experiment graph goes through the explicit, reviewed field lists; an
  attribute that is not declared raises :class:`SnapshotError` instead of
  silently leaking into (or dropping out of) the format.
* The envelope: :func:`write_snapshot_file` / :func:`read_snapshot_file`
  wrap a pickled payload in a one-line JSON header carrying the format
  version, a scenario fingerprint, and payload length + CRC, so truncated
  files, version skew, and foreign-scenario restores all fail with a typed
  :class:`SnapshotError` before any pickle byte is touched.
* :class:`SimulationState` with :func:`save_checkpoint` /
  :func:`load_checkpoint` — the container the experiment runner snapshots.

Checkpoints are taken between ``sim.run(until=...)`` slices, never from
inside the event loop (:func:`repro.experiments.runner.execute` is the one
caller of :func:`save_checkpoint`): the loop has returned, so its batched
``processed_events`` counter is written back and no callback is mid-flight
— the captured state is exactly what an uninterrupted run carries across
that instant.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.common.errors import SnapshotError
from repro.common.snapshot import SnapshotState

__all__ = [
    "FORMAT_VERSION",
    "KIND_SIMULATION",
    "KIND_SWEEP_POINT",
    "SnapshotState",
    "SimulationState",
    "write_snapshot_file",
    "read_snapshot_header",
    "read_snapshot_file",
    "save_checkpoint",
    "load_checkpoint",
]

#: On-disk checkpoint format version.  Bump when the envelope or any
#: ``_SNAPSHOT_FIELDS`` list changes incompatibly.
FORMAT_VERSION = "repro-ckpt-v1"

#: ``kind`` header value for a full simulation checkpoint.
KIND_SIMULATION = "simulation"

#: ``kind`` header value for a completed sweep-point result journal entry.
KIND_SWEEP_POINT = "sweep-point"


# ---------------------------------------------------------------------------
# The envelope
# ---------------------------------------------------------------------------


@contextmanager
def _gc_paused():
    """Suspend the cyclic garbage collector around (un)pickling a large graph.

    A mid-run simulation state is millions of small objects; with the
    collector armed, the allocations made while pickling or unpickling keep
    re-triggering full generational scans of the graph being serialised,
    roughly doubling checkpoint save/load wall time.  Nothing inside a
    single ``pickle.dumps``/``loads`` call needs cycle collection, so pause
    the collector for its duration (and only restore it if it was running).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def write_snapshot_file(
    path: str | Path,
    payload_obj: Any,
    *,
    kind: str,
    fingerprint: str,
    extra: dict[str, Any] | None = None,
) -> Path:
    """Atomically write ``payload_obj`` to ``path`` in ``repro-ckpt-v1`` form.

    The file is a one-line JSON header (format version, ``kind``, scenario
    ``fingerprint``, payload length and CRC-32, plus ``extra`` metadata)
    followed by the raw pickle payload.  The write goes to a temporary file
    in the same directory and is renamed into place, so a crash mid-write
    never leaves a truncated file under the final name.
    """
    path = Path(path)
    with _gc_paused():
        payload = pickle.dumps(payload_obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "format": FORMAT_VERSION,
        "kind": kind,
        "fingerprint": fingerprint,
        "payload_bytes": len(payload),
        "payload_crc32": zlib.crc32(payload),
    }
    if extra:
        header.update(extra)
    blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)
    return path


def read_snapshot_header(path: str | Path) -> dict[str, Any]:
    """Parse and validate only the JSON header of a snapshot file."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read checkpoint {path}: {exc}") from None
    newline = blob.find(b"\n")
    if newline < 0:
        raise SnapshotError(f"{path} is not a {FORMAT_VERSION} checkpoint (no header)")
    try:
        header = json.loads(blob[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise SnapshotError(
            f"{path} is not a {FORMAT_VERSION} checkpoint (unparseable header)"
        ) from None
    if not isinstance(header, dict) or "format" not in header:
        raise SnapshotError(
            f"{path} is not a {FORMAT_VERSION} checkpoint (missing format field)"
        )
    version = header["format"]
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"{path} has checkpoint format {version!r}; this build reads "
            f"{FORMAT_VERSION!r}"
        )
    return header


def read_snapshot_file(
    path: str | Path,
    *,
    kind: str | None = None,
    expect_fingerprint: str | None = None,
) -> tuple[dict[str, Any], Any]:
    """Read, validate, and unpickle a snapshot file.

    Raises :class:`SnapshotError` for a missing/unparseable header, a format
    version mismatch, a truncated or corrupted payload, the wrong ``kind``,
    or — when ``expect_fingerprint`` is given — a checkpoint written by a
    different scenario.
    """
    path = Path(path)
    header = read_snapshot_header(path)
    blob = path.read_bytes()
    payload = blob[blob.find(b"\n") + 1 :]
    declared = header.get("payload_bytes")
    if not isinstance(declared, int) or len(payload) != declared:
        raise SnapshotError(
            f"{path} is truncated: header declares {declared} payload bytes, "
            f"found {len(payload)}"
        )
    if zlib.crc32(payload) != header.get("payload_crc32"):
        raise SnapshotError(f"{path} is corrupted: payload checksum mismatch")
    if kind is not None and header.get("kind") != kind:
        raise SnapshotError(
            f"{path} holds a {header.get('kind')!r} snapshot, expected {kind!r}"
        )
    if expect_fingerprint is not None and header.get("fingerprint") != expect_fingerprint:
        raise SnapshotError(
            f"{path} was written by a different scenario (fingerprint "
            f"{header.get('fingerprint')!r}, expected {expect_fingerprint!r}); "
            "refusing a foreign-scenario restore"
        )
    try:
        with _gc_paused():
            obj = pickle.loads(payload)
    except Exception as exc:
        raise SnapshotError(f"cannot unpickle checkpoint {path}: {exc}") from None
    return header, obj


# ---------------------------------------------------------------------------
# The experiment-level state container
# ---------------------------------------------------------------------------


@dataclass
class SimulationState:
    """Everything a running experiment needs to continue after a restore.

    Built by the experiment runner's build phase and consumed by its run and
    summarise phases, so a fresh run and a restored checkpoint follow exactly
    the same code path.  Fields are deliberately loosely typed: this module
    sits below ``repro.experiments`` in the layering.
    """

    fingerprint: str
    protocol: str
    duration: float
    warmup: float
    seed: int
    sim: Any
    network: Any
    collector: Any
    nodes: list[Any]
    generators: list[Any]
    adversary: Any = None
    placement: tuple[int, ...] = ()
    #: Attached observers by name (see :mod:`repro.trace.observers`), in
    #: attach order.  They ride the checkpoint; the deep pickle keeps each
    #: the same object its hooks and probes reference.
    observers: dict[str, Any] = field(default_factory=dict)
    #: Scenario-level metadata (spec dict + overrides) carried through the
    #: checkpoint so ``repro.experiments resume`` can rebuild a summary.
    meta: dict[str, Any] = field(default_factory=dict)


def save_checkpoint(path: str | Path, state: SimulationState) -> Path:
    """Write ``state`` as a ``repro-ckpt-v1`` simulation checkpoint."""
    return write_snapshot_file(
        path,
        state,
        kind=KIND_SIMULATION,
        fingerprint=state.fingerprint,
        extra={
            "virtual_time": state.sim.now,
            "events_processed": state.sim.processed_events,
            "protocol": state.protocol,
            "duration": state.duration,
        },
    )


def load_checkpoint(
    path: str | Path, *, expect_fingerprint: str | None = None
) -> SimulationState:
    """Load a simulation checkpoint written by :func:`save_checkpoint`."""
    _header, state = read_snapshot_file(
        path, kind=KIND_SIMULATION, expect_fingerprint=expect_fingerprint
    )
    if not isinstance(state, SimulationState):
        raise SnapshotError(
            f"{path} does not contain a SimulationState payload"
        )
    # A plain dataclass unpickles whatever attribute set it was saved with;
    # refuse another version's here, not at the first missing attribute.
    mismatched = set(vars(state)) ^ {f.name for f in fields(SimulationState)}
    if mismatched:
        raise SnapshotError(
            f"{path} was written by an incompatible version: SimulationState "
            f"attributes {sorted(mismatched)} differ from this build's"
        )
    return state

