"""Roll a cProfile run up into the ledger's layers.

Every function defined in a file under ``src/repro/`` belongs to one layer by
path prefix (:data:`LAYER_PREFIXES`).  Functions defined anywhere else — C
builtins such as ``bytes.translate``, ``hashlib`` and ``pickle``, numpy, and
pure-Python stdlib such as ``random`` — do work *on behalf of* a layer, so
their self time is charged to the ``repro`` functions that called them, split
by the profile's caller table.  Without that step a third of the real-bytes
workload lands in a "builtins" bucket instead of in erasure and crypto.
Time that reaches no ``repro`` caller (the harness's own frames) is ``other``.

``SimProfiler``'s callback kinds are not used: a delivery event runs the
whole node/VID/BA handler chain inside ``Pipe._drain``, so kinds cannot
separate the layers this ledger needs apart.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

#: Profile key: ``(filename, line, function name)``; ``"~"`` is a C function.
FuncKey = tuple[str, int, str]

#: First match wins, so the specific files sit above their directory.
LAYER_PREFIXES: tuple[tuple[str, str], ...] = (
    ("erasure/", "erasure"),
    ("crypto/", "crypto"),
    ("vid/", "vid"),
    ("ba/", "ba"),
    ("core/mempool.py", "core.txplane"),
    ("core/block.py", "core.txplane"),
    ("core/txbatch.py", "core.txplane"),
    ("core/", "core.node"),
    ("honeybadger/", "core.node"),
    ("workload/", "workload"),
    ("metrics/", "metrics"),
    ("sim/events.py", "sim.events"),
    ("sim/pipe.py", "sim.pipe"),
    ("sim/bandwidth.py", "sim.pipe"),
    ("sim/snapshot.py", "sim.snapshot"),
    ("common/snapshot.py", "sim.snapshot"),
    ("sim/profiler.py", "trace"),
    ("sim/", "sim.network"),
    ("trace/", "trace"),
    ("experiments/", "experiments"),
    ("adversary/", "adversary"),
    ("common/", "common"),
    ("__init__.py", "common"),
)

OTHER = "other"

#: Every layer, in the order the tables print them.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in LAYER_PREFIXES)) + (OTHER,)

_PACKAGE_MARKER = "/src/repro/"

#: Longest foreign call chain followed before the remainder is called ``other``.
_MAX_HOPS = 64


def layer_of(filename: str) -> str | None:
    """The layer owning ``filename``, or ``None`` for code outside ``src/repro``."""
    normalised = filename.replace("\\", "/")
    index = normalised.rfind(_PACKAGE_MARKER)
    if index < 0:
        return None
    relative = normalised[index + len(_PACKAGE_MARKER):]
    for prefix, layer in LAYER_PREFIXES:
        if relative.startswith(prefix):
            return layer
    return OTHER


def source_files(src_root: Path) -> list[Path]:
    """Every Python file of the package, for the coverage test and ``src_lines``."""
    return sorted((src_root / "repro").rglob("*.py"))


def roll_up(stats: Mapping[FuncKey, tuple[Any, ...]]) -> dict[str, dict[str, float]]:
    """Per-layer ``self_s`` and ``calls`` from a ``pstats.Stats(...).stats`` table.

    Self time of a ``repro`` function goes to its layer.  Self time of a
    foreign function is pushed to its callers, split in proportion to the
    cumulative time each caller's calls took (for a leaf C function that is
    exactly its self time per caller); a foreign caller pushes it on again
    until it reaches ``repro`` code.  What reaches a function nobody called,
    or is still circulating in a foreign call cycle after :data:`_MAX_HOPS`,
    is ``other`` — so the layers always sum to the profile's total self time.
    """
    totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    layer_by_func = {func: layer_of(func[0]) for func in stats}
    pending: dict[FuncKey, float] = {}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = layer_by_func[func]
        if layer is None:
            pending[func] = tt
        else:
            totals[layer]["self_s"] += tt
            totals[layer]["calls"] += nc
    for _hop in range(_MAX_HOPS):
        if not pending:
            break
        pushed: dict[FuncKey, float] = {}
        for func, amount in pending.items():
            weights = {
                caller: max(edge[3], 0.0)
                for caller, edge in stats[func][4].items()
                if caller != func
            }
            if not weights:
                totals[OTHER]["self_s"] += amount
                continue
            total = sum(weights.values())
            for caller, weight in weights.items():
                part = amount * weight / total if total > 0.0 else amount / len(weights)
                layer = layer_by_func[caller]
                if layer is None:
                    pushed[caller] = pushed.get(caller, 0.0) + part
                else:
                    totals[layer]["self_s"] += part
        pending = pushed
    totals[OTHER]["self_s"] += sum(pending.values())
    return totals
