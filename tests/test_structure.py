"""Structure guards: forks and copies that must not grow back.

Each test pins one structural decision that a later change could quietly
undo while every behavioural test still passes.  Call sites and class
bodies are read with ``ast``, so a reformat cannot dodge a guard; a failure
message names the section of ``docs/performance.md`` that explains the rule.

**One transaction plane.**  ``node.mempool`` is parsed for the pinned ledger
workloads and selects nothing, ``saturating-columnar`` is a second spelling
of the one saturating client, which submits a batch per refill and builds
no record, and the per-plane forks the unified plane removed stay out of
the places where blocks are cut and deliveries recorded.  A constant batch
column is a zero-stride view that only ``core/txbatch.py`` builds or
inspects.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

from repro.experiments.cli import resolve_scenario
from repro.experiments.engine import sweep
from repro.experiments.options import ExecutionOptions

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _called_name(call: ast.Call) -> str | None:
    return getattr(call.func, "attr", getattr(call.func, "id", None))


def _summaries(setting: str) -> str:
    """``run straggler-hetero --duration 4 --serial --set <setting>``'s summaries."""
    _entry, base, grid = resolve_scenario("straggler-hetero", overrides=[setting], duration=4.0)
    result = sweep(base, grid or None, options=ExecutionOptions(parallel=False))
    return json.dumps(result.summaries(), sort_keys=True)


@pytest.mark.parametrize(
    "field, spellings",
    [
        ("node.mempool", ("object", "columnar")),
        ("workload.kind", ("saturating", "saturating-columnar")),
    ],
)
def test_a_transaction_plane_alias_selects_nothing(field, spellings):
    a, b = (_summaries(f"{field}={spelling}") for spelling in spellings)
    assert a == b, f"{field} changed the summaries:\n{a}\nvs\n{b}"


def test_no_per_plane_fork_where_blocks_are_cut_and_deliveries_recorded():
    fork = re.compile(r"isinstance\(.*Mempool|tx_batch is not None")
    paths = [SRC / "core" / "node_base.py", *sorted((SRC / "metrics").rglob("*.py"))]
    forks = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if fork.search(line)
    ]
    assert not forks, (
        "a per-plane fork is back (see docs/performance.md, One transaction plane): "
        f"{forks}"
    )


def _saturating_clients() -> list[tuple[Path, ast.ClassDef]]:
    return [
        (path, node)
        for path in sorted((SRC / "workload").rglob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef) and "SaturatingTransactionGenerator" in node.name
    ]


def test_one_saturating_client_that_builds_no_record():
    clients = _saturating_clients()
    names = [f"{path.relative_to(SRC)}:{node.name}" for path, node in clients]
    assert len(clients) == 1, (
        f"src/repro/workload/ has {len(clients)} saturating clients, want 1: {names}"
    )
    (_path, client), = clients
    records = [
        node.lineno
        for node in ast.walk(client)
        if isinstance(node, ast.Call) and _called_name(node) == "Transaction"
    ]
    assert not records, (
        "the saturating client builds records again (see docs/performance.md, "
        f"The saturating client), lines {records}"
    )


def test_only_txbatch_builds_or_inspects_constant_columns():
    """``np.broadcast_to`` and ``.strides`` live in ``core/txbatch.py`` alone."""
    txbatch = SRC / "core" / "txbatch.py"
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        if path == txbatch:
            continue
        for node in ast.walk(_tree(path)):
            names = []
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            sites += [
                f"{path.relative_to(SRC)}:{node.lineno}: {name}"
                for name in names
                if name in ("broadcast_to", "strides", "as_strided")
            ]
    assert not sites, (
        "a constant column is built or inspected outside core/txbatch.py "
        f"(see docs/performance.md, The columnar data plane): {sites}"
    )


def test_the_saturating_client_materialises_no_constant_column():
    (_path, client), = _saturating_clients()
    fills = [
        node.lineno
        for node in ast.walk(client)
        if isinstance(node, ast.Call) and _called_name(node) in ("full", "full_like", "repeat")
    ]
    assert not fills, (
        "the saturating client fills a constant column row by row again; pass the "
        f"scalar to TxBatch.uniform (see docs/performance.md, The saturating client), lines {fills}"
    )
