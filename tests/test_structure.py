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
inspects, and only that module reads a batch's ``tx_ids``, which may be a
``range``.

**Retrieval.**  Its state costs bytes (express-train cars are columns,
AVID-M's cancellation marks a ``bytearray``), ``RealCodec`` decodes on one
path, only the honest encoder files an encoding, ``vid/`` holds no
module-level state (the retrieval record is the run's codec), and a block's
bytes are held once: only the Reed-Solomon layer takes ``memoryview`` slices
of the one buffer a block is encoded into, no batched encode path grows back
beside it, and parsing a block builds no ``Transaction``.

**One cancellation rule.**  A transfer can be cancelled only if its sender
passed ``abort``, so the network keeps one per-node decline hook and nothing
that scopes it: no ``DECLINE_TYPES``, scope table or per-type decline cache,
and ``Network.attach`` reads only ``on_message`` and ``declines_transfer``
from a handler.

**Protocol automata.**  Only protocol logic runs on the N^3 delivery path:
instance ids hash and compare in C.  A binary agreement's round flags are
bits, so ``ba/mmr.py`` builds no ``set``.  Every node holds N^2 automata per
epoch, so the per-slot classes are slotted: no instance dict, and exactly
the snapshot fields as slots.

**One run loop, one definition per experiment.**  The simulator pops its
heap in one place and has no profiled twin of the loop; a paper experiment
is a ``ScenarioSpec`` built in ``catalog.py`` only, no legacy
``benchmarks/BENCH_*.json`` report or deleted figure driver comes back, and
a figure bench sweeps its catalog entry as defined: it builds, overrides and
re-grids no spec and reads no environment variable.

**One execution path, one observer seam.**  Every point goes through
``engine.run_points`` -> ``runner.execute`` (one executor, one scheduler
call, no shim or windowed twin); observers plug in through
``build_experiment(observers=)``; the CLIs resolve a scenario in one place,
and their misuse is one ``error:`` line and exit 2 (run as subprocesses, so
the exit code and stderr are the real ones).

**A run loads only what it runs.**  Importing what the performance ledger's
child imports, or running a point with observers off, loads none of the
CLIs, figure, golden and trace-analysis modules, nor ``argparse`` or the
process pool (each checked in a fresh interpreter), and only a run on a
city testbed loads the testbeds; so every CLI verb is driven here once,
with ``--help``, to catch a broken import that only the CLI would hit.

**One Poisson client.**  The Poisson-family arrivals are drawn when a
mempool is read: only the saturating client schedules simulator events.

**Every option left is one a caller sets.**  The fields of the six option
surfaces are pinned by name: an option that restates a protocol class, picks
a path the code works out itself or that nothing reads comes back only by
editing that table.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.adversary.registry import AdversarySpec
from repro.ba.mmr import BinaryAgreement, _RoundState
from repro.common.ids import BAInstanceId, VIDInstanceId
from repro.common.params import ProtocolParams
from repro.core.config import NodeConfig
from repro.experiments.cli import resolve_scenario
from repro.experiments.engine import sweep
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import Stop, build_experiment, execute
from repro.experiments.scenario import ScenarioSpec, TopologySpec
from repro.sim.context import NodeContext
from repro.sim.network import NetworkConfig
from repro.vid.avid_m import AvidMInstance
from repro.vid.codec import VirtualCodec

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _called_name(call: ast.Call) -> str | None:
    return getattr(call.func, "attr", getattr(call.func, "id", None))


def _identifiers(path: Path) -> list[tuple[int, str]]:
    """Every name ``path`` defines, reads, imports or looks up as an attribute."""
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Name):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, part) for alias in node.names for part in alias.name.split(".")]
    return found


def _summaries(setting: str) -> str:
    """``run straggler-hetero --duration 4 --serial --set <setting>``'s summaries."""
    _entry, base, grid = resolve_scenario("straggler-hetero", overrides=[setting], duration=4.0)
    result = sweep(base, grid or None, options=ExecutionOptions(workers=1))
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


def test_only_txbatch_reads_transaction_ids():
    """A batch's ``tx_ids`` is a ``range`` or an array; only ``core/txbatch.py`` knows which."""
    txbatch = SRC / "core" / "txbatch.py"
    sites = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path != txbatch
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr == "tx_ids"
    ]
    assert not sites, (
        "a module outside core/txbatch.py reads a batch's tx_ids, which may be a range "
        f"(see docs/performance.md, One transaction plane): {sites}"
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


def test_only_the_saturating_client_schedules():
    """A Poisson-family client is drawn when its mempool is read, never by an event."""
    path = SRC / "workload" / "txgen.py"
    schedulers = sorted(
        {
            top.name
            for top in _tree(path).body
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and (_called_name(node) or "").startswith("schedule")
        }
    )
    assert schedulers == ["SaturatingTransactionGenerator"], (
        f"{path.relative_to(SRC)}: {schedulers} schedule simulator events; arrivals "
        "are drawn at each mempool read (see docs/performance.md, Arrivals are drawn "
        "when the queue is read)"
    )


def _lines_matching(pattern: str, paths) -> list[str]:
    regex = re.compile(pattern)
    return [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if regex.search(line)
    ]


def _calls(tree: ast.AST, name: str, receiver: str | None = None) -> list[ast.Call]:
    """Calls of ``name`` in ``tree``, through ``<...>.receiver.name`` if ``receiver`` is given."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _called_name(node) == name
        and (receiver is None or getattr(getattr(node.func, "value", None), "attr", None) == receiver)
    ]


def _method(path: Path, cls: str, name: str) -> ast.FunctionDef:
    (method,) = [
        item
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef) and node.name == cls
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == name
    ]
    return method


def test_express_train_cars_are_columns():
    tuples = _lines_matching(
        r"\.cars\b|append\(\(src, dst|_ExpressTrain\(self, when, \(", [SRC / "sim" / "network.py"]
    )
    assert not tuples, f"express-train cars are tuples again: {tuples}"


def test_no_decline_scope():
    """No name or string under ``src/`` mentions declining but the hook, the
    network's per-node table of it and a local bound to one entry."""
    allowed = {"declines_transfer", "_declines", "decline"}
    sites = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in _identifiers(path)
        + [
            (node.lineno, node.value)
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        ]
        if "decline" in name.lower() and name not in allowed and " " not in name
    ]
    assert not sites, (
        "a decline scope or cache is back; only a cancellable transfer's receiver is "
        f"asked (see docs/architecture.md, The life of a transaction): {sites}"
    )


def test_attach_reads_only_the_two_hooks():
    """``Network.attach`` stores the handler and reads ``on_message`` and
    ``declines_transfer`` from it, and nothing else (no class attribute, no
    MRO walk, no handler passed on to a helper)."""
    attach = _method(SRC / "sim" / "network.py", "Network", "attach")
    parents = {child: node for node in ast.walk(attach) for child in ast.iter_child_nodes(node)}
    read, other = set(), []
    for node in ast.walk(attach):
        if not (isinstance(node, ast.Name) and node.id == "handler"):
            continue
        parent = parents[node]
        if isinstance(parent, ast.Attribute):
            read.add(parent.attr)
        elif (
            isinstance(parent, ast.Call)
            and _called_name(parent) == "getattr"
            and parent.args[0] is node
            and isinstance(parent.args[1], ast.Constant)
        ):
            read.add(parent.args[1].value)
        elif isinstance(parent, ast.Assign) and parent.value is node:
            continue  # stored, e.g. in ``self._handlers``
        else:
            other.append(f"line {parent.lineno}: {ast.unparse(parent)}")
    assert read <= {"on_message", "declines_transfer"} and not other, (
        f"Network.attach reads {sorted(read)} from a handler and uses it in {other}"
    )


def test_avid_m_cancellation_marks_are_not_a_set():
    sets = _lines_matching(
        r"_cancelled_retrievers.*(set\(|\.add\(|__contains__)", sorted((SRC / "vid").rglob("*.py"))
    )
    assert not sets, f"AVID-M cancellation marks are a set again: {sets}"


def test_one_decode_call_site_in_the_codec():
    sites = [call.lineno for call in _calls(_tree(SRC / "vid" / "codec.py"), "decode", "_rs")]
    assert len(sites) == 1, (
        f"src/repro/vid/codec.py has {len(sites)} _rs.decode( call sites, want 1 "
        f"(one decode path; see docs/performance.md, Serving the decode): lines {sites}"
    )


def _is_selection_rule(node: ast.AST) -> bool:
    """``sorted(...)[:...]``: a leading slice of a sorted sequence."""
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Call)
        and _called_name(node.value) == "sorted"
        and isinstance(node.slice, ast.Slice)
        and node.slice.lower is None
    )


def test_the_shard_selection_rule_lives_in_select_indices():
    rules = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(_tree(path))
        if _is_selection_rule(node)
    ]
    select = _method(SRC / "erasure" / "rs_code.py", "ReedSolomonCode", "_select_indices")
    inside = [node for node in ast.walk(select) if _is_selection_rule(node)]
    assert len(rules) == 1 and len(inside) == 1, (
        f"the shard selection rule is defined outside ReedSolomonCode._select_indices: {rules}"
    )


def test_no_environment_toggle_under_vid():
    toggles = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted((SRC / "vid").rglob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and getattr(node.value, "id", None) == "os"
    ]
    assert not toggles, f"src/repro/vid/ reads an environment toggle: {toggles}"


def test_only_encode_and_decode_file_an_encoding():
    """``_file(`` is called once in ``RealCodec.encode`` (the honest encoder's
    buffer) and once in ``RealCodec.decode`` (a passing check's re-encoding),
    and nowhere else; the adversaries never name it."""
    sites = _call_sites("_file", sorted(SRC.rglob("*.py")))
    codec = SRC / "vid" / "codec.py"
    inside = [
        len(_calls(_method(codec, "RealCodec", name), "_file")) for name in ("encode", "decode")
    ]
    adversaries = _lines_matching(r"\b_file\b", sorted((SRC / "adversary").rglob("*.py")))
    assert len(sites) == 2 and inside == [1, 1], (
        f"_file must be called once in RealCodec.encode and once in RealCodec.decode: {sites}"
    )
    assert not adversaries, f"src/repro/adversary/ files an encoding: {adversaries}"


def _leaf_writes(tree: ast.AST) -> list[int]:
    """Lines that store into ``<...>.leaves[...]`` or call a method of ``<...>.leaves``
    other than ``get``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and getattr(node.value, "attr", None) == "leaves"
        )
        or (
            isinstance(node, ast.Call)
            and getattr(getattr(node.func, "value", None), "attr", None) == "leaves"
            and _called_name(node) != "get"
        )
    ]


def test_only_verify_chunk_writes_a_leaf():
    """A leaf is a chunk whose proof passed, so only ``RealCodec.verify_chunk``
    may file one."""
    sites = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _leaf_writes(_tree(path))
    ]
    inside = _leaf_writes(_method(SRC / "vid" / "codec.py", "RealCodec", "verify_chunk"))
    assert len(sites) == len(inside) == 1, (
        f"leaves[...] must be written only in RealCodec.verify_chunk: {sites}"
    )


def test_no_weakref_under_vid():
    """The retrieval record is keyed by value; nothing under ``vid/`` tracks objects."""
    imports = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted((SRC / "vid").rglob("*.py"))
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Import) and any(a.name == "weakref" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "weakref")
    ]
    assert not imports, f"src/repro/vid/ imports weakref: {imports}"


def test_no_module_level_state_under_vid():
    """No module-level name under ``vid/`` is bound to a call (the ``object()``
    sentinel aside) and no function rebinds a global: the retrieval record and
    any id counter belong to a run, not to the process."""
    sentinel = "object()"
    sites = []
    for path in sorted((SRC / "vid").rglob("*.py")):
        tree = _tree(path)
        for node in tree.body:
            value = getattr(node, "value", None)
            if (
                isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                and value is not None
                and ast.unparse(value) != sentinel
                and any(isinstance(sub, ast.Call) for sub in ast.walk(value))
            ):
                sites.append(f"{path.relative_to(SRC)}:{node.lineno}: {ast.unparse(node)}")
        sites += [
            f"{path.relative_to(SRC)}:{node.lineno}: global"
            for node in ast.walk(tree)
            if isinstance(node, ast.Global)
        ]
    assert not sites, (
        "src/repro/vid/ holds process-wide state again; it belongs to the run's codec "
        f"(see docs/performance.md, Real data plane): {sites}"
    )


def test_only_the_reed_solomon_layer_takes_views():
    """``memoryview(`` is called in ``erasure/rs_code.py`` alone: a view is taken
    only of the buffer a block is encoded or decoded into."""
    rs_code = SRC / "erasure" / "rs_code.py"
    sites = [
        f"{path.relative_to(SRC)}:{call.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path != rs_code
        for call in _calls(_tree(path), "memoryview")
    ]
    assert not sites, (
        "a memoryview is taken outside erasure/rs_code.py (see docs/performance.md, "
        f"One copy of a block's bytes): {sites}"
    )


def test_no_batched_encode_path():
    """No ``encode_many`` or ``disperse_many`` under ``src/``, by name or as a
    string: a block is encoded alone, into its own buffer."""
    batched = {"encode_many", "disperse_many"}
    sites = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in _identifiers(path)
        + [
            (node.lineno, node.value)
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        ]
        if name in batched
    ]
    assert not sites, (
        "a batched encode path is back (see docs/performance.md, "
        f"One copy of a block's bytes): {sites}"
    )


def test_parsing_a_block_builds_no_transaction():
    parsers = [
        _method(SRC / "core" / "block.py", "Block", "deserialize"),
        _method(SRC / "core" / "txbatch.py", "TxBatch", "deserialize"),
    ]
    records = [call.lineno for parser in parsers for call in _calls(parser, "Transaction")]
    assert not records, (
        "parsing a block builds Transaction records again (see docs/performance.md, "
        f"One copy of a block's bytes), lines {records}"
    )


def test_instance_ids_hash_and_compare_in_c():
    """``common/ids.py`` defines no ``__hash__``/``__eq__`` and caches no hash."""
    sites = []
    for node in ast.walk(_tree(SRC / "common" / "ids.py")):
        if isinstance(node, ast.FunctionDef):
            names = [node.name]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.arg):
            names = [node.arg]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A slot or setattr name; prose (docstrings) is not an identifier.
            names = [node.value] if node.value.isidentifier() else []
        else:
            continue
        sites += [
            f"common/ids.py:{node.lineno}: {name}"
            for name in names
            if name in ("__hash__", "__eq__") or "_hash" in name
        ]
    assert not sites, (
        "instance ids hash or compare in Python again (see docs/performance.md, "
        f"Dispatch): {sites}"
    )


def test_binary_agreement_builds_no_set():
    sets = [
        f"ba/mmr.py:{node.lineno}"
        for node in ast.walk(_tree(SRC / "ba" / "mmr.py"))
        if isinstance(node, (ast.Set, ast.SetComp))
        or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "set")
    ]
    assert not sets, (
        "a binary agreement builds a set again; its round flags are 2-bit masks "
        f"(see docs/performance.md, Bitmask tallies): {sets}"
    )


def test_per_slot_automata_are_slotted():
    """``AvidMInstance``, ``BinaryAgreement`` and ``_RoundState`` instances
    carry no ``__dict__``, and each class's slots are its snapshot fields."""
    params = ProtocolParams.for_n(4)
    ctx = NodeContext(0, None, None)
    instances = [
        AvidMInstance(params, VIDInstanceId(epoch=1, proposer=0), ctx, VirtualCodec(params)),
        BinaryAgreement(params, BAInstanceId(epoch=1, slot=0), ctx),
        _RoundState(),
    ]
    unslotted = [
        type(instance).__name__
        for instance in instances
        if hasattr(instance, "__dict__")
        or type(instance).__slots__ != type(instance)._SNAPSHOT_FIELDS
    ]
    assert not unslotted, (
        "a per-slot automaton holds an instance dict or a slot its snapshot does "
        f"not list (see docs/performance.md, Per-slot state): {unslotted}"
    )


def test_one_run_loop():
    """The in-order lane is merged with the heap in exactly one place; a
    budgeted or profiled twin of the loop would have to duplicate it."""
    twins = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in _identifiers(path)
        if name == "_run_loop_profiled"
    ]
    assert not twins, (
        f"a twin of the run loop is back (see docs/performance.md, Simulator core): {twins}"
    )
    pops = [call.lineno for call in _calls(_tree(SRC / "sim" / "events.py"), "heappop")]
    assert len(pops) == 1, (
        f"src/repro/sim/events.py has {len(pops)} heappop( call sites, want 1 (one run loop): "
        f"lines {pops}"
    )


def test_one_definition_per_experiment():
    """A paper experiment is a catalog entry; ``figures.py`` only reduces its
    sweeps, and host performance is reported by the ledger alone."""
    catalog = SRC / "experiments" / "catalog.py"
    literals = [
        f"{path.relative_to(SRC)}:{call.lineno}"
        for path in sorted((SRC / "experiments").rglob("*.py"))
        if path != catalog
        for call in _calls(_tree(path), "ScenarioSpec")
    ]
    assert not literals, (
        "a second experiment definition is back: ScenarioSpec( literals belong in "
        f"catalog.py: {literals}"
    )
    reports = sorted(path.name for path in (ROOT / "benchmarks").glob("BENCH_*.json"))
    assert not reports, (
        "a legacy benchmarks/BENCH_*.json report is tracked again; the ledger is the "
        f"performance reporter: {reports}"
    )
    deleted = {"run_geo_throughput", "run_latency_sweep", "run_spatial_variation", "simulate_point"}
    drivers = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in _identifiers(path)
        if name in deleted
    ]
    assert not drivers, (
        f"a deleted figure driver is back (see docs/scenarios.md, Paper figures): {drivers}"
    )


def test_a_figure_bench_sweeps_its_entry_as_defined():
    """A figure's window, load and grid are its catalog entry's: the benches and
    their conftest build and override no spec, read no environment variable, and
    sweep only ``entry.base`` over ``entry.grid``, by name."""
    benches = ROOT / "benchmarks"
    # The span off-switch report times its own short runs; it draws no figure.
    paths = [
        benches / "conftest.py",
        *(path for path in sorted(benches.glob("bench_*.py")) if path.name != "bench_spans_report.py"),
    ]
    trees = {path.relative_to(ROOT): _tree(path) for path in paths}
    departures = [
        f"{name}:{call.lineno}: {ast.unparse(call)}"
        for name, tree in trees.items()
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and (
            _called_name(call) in ("ScenarioSpec", "apply_overrides", "replace", "run_scenario")
            or (_called_name(call) == "entry_sweep" and (len(call.args) != 1 or call.keywords))
        )
    ]
    departures += [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in _identifiers(path)
        if name in ("environ", "getenv")
    ]
    sweeps = [
        ast.unparse(call)
        for tree in trees.values()
        for call in _calls(tree, "sweep")
    ]
    assert not departures and sweeps == ["sweep(entry.base, entry.grid)"], (
        "a figure bench departs from its catalog entry; change the entry instead "
        f"(benchmarks/conftest.py): {departures}, sweeps {sweeps}"
    )


def _source_lines(pattern: str, *roots: Path, exclude: tuple[Path, ...] = ()) -> list[str]:
    """Lines matching ``pattern`` in ``roots``: files, or the ``*.py``/``*.yml``/``*.md``
    files under directories."""
    paths = [
        path
        for root in roots
        for path in ([root] if root.is_file() else sorted(root.rglob("*")))
        if path.suffix in (".py", ".yml", ".md") and path.is_file()
        and not any(path.is_relative_to(skip) for skip in exclude)
    ]
    return _lines_matching(pattern, paths)


def _call_sites(name: str, paths, receiver: str | None = None) -> list[str]:
    return [
        f"{path.relative_to(SRC)}:{call.lineno}"
        for path in paths
        for call in _calls(_tree(path), name, receiver)
    ]


def test_one_execution_path():
    """Every point is one task through ``engine.run_points`` -> ``runner.execute``;
    a shim, a checkpoint timer, a second executor or windowed execution would be
    a second path (see docs/architecture.md, The experiment layer)."""
    removed = _source_lines(
        r"\b(merge_deprecated_kwargs|UNSET|CheckpointTimer|_finish_experiment|run_windowed_sweep"
        r"|run_experiment|resume_experiment|run_protocol_comparison|_run_to_horizon|build_nodes"
        r"|network_context)\b",
        SRC,
    )
    assert not removed, (
        "a removed execution path is back (see docs/architecture.md, The experiment layer): "
        f"{removed}"
    )
    options = SRC / "experiments" / "options.py"
    interval = _source_lines(r"\bcheckpoint_every\b", options)
    assert not interval, (
        "ExecutionOptions has a periodic-checkpoint interval again; it is the spec's field: "
        f"{interval}"
    )
    windowed = _source_lines(
        r"\b(windowed|window_dir|plan_windowed_points|prefix_key|refit_forked_state|_stitch)\b"
        r"|repro-windowed-",
        SRC,
    ) + _source_lines(r"\bwindows\b", options)
    assert not windowed, (
        "windowed execution is back (see docs/architecture.md, The experiment layer): "
        f"{windowed}"
    )
    design = _source_lines(
        r"DESIGN\.md", SRC, ROOT / "benchmarks", exclude=(ROOT / "benchmarks" / "ledger",)
    )
    assert not design, f"DESIGN.md does not exist; cite docs/architecture.md, Substitutions: {design}"
    deleted = _source_lines(
        r"repro\.trace\.plot|repro\.trace\.importers|plot_telemetry|IMPORTERS",
        SRC, ROOT / "tests", ROOT / "benchmarks",
        exclude=(Path(__file__).resolve(),),
    )
    assert not deleted, (
        "the trace plot renderer or recording importers are back; trace summarise, diff "
        f"and spans give the numbers: {deleted}"
    )
    sources = sorted(SRC.rglob("*.py"))
    for name, receiver, why in (
        ("ProcessPoolExecutor", None, "one executor"),
        ("run", "sim", "one scheduler"),
        ("execute", None, "one executor"),
    ):
        sites = _call_sites(name, sources, receiver)
        spelled = f"{'.' + receiver + '.' if receiver else ''}{name}("
        assert len(sites) == 1, (
            f"src/repro/ has {len(sites)} '{spelled}' call sites, want 1 ({why}): {sites}"
        )


def _cli(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


def _assert_one_error_line(proc: subprocess.CompletedProcess, what: str) -> None:
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2 and len(lines) == 1 and lines[0].startswith("error: "), (
        f"{what} exited {proc.returncode} with:\n{proc.stderr}"
    )


def test_a_spec_less_checkpoint_does_not_resume(tmp_path):
    """Only a hand-driven ``execute`` writes a checkpoint with no spec in it,
    and ``resume`` refuses it in one line."""
    checkpoint = tmp_path / "spec-less.ckpt"
    state = build_experiment("dl", NetworkConfig(num_nodes=4), 2.0)
    execute(state, [Stop(0.5, checkpoint=str(checkpoint))])
    _assert_one_error_line(
        _cli("resume", str(checkpoint), cwd=tmp_path), "resume of a spec-less checkpoint"
    )


def test_one_observer_seam():
    """Telemetry, spans and the profiler plug in through
    ``build_experiment(observers=)`` -> ``execute`` -> ``Stop.flush``; the span
    probe has two homes (``NodeContext.probe``, ``Network.probe``); the CLI
    resolves a scenario in one place (see docs/architecture.md, Observers)."""
    forks = _source_lines(r"recorder=|state\.recorder|state\.spans|span_probe", SRC)
    assert not forks, f"a per-observer keyword, state field or probe copy is back: {forks}"
    profilers = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted((SRC / "experiments").rglob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute) and target.attr == "profiler"
        and getattr(target.value, "attr", getattr(target.value, "id", None)) == "sim"
    ]
    assert len(profilers) == 1, (
        f"src/repro/experiments/ has {len(profilers)} 'sim.profiler = ' sites, want 1 "
        f"(runner.execute): {profilers}"
    )
    clis = [SRC / "experiments" / "cli.py", SRC / "trace" / "cli.py"]
    overrides = _call_sites("apply_override", clis)
    assert len(overrides) == 1, (
        f"the CLIs have {len(overrides)} apply_override( call sites, want 1 "
        f"(resolve_scenario): {overrides}"
    )


@pytest.mark.parametrize(
    "misuse",
    [
        "run no-such",
        "sweep no-such",
        "show no-such",
        "run straggler-hetero --set bogus",
        "run straggler-hetero --grid bogus",
        "trace export no-such",
        "trace spans straggler-hetero --set bogus",
    ],
)
def test_cli_misuse_is_one_error_line(misuse, tmp_path):
    _assert_one_error_line(_cli(*misuse.split(), cwd=tmp_path), repr(misuse))


#: Modules no simulated run executes: the CLIs, the figure / golden /
#: cost-model reductions, trace-file handling and analysis, the span
#: recorder (loaded only when spans are on), the instant router used by the
#: Fig. 2 point and the tests, and the standard library only the CLI and the
#: process pool use.  See docs/performance.md, "Start-up".
OFF_THE_RUN_PATH = (
    "repro.trace.cli",
    "repro.trace.diff",
    "repro.trace.analysis",
    "repro.trace.io",
    "repro.trace.model",
    "repro.trace.spans",
    "repro.experiments.cli",
    "repro.experiments.golden",
    "repro.experiments.figures",
    "repro.experiments.cost_model",
    "repro.sim.instant",
    "repro.vid.costs",
    "argparse",
    "concurrent.futures",
    "multiprocessing",
)

#: The adversary modules: each loads only in a run that places it.
ADVERSARY_MODULES = (
    "repro.adversary.censor",
    "repro.adversary.crash",
    "repro.adversary.equivocator",
    "repro.adversary.filters",
)

#: What ``benchmarks/ledger/`` imports from the package before it times a run.
LEDGER_IMPORTS = (
    "import repro.experiments, repro.sim.snapshot, repro.trace.recorder, repro.common.errors"
)

#: A short N=4 catalog point, built and run in the probe interpreter.
SHORT_RUN = """
from repro.experiments import apply_overrides, get_scenario, run_scenario
run_scenario(apply_overrides(get_scenario("equivocate-split").base, {overrides!r}))
"""

#: A short point on a city testbed (N=15 Vultr), run in the probe interpreter.
CITY_RUN = SHORT_RUN.replace("equivocate-split", "fig15-vultr")


def _loaded_after(code: str, cwd: Path, modules: tuple = OFF_THE_RUN_PATH) -> list[str]:
    """The ``modules`` a fresh interpreter holds after ``code``."""
    probe = (
        f"{code}\nimport sys\n"
        f"print(sorted(m for m in {modules!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=cwd,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_the_ledger_imports_load_nothing_a_run_does_not_execute(tmp_path):
    loaded = _loaded_after(LEDGER_IMPORTS, tmp_path)
    assert not loaded, (
        f"importing the package loads {loaded}; import them where they are used "
        "(see docs/performance.md, Start-up)"
    )


def test_a_run_loads_nothing_it_does_not_execute(tmp_path):
    loaded = _loaded_after(SHORT_RUN.format(overrides={"duration": 2.0}), tmp_path)
    assert not loaded, (
        f"a run with observers off loads {loaded}; import them where they are used "
        "(see docs/performance.md, Start-up)"
    )


def test_a_run_loads_only_the_adversaries_it_places(tmp_path):
    assert _loaded_after(LEDGER_IMPORTS, tmp_path, ADVERSARY_MODULES) == []
    run = SHORT_RUN.format(overrides={"duration": 2.0})
    assert _loaded_after(run, tmp_path, ADVERSARY_MODULES) == ["repro.adversary.equivocator"]


def test_only_a_city_run_loads_the_city_testbeds(tmp_path):
    cities = ("repro.workload.cities",)
    assert _loaded_after(LEDGER_IMPORTS, tmp_path, cities) == []
    uniform = SHORT_RUN.format(overrides={"duration": 2.0})
    assert _loaded_after(uniform, tmp_path, cities) == []
    city = CITY_RUN.format(overrides={"duration": 0.5})
    assert _loaded_after(city, tmp_path, cities) == list(cities)


def test_recording_spans_loads_the_span_recorder(tmp_path):
    overrides = {"duration": 2.0, "spans.enabled": True, "spans.out_dir": str(tmp_path)}
    assert _loaded_after(SHORT_RUN.format(overrides=overrides), tmp_path) == [
        "repro.trace.spans"
    ]


@pytest.mark.parametrize(
    "verb",
    [
        "list", "show", "run", "sweep", "resume", "trace",
        *(f"trace {sub}" for sub in
          ("inspect", "convert", "export", "summarise", "diff", "spans", "flame")),
    ],
)
def test_every_cli_verb_answers_help(verb, tmp_path):
    """The CLI modules load only when the CLI runs, so drive each verb once."""
    proc = _cli(*verb.split(), "--help", cwd=tmp_path)
    assert proc.returncode == 0 and proc.stdout.startswith("usage:"), (
        f"{verb} --help exited {proc.returncode} with:\n{proc.stderr}"
    )


#: The settable fields of each option surface, in declaration order.  DL-Coupled
#: is its class, the express network is selected by its links, a default warmup
#: is ``warmup=None`` and ``workers`` alone decides where points run.
OPTION_FIELDS = {
    NodeConfig: (
        "data_plane",
        "nagle_delay",
        "nagle_size",
        "max_block_size",
        "linking",
        "retrieve_blocks",
        "mempool",
    ),
    TopologySpec: ("kind", "num_nodes", "delay", "testbed", "fluctuate", "egress_headroom"),
    NetworkConfig: ("num_nodes", "propagation_delay", "egress_traces", "ingress_traces"),
    ScenarioSpec: (
        "name",
        "kind",
        "protocol",
        "topology",
        "bandwidth",
        "adversary",
        "workload",
        "node",
        "telemetry",
        "spans",
        "duration",
        "warmup",
        "seed",
        "f",
        "max_epochs",
        "block_size",
        "checkpoint_every",
    ),
    AdversarySpec: ("kind", "count", "nodes", "crash_time", "victim", "split"),
    ExecutionOptions: ("profiler", "checkpoint_path", "resume_from", "workers", "resume_dir"),
}


@pytest.mark.parametrize("surface", OPTION_FIELDS, ids=lambda surface: surface.__name__)
def test_every_option_left_is_one_a_caller_sets(surface):
    fields = tuple(field.name for field in dataclasses.fields(surface))
    assert fields == OPTION_FIELDS[surface], (
        f"{surface.__name__} grew or lost an option: {fields}; an option comes "
        "back only by editing OPTION_FIELDS"
    )
