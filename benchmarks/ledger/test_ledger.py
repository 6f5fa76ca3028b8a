"""Tests of the ledger harness itself: ``pytest benchmarks/ledger``.

Not part of the tier-1 ``testpaths``: the smoke run at the end costs ~30 s.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import layers  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


# -- BENCHMARK.json ---------------------------------------------------------


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_workloads_match_benchmark_json():
    import workloads

    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    defined = {w.name: w.why for w in workloads.WORKLOADS}
    assert declared.items() <= defined.items()
    # The two the driver does not run stay in the suite.
    assert set(defined) - set(declared) == {"latency7-poisson", "wan8-checkpointed"}


# -- layer map and roll-up --------------------------------------------------


def test_every_source_file_has_a_layer():
    files = layers.source_files(ROOT / "src")
    assert len(files) > 50
    unmapped = [str(path) for path in files if layers.layer_of(str(path)) in (None, layers.OTHER)]
    assert unmapped == []
    assert layers.layer_of("/usr/lib/python3/random.py") is None
    assert layers.layer_of("~") is None


def test_specific_files_override_their_directory():
    assert layers.layer_of("/x/src/repro/core/mempool.py") == "core.txplane"
    assert layers.layer_of("/x/src/repro/core/node_base.py") == "core.node"
    assert layers.layer_of("/x/src/repro/sim/pipe.py") == "sim.pipe"
    assert layers.layer_of("/x/src/repro/sim/network.py") == "sim.network"
    assert layers.layer_of("/x/src/repro/common/snapshot.py") == "sim.snapshot"
    assert layers.layer_of("/x/src/repro/sim/profiler.py") == "trace"


def test_charging_conserves_a_real_profile():
    from repro.crypto.merkle import MerkleTree
    from repro.erasure.rs_code import ReedSolomonCode

    code = ReedSolomonCode(6, 16)
    profile = cProfile.Profile()
    profile.enable()
    shards = code.encode(bytes(range(256)) * 2000)
    MerkleTree(shards).proofs_all()
    code.decode({i: shards[i] for i in range(10, 16)})
    profile.disable()
    stats = pstats.Stats(profile).stats
    totals = layers.roll_up(stats)
    charged = sum(layer["self_s"] for layer in totals.values())
    assert charged == pytest.approx(sum(entry[2] for entry in stats.values()), rel=1e-9)
    # The C kernels (bytes.translate, hashlib) are charged to their callers.
    own = sum(entry[2] for func, entry in stats.items() if layers.layer_of(func[0]) == "erasure")
    assert totals["erasure"]["self_s"] > own
    assert totals["crypto"]["self_s"] > 0
    assert totals["erasure"]["calls"] > 0


def test_charging_splits_by_caller_and_survives_foreign_cycles():
    erasure = ("/r/src/repro/erasure/rs_code.py", 1, "encode")
    crypto = ("/r/src/repro/crypto/merkle.py", 1, "build")
    kernel = ("~", 0, "<built-in kernel>")
    ping = ("/usr/lib/python3/json/encoder.py", 1, "ping")
    pong = ("/usr/lib/python3/json/encoder.py", 2, "pong")
    root = ("~", 0, "<method 'disable'>")
    # (cc, nc, tt, ct, callers{caller: (nc, cc, tt, ct)})
    stats = {
        erasure: (1, 1, 1.0, 4.0, {}),
        crypto: (1, 1, 2.0, 3.0, {}),
        kernel: (4, 4, 4.0, 4.0, {erasure: (3, 3, 3.0, 3.0), crypto: (1, 1, 1.0, 1.0)}),
        ping: (1, 1, 0.5, 1.0, {pong: (1, 1, 0.5, 0.5), erasure: (1, 1, 0.5, 1.0)}),
        pong: (1, 1, 0.5, 1.0, {ping: (1, 1, 0.5, 1.0)}),
        root: (1, 1, 0.25, 0.25, {}),
    }
    totals = layers.roll_up(stats)
    assert sum(layer["self_s"] for layer in totals.values()) == pytest.approx(8.25)
    assert totals["crypto"]["self_s"] == pytest.approx(3.0)
    # erasure: own 1.0 + 3/4 of the kernel + what leaks out of the ping/pong cycle.
    assert totals["erasure"]["self_s"] == pytest.approx(1.0 + 3.0 + 1.0, abs=1e-6)
    assert totals[layers.OTHER]["self_s"] == pytest.approx(0.25, abs=1e-6)
    assert totals["erasure"]["calls"] == 1


# -- compare.py -------------------------------------------------------------


def _envelope(wall=(3.0, 2.9, 3.1), rss=400.0, digest="d0", failed=0, layer_s=1.0):
    value, low, high = wall
    return {
        "schema": compare.SCHEMA,
        "seed": 0,
        "reps": 5,
        "smoke": False,
        "workloads": {
            "w": {
                "ops_failed": failed,
                "summary_digest": digest,
                "end_to_end": {
                    "wall_s": {"value": value, "min": low, "max": high, "unit": "s"},
                    "committed_tx_per_s": {
                        "value": 1000 / value, "min": 1000 / high, "max": 1000 / low, "unit": "tx/s"
                    },
                    "peak_rss_mb": {"value": rss, "unit": "MB"},
                    "setup_s": {"value": 0.3, "min": 0.29, "max": 0.31, "unit": "s"},
                },
                "per_layer": {
                    "erasure.self_s": {"value": layer_s, "unit": "s"},
                    "crypto.self_s": {"value": 0.5, "unit": "s"},
                },
            }
        },
    }


def _verdicts(lines):
    return {line.split()[1]: line.split()[0] for line in lines if line.startswith("  ") and "->" in line}


def test_compare_same_files_is_clean():
    lines, breaches = compare.compare(_envelope(), _envelope(), BENCHMARK)
    assert breaches == 0
    assert set(_verdicts(lines).values()) == {"ok"}
    assert not any("simulated results changed" in line for line in lines)


def test_compare_flags_a_breach_and_ranks_the_layer_that_moved():
    slower = _envelope(wall=(6.0, 5.9, 6.1), rss=900.0, layer_s=3.9)
    lines, breaches = compare.compare(_envelope(), slower, BENCHMARK)
    verdicts = _verdicts(lines)
    assert verdicts["wall_s"] == "BREACH"
    assert verdicts["committed_tx_per_s"] == "BREACH"
    assert verdicts["peak_rss_mb"] == "BREACH"
    assert verdicts["setup_s"] == "ok"
    assert breaches == 3
    moved = next(line for line in lines if "layers that moved" in line)
    assert moved.index("erasure") < moved.index("crypto")


def test_compare_applies_the_absolute_floor_and_the_direction():
    # 0.1 s worse on a 0.2 s reference is 50 % but under the 0.15 s floor.
    tiny = compare.judge(
        {"name": "wall_s", "better": "lower", "bound": 0.08},
        {"value": 0.2, "min": 0.2, "max": 0.2},
        {"value": 0.3},
    )
    assert tiny["verdict"] == "ok"
    faster = compare.judge(
        {"name": "committed_tx_per_s", "better": "higher", "bound": 0.08},
        {"value": 100.0, "min": 99.0, "max": 101.0},
        {"value": 150.0},
    )
    assert faster["verdict"] == "ok" and faster["worse_by"] < 0


def test_compare_reports_unresolved_when_the_reference_is_noisy():
    noisy = _envelope(wall=(3.0, 2.0, 4.5))
    lines, breaches = compare.compare(noisy, _envelope(wall=(6.0, 5.9, 6.1)), BENCHMARK)
    assert _verdicts(lines)["wall_s"] == "unresolved"
    assert breaches == 0


def test_compare_flags_changed_results_and_new_failures():
    lines, breaches = compare.compare(_envelope(), _envelope(digest="d1", failed=1), BENCHMARK)
    assert any("simulated results changed" in line for line in lines)
    assert breaches == 1 and any("ops_failed 0 -> 1" in line for line in lines)


def test_compare_exit_codes(tmp_path, capsys):
    a, b, bad = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "bad.json"
    a.write_text(json.dumps(_envelope()))
    b.write_text(json.dumps(_envelope(wall=(6.0, 5.9, 6.1))))
    bad.write_text(json.dumps([1, 2, 3]))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a)]) == 2
    assert compare.main([str(a), str(bad)]) == 2
    assert compare.main([str(a), str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


# -- the harness end to end -------------------------------------------------


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", ".work", ".pytest_cache"),
    )
    done = _run("--workload", "latency7-poisson", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_one_pass_prints_the_result_object_last():
    done = _run("--workload", "latency7-poisson", "--seed", "2", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(set(m) == {"value", "unit"} and m["value"] > 0 for m in result["metrics"].values())


def test_smoke_suite_emits_exactly_the_declared_names(tmp_path):
    out = tmp_path / "smoke.json"
    done = _run("--smoke", "--seed", "1", "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    envelope = compare.load_envelope(str(out))
    assert envelope["ops_failed"] == 0 and envelope["src_lines"] > 10_000
    assert {"git_revision", "python", "numpy", "nproc", "cpu_model", "loadavg_start",
            "loadavg_end"} <= set(envelope["environment"])
    import workloads

    assert list(envelope["workloads"]) == [w.name for w in workloads.WORKLOADS]
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for name, entry in envelope["workloads"].items():
        assert {k: v["unit"] for k, v in entry["end_to_end"].items()} == end_to_end, name
        assert {k: v["unit"] for k, v in entry["per_layer"].items()} == per_layer, name
        assert entry["ops_attempted"] == 1 and entry["ops_failed"] == 0
        assert set(entry["reps"][0]) == {"wall_s", "cpu_s", "setup_s", "ru_maxrss_kb", "summary_digest"}
        assert entry["per_layer"]["other.share"]["value"] <= 0.02
        for metric in end_to_end:
            assert metric in done.stdout
    assert not (HERE / ".work").exists()
    assert compare.main([str(out), str(out)]) == 0
