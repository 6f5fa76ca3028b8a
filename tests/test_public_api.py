"""The public API surface: every package exports an intentional, documented API.

Three layers of assertions:

* everything advertised in ``__all__`` resolves, and ``__all__`` is kept
  sorted so diffs of the API surface stay reviewable;
* every module (not just packages) carries a docstring;
* each package's ``__all__`` contains the names the rest of the codebase and
  the docs rely on — the *intentional* surface — so an accidental removal
  fails here before it breaks a downstream import.
"""

import importlib
import pkgutil

import pytest

PACKAGES = [
    "repro",
    "repro.adversary",
    "repro.ba",
    "repro.common",
    "repro.core",
    "repro.crypto",
    "repro.erasure",
    "repro.experiments",
    "repro.honeybadger",
    "repro.metrics",
    "repro.sim",
    "repro.trace",
    "repro.vid",
    "repro.workload",
]

#: The names each package promises to keep exporting (a subset of __all__).
INTENTIONAL_SURFACE = {
    "repro": ["DispersedLedgerNode", "HoneyBadgerNode", "NodeConfig", "ProtocolParams"],
    "repro.adversary": ["AdversarySpec", "CrashedNode", "register_adversary"],
    "repro.ba": ["BinaryAgreement", "CommonCoin"],
    "repro.common": ["ProtocolParams", "VIDInstanceId"],
    "repro.core": ["Block", "Ledger", "Mempool", "Transaction"],
    "repro.crypto": ["MerkleTree", "verify_proof"],
    "repro.erasure": ["GF256", "ReedSolomonCode"],
    "repro.experiments": [
        "ExecutionOptions",
        "ScenarioSpec",
        "get_scenario",
        "register_protocol",
        "register_workload",
        "run_scenario",
        "sweep",
    ],
    "repro.honeybadger": ["HoneyBadgerLinkNode", "HoneyBadgerNode"],
    "repro.metrics": ["MetricsCollector"],
    "repro.sim": ["Network", "NetworkConfig", "Simulator"],
    "repro.trace": [
        "MeasuredTrace",
        "TelemetrySpec",
        "TraceRecorder",
        "load_trace",
        "save_trace",
    ],
    "repro.vid": ["AvidMInstance", "RealCodec", "VirtualCodec"],
    "repro.workload": [
        "AWS_CITIES",
        "PoissonTransactionGenerator",
        "SaturatingTransactionGenerator",
        "register_testbed",
    ],
}


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} has no __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} is advertised but missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_is_sorted(package_name):
    package = importlib.import_module(package_name)
    advertised = list(package.__all__)
    assert advertised == sorted(advertised), f"{package_name}.__all__ is not sorted"
    assert len(advertised) == len(set(advertised)), f"{package_name}.__all__ has duplicates"


@pytest.mark.parametrize("package_name", sorted(INTENTIONAL_SURFACE))
def test_intentional_surface_is_exported(package_name):
    package = importlib.import_module(package_name)
    missing = [name for name in INTENTIONAL_SURFACE[package_name] if name not in package.__all__]
    assert not missing, f"{package_name} no longer exports {missing}"


def test_every_module_has_a_docstring():
    import repro

    undocumented = []
    for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(module_info.name)
        if not (module.__doc__ or "").strip():
            undocumented.append(module_info.name)
    assert not undocumented, f"modules without docstrings: {undocumented}"


def test_version_is_exposed():
    import repro

    assert repro.__version__ == "1.0.0"


def test_top_level_convenience_imports():
    from repro import (
        DispersedLedgerNode,
        HoneyBadgerNode,
        NodeConfig,
        ProtocolParams,
        Transaction,
    )

    params = ProtocolParams.for_n(4)
    assert params.f == 1
    assert NodeConfig().linking
    assert DispersedLedgerNode is not HoneyBadgerNode
    assert Transaction(tx_id=1, origin=0, created_at=0.0, size=1, data=b"x").size == 1
