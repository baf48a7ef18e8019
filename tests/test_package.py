"""Package surface: the exported names, and what each command imports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import splitstream
from splitstream import (
    generate_profile,
    generate_reference_workload,
    save_profile,
    save_workload,
)
from splitstream.cli import main

# Every name `from splitstream import ...` offers. The window functions and
# the replay engine are among them but load on first use, so this list keeps
# the package's lazy map in step with its eager imports.
EXPORTS = (
    "Assignment", "CROSS_CHANNEL", "CostReport", "ENUMERATION_CAP",
    "EnumerationLimitError", "Frame", "FunctionContext", "FunctionKind",
    "NodeUsage", "OperatorCost", "OperatorSpec", "PER_CHANNEL", "PartialState",
    "Profile", "REFERENCE_BANDWIDTH_BPS", "REFERENCE_SAMPLE_RATE_HZ",
    "SPLITTABLE", "SignalSpec", "SimReport", "Solution", "SolverConfig",
    "StreamConfig", "Topology", "Trace", "ValidationReport", "Violation",
    "Workload", "WorkloadViolation", "__version__", "brute_force",
    "canonical_json", "check_assignment", "cloud_only",
    "cost_report", "data_volume", "decode_frame", "dumps_profile",
    "dumps_workload", "edge_only", "effective_t_req",
    "encode_frame", "eval_function", "finalize", "forced_cloud", "gamma_grid",
    "gamma_record", "generate_profile", "generate_reference_workload",
    "generate_trace", "home_nodes", "is_splittable", "latency_rows",
    "le_with_tol", "load_profile", "load_trace", "load_workload", "lt_strict",
    "merge", "merge_states", "node_cpu", "node_mem",
    "operator_domain", "output_arity", "parse_gamma", "parse_profile",
    "parse_workload", "partial_eval", "propagate_composite_gamma", "run_sim",
    "save_profile", "save_report", "save_trace", "save_workload",
    "sensor_clusters", "sensor_legend", "sha256_file", "solve",
    "state_length", "state_to_vector", "topological_order", "total_objective",
    "transitive_sensors", "validate_profile",
    "validate_workload", "windows_in_horizon",
)


def test_every_export_resolves():
    for name in EXPORTS:
        namespace = {}
        exec(f"from splitstream import {name}", namespace)
        assert namespace[name] is getattr(splitstream, name), name


# The layers' modules, which a star import has always bound beside EXPORTS.
MODULES = ("baselines", "costs", "feasibility", "fileio", "functions", "model",
           "reference", "simulator", "solver")


def test_a_star_import_binds_every_export_and_module():
    namespace = {}
    exec("from splitstream import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(EXPORTS) - {"__version__"} | set(MODULES)
    for name, value in namespace.items():
        assert value is getattr(splitstream, name), name
    assert set(namespace) <= set(dir(splitstream))


def test_an_unknown_name_is_an_import_error():
    with pytest.raises(ImportError):
        exec("from splitstream import no_such_name", {})
    with pytest.raises(AttributeError):
        splitstream.no_such_name


# Runs one command in a fresh interpreter and reports on stderr, as it exits,
# whether numpy was imported on the way.
RUNNER = """
import sys
from splitstream.cli import main
try:
    main(sys.argv[1:])
finally:
    print("numpy imported:", "numpy" in sys.modules, file=sys.stderr)
"""


@pytest.fixture(scope="module")
def reference_dir(tmp_path_factory):
    """The bundled reference workload and profile, a solve report and an
    all-cloud baseline report, all in one directory."""
    tmp = tmp_path_factory.mktemp("reference")
    w_path, p_path = str(tmp / "w.txt"), str(tmp / "p.json")
    w = generate_reference_workload()
    save_workload(w_path, w)
    save_profile(p_path, generate_profile(w))
    runner = CliRunner()
    for args in (["solve", w_path, p_path, "--out", str(tmp / "solve.json")],
                 ["baseline", w_path, p_path, "--strategy", "co", "--out", str(tmp / "co.json")]):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    return tmp


@pytest.mark.parametrize(
    "args, loads_numpy",
    [
        (["gen-workload", "--out", "w2.txt"], False),
        (["validate", "w.txt"], False),
        (["gen-profile", "w.txt", "--out", "p2.json"], False),
        (["solve", "w.txt", "p.json", "--out", "s2.json"], False),
        (["baseline", "w.txt", "p.json", "--strategy", "eo", "--out", "eo.json"], False),
        (["compare", "co.json", "solve.json"], False),
        (["gen-trace", "w.txt", "--duration", "1", "--out", "t.bin"], True),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_only_the_replay_commands_import_numpy(reference_dir, args, loads_numpy):
    src = str(Path(splitstream.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, *args], cwd=reference_dir, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"numpy imported: {loads_numpy}" in proc.stderr.splitlines()


def test_libcst_imports_under_the_suite_warning_filters(monkeypatch):
    # hypothesis imports libcst to explain a failing example; an import that
    # raised under the suite's filters would end the run in INTERNALERROR
    # instead of reporting the failure. importorskip imports with every
    # warning ignored, so libcst is imported afresh under the suite's own.
    pytest.importorskip("libcst")
    for name in [m for m in sys.modules if m.partition(".")[0] == "libcst"]:
        monkeypatch.delitem(sys.modules, name)
    importlib.import_module("libcst")
