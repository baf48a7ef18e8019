"""Edge-cloud placement of windowed stream operators.

The package models a monitoring pipeline as operators over sensor windows,
prices any placement (per-operator offload ratios) in uplink bytes and
end-to-end latency, searches the ratio grid for the cheapest feasible
placement, and replays synthetic traces to confirm the analytic byte counts
against concrete frames.

The planning layers are imported with the package. The window functions and
the replay engine, which need numpy, are imported on first use of one of
their names below.
"""

from importlib import import_module as _import_module

from .baselines import cloud_only, edge_only
from .costs import (
    Assignment,
    CostReport,
    NodeUsage,
    OperatorCost,
    Profile,
    cost_report,
    data_volume,
    effective_t_req,
    home_nodes,
    latency_rows,
    le_with_tol,
    lt_strict,
    node_cpu,
    node_mem,
    total_objective,
    validate_profile,
    windows_in_horizon,
)
from .feasibility import (
    Violation,
    check_assignment,
    forced_cloud,
    propagate_composite_gamma,
)
from .fileio import (
    canonical_json,
    dumps_profile,
    dumps_workload,
    gamma_record,
    load_profile,
    load_trace,
    load_workload,
    parse_gamma,
    parse_profile,
    parse_workload,
    save_profile,
    save_report,
    save_trace,
    save_workload,
    sha256_file,
)
from .model import (
    CROSS_CHANNEL,
    PER_CHANNEL,
    SPLITTABLE,
    FunctionKind,
    OperatorSpec,
    Topology,
    ValidationReport,
    Workload,
    WorkloadViolation,
    is_splittable,
    output_arity,
    sensor_clusters,
    state_length,
    topological_order,
    transitive_sensors,
    validate_workload,
)
from .reference import (
    REFERENCE_BANDWIDTH_BPS,
    REFERENCE_SAMPLE_RATE_HZ,
    generate_profile,
    generate_reference_workload,
    sensor_legend,
)
from .solver import (
    ENUMERATION_CAP,
    EnumerationLimitError,
    Solution,
    SolverConfig,
    brute_force,
    gamma_grid,
    operator_domain,
    solve,
)

__version__ = "0.1.0"

_LAZY = dict.fromkeys(
    ("PartialState", "eval_function", "finalize", "merge", "merge_states", "partial_eval",
     "state_to_vector"), "functions",
) | dict.fromkeys(
    ("Frame", "SimReport", "StreamConfig", "Trace", "decode_frame", "encode_frame",
     "generate_trace", "run_sim"), "simulator",
)


def __getattr__(name: str):
    """The numpy-backed names and their modules, imported on first use
    (PEP 562)."""
    if name in _LAZY:
        value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    elif name in _LAZY.values():
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


# What `from splitstream import *` binds: every public name above, the
# layers' modules, and the lazy names, which a star import would otherwise
# miss because they are not globals until first use.
__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | _LAZY.keys()
    | set(_LAZY.values())
)


def __dir__() -> list[str]:
    return sorted(globals().keys() | __all__)
