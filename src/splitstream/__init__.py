"""Edge-cloud placement of windowed stream operators.

The package models a monitoring pipeline as operators over sensor windows,
prices any placement (per-operator offload ratios) in uplink bytes and
end-to-end latency, searches the ratio grid for the cheapest feasible
placement, and replays synthetic traces to confirm the analytic byte counts
against concrete frames.
"""

from .baselines import cloud_only, cross_placement_ops, edge_only
from .costs import (
    OBJECTIVE_MODES,
    ORIENTATIONS,
    Assignment,
    CostReport,
    NodeUsage,
    OperatorCost,
    Profile,
    cloud_time,
    cost_report,
    data_volume,
    derive_sensor_gamma,
    edge_time,
    effective_t_req,
    home_nodes,
    latency_rows,
    le_with_tol,
    lt_strict,
    node_cpu,
    node_mem,
    node_usage,
    total_objective,
    trans_time,
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
    load_gamma,
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
    sha256_bytes,
    sha256_file,
)
from .functions import (
    DEFAULT_CONTEXT,
    CROSS_CHANNEL,
    PER_CHANNEL,
    SPLITTABLE,
    FunctionContext,
    PartialState,
    eval_function,
    finalize,
    is_splittable,
    merge,
    merge_states,
    output_arity,
    partial_eval,
    state_length,
    state_to_vector,
)
from .model import (
    GAMMA_TOL,
    REL_TOL,
    FunctionKind,
    OperatorSpec,
    Topology,
    ValidationReport,
    Workload,
    WorkloadViolation,
    sensor_clusters,
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
from .simulator import (
    Frame,
    SignalSpec,
    SimReport,
    StreamConfig,
    Trace,
    compare_runs,
    decode_frame,
    encode_frame,
    generate_trace,
    run_sim,
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
