"""drainsched: slotted-time simulation and review-time schedule optimization
for QoS flows in multihop wireless networks with interference sets."""

from .channel import draw_gains, fixed_gains, rate_table
from .config import (
    ChannelParams,
    ControlParams,
    RunParams,
    SimConfig,
    load_config,
    parse_config,
    with_optimizer,
    with_qos,
    with_run,
)
from .control import (
    QosSpec,
    SlotSchedule,
    build_slot_schedule,
    next_review_time,
    update_qos_weights,
)
from .engine import Simulation, run_simulation
from .experiments import (
    bundled_preset_config,
    build_grid,
    export_metrics,
    report_from_json,
    run_experiment,
)
from .network import (
    ConfigError,
    ConstraintSet,
    Flow,
    Halfspace,
    NetworkSpec,
    build_constraints,
    build_link_flow_index,
    derive_interference_sets,
)
from .optim import (
    OptDiagnostics,
    OptParams,
    WeightVector,
    alternating_project,
    finalize_feasible,
    objective,
    project_onto_halfspace,
    solve_review_optimization,
    theorem_gap_bound,
)
from .oracle import oracle_solve
from .report import FlowMetrics, MetricsReport

__version__ = "0.1.0"
