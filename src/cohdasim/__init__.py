"""Asynchronous decentralized predictive scheduling for virtual power
plants, embedded in a deterministic simulated message network."""

from .core import (
    Candidate,
    DegenerateTargetError,
    Fleet,
    PlanningHorizon,
    SelectionRecord,
    StructuralError,
    SystemConfiguration,
    TargetProfile,
    aggregate,
    compare,
    coverage,
    objective,
)
from .agent import (
    AgentState,
    KnowledgeMessage,
    handle_message,
    handle_start,
)
from .topology import complete, ring, small_world
from .simnet import (
    ConstantDelay,
    ExponentialDelay,
    NetworkModel,
    RunLimits,
    SimClockStats,
    TraceEvent,
    UniformDelay,
    check_consistency,
    run,
    snapshot_best,
)
from .flexibility import DeviceModel, FlexibilitySet, sample_feasible_schedules, simulate_tank
from .scenario import (
    BUILTIN_SCENARIOS,
    DeviceGroup,
    Scenario,
    build_epex_scenario,
    build_small_demo_scenario,
    build_toy2_scenario,
    materialize,
    with_param,
)
from .evaluation import (
    ExperimentDesign,
    RunResult,
    brute_force_optimum,
    greedy_baseline,
    run_scenario,
    run_sweep,
    worst_case_bound,
)

__version__ = "0.1.0"
