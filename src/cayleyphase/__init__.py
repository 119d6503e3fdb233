"""Exact phase structure of the competing-interaction Ising model on the
binary Cayley tree: branch-weight recurrence, closed-form fixed points and
two-cycles, partition functions with an enumeration oracle, and a
trajectory-based phase classifier with CLI scans."""

__version__ = "0.1.0"

from .core import (
    BoltzmannParams,
    Couplings,
    DomainError,
    ParameterRangeError,
    StateVector,
    derive_params,
    ferro_constraint,
    ferro_residual,
    ratio_map,
    ratio_map2,
    ratio_map_deriv,
    recurrence_residual,
    recurrence_step,
    symmetric_residual,
)
from .dynamics import (
    KERNEL_BACKEND,
    PhaseLabel,
    SymmetricClass,
    TrajectoryOutcome,
    classify_phase,
    iterate,
    normalize,
    symmetric_attractor_class,
)
from .ferro import FerroCandidate, solve_ferro_fixed_points
from .partition import (
    enumerate_partition,
    free_energy_density,
    initial_branch_weights,
    partition_recurrence,
    partition_recurrence_log,
    periodic_partition,
)
from .scan import AxisSpec, ScanConfig, ScanRow, format_csv, format_json, run_scan
from .symmetric import (
    CriticalCurveSample,
    CycleThresholds,
    FixedPointReport,
    FixedPointRoot,
    PeriodExclusionReport,
    TwoCycleReport,
    critical_curve,
    critical_temperature,
    cycle_thresholds,
    exclude_higher_periods,
    lift_fixed_point,
    lift_two_cycle,
    multi_root_window,
    phase_counts,
    solve_fixed_points,
    solve_two_cycles,
    tabulate_critical_curves,
)
from .verify import run_verify

__all__ = [name for name in dir() if not name.startswith("_")]
