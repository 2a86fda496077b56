"""First-order metric extraction, optimization oracles and experiment sweeps.

``run_scenario`` executes one scenario instance and condenses the trace and
final agent states into a flat result record. The brute-force and worst-case
oracles enumerate the full schedule product (up to a hard cap) as frame of
reference; the greedy baseline is a cheap one-pass reference point. Sweeps
run full factorial designs with replications and common random numbers per
replication index.
"""

from __future__ import annotations

import itertools
import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import Schedule, StructuralError, TargetProfile, PlanningHorizon, aggregate
from .scenario import Materialized, Scenario, materialize, with_param
from .simnet import EventTrace, SimClockStats, check_consistency, run, snapshot_best

__all__ = [
    "CapExceededError",
    "RunResult",
    "ScenarioRun",
    "ExperimentDesign",
    "SweepRow",
    "run_scenario",
    "run_scenario_full",
    "uncontrolled_schedules",
    "EnumerationOracle",
    "brute_force_optimum",
    "worst_case_bound",
    "greedy_baseline",
    "design_points",
    "run_sweep",
    "summarize_rows",
    "SUMMARY_METRICS",
]

DEFAULT_CAP = 10_000_000
_BLOCK = 1 << 16


class CapExceededError(RuntimeError):
    """The schedule product is too large to enumerate."""

    def __init__(self, combinations: int, cap: int):
        super().__init__(
            f"search space of about 10^{math.log10(combinations):.1f} "
            f"combinations exceeds the enumeration cap {cap}"
        )
        self.combinations = combinations
        self.cap = cap


@dataclass(frozen=True)
class RunResult:
    """First-order metrics of one run.

    ``coverage_l1`` is 1 - final_fitness / window target magnitude (floored
    at 0), ``coverage_energy_ratio`` the signed window energy quotient
    delivered / targeted; the two readings of "percentage of the target"
    are both recorded. ``best_improvement_curve`` is the global anytime
    curve: (sim_time, fitness, size) per strict improvement.
    """

    final_fitness: float
    coverage_l1: float
    coverage_energy_ratio: float
    terminated: bool
    consistent: bool
    termination_sim_time: float
    wall_time: float
    messages_sent: int
    message_bytes_total: int
    objective_calls: dict[str, int]
    best_improvement_curve: tuple[tuple[float, float, int], ...]


@dataclass(frozen=True)
class ScenarioRun:
    """Full artifacts of one run, for callers that need more than metrics."""

    result: RunResult
    materialized: Materialized
    states: dict
    trace: EventTrace
    stats: SimClockStats


def _improvement_curve(trace: EventTrace) -> tuple[tuple[float, float, int], ...]:
    curve: list[tuple[float, float, int]] = []
    current: tuple[int, float, int] | None = None  # (size, fitness, key)
    for ev in trace:
        if ev.kind != "best_improved":
            continue
        size = ev.payload["size"]
        fitness = ev.payload["fitness"]
        key = ev.payload["key"]
        if current is None or (
            size > current[0]
            or (size == current[0] and fitness < current[1])
            or (size == current[0] and fitness == current[1] and key < current[2])
        ):
            current = (size, fitness, key)
            curve.append((ev.time, fitness, size))
    return tuple(curve)


def run_scenario_full(scenario: Scenario, seed: int = 0) -> ScenarioRun:
    mat = materialize(scenario, seed)
    states, trace, stats = run(
        mat.agents,
        mat.overlay,
        scenario.target,
        network=scenario.network,
        seed=mat.network_seed,
        limits=scenario.limits,
    )
    best = snapshot_best(states.values())
    w = scenario.horizon.window_index
    target_w = scenario.target.arr[w]
    denom = float(np.abs(target_w).sum())
    delivered = aggregate(best.configuration, scenario.horizon)
    energy_target = float(target_w.sum())
    energy_delivered = float(delivered.arr[w].sum())
    messages = 0
    bytes_total = 0
    for ev in trace:
        if ev.kind == "publish":
            messages += 1
            bytes_total += ev.payload["bytes"]
    result = RunResult(
        final_fitness=best.fitness,
        coverage_l1=max(0.0, 1.0 - best.fitness / denom),
        coverage_energy_ratio=(energy_delivered / energy_target) if energy_target else float("nan"),
        terminated=stats.terminated,
        consistent=check_consistency(states.values()),
        termination_sim_time=stats.termination_time,
        wall_time=stats.wall_time,
        messages_sent=messages,
        message_bytes_total=bytes_total,
        objective_calls={aid: states[aid].objective_calls for aid in sorted(states)},
        best_improvement_curve=_improvement_curve(trace),
    )
    return ScenarioRun(result, mat, states, trace, stats)


def run_scenario(scenario: Scenario, seed: int = 0) -> RunResult:
    """Execute one scenario instance and extract its first-order metrics."""
    return run_scenario_full(scenario, seed).result


def uncontrolled_schedules(mat: Materialized) -> tuple[Schedule, ...]:
    """Default pattern per device: the first schedule its repair sampler
    drew. No coordination; the baseline the controlled run is compared to."""
    return tuple(flex.schedules[0] for flex in mat.flexibility)


# --- enumeration oracles ---------------------------------------------------


class EnumerationOracle:
    """Exhaustive enumeration of a schedule product.

    Exposes the minimal and maximal objective with lexicographically lowest
    argument tuples, plus ``value_of`` which evaluates an assignment through
    the exact same float path the enumeration used, so sandwich comparisons
    are free of rounding asymmetries.
    """

    def __init__(
        self,
        agent_ids: Sequence[str],
        schedule_sets: Sequence[Sequence[Schedule]],
        target: TargetProfile,
        horizon: PlanningHorizon,
        cap: int = DEFAULT_CAP,
    ):
        if len(agent_ids) != len(schedule_sets):
            raise StructuralError("one schedule set per agent id required")
        self.agent_ids = tuple(agent_ids)
        w = horizon.window_index
        self._target_w = target.arr[w]
        self._mats = [
            np.stack([s.arr for s in schedules])[:, w] for schedules in schedule_sets
        ]
        sizes = [m.shape[0] for m in self._mats]
        if any(s == 0 for s in sizes):
            raise StructuralError("empty schedule set")
        total = math.prod(sizes) if sizes else 1
        if total > cap:
            raise CapExceededError(total, cap)
        self.sizes = sizes
        # Vectorize a suffix block of at most _BLOCK combinations.
        split = len(sizes)
        block = 1
        while split > 0 and block * sizes[split - 1] <= _BLOCK:
            block *= sizes[split - 1]
            split -= 1
        self._split = split
        suffix = np.zeros((1, len(w)), dtype=np.float64)
        for m in self._mats[split:]:
            suffix = (suffix[:, None, :] + m[None, :, :]).reshape(-1, suffix.shape[1])
        self._suffix = suffix
        self._scan()

    def _prefix_sum(self, prefix_idx: tuple[int, ...]) -> np.ndarray:
        acc = np.zeros(self._suffix.shape[1], dtype=np.float64)
        for i, j in enumerate(prefix_idx):
            acc = acc + self._mats[i][j]
        return acc

    def _scan(self) -> None:
        best_val = math.inf
        worst_val = -math.inf
        best_idx: tuple[int, ...] = ()
        worst_idx: tuple[int, ...] = ()
        suffix_sizes = tuple(self.sizes[self._split :])
        for prefix_idx in itertools.product(*(range(s) for s in self.sizes[: self._split])):
            values = np.abs(
                (self._prefix_sum(prefix_idx) + self._suffix) - self._target_w
            ).sum(axis=1)
            j_min = int(np.argmin(values))
            j_max = int(np.argmax(values))
            v_min = float(values[j_min])
            v_max = float(values[j_max])
            if v_min < best_val:
                best_val = v_min
                best_idx = prefix_idx + self._unravel(j_min, suffix_sizes)
            if v_max > worst_val:
                worst_val = v_max
                worst_idx = prefix_idx + self._unravel(j_max, suffix_sizes)
        self.optimum = best_val
        self.optimum_assignment = dict(zip(self.agent_ids, best_idx))
        self.worst = worst_val
        self.worst_assignment = dict(zip(self.agent_ids, worst_idx))

    @staticmethod
    def _unravel(flat: int, sizes: tuple[int, ...]) -> tuple[int, ...]:
        if not sizes:
            return ()
        return tuple(int(v) for v in np.unravel_index(flat, sizes))

    def value_of(self, assignment: Mapping[str, int]) -> float:
        """Objective of one assignment, computed exactly as during the scan."""
        idx = tuple(assignment[aid] for aid in self.agent_ids)
        prefix_idx = idx[: self._split]
        suffix_sizes = tuple(self.sizes[self._split :])
        flat = 0
        for size, j in zip(suffix_sizes, idx[self._split :]):
            flat = flat * size + j
        row = self._suffix[flat]
        values = np.abs((self._prefix_sum(prefix_idx) + row[None, :]) - self._target_w).sum(
            axis=1
        )
        return float(values[0])


def _oracle_for(mat: Materialized, cap: int) -> EnumerationOracle:
    scenario = mat.scenario
    return EnumerationOracle(
        mat.device_ids,
        [flex.schedules for flex in mat.flexibility],
        scenario.target,
        scenario.horizon,
        cap,
    )


def brute_force_optimum(
    scenario: Scenario, seed: int = 0, cap: int = DEFAULT_CAP
) -> tuple[float, dict[str, int]]:
    """Exhaustive minimum of the objective and one lexicographically lowest
    minimizer. Raises ``CapExceededError`` when the product exceeds ``cap``."""
    oracle = _oracle_for(materialize(scenario, seed), cap)
    return oracle.optimum, oracle.optimum_assignment


def worst_case_bound(
    scenario: Scenario, seed: int = 0, cap: int = DEFAULT_CAP, method: str = "auto"
) -> float:
    """Maximal objective over the product set.

    ``method='exhaustive'`` enumerates (cap applies), ``'analytic'`` sums
    per-interval worst deviations (an overestimate that never needs the
    cap), ``'auto'`` enumerates when it fits and falls back to analytic.
    """
    if method not in ("auto", "exhaustive", "analytic"):
        raise ValueError(f"unknown method {method!r}")
    mat = materialize(scenario, seed)
    if method in ("auto", "exhaustive"):
        try:
            return _oracle_for(mat, cap).worst
        except CapExceededError:
            if method == "exhaustive":
                raise
    w = scenario.horizon.window_index
    target_w = scenario.target.arr[w]
    lo = np.zeros(len(w), dtype=np.float64)
    hi = np.zeros(len(w), dtype=np.float64)
    for flex in mat.flexibility:
        m = np.stack([s.arr for s in flex.schedules])[:, w]
        lo += m.min(axis=0)
        hi += m.max(axis=0)
    return float(np.maximum(np.abs(lo - target_w), np.abs(hi - target_w)).sum())


def greedy_baseline(scenario: Scenario, seed: int = 0) -> tuple[float, dict[str, int]]:
    """Agents choose once in id order, each minimizing the objective given
    its predecessors; no revision. Ties break to the lowest index."""
    mat = materialize(scenario, seed)
    w = scenario.horizon.window_index
    target_w = scenario.target.arr[w]
    acc = np.zeros(len(w), dtype=np.float64)
    assignment: dict[str, int] = {}
    value = float(np.abs(acc - target_w).sum())
    for aid, flex in zip(mat.device_ids, mat.flexibility):
        m = np.stack([s.arr for s in flex.schedules])[:, w]
        values = np.abs((acc + m) - target_w).sum(axis=1)
        j = int(np.argmin(values))
        value = float(values[j])
        acc = acc + m[j]
        assignment[aid] = j
    return value, assignment


# --- experiment sweeps ------------------------------------------------------


@dataclass(frozen=True)
class ExperimentDesign:
    """Full factorial design over dotted scenario parameter paths."""

    base_scenario: Scenario
    factors: tuple[tuple[str, tuple], ...] = ()
    replications: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise StructuralError("replications must be at least 1")
        for path, values in self.factors:
            if not values:
                raise StructuralError(f"factor {path!r} has no values")
            # Fail early on unresolvable paths.
            with_param(self.base_scenario, path, values[0])


@dataclass(frozen=True)
class SweepRow:
    factors: dict[str, object]
    replication: int
    seed: int
    result: RunResult | None
    error: str | None = None

    def key(self) -> tuple:
        return (tuple(repr(v) for v in self.factors.values()), self.replication)


def design_points(design: ExperimentDesign) -> list[tuple[dict[str, object], int, int]]:
    """(factor assignment, replication, seed) triples in design order.

    The seed policy is base seed plus replication index: the same
    replication shares its random numbers across all cells.
    """
    paths = [p for p, _ in design.factors]
    value_lists = [v for _, v in design.factors]
    points = []
    for combo in itertools.product(*value_lists) if value_lists else [()]:
        factors = dict(zip(paths, combo))
        for rep in range(design.replications):
            points.append((factors, rep, design.base_seed + rep))
    return points


def _run_point(args) -> SweepRow:
    base, factors, rep, seed = args
    try:
        scenario = base
        for path, value in factors.items():
            scenario = with_param(scenario, path, value)
        result = run_scenario(scenario, seed)
        return SweepRow(factors, rep, seed, result)
    except Exception as exc:  # recorded per row, sweep continues
        return SweepRow(factors, rep, seed, None, error=f"{type(exc).__name__}: {exc}")


def run_sweep(
    design: ExperimentDesign, jobs: int = 1, only: set[int] | None = None
) -> list[SweepRow]:
    """Run a design (optionally restricted to the ``only`` indices into
    ``design_points``) and return rows in design order. Individual
    failures become error rows."""
    tasks = [
        (design.base_scenario, factors, rep, seed)
        for index, (factors, rep, seed) in enumerate(design_points(design))
        if only is None or index in only
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_point, tasks))
    return [_run_point(task) for task in tasks]


SUMMARY_METRICS = (
    "final_fitness",
    "coverage_l1",
    "messages_sent",
    "message_bytes_total",
    "termination_sim_time",
    "objective_calls_total",
)


def _metric(row: SweepRow, name: str) -> float | None:
    if row.result is None:
        return None
    if name == "objective_calls_total":
        return float(sum(row.result.objective_calls.values()))
    return float(getattr(row.result, name))


def summarize_rows(rows: Sequence[SweepRow]) -> list[dict]:
    """Per-cell mean/SD/min/max for each summary metric; 95% normal-theory
    confidence bounds once a cell has at least 10 successful replications."""
    cells: dict[tuple, list[SweepRow]] = {}
    for row in rows:
        cells.setdefault(row.key()[0], []).append(row)
    summaries = []
    for cell_rows in cells.values():
        factors = cell_rows[0].factors
        for metric in SUMMARY_METRICS:
            values = [v for v in (_metric(r, metric) for r in cell_rows) if v is not None]
            if not values:
                continue
            mean = statistics.fmean(values)
            sd = statistics.stdev(values) if len(values) > 1 else 0.0
            entry = {
                "factors": factors,
                "metric": metric,
                "n": len(values),
                "mean": mean,
                "sd": sd,
                "min": min(values),
                "max": max(values),
                "ci_low": None,
                "ci_high": None,
            }
            if len(values) >= 10:
                half = 1.96 * sd / math.sqrt(len(values))
                entry["ci_low"] = mean - half
                entry["ci_high"] = mean + half
            summaries.append(entry)
    return summaries
