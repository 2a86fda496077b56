"""First-order metric extraction, optimization oracles and experiment sweeps.

``run_scenario`` executes one scenario instance and condenses the kernel's
counters and the final agent states into a flat result record. The
brute-force and worst-case oracles enumerate the full schedule product (up
to a hard cap) as frame of reference; the greedy baseline is a cheap
one-pass reference point. Sweeps run full factorial designs with
replications and common random numbers per replication index.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import Fleet, StructuralError, SystemConfiguration, TargetProfile, aggregate
from .scenario import Materialized, Scenario, UnknownPathError, materialize, with_param
from .simnet import EventTrace, SimClockStats, check_consistency, run, snapshot_best

__all__ = [
    "CapExceededError",
    "RunResult",
    "ScenarioRun",
    "ExperimentDesign",
    "SweepRow",
    "run_scenario",
    "run_scenario_full",
    "uncontrolled_configuration",
    "EnumerationOracle",
    "brute_force_optimum",
    "worst_case_bound",
    "greedy_baseline",
    "greedy_assignment",
    "design_points",
    "factor_cell",
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

    @property
    def objective_calls_total(self) -> int:
        return sum(self.objective_calls.values())


@dataclass(frozen=True)
class ScenarioRun:
    """Full artifacts of one run, for callers that need more than metrics."""

    result: RunResult
    materialized: Materialized
    states: dict
    stats: SimClockStats


def run_scenario_full(
    scenario: Scenario, seed: int = 0, *, trace: EventTrace | None = None
) -> ScenarioRun:
    """Execute one scenario instance; kernel events are appended to
    ``trace`` when it is given."""
    mat = materialize(scenario, seed)
    states, _, stats = run(
        mat.agents,
        scenario.target,
        network=scenario.network,
        seed=mat.network_seed,
        limits=scenario.limits,
        trace=trace,
    )
    best = snapshot_best(states.values())
    w = scenario.horizon.window_index
    target_w = scenario.target.arr[w]
    denom = float(np.abs(target_w).sum())
    delivered = aggregate(best.configuration)
    energy_target = float(target_w.sum())
    energy_delivered = float(delivered[w].sum())
    result = RunResult(
        final_fitness=best.fitness,
        coverage_l1=max(0.0, 1.0 - best.fitness / denom),
        coverage_energy_ratio=(energy_delivered / energy_target) if energy_target else float("nan"),
        terminated=stats.terminated,
        consistent=check_consistency(states.values()),
        termination_sim_time=stats.termination_time,
        wall_time=stats.wall_time,
        messages_sent=stats.messages,
        message_bytes_total=stats.message_bytes,
        objective_calls={aid: states[aid].objective_calls for aid in sorted(states)},
        best_improvement_curve=stats.improvement_curve,
    )
    return ScenarioRun(result, mat, states, stats)


def run_scenario(scenario: Scenario, seed: int = 0) -> RunResult:
    """Execute one scenario instance and extract its first-order metrics."""
    return run_scenario_full(scenario, seed).result


def uncontrolled_configuration(mat: Materialized) -> SystemConfiguration:
    """Every device on its default pattern, the first schedule its repair
    sampler drew, at version 0. No coordination; the baseline the controlled
    run is compared to."""
    first = (0,) * len(mat.fleet)
    return SystemConfiguration(mat.fleet, first, first)


# --- enumeration oracles ---------------------------------------------------


class EnumerationOracle:
    """Exhaustive enumeration of the schedule product of a fleet, in its id
    order.

    Exposes the minimal and maximal objective with lexicographically lowest
    argument tuples, plus ``value_of`` which evaluates an assignment through
    the exact same float path the enumeration used, so sandwich comparisons
    are free of rounding asymmetries.
    """

    def __init__(self, fleet: Fleet, target: TargetProfile, cap: int = DEFAULT_CAP):
        self.agent_ids = fleet.ids
        w = fleet.horizon.window_index
        self._target_w = target.arr[w]
        self._mats = fleet.windows
        sizes = [m.shape[0] for m in self._mats]
        total = math.prod(sizes)
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

    def _values(self, prefix_idx: tuple[int, ...]) -> np.ndarray:
        """The objective of ``prefix_idx`` completed by each row of the suffix
        block: the one float path of the scan and of ``value_of``."""
        acc = np.zeros(self._suffix.shape[1], dtype=np.float64)
        for i, j in enumerate(prefix_idx):
            acc = acc + self._mats[i][j]
        return np.abs((acc + self._suffix) - self._target_w).sum(axis=1)

    def _scan(self) -> None:
        best_val = math.inf
        worst_val = -math.inf
        best_idx: tuple[int, ...] = ()
        worst_idx: tuple[int, ...] = ()
        suffix_sizes = self.sizes[self._split :]
        for prefix_idx in itertools.product(*(range(s) for s in self.sizes[: self._split])):
            values = self._values(prefix_idx)
            j_min = int(np.argmin(values))
            j_max = int(np.argmax(values))
            v_min = float(values[j_min])
            v_max = float(values[j_max])
            if v_min < best_val:
                best_val = v_min
                best_idx = prefix_idx + tuple(map(int, np.unravel_index(j_min, suffix_sizes)))
            if v_max > worst_val:
                worst_val = v_max
                worst_idx = prefix_idx + tuple(map(int, np.unravel_index(j_max, suffix_sizes)))
        self.optimum = best_val
        self.optimum_assignment = dict(zip(self.agent_ids, best_idx))
        self.worst = worst_val
        self.worst_assignment = dict(zip(self.agent_ids, worst_idx))

    def value_of(self, assignment: Mapping[str, int]) -> float:
        """Objective of one assignment: its entry of the block the scan read."""
        idx = tuple(assignment[aid] for aid in self.agent_ids)
        values = self._values(idx[: self._split])
        return float(values[np.ravel_multi_index(idx[self._split :], self.sizes[self._split :])])


def brute_force_optimum(
    scenario: Scenario, seed: int = 0, cap: int = DEFAULT_CAP
) -> tuple[float, dict[str, int]]:
    """Exhaustive minimum of the objective and one lexicographically lowest
    minimizer. Raises ``CapExceededError`` when the product exceeds ``cap``."""
    oracle = EnumerationOracle(materialize(scenario, seed).fleet, scenario.target, cap)
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
            return EnumerationOracle(mat.fleet, scenario.target, cap).worst
        except CapExceededError:
            if method == "exhaustive":
                raise
    w = scenario.horizon.window_index
    target_w = scenario.target.arr[w]
    lo = np.zeros(len(w), dtype=np.float64)
    hi = np.zeros(len(w), dtype=np.float64)
    for agent in mat.agents:
        m = agent.window_matrix
        lo += m.min(axis=0)
        hi += m.max(axis=0)
    return float(np.maximum(np.abs(lo - target_w), np.abs(hi - target_w)).sum())


def greedy_baseline(scenario: Scenario, seed: int = 0) -> tuple[float, dict[str, int]]:
    """Agents choose once in the scenario's device order (its groups in
    file order, each group's devices by number), each minimizing the
    objective given its predecessors; no revision. Ties break to the
    lowest index."""
    return greedy_assignment(materialize(scenario, seed))


def greedy_assignment(mat: Materialized) -> tuple[float, dict[str, int]]:
    """``greedy_baseline`` of a materialized instance."""
    w = mat.scenario.horizon.window_index
    target_w = mat.scenario.target.arr[w]
    acc = np.zeros(len(w), dtype=np.float64)
    assignment: dict[str, int] = {}
    value = float(np.abs(acc - target_w).sum())
    for agent in mat.agents:
        m = agent.window_matrix
        values = np.abs((acc + m) - target_w).sum(axis=1)
        j = int(np.argmin(values))
        value = float(values[j])
        acc = acc + m[j]
        assignment[agent.agent_id] = j
    return value, assignment


# --- experiment sweeps ------------------------------------------------------


def factor_cell(value) -> str:
    """A factor value as a results.csv cell, which identifies its design cell."""
    if isinstance(value, Mapping):
        return json.dumps(value, sort_keys=True)
    return repr(value) if isinstance(value, float) else str(value)


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
            cells = [factor_cell(value) for value in values]
            repeated = [cell for i, cell in enumerate(cells) if cell in cells[:i]]
            if repeated:
                raise StructuralError(f"factor {path!r} repeats the value {repeated[0]}")
            # Fail early on unresolvable paths and values that cannot run.
            for value in values:
                try:
                    with_param(self.base_scenario, path, value)
                except UnknownPathError as exc:
                    raise UnknownPathError(f"factor {path!r}: {exc}") from None
                except (ValueError, TypeError) as exc:
                    raise StructuralError(f"factor {path!r} value {value!r}: {exc}") from None


@dataclass(frozen=True)
class SweepRow:
    factors: dict[str, object]
    replication: int
    seed: int
    result: RunResult | None
    error: str | None = None

    def key(self) -> tuple:
        return (tuple(map(factor_cell, self.factors.values())), self.replication)


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
