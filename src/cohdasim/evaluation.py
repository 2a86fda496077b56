"""First-order metric extraction, optimization oracles and experiment sweeps.

``run_scenario`` executes one scenario instance and condenses the kernel's
counters and the final agent states into a flat result record. The
brute-force and worst-case oracles scan the full schedule product as frame
of reference, evaluating each distinct window sum of its suffix block once;
their hard cap counts the full product. The greedy baseline is a cheap
one-pass reference point. Sweeps run full factorial designs
(``schema.ExperimentDesign``) with replications and common random numbers
per replication index; the sweep tables and their summary are ``cli``'s.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import Fleet, SystemConfiguration, TargetProfile, aggregate, coverage
from .scenario import Materialized, Scenario, materialize
from .schema import ExperimentDesign, factor_cell
from .simnet import EventTrace, SimClockStats, check_consistency, run, snapshot_best

__all__ = [
    "CapExceededError",
    "RunResult",
    "ScenarioRun",
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
    "run_sweep",
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


@dataclass(frozen=True)
class RunResult:
    """First-order metrics of one run.

    ``coverage_l1`` is ``core.coverage`` of ``final_fitness``,
    ``coverage_energy_ratio`` the signed window energy quotient
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
    energy_target = float(scenario.target.arr[w].sum())
    energy_delivered = float(aggregate(best.configuration)[w].sum())
    result = RunResult(
        final_fitness=best.fitness,
        coverage_l1=coverage(best.fitness, scenario.target, scenario.horizon),
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


def _distinct_sums(mats: Sequence[np.ndarray], width: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the block of window sums over the product of
    ``mats`` (row-major, the last matrix fastest), in the order of their
    first occurrence, and the block index of that occurrence. Built one
    matrix at a time, so the full block is never held; each row adds the
    same values in the same order as the full block's row."""
    rows = np.zeros((1, width), dtype=np.float64)
    first = np.zeros(1, dtype=np.int64)
    for m in mats:
        folded = np.empty((len(rows), len(m), width), dtype=np.float64)
        np.add(rows[:, None, :], m[None, :, :], out=folded)
        rows = folded.reshape(-1, width)
        # Rows are compared by their bytes, in C order.
        _, keep = np.unique(rows.view(np.dtype((np.void, 8 * width))).ravel(), return_index=True)
        keep.sort()
        rows = rows[keep]
        first = (first[:, None] * len(m) + np.arange(len(m))).ravel()[keep]
    if len(rows) == 1 and math.prod(len(m) for m in mats) > 1:
        # numpy sums a one-row block pairwise, a longer one column by column.
        rows, first = np.repeat(rows, 2, axis=0), np.repeat(first, 2)
    # Column-major, as the full block was: each row's sum adds its window
    # columns one after another.
    return np.asfortranarray(rows), first


class EnumerationOracle:
    """Exhaustive enumeration of the schedule product of a fleet, in its id
    order.

    Exposes the minimal and maximal objective with lexicographically lowest
    argument tuples, plus ``value_of`` which evaluates an assignment through
    the exact same float path the enumeration used, so sandwich comparisons
    are free of rounding asymmetries.

    The agents after ``_split`` form a suffix block of at most ``_BLOCK``
    combinations, whose window sums are built one agent at a time and kept
    once each: a two-list enumeration with merged duplicate sums (Horowitz
    and Sahni, JACM 21(2), 1974). Each distinct row carries the lowest block
    index that has it, and the rows keep that order, so the first minimum
    or maximum of a scan is the lexicographically lowest assignment. The
    cap still counts the full product.
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
        self._rows, self._first = _distinct_sums(self._mats[split:], len(w))
        self._buf = np.empty_like(self._rows)
        self._scan()

    def _values(self, prefix_idx: tuple[int, ...]) -> np.ndarray:
        """The objective of ``prefix_idx`` completed by each distinct suffix
        row: the one float path of the scan and of ``value_of``."""
        acc = np.zeros(self._rows.shape[1], dtype=np.float64)
        for i, j in enumerate(prefix_idx):
            acc = acc + self._mats[i][j]
        buf = self._buf
        np.add(acc, self._rows, out=buf)
        np.subtract(buf, self._target_w, out=buf)
        np.abs(buf, out=buf)
        return buf.sum(axis=1)

    def _scan(self) -> None:
        best_val = math.inf
        worst_val = -math.inf
        best_idx: tuple[int, ...] = ()
        worst_idx: tuple[int, ...] = ()
        suffix_sizes = self.sizes[self._split :]
        first = self._first
        for prefix_idx in itertools.product(*(range(s) for s in self.sizes[: self._split])):
            values = self._values(prefix_idx)
            j_min = int(np.argmin(values))
            j_max = int(np.argmax(values))
            v_min = float(values[j_min])
            v_max = float(values[j_max])
            if v_min < best_val:
                best_val = v_min
                best_idx = prefix_idx + tuple(map(int, np.unravel_index(first[j_min], suffix_sizes)))
            if v_max > worst_val:
                worst_val = v_max
                worst_idx = prefix_idx + tuple(map(int, np.unravel_index(first[j_max], suffix_sizes)))
        self.optimum = best_val
        self.optimum_assignment = dict(zip(self.agent_ids, best_idx))
        self.worst = worst_val
        self.worst_assignment = dict(zip(self.agent_ids, worst_idx))

    def value_of(self, assignment: Mapping[str, int]) -> float:
        """Objective of one assignment: its entry of the values the scan read.
        An index outside an agent's schedules raises ``ValueError``."""
        idx = tuple(assignment[aid] for aid in self.agent_ids)
        for aid, j, size in zip(self.agent_ids, idx, self.sizes):
            if not 0 <= j < size:
                raise ValueError(f"agent {aid!r} has no schedule {j}: it has {size}")
        row = np.zeros(self._rows.shape[1], dtype=np.float64)
        for m, j in zip(self._mats[self._split :], idx[self._split :]):
            row = row + m[j]
        match = (self._rows.view(np.uint64) == row.view(np.uint64)).all(axis=1)
        return float(self._values(idx[: self._split])[int(np.argmax(match))])


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
    for agent in mat.agents:
        m = agent.window_matrix
        values = np.abs((acc + m) - target_w).sum(axis=1)
        j = int(np.argmin(values))
        value = float(values[j])
        acc = acc + m[j]
        assignment[agent.agent_id] = j
    return value, assignment


# --- experiment sweeps ------------------------------------------------------


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
    """(factor assignment, replication, seed) triples in design order. The
    seed is the base seed plus the replication index, so that a replication
    shares its random numbers across all cells."""
    return [(cell, rep, design.base_seed + rep)
            for cell, _ in design.cells for rep in range(design.replications)]


def _run_point(args) -> SweepRow:
    scenario, factors, rep, seed = args
    try:
        return SweepRow(factors, rep, seed, run_scenario(scenario, seed))
    except Exception as exc:  # recorded per row, sweep continues
        return SweepRow(factors, rep, seed, None, error=f"{type(exc).__name__}: {exc}")


def run_sweep(
    design: ExperimentDesign, jobs: int = 1, only: set[int] | None = None
) -> list[SweepRow]:
    """Run a design (optionally restricted to the ``only`` indices into
    ``design_points``) and return rows in design order. Individual
    failures become error rows."""
    tasks = [
        (design.cells[index // design.replications][1], factors, rep, seed)
        for index, (factors, rep, seed) in enumerate(design_points(design))
        if only is None or index in only
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(_run_point, tasks))
    return [_run_point(task) for task in tasks]
