"""Command line entry point.

Scenario and design files are read and written by ``cohdasim.schema``. All
outputs are written atomically (temp file + rename) so interrupted sweeps
never leave a corrupt table behind. Wall-clock timing goes to a separate
file so that every other output is byte-reproducible for a given (scenario,
seed).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import statistics
import sys
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from .core import aggregate, coverage, objective
from .evaluation import (
    DEFAULT_CAP,
    CapExceededError,
    EnumerationOracle,
    RunResult,
    SweepRow,
    design_points,
    greedy_assignment,
    run_scenario_full,
    run_sweep,
    uncontrolled_configuration,
)
from .flexibility import simulate_tank
from .scenario import Scenario, materialize
from .schema import ScenarioError, factor_cell, load_design, load_scenario, scenario_to_mapping
from .simnet import snapshot_best

__all__ = ["main"]


# --- output writers ---------------------------------------------------------


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, (json.dumps(obj, indent=2, allow_nan=False) + "\n").encode())


def _write_jsonl(path: Path, records) -> None:
    buf = io.StringIO()
    for record in records:
        buf.write(json.dumps(record))
        buf.write("\n")
    _atomic_write(path, buf.getvalue().encode())


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue().encode())


def trace_records(trace) -> list[dict]:
    return [{"t": ev.time, "kind": ev.kind, **ev.payload} for ev in trace]


def result_record(result: RunResult) -> dict:
    """Deterministic result record: everything except wall-clock time."""
    record = dataclasses.asdict(result)
    record.pop("wall_time")
    record["best_improvement_curve"] = [list(p) for p in result.best_improvement_curve]
    if math.isnan(result.coverage_energy_ratio):
        record["coverage_energy_ratio"] = None  # the window target's energy sums to zero
    return record


def _write_series(path: Path, scenario: Scenario, **columns: np.ndarray) -> None:
    """Per-interval plot table: the target, then each named power profile."""
    horizon = scenario.horizon
    window = set(horizon.product_window)
    profiles = [profile.tolist() for profile in columns.values()]
    _write_csv(
        path,
        ["interval", "hour_start", "in_window", "target_kw", *columns],
        (
            [t, t * horizon.interval_duration, int(t in window), scenario.target.power[t]]
            + [profile[t] for profile in profiles]
            for t in range(horizon.interval_count)
        ),
    )


# --- commands ---------------------------------------------------------------


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = args.seed
    out = Path(args.out)
    if args.trace:
        trace = []
        run_out = run_scenario_full(scenario, seed, trace=trace)
    else:
        run_out = run_scenario_full(scenario, seed)
    result = run_out.result
    mat = run_out.materialized

    record = result_record(result)
    record["scenario"] = scenario.name
    record["seed"] = seed

    best = snapshot_best(run_out.states.values())
    uncontrolled = uncontrolled_configuration(mat)
    error = objective(uncontrolled, scenario.target, scenario.horizon)
    record["uncontrolled_coverage_l1"] = coverage(error, scenario.target, scenario.horizon)

    _write_json(out / "result.json", record)
    _write_json(out / "timing.json", {"wall_time_s": result.wall_time})
    _write_jsonl(
        out / "curve.jsonl",
        ({"t": t, "fitness": f, "size": s} for t, f, s in result.best_improvement_curve),
    )
    _write_series(
        out / "series.csv",
        scenario,
        controlled_kw=aggregate(best.configuration),
        uncontrolled_kw=aggregate(uncontrolled),
    )

    config = best.configuration
    temp_rows = []
    for aid, device, flex in zip(mat.device_ids, mat.devices, mat.flexibility):
        chosen = config.index[config.fleet.position[aid]]
        if chosen < 0:  # a run stopped by a limit may commit a partial candidate
            continue
        pattern = flex.power[chosen] != 0
        for point, temp in enumerate(simulate_tank(device, pattern, scenario.horizon)):
            temp_rows.append([aid, point, temp])
    _write_csv(out / "temperatures.csv", ["device_id", "point", "temp_c"], temp_rows)

    _atomic_write(out / "scenario.yaml", yaml.safe_dump(scenario_to_mapping(scenario), sort_keys=False).encode())
    if args.trace:
        _write_jsonl(out / "trace.jsonl", trace_records(trace))

    print(
        f"{scenario.name} seed={seed}: fitness={result.final_fitness:.4f} "
        f"coverage={result.coverage_l1:.4f} messages={result.messages_sent} "
        f"terminated={result.terminated} consistent={result.consistent} "
        f"sim_time={result.termination_sim_time:.2f}s wall={result.wall_time:.2f}s"
    )
    return 0


def _flag(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"must be 0 or 1, got {cell!r}")
    return cell == "1"


# The metric columns of results.csv: header, RunResult attribute, cell reader.
_METRICS = (
    ("final_fitness", "final_fitness", float),
    ("coverage_l1", "coverage_l1", float),
    ("coverage_energy_ratio", "coverage_energy_ratio", float),
    ("terminated", "terminated", _flag),
    ("consistent", "consistent", _flag),
    ("termination_sim_time_s", "termination_sim_time", float),
    ("messages_sent", "messages_sent", int),
    ("message_bytes_total", "message_bytes_total", int),
    ("objective_calls_total", "objective_calls_total", int),
)
_RESULT_COLUMNS = ["status", *(header for header, _, _ in _METRICS), "error"]
# The metrics that summary.csv summarizes, by RunResult attribute, in its row order.
_SUMMARIZED = ("final_fitness", "coverage_l1", "messages_sent", "message_bytes_total",
                    "termination_sim_time", "objective_calls_total")


def _ok_cells(values) -> list:
    """The results.csv cells, from the status on, of an ``ok`` row whose
    ``_METRICS`` values are ``values``."""
    return ["ok", *(int(v) if isinstance(v, bool) else repr(v) for v in values), ""]


def _sweep_row_values(row: SweepRow) -> list:
    if row.result is None:
        return ["error"] + [""] * len(_METRICS) + [row.error or ""]
    return _ok_cells(getattr(row.result, attr) for _, attr, _ in _METRICS)


def _summary_rows(header: list[str], table: list[list], factor_count: int) -> list[list]:
    """The summary.csv rows of the results.csv ``table``: per design cell
    (the first ``factor_count`` cells of a row), each summary metric's
    statistics over the cell's ``ok`` rows; 95% normal-theory confidence
    bounds once a cell has at least 10."""
    status = header.index("status")
    column = {attr: header.index(name) for name, attr, _ in _METRICS}
    cells: dict[tuple, list[list]] = {}
    for line in table:
        if line[status] == "ok":
            cells.setdefault(tuple(line[:factor_count]), []).append(line)
    summary = []
    for factors, lines in cells.items():
        for metric in _SUMMARIZED:
            values = [float(line[column[metric]]) for line in lines]
            mean = statistics.fmean(values)
            sd = statistics.stdev(values) if len(values) > 1 else 0.0
            bounds = ["", ""]
            if len(values) >= 10:
                half = 1.96 * sd / math.sqrt(len(values))
                bounds = [repr(mean - half), repr(mean + half)]
            summary.append([*factors, metric, len(values),
                            *map(repr, (mean, sd, min(values), max(values))), *bounds])
    return summary


def cmd_sweep(args) -> int:
    design = load_design(args.design)
    out = Path(args.out)
    results_path = out / "results.csv"
    factor_paths = [p for p, _ in design.factors]
    header = factor_paths + ["replication", "seed"] + _RESULT_COLUMNS
    width = len(factor_paths) + 2
    # Leading results.csv cells of each design point; they identify its row.
    leads = [[factor_cell(v) for v in f.values()] + [rep, seed]
             for f, rep, seed in design_points(design)]
    # The cells of each design point's row after its lead, once known.
    cells: list[list | None] = [None] * len(leads)

    if args.resume and results_path.exists():
        index = {tuple(map(str, lead)): i for i, lead in enumerate(leads)}
        with results_path.open() as fh:
            reader = csv.reader(fh)
            if next(reader, None) != header:
                raise ScenarioError("header does not match this design", f"{results_path}:1")
            for line in reader:
                where = f"{results_path}:{reader.line_num}"
                if len(line) != len(header):
                    raise ScenarioError(f"row has {len(line)} cells, header {len(header)}", where)
                i = index.get(tuple(line[:width]))
                if i is not None and line[width] == "ok":
                    values = []
                    for (name, _, read), cell in zip(_METRICS, line[width + 1:]):
                        try:
                            values.append(read(cell))
                        except ValueError as exc:
                            raise ScenarioError(f"ok row, bad metric cell: {name}: {exc}",
                                                where) from None
                    cells[i] = _ok_cells(values)

    missing = [i for i, c in enumerate(cells) if c is None]
    for i, row in zip(missing, run_sweep(design, jobs=args.jobs, only=set(missing))):
        cells[i] = _sweep_row_values(row)
    table = [lead + c for lead, c in zip(leads, cells)]
    _write_csv(results_path, header, table)
    _write_csv(out / "summary.csv",
               factor_paths + ["metric", "n", "mean", "sd", "min", "max", "ci_low", "ci_high"],
               _summary_rows(header, table, len(factor_paths)))
    print(f"sweep complete: {len(missing)} rows executed, {len(table)} rows total")
    return 0


def _run_fitness(path: str, scenario: str, seed: int) -> float:
    """The finite ``final_fitness`` of the run result file at ``path``, which
    must be a run of the scenario named ``scenario`` at ``seed``."""
    try:
        with open(path) as fh:
            record = json.load(fh)
        fitness = float(record["final_fitness"])
        if not math.isfinite(fitness):
            raise ValueError(f"final_fitness {fitness!r} is not finite")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ScenarioError(f"not a run result with a final_fitness: {exc!r}", path) from None
    run = (record.get("scenario"), record.get("seed"))
    if run != (scenario, seed):
        raise ScenarioError(f"a run of scenario {run[0]!r} at seed {run[1]!r}, "
                            f"not of {scenario!r} at seed {seed!r}", path)
    return fitness


def cmd_oracle(args) -> int:
    scenario = load_scenario(args.scenario)
    achieved = None if args.result is None else _run_fitness(args.result, scenario.name, args.seed)
    mat = materialize(scenario, args.seed)
    try:
        oracle = EnumerationOracle(mat.fleet, scenario.target, args.cap)
    except CapExceededError as exc:
        print(f"enumeration refused: {exc}", file=sys.stderr)
        return 1
    greedy, _ = greedy_assignment(mat)
    print(f"optimum fitness:   {oracle.optimum!r}")
    print(f"optimum assignment: {oracle.optimum_assignment}")
    print(f"worst-case fitness: {oracle.worst!r}")
    print(f"greedy baseline:    {greedy!r}")
    if achieved is not None:
        gap = (achieved - oracle.optimum) / max(oracle.optimum, 1e-9)
        print(f"run fitness:        {achieved!r}")
        print(f"optimality gap:     {gap!r}")
    return 0


def cmd_uncontrolled(args) -> int:
    scenario = load_scenario(args.scenario)
    out = Path(args.out)
    uncontrolled = uncontrolled_configuration(materialize(scenario, args.seed))
    error = objective(uncontrolled, scenario.target, scenario.horizon)
    cov = coverage(error, scenario.target, scenario.horizon)
    _write_json(
        out / "uncontrolled.json",
        {"scenario": scenario.name, "seed": args.seed, "coverage_l1": cov},
    )
    _write_series(out / "uncontrolled_series.csv", scenario, uncontrolled_kw=aggregate(uncontrolled))
    print(f"{scenario.name} seed={args.seed}: uncontrolled coverage={cov:.4f}")
    return 0


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    expanded = scenario.device_count()
    print(
        f"OK: {scenario.name!r}, {expanded} devices, T={scenario.horizon.interval_count}, "
        f"window={len(scenario.horizon.product_window)} intervals, "
        f"{scenario.sampling.count} schedules per device"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cohdasim",
        description="Distributed predictive-scheduling simulation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario instance")
    p_run.add_argument("scenario", help="scenario file or builtin name")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--trace", action="store_true", help="also write trace.jsonl")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a factorial experiment design")
    p_sweep.add_argument("design", help="design file")
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--resume", action="store_true", help="only run missing rows")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="optimum / worst / greedy bounds")
    p_oracle.add_argument("scenario")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_oracle.add_argument("--result", help="result.json of a run, to report the gap")
    p_oracle.set_defaults(func=cmd_oracle)

    p_unc = sub.add_parser("uncontrolled", help="baseline without coordination")
    p_unc.add_argument("scenario")
    p_unc.add_argument("--seed", type=int, default=0)
    p_unc.add_argument("--out", default="out")
    p_unc.set_defaults(func=cmd_uncontrolled)

    p_val = sub.add_parser("validate", help="parse and check a scenario file")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    if args.command == "sweep" and args.jobs < 1:
        p_sweep.error(f"argument --jobs: must be at least 1, not {args.jobs}")
    if args.command == "oracle" and args.cap < 1:
        p_oracle.error(f"argument --cap: must be at least 1, not {args.cap}")
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
