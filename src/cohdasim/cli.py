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
import os
import sys
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from .core import Schedule, SelectionRecord, aggregate, coverage
from .evaluation import (
    CapExceededError,
    RunResult,
    SweepRow,
    brute_force_optimum,
    design_points,
    greedy_baseline,
    run_scenario_full,
    run_sweep,
    summarize_rows,
    uncontrolled_schedules,
    worst_case_bound,
)
from .flexibility import simulate_tank
from .scenario import Materialized, Scenario, materialize
from .schema import ScenarioError, load_design, load_scenario, scenario_to_mapping
from .simnet import snapshot_best

__all__ = ["main"]


# --- output writers ---------------------------------------------------------


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, (json.dumps(obj, indent=2) + "\n").encode())


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
    return record


def _write_series(path: Path, scenario: Scenario, **columns: Schedule) -> None:
    """Per-interval plot table: the target, then each named power profile."""
    horizon = scenario.horizon
    window = set(horizon.product_window)
    _write_csv(
        path,
        ["interval", "hour_start", "in_window", "target_kw", *columns],
        (
            [t, t * horizon.interval_duration, int(t in window), scenario.target.power[t]]
            + [profile.power[t] for profile in columns.values()]
            for t in range(horizon.interval_count)
        ),
    )


def _uncontrolled_aggregate(mat: Materialized) -> Schedule:
    """Sum of the devices' uncontrolled schedules, in ``core.aggregate`` order."""
    config = {
        aid: SelectionRecord(aid, 0, schedule)
        for aid, schedule in zip(mat.device_ids, uncontrolled_schedules(mat))
    }
    return aggregate(config, mat.scenario.horizon)


# --- commands ---------------------------------------------------------------


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = args.seed
    out = Path(args.out)
    run_out = run_scenario_full(scenario, seed)
    result = run_out.result
    mat = run_out.materialized

    record = result_record(result)
    record["scenario"] = scenario.name
    record["seed"] = seed

    best = snapshot_best(run_out.states.values())
    uncontrolled = _uncontrolled_aggregate(mat)
    record["uncontrolled_coverage_l1"] = coverage(uncontrolled, scenario.target, scenario.horizon)

    _write_json(out / "result.json", record)
    _write_json(out / "timing.json", {"wall_time_s": result.wall_time})
    _write_jsonl(
        out / "curve.jsonl",
        ({"t": t, "fitness": f, "size": s} for t, f, s in result.best_improvement_curve),
    )
    _write_series(
        out / "series.csv",
        scenario,
        controlled_kw=aggregate(best.configuration, scenario.horizon),
        uncontrolled_kw=uncontrolled,
    )

    assignment = {aid: best.configuration[aid].schedule_index for aid in mat.device_ids}
    temp_rows = []
    for aid, device, flex in zip(mat.device_ids, mat.devices, mat.flexibility):
        pattern = flex.on_patterns[assignment[aid]]
        for point, temp in enumerate(simulate_tank(device, pattern, scenario.horizon)):
            temp_rows.append([aid, point, temp])
    _write_csv(out / "temperatures.csv", ["device_id", "point", "temp_c"], temp_rows)

    _atomic_write(out / "scenario.yaml", yaml.safe_dump(scenario_to_mapping(scenario), sort_keys=False).encode())
    if args.trace:
        _write_jsonl(out / "trace.jsonl", trace_records(run_out.trace))

    print(
        f"{scenario.name} seed={seed}: fitness={result.final_fitness:.4f} "
        f"coverage={result.coverage_l1:.4f} messages={result.messages_sent} "
        f"terminated={result.terminated} consistent={result.consistent} "
        f"sim_time={result.termination_sim_time:.2f}s wall={result.wall_time:.2f}s"
    )
    return 0


def _factor_cell(value) -> str:
    if isinstance(value, Mapping):
        return json.dumps(value, sort_keys=True)
    return repr(value) if isinstance(value, float) else str(value)


_RESULT_COLUMNS = [
    "status",
    "final_fitness",
    "coverage_l1",
    "coverage_energy_ratio",
    "terminated",
    "consistent",
    "termination_sim_time_s",
    "messages_sent",
    "message_bytes_total",
    "objective_calls_total",
    "error",
]


def _sweep_row_values(row: SweepRow) -> list:
    if row.result is None:
        return ["error"] + [""] * 9 + [row.error or ""]
    r = row.result
    return [
        "ok",
        repr(r.final_fitness),
        repr(r.coverage_l1),
        repr(r.coverage_energy_ratio),
        int(r.terminated),
        int(r.consistent),
        repr(r.termination_sim_time),
        r.messages_sent,
        r.message_bytes_total,
        sum(r.objective_calls.values()),
        "",
    ]


def _row_from_values(point: tuple, values: list[str]) -> SweepRow:
    """Inverse of ``_sweep_row_values`` for an ``ok`` row of results.csv. Only
    the tabulated metrics survive: no wall time, curve or per-agent calls."""
    fitness, cov, ratio, terminated, consistent, sim_time, messages, nbytes, calls = values[1:10]
    result = RunResult(
        float(fitness), float(cov), float(ratio), terminated == "1", consistent == "1",
        float(sim_time), 0.0, int(messages), int(nbytes), {"total": int(calls)}, (),
    )
    return SweepRow(*point, result)


def cmd_sweep(args) -> int:
    design = load_design(args.design)
    out = Path(args.out)
    results_path = out / "results.csv"
    factor_paths = [p for p, _ in design.factors]
    header = factor_paths + ["replication", "seed"] + _RESULT_COLUMNS
    points = design_points(design)
    # Leading results.csv cells of each design point; they identify its row.
    leads = [[_factor_cell(v) for v in f.values()] + [rep, seed] for f, rep, seed in points]
    rows: list[SweepRow | None] = [None] * len(points)

    if args.resume and results_path.exists():
        index = {tuple(map(str, lead)): i for i, lead in enumerate(leads)}
        width = len(factor_paths) + 2
        with results_path.open() as fh:
            reader = csv.reader(fh)
            if next(reader, None) != header:
                raise ScenarioError("existing results.csv does not match this design")
            for line in reader:
                i = index.get(tuple(line[:width]))
                if i is not None and line[width] == "ok":
                    rows[i] = _row_from_values(points[i], line[width:])

    missing = [i for i, row in enumerate(rows) if row is None]
    for i, row in zip(missing, run_sweep(design, jobs=args.jobs, only=set(missing))):
        rows[i] = row
    _write_csv(results_path, header, [lead + _sweep_row_values(r) for lead, r in zip(leads, rows)])

    stats = ("mean", "sd", "min", "max", "ci_low", "ci_high")
    summary_rows = [
        [_factor_cell(entry["factors"].get(p, "")) for p in factor_paths]
        + [entry["metric"], entry["n"]]
        + ["" if entry[k] is None else repr(entry[k]) for k in stats]
        for entry in summarize_rows(rows)
    ]
    _write_csv(
        out / "summary.csv",
        factor_paths + ["metric", "n", *stats],
        summary_rows,
    )
    print(f"sweep complete: {len(missing)} rows executed, {len(rows)} rows total")
    return 0


def cmd_oracle(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        optimum, opt_assignment = brute_force_optimum(scenario, args.seed, cap=args.cap)
        worst = worst_case_bound(scenario, args.seed, cap=args.cap, method="exhaustive")
        greedy, _ = greedy_baseline(scenario, args.seed)
    except CapExceededError as exc:
        print(f"enumeration refused: {exc}", file=sys.stderr)
        return 1
    print(f"optimum fitness:   {optimum!r}")
    print(f"optimum assignment: {opt_assignment}")
    print(f"worst-case fitness: {worst!r}")
    print(f"greedy baseline:    {greedy!r}")
    if args.result:
        with open(args.result) as fh:
            achieved = json.load(fh)["final_fitness"]
        gap = (achieved - optimum) / max(optimum, 1e-9)
        print(f"run fitness:        {achieved!r}")
        print(f"optimality gap:     {gap!r}")
    return 0


def cmd_uncontrolled(args) -> int:
    scenario = load_scenario(args.scenario)
    out = Path(args.out)
    uncontrolled = _uncontrolled_aggregate(materialize(scenario, args.seed))
    cov = coverage(uncontrolled, scenario.target, scenario.horizon)
    _write_json(
        out / "uncontrolled.json",
        {"scenario": scenario.name, "seed": args.seed, "coverage_l1": cov},
    )
    _write_series(out / "uncontrolled_series.csv", scenario, uncontrolled_kw=uncontrolled)
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
    p_oracle.add_argument("--cap", type=int, default=10_000_000)
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
