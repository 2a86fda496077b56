"""One repetition of a benchmark workload, in a process of its own.

    python3 perfbench/worker.py ROOT WORKLOAD SEED MODE OUT_DIR SETUP_BUDGET_S

MODE is ``rep`` (untraced; the sweep at jobs = min(2, nproc)), ``serial``
(untraced; the sweep at jobs = 1) or ``traced`` (spans on; the sweep at
jobs = 1 so that every span is recorded in this process). SETUP_BUDGET_S is
how long to spend re-timing the set-up (at least two samples; 0 skips
it). The last line of standard output is one JSON object with the timings,
the paper-facing outputs, the digest compared across repetitions and the
outcome of every correctness check.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from spans import END, LAYER_OF, START, Tracer

LAYERS = ("cli", "scenario", "flexibility", "topology", "agent", "core", "wire",
          "simnet", "evaluation")
SWEEP_DESIGN = Path("src/cohdasim/data/robustness_design.yaml")
FLEET_SCENARIO = Path("perfbench/fleet.yaml")
# Oracle instance of the sweep workload: small-demo cut down to about 7.5M
# schedule combinations, under the default enumeration cap.
ORACLE_PARAMS = (("devices.0.count", 6), ("sampling.count", 14), ("topology.k", 2))
OPTIONAL_HELPERS = ("_merge", "_choose_index")


def import_package(root: Path) -> SimpleNamespace:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import cohdasim
    from cohdasim import agent, cli, core, evaluation, flexibility, scenario, simnet, topology

    if Path(cohdasim.__file__).resolve().parent != src / "cohdasim":
        raise SystemExit(f"cohdasim was imported from {cohdasim.__file__}, not from {src}")
    return SimpleNamespace(agent=agent, cli=cli, core=core, evaluation=evaluation,
                           flexibility=flexibility, scenario=scenario, simnet=simnet,
                           topology=topology)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def time_setup(fn, budget: float) -> list[float]:
    samples: list[float] = []
    if budget <= 0:
        return samples
    start = time.perf_counter()
    while len(samples) < 2 or (time.perf_counter() - start < budget and len(samples) < 15):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    gc.collect()
    return samples


def install_spans(tracer: Tracer, m: SimpleNamespace) -> dict[str, bool]:
    """Wrap, from outside, the names one module calls in another. Returns
    which optional agent helpers were found."""
    required = [
        (m.cli, "cmd_run", "cli.cmd_run", {}),
        (m.cli, "load_scenario", "cli.load_scenario", {}),
        (m.cli, "load_design", "cli.load_design", {}),
        (m.cli, "run_scenario_full", "evaluation.run_scenario_full", {}),
        (m.evaluation, "run_scenario_full", "evaluation.run_scenario_full", {}),
        (m.evaluation, "run_sweep", "evaluation.run_sweep", {}),
        (m.evaluation, "brute_force_optimum", "evaluation.brute_force_optimum", {}),
        (m.evaluation, "worst_case_bound", "evaluation.worst_case_bound", {}),
        (m.evaluation, "greedy_baseline", "evaluation.greedy_baseline", {}),
        (m.evaluation, "EnumerationOracle", "evaluation.EnumerationOracle",
         {"observe": lambda args, oracle: math.prod(oracle.sizes)}),
        (m.evaluation, "materialize", "evaluation.materialize", {}),
        (m.scenario, "sample_feasible_schedules", "scenario.sample_feasible_schedules",
         {"observe": lambda args, flex: len(flex.schedules)}),
        (m.topology, "small_world", "scenario.topology.small_world", {}),
        (m.evaluation, "run", "evaluation.run", {"observe": lambda args, out: out}),
        (m.simnet, "handle_start", "simnet.handle_start", {"delivery": True}),
        (m.simnet, "handle_message", "simnet.handle_message",
         {"delivery": True, "observe": lambda args, out: out[0] is args[0]}),
        (m.simnet, "encoded_length", "simnet.encoded_length", {"leaf": True}),
        (m.simnet, "compare", "simnet.compare", {"leaf": True}),
        (m.agent, "compare", "agent.compare", {"leaf": True}),
        (m.core, "configuration_key", "core.configuration_key", {"leaf": True}),
    ]
    for owner, attr, name, options in required:
        if not tracer.patch(owner, attr, name, **options):
            raise SystemExit(f"cannot trace {owner.__name__}.{attr}: name not found")
    return {
        helper: tracer.patch(m.agent, helper, f"agent.{helper}", leaf=True)
        for helper in OPTIONAL_HELPERS
    }


# --- workloads ----------------------------------------------------------------


def run_cli(m, root: Path, workload: str, seed: int, out: Path, tracer: Tracer | None) -> dict:
    """epex / fleet: one ``cohdasim run`` in-process, then its checks."""
    ref = "epex-peakload" if workload == "epex" else str(root / FLEET_SCENARIO)
    captured = []
    original = m.cli.run_scenario_full

    def capture(scenario, seed=0):
        result = original(scenario, seed)
        captured.append(result)
        return result

    m.cli.run_scenario_full = capture
    helpers = install_spans(tracer, m) if tracer else {}
    argv = ["run", ref, "--seed", str(seed), "--out", str(out)]
    rss_before = current_rss_mb()
    t0 = time.perf_counter()
    span = tracer.open("cli.main") if tracer else None
    code = m.cli.main(argv)
    if tracer:
        tracer.close(span)
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()
    if tracer:
        tracer.unpatch()
    m.cli.run_scenario_full = original

    failures = []
    if code != 0 or not captured:
        return {"wall_s": wall, "peak_rss_mb": rss, "rss_growth_mb": rss - rss_before,
                "ops": 1, "failed": 1,
                "failures": [f"cohdasim run exited with {code}"], "helpers": helpers}
    raw = (out / "result.json").read_bytes()
    record = json.loads(raw)
    run = captured[-1]
    mat = run.materialized
    scenario = mat.scenario
    if not record["terminated"]:
        failures.append("run did not terminate")
    if not record["consistent"]:
        failures.append("run ended inconsistent")
    best = m.simnet.snapshot_best(run.states.values())
    fitness = m.core.objective(best.configuration, scenario.target, scenario.horizon)
    if not math.isclose(fitness, record["final_fitness"], rel_tol=1e-9, abs_tol=1e-9):
        failures.append(f"final_fitness {record['final_fitness']!r} != objective {fitness!r}")
    for aid, device, flex in zip(mat.device_ids, mat.devices, mat.flexibility):
        chosen = best.configuration.get(aid)
        if chosen is None or chosen.schedule != flex.schedules[chosen.schedule_index]:
            failures.append(f"{aid}: committed schedule is not one of its own")
            continue
        temps = m.flexibility.simulate_tank(
            device, flex.on_patterns[chosen.schedule_index], scenario.horizon)
        if min(temps) < device.temp_min or max(temps) > device.temp_max:
            failures.append(f"{aid}: committed schedule leaves the tank band")
    return {
        "wall_s": wall,
        "peak_rss_mb": rss,
        "rss_growth_mb": rss - rss_before,
        "kernel_s": run.stats.wall_time,
        "outputs": {
            "messages": record["messages_sent"],
            "message_bytes": record["message_bytes_total"],
            "objective_calls": sum(record["objective_calls"].values()),
            "sim_time_s": record["termination_sim_time"],
            "coverage_l1": record["coverage_l1"],
        },
        "digest": hashlib.sha256(raw).hexdigest(),
        "ops": 1,
        "failed": 1 if failures else 0,
        "failures": failures,
        "helpers": helpers,
    }


def oracle_instance(m):
    instance = m.scenario.BUILTIN_SCENARIOS["small-demo"]()
    for path, value in ORACLE_PARAMS:
        instance = m.scenario.with_param(instance, path, value)
    return instance


def run_sweep(m, root: Path, seed: int, jobs: int, tracer: Tracer | None) -> dict:
    """sweep: the shipped robustness design, then the oracle sandwich."""
    helpers = install_spans(tracer, m) if tracer else {}
    ev = m.evaluation
    rss_before = current_rss_mb()
    t0 = time.perf_counter()
    span = tracer.open("bench.rep") if tracer else None
    design = m.cli.load_design(str(root / SWEEP_DESIGN))
    design = dataclasses.replace(design, base_seed=design.base_seed + seed * design.replications)
    t_sweep = time.perf_counter()
    rows = ev.run_sweep(design, jobs=jobs)
    sweep_s = time.perf_counter() - t_sweep
    t_oracle = time.perf_counter()
    instance = oracle_instance(m)
    optimum, _ = ev.brute_force_optimum(instance, seed)
    worst = ev.worst_case_bound(instance, seed, method="exhaustive")
    greedy, _ = ev.greedy_baseline(instance, seed)
    achieved = ev.run_scenario(instance, seed)
    oracle_s = time.perf_counter() - t_oracle
    if tracer:
        tracer.close(span)
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()
    if tracer:
        tracer.unpatch()

    failures = []
    failed = 0
    results = []
    for row in rows:
        r = row.result
        problem = None
        if r is None:
            problem = f"row {row.key()} failed: {row.error}"
        elif not r.terminated:
            problem = f"row {row.key()} did not terminate"
        elif not r.consistent:
            problem = f"row {row.key()} ended inconsistent"
        if problem:
            failed += 1
            failures.append(problem)
        else:
            results.append(r)
    eps = 1e-9 * max(1.0, abs(worst))
    sandwich = []
    if not (achieved.terminated and achieved.consistent):
        sandwich.append("oracle instance run did not end consistent")
    if not optimum - eps <= achieved.final_fitness <= worst + eps:
        sandwich.append(f"optimum {optimum!r} <= achieved {achieved.final_fitness!r} "
                        f"<= worst {worst!r} violated")
    if not optimum - eps <= greedy <= worst + eps:
        sandwich.append(f"greedy {greedy!r} outside [{optimum!r}, {worst!r}]")
    if sandwich:
        failed += 1
        failures.extend(sandwich)

    digest = hashlib.sha256(json.dumps(
        [[list(row.key()[0]), row.replication, row.seed,
          m.cli.result_record(row.result) if row.result else row.error] for row in rows]
        + [optimum, worst, greedy, m.cli.result_record(achieved)]
    ).encode()).hexdigest()
    return {
        "wall_s": wall,
        "sweep_s": sweep_s,
        "oracle_s": oracle_s,
        "rows": len(rows),
        "peak_rss_mb": rss,
        "rss_growth_mb": rss - rss_before,
        "kernel_s": sum(r.wall_time for r in results),
        "outputs": {
            "messages": sum(r.messages_sent for r in results),
            "message_bytes": sum(r.message_bytes_total for r in results),
            "objective_calls": sum(sum(r.objective_calls.values()) for r in results),
            "sim_time_s": sum(r.termination_sim_time for r in results),
            "coverage_l1": sum(r.coverage_l1 for r in results) / max(1, len(results)),
        },
        "digest": digest,
        "ops": len(rows) + 1,
        "failed": failed,
        "failures": failures,
        "helpers": helpers,
    }


# --- per-layer metrics from the spans -------------------------------------------


def percentile_us(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))] * 1e6


def layer_metrics(tracer: Tracer, helpers: dict[str, bool], rep: dict) -> dict:
    self_s, totals = tracer.self_times()
    roots = tracer.roots()
    root_s = sum(r[END] - r[START] for r in roots)
    metrics: dict[str, float | None] = {
        f"{layer}.self_s": sum(s for n, s in self_s.items() if LAYER_OF[n] == layer)
        for layer in LAYERS
    }

    def calls(name):
        return totals.get(name, [0, 0.0])[0]

    def seconds(name):
        return totals.get(name, [0, 0.0])[1]

    handle = tracer.durations("simnet.handle_start") + tracer.durations("simnet.handle_message")
    noop = tracer.durations("simnet.handle_message", note=True)
    deliveries = len(handle)
    metrics.update({
        "agent.deliveries": deliveries,
        "agent.noop_deliveries": len(noop),
        "agent.decides": calls("agent._choose_index") if helpers["_choose_index"] else None,
        "agent.useful_ratio": (deliveries - len(noop)) / deliveries if deliveries else 0.0,
        "agent.handle_s": sum(handle),
        "agent.handle_us_p50": percentile_us(handle, 50),
        "agent.handle_us_p99": percentile_us(handle, 99),
        "agent.noop_us_p50": percentile_us(noop, 50),
        "agent.decide_s": seconds("agent._choose_index") if helpers["_choose_index"] else None,
        "agent.merge_s": seconds("agent._merge") if helpers["_merge"] else None,
        "core.key_calls": calls("core.configuration_key"),
        "core.key_s": seconds("core.configuration_key"),
        "core.compare_calls": calls("simnet.compare") + calls("agent.compare"),
        "core.compare_s": seconds("simnet.compare") + seconds("agent.compare"),
        "wire.length_calls": calls("simnet.encoded_length"),
        "wire.length_s": seconds("simnet.encoded_length"),
    })
    events = duplicates = drops = 0
    for _, trace, _ in tracer.observed.get("evaluation.run", []):
        events += len(trace)
        for ev in trace:
            if ev.kind == "duplicate":
                duplicates += 1
            elif ev.kind == "drop":
                drops += 1
    outputs = rep["outputs"]
    schedules = sum(tracer.observed.get("scenario.sample_feasible_schedules", []))
    combos = sum(tracer.observed.get("evaluation.EnumerationOracle", []))
    oracle_s = sum(seconds(f"evaluation.{fn}") for fn in
                   ("brute_force_optimum", "worst_case_bound", "greedy_baseline"))
    metrics.update({
        "wire.bytes_per_msg": outputs["message_bytes"] / outputs["messages"],
        "simnet.run_s": seconds("evaluation.run"),
        "simnet.trace_events": events,
        "simnet.duplicates": duplicates,
        "simnet.drops": drops,
        "flexibility.sample_s": seconds("scenario.sample_feasible_schedules"),
        "flexibility.schedules": schedules,
        "flexibility.us_per_schedule":
            seconds("scenario.sample_feasible_schedules") / schedules * 1e6 if schedules else 0.0,
        "scenario.materialize_s": seconds("evaluation.materialize"),
        "topology.build_s": seconds("scenario.topology.small_world"),
        "evaluation.extract_s": self_s.get("evaluation.run_scenario_full", 0.0),
        "evaluation.oracle_s": oracle_s,
        "evaluation.oracle_combos_per_s":
            combos / seconds("evaluation.EnumerationOracle") if combos else 0.0,
        "cli.load_s": seconds("cli.load_scenario"),
        "cli.output_s": self_s.get("cli.cmd_run", 0.0),
    })
    metrics["bench.self_sum_error"] = (
        abs(sum(self_s.values()) - root_s) / root_s if len(roots) == 1 else 1.0
    )
    return metrics


def main(argv: list[str]) -> int:
    root, workload, seed, mode, out, setup_budget = (
        Path(argv[0]), argv[1], int(argv[2]), argv[3], Path(argv[4]), float(argv[5]))
    m = import_package(root)
    out.mkdir(parents=True, exist_ok=True)

    tracer = Tracer() if mode == "traced" else None
    if workload == "sweep":
        jobs = 1 if mode in ("serial", "traced") else min(2, os.cpu_count() or 1)
        rep = run_sweep(m, root, seed, jobs, tracer)
    else:
        rep = run_cli(m, root, workload, seed, out, tracer)
    if tracer is not None and "outputs" in rep:
        rep["layers"] = layer_metrics(tracer, rep["helpers"], rep)
        tracer.write(out / "spans.jsonl")

    # Set-up is timed after the repetition so that it cannot raise the
    # repetition's peak memory.
    if workload == "sweep":
        def setup():
            design = m.cli.load_design(str(root / SWEEP_DESIGN))
            m.scenario.materialize(design.base_scenario, design.base_seed + seed * design.replications)
    else:
        ref = "epex-peakload" if workload == "epex" else str(root / FLEET_SCENARIO)

        def setup():
            m.scenario.materialize(m.cli.load_scenario(ref), seed)
    rep["setup_s"] = time_setup(setup, setup_budget)
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
