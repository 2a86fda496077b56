"""Benchmark of cohdasim: the epex, fleet and sweep workloads.

    python3 perfbench/run.py [--workload epex|fleet|sweep|all] [--seed N]
                             [--seconds S] [--trace 0|1] [--results FILE]
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

Closed loop, one client: repetitions of a workload run one after another,
each in a fresh process (perfbench/worker.py), so that its peak resident
memory is its own. Repetitions continue until --seconds have been measured,
and at least two run, because results must be byte-identical across
repetitions of one seed. With --trace 0 the last line of standard output
is a JSON object with the end-to-end metrics; with --trace 1 a traced
repetition attributes host time to cohdasim's modules and the last line
carries the per-layer metrics. Every run is appended, with the machine it
ran on, to the results file (default .bench_out/results.jsonl), which
--compare reads. Exit status 0 means every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_DIR = ROOT / ".bench_out"
WORKLOADS = ("epex", "fleet", "sweep")
MIN_REPS = 2
TIME_BUDGET_S = 165.0  # per workload, so that one run ends within three minutes
# Set-up is re-timed in every repetition's process, so that its samples
# spread over the run instead of sharing one moment's machine speed.
SETUP_BUDGET_S = 0.75

# End-to-end metrics gated by BENCHMARK.json: name -> (unit, better).
E2E = {
    "us_per_msg": ("us", "lower"),
    "setup_s": ("s", "lower"),
    "kb_per_msg": ("KB", "lower"),
    "coverage_l1": ("ratio", "higher"),
    "bytes_per_msg": ("B", "lower"),
}
# Further end-to-end figures, printed and stored but not gated: they change
# with the instance a seed generates (see perfbench/README.md).
E2E_REPORTED = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "messages": "count",
    "message_bytes": "B",
    "objective_calls": "count",
    "sim_time_s": "s",
    "fail_rate": "ratio",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in (
        "cli", "scenario", "flexibility", "topology", "agent", "core", "wire",
        "simnet", "evaluation")},
    "agent.deliveries": "count",
    "agent.noop_deliveries": "count",
    "agent.decides": "count",
    "agent.useful_ratio": "ratio",
    "agent.handle_s": "s",
    "agent.handle_us_p50": "us",
    "agent.handle_us_p99": "us",
    "agent.noop_us_p50": "us",
    "agent.decide_s": "s",
    "agent.merge_s": "s",
    "core.key_calls": "count",
    "core.key_s": "s",
    "core.compare_calls": "count",
    "core.compare_s": "s",
    "wire.length_calls": "count",
    "wire.length_s": "s",
    "wire.bytes_per_msg": "B",
    "simnet.run_s": "s",
    "simnet.us_per_msg": "us",
    "simnet.msgs_per_s": "1/s",
    "simnet.trace_events": "count",
    "simnet.duplicates": "count",
    "simnet.drops": "count",
    "flexibility.sample_s": "s",
    "flexibility.schedules": "count",
    "flexibility.us_per_schedule": "us",
    "scenario.materialize_s": "s",
    "topology.build_s": "s",
    "evaluation.extract_s": "s",
    "evaluation.rows_per_s": "1/s",
    "evaluation.parallel_eff": "ratio",
    "evaluation.oracle_s": "s",
    "evaluation.oracle_combos_per_s": "1/s",
    "cli.load_s": "s",
    "cli.output_s": "s",
    "bench.trace_overhead": "ratio",
}


class Outcome:
    """Operations attempted and failed in one benchmark run, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, failed: int, reasons=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.reasons.extend(reasons)


def spawn(workload: str, seed: int, mode: str, setup_budget: float, deadline: float,
          outcome: Outcome) -> dict | None:
    """Run one repetition in a child process; None if it crashed or timed out."""
    out = WORK_DIR / workload / mode
    cmd = [sys.executable, str(WORKER), str(ROOT), workload, str(seed), mode, str(out),
           str(setup_budget)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        outcome.add(1, 1, [f"{mode} repetition did not finish within the time budget"])
        return None
    finally:
        if proc.poll() is None:  # interrupted: take the whole process group down
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        outcome.add(1, 1, [f"{mode} repetition exited with status {proc.returncode}"])
        return None
    rep = json.loads(lines[-1])
    rep["elapsed_s"] = time.monotonic() - started
    outcome.add(rep["ops"], rep["failed"], rep["failures"])
    return rep


def check_determinism(reps: list[dict], outcome: Outcome) -> None:
    reference = reps[0].get("digest")
    for rep in reps[1:]:
        if rep.get("digest") != reference:
            outcome.add(0, 1, ["outputs differ between repetitions of one seed"])


def check_pins(workload: str, seed: int, outputs: dict, outcome: Outcome) -> None:
    """Seed-0 outputs must equal the values recorded at the seed commit."""
    pins = json.loads((HERE / "pins.json").read_text()).get(workload)
    if seed != 0 or pins is None:
        return
    for name, expected in pins.items():
        if outputs.get(name) != expected:
            outcome.add(0, 1, [f"{name} = {outputs.get(name)!r}, pinned {expected!r}"])


def measure(workload: str, seed: int, seconds: float, deadline: float, outcome: Outcome):
    """Untraced repetitions: every end-to-end metric."""
    reps: list[dict] = []
    measured = 0.0
    while len(reps) < MIN_REPS or measured < seconds:
        slowest = max((r["elapsed_s"] for r in reps), default=0.0)
        if reps and 1.2 * slowest > deadline - time.monotonic():
            if len(reps) < MIN_REPS:
                outcome.add(1, 1, ["no time left for a second repetition"])
            break
        rep = spawn(workload, seed, "rep", SETUP_BUDGET_S, deadline, outcome)
        if rep is None:
            break
        reps.append(rep)
        measured += rep["wall_s"]
    ok = [r for r in reps if "outputs" in r]
    if not ok:
        return reps, {}
    check_determinism(ok, outcome)
    outputs = ok[0]["outputs"]
    check_pins(workload, seed, outputs, outcome)
    values = {
        "us_per_msg": statistics.median([r["wall_s"] / r["outputs"]["messages"] * 1e6 for r in ok]),
        "setup_s": statistics.median([s for r in ok for s in r["setup_s"]]),
        "kb_per_msg": statistics.median([r["rss_growth_mb"] * 1024 / r["outputs"]["messages"] for r in ok]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in ok]),
        "coverage_l1": outputs["coverage_l1"],
        "bytes_per_msg": outputs["message_bytes"] / outputs["messages"],
        "wall_s": statistics.median([r["wall_s"] for r in ok]),
        **{k: outputs[k] for k in ("messages", "message_bytes", "objective_calls", "sim_time_s")},
    }
    return reps, values


def trace(workload: str, seed: int, deadline: float, outcome: Outcome):
    """One untraced and one traced repetition (plus, for the sweep, one at
    jobs = 1): every per-layer metric."""
    plain = spawn(workload, seed, "rep", 0.0, deadline, outcome)
    serial = spawn(workload, seed, "serial", 0.0, deadline, outcome) if workload == "sweep" else None
    traced = spawn(workload, seed, "traced", 0.0, deadline, outcome)
    reps = [plain, traced] + ([serial] if workload == "sweep" else [])
    if any(r is None or "outputs" not in r for r in reps):
        return [r for r in reps if r is not None], {}
    check_determinism(reps, outcome)
    check_pins(workload, seed, plain["outputs"], outcome)
    values = dict(traced["layers"])
    if values.pop("bench.self_sum_error") > 0.01:
        outcome.add(0, 1, ["span self times do not sum to the root span within 1%"])
    messages = plain["outputs"]["messages"]
    values["simnet.us_per_msg"] = plain["kernel_s"] / messages * 1e6
    values["simnet.msgs_per_s"] = messages / plain["kernel_s"]
    untraced = serial if serial is not None else plain
    values["bench.trace_overhead"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    if serial is not None:
        values["evaluation.rows_per_s"] = plain["rows"] / plain["sweep_s"]
        jobs = min(2, os.cpu_count() or 1)
        values["evaluation.parallel_eff"] = serial["sweep_s"] / (jobs * plain["sweep_s"])
    else:
        values["evaluation.rows_per_s"] = 0.0
        values["evaluation.parallel_eff"] = 0.0
    return reps, values


# --- reporting --------------------------------------------------------------------


def machine_facts(seed: int) -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read from .git
    directly, without running git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Digest of the package sources, which identifies the code measured
    where no git metadata is present."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:.6g}"


def print_table(workload: str, seed: int, reps: list[dict], values: dict, units: dict,
                outcome: Outcome) -> None:
    print(f"\n{workload}  seed={seed}  repetitions={len(reps)}")
    for name, unit in units.items():
        if name in values:
            print(f"  {name:<32} {fmt(values[name]):>16} {unit}")
    for reason in outcome.reasons[:20]:
        print(f"  FAILED: {reason}")


def run_workload(workload: str, args, results_path: Path) -> tuple[Outcome, dict]:
    outcome = Outcome()
    deadline = time.monotonic() + TIME_BUDGET_S
    if args.trace:
        reps, values = trace(workload, args.seed, deadline, outcome)
        units = listed = PER_LAYER
    else:
        reps, values = measure(workload, args.seed, args.seconds, deadline, outcome)
        if values:
            values["fail_rate"] = outcome.failed / max(1, outcome.attempted)
        units, listed = {**E2E_REPORTED, **{k: u for k, (u, _) in E2E.items()}}, E2E
    if any(name not in values for name in listed):
        outcome.add(0, 1, ["no complete repetition"])
        values = {}
    print_table(workload, args.seed, reps, values, units, outcome)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in listed if values}
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(args.seed),
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.reasons[:50],
        "metrics": metrics,
        "reported": {k: values[k] for k in E2E_REPORTED if k in values},
        "samples": {
            "wall_s": [r["wall_s"] for r in reps],
            "setup_s": [s for r in reps for s in r.get("setup_s", [])],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        },
    }
    results_path.parent.mkdir(parents=True, exist_ok=True)
    with results_path.open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    return outcome, metrics


# --- compare mode -----------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_seed(runs: list[dict], name: str) -> dict[int, list[float]]:
    values: dict[int, list[float]] = {}
    for run in runs:
        if name in run["metrics"]:
            values.setdefault(run["seed"], []).append(run["metrics"][name]["value"])
    return values


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, float | None]:
    """The section-8 rule: improved only when the change wins at least nine
    tenths of the (parent, change) pairs and the medians differ by more than
    the parent's quartile spread; unresolved when that spread exceeds the
    bound and not every change run beats every parent run."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    share = wins / len(pairs) if pairs else None
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = sign * (pmed - cmed)  # positive when the change is better
    if share is not None and share >= 0.9 and gain > pq3 - pq1:
        return "improved", share
    every_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if pmed and (pq3 - pq1) / abs(pmed) > bound and not every_better:
        return "unresolved", share
    worse_by = -gain / abs(pmed) if pmed else 0.0
    return ("no worse" if worse_by <= bound else "worse"), share


def compare(parent_path: Path, change_path: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def load(path):
        runs: dict[str, list[dict]] = {}
        for line in path.read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
        return runs

    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':<8} {'metric':<14} {'parent q1/med/q3':<32} {'change q1/med/q3':<32} "
          f"{'won':>5}  verdict")
    worst = 0
    for workload in [w for w in WORKLOADS if w in parent and w in change]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p, c = by_seed(parent[workload], name), by_seed(change[workload], name)
            pairs = [pair for seed in p if seed in c for pair in zip(p[seed], c[seed])]
            p = [v for values in p.values() for v in values]
            c = [v for values in c.values() for v in values]
            if not p or not c:
                continue
            result, share = verdict(p, c, pairs, metric["better"], metric["bound"])
            worst = max(worst, result == "worse")
            print(f"{workload:<8} {name:<14} "
                  f"{'/'.join(fmt(v) for v in quartiles(p)):<32} "
                  f"{'/'.join(fmt(v) for v in quartiles(c)):<32} "
                  f"{'-' if share is None else format(share, '.0%'):>5}  "
                  f"{result} (n={len(p)}/{len(c)}, bound {metric['bound']:.0%})")
    return 1 if worst else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=WORK_DIR / "results.jsonl")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that spawn() takes
    # the running repetition's process group down with this process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "cohdasim" / "__init__.py").is_file():
        print(f"error: no cohdasim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    total = Outcome()
    metrics: dict = {}
    for workload in workloads:
        outcome, values = run_workload(workload, args, args.results)
        total.add(outcome.attempted, outcome.failed)
        prefix = f"{workload}." if len(workloads) > 1 else ""
        metrics.update({prefix + k: v for k, v in values.items()})
    print(json.dumps({"correct": total.failed == 0, "attempted": max(1, total.attempted),
                      "failed": total.failed, "metrics": metrics}))
    return 0 if total.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
