"""The calling conventions that the benchmark harness relies on.

``perfbench/worker.py`` times the package from outside: it replaces named
module attributes by timing wrappers and ``cli.run_scenario_full`` by a
capture that takes ``(scenario, seed=0)``. A refactor that renames one of
those functions, or calls it through a local alias, breaks the benchmark
without failing any other test. These tests run the worker's own code
against the package; they do not change ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"

# Functions the kernel and the agent must call through the patched names.
HOT_NAMES = (
    "simnet.handle_start",
    "simnet.handle_message",
    "simnet.encoded_length",
    "simnet.compare",
    "agent.compare",
    "agent._choose_index",
    "agent._merge",
)


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_worker", BENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_spans_finds_every_name(worker):
    m = worker.import_package(ROOT)
    originals = {name: getattr(m.agent, name) for name in worker.OPTIONAL_HELPERS}
    tracer = worker.Tracer()
    helpers = worker.install_spans(tracer, m)
    tracer.unpatch()
    assert helpers == {name: True for name in worker.OPTIONAL_HELPERS}
    assert {name: getattr(m.agent, name) for name in originals} == originals


@pytest.mark.parametrize("traced", [False, True])
def test_cli_run_under_the_worker_capture(worker, monkeypatch, tmp_path, traced):
    m = worker.import_package(ROOT)
    original = m.cli.run_scenario_full
    captured = []

    def capture(scenario, seed=0):
        result = original(scenario, seed)
        captured.append(result)
        return result

    monkeypatch.setattr(m.cli, "run_scenario_full", capture)
    tracer = worker.Tracer()
    if traced:
        worker.install_spans(tracer, m)
    try:
        code = m.cli.main(["run", "toy-2", "--seed", "0", "--out", str(tmp_path)])
    finally:
        tracer.unpatch()
    assert code == 0
    assert len(captured) == 1 and captured[0].result.terminated
    if traced:
        _, totals = tracer.self_times()
        for name in HOT_NAMES:
            assert totals.get(name, [0])[0] > 0, name


def test_worker_correctness_checks_pass(worker, monkeypatch, tmp_path):
    # The worker's checks read the run's flexibility sets (``schedules`` and
    # ``on_patterns``) and the committed records; toy-2 keeps the run short.
    monkeypatch.setattr(worker, "FLEET_SCENARIO", Path("src/cohdasim/data/toy-2.yaml"))
    m = worker.import_package(ROOT)
    rep = worker.run_cli(m, ROOT, "fleet", 0, tmp_path, None)
    assert rep["failed"] == 0, rep["failures"]
    assert rep["outputs"]["messages"] > 0


def test_worker_traced_repetition(worker, monkeypatch, tmp_path):
    # The traced repetition: spans on, then the per-layer metrics, which
    # unpack ``run``'s return value and count the trace's events by kind.
    # The run collects its trace here, so that the kinds are read.
    monkeypatch.setattr(worker, "FLEET_SCENARIO", Path("src/cohdasim/data/toy-2.yaml"))
    m = worker.import_package(ROOT)
    original = m.cli.run_scenario_full
    monkeypatch.setattr(m.cli, "run_scenario_full",
                        lambda scenario, seed=0: original(scenario, seed, trace=[]))
    tracer = worker.Tracer()
    rep = worker.run_cli(m, ROOT, "fleet", 0, tmp_path, tracer)
    assert rep["failed"] == 0, rep["failures"]
    metrics = worker.layer_metrics(tracer, rep["helpers"], rep)
    [(_, trace, stats)] = tracer.observed["evaluation.run"]
    assert metrics["agent.deliveries"] == stats.deliveries > 0
    assert metrics["agent.noop_deliveries"] == stats.noop_deliveries
    assert metrics["simnet.trace_events"] == len(trace) > 0
    assert metrics["simnet.duplicates"] == stats.duplicates
    assert metrics["simnet.drops"] == stats.drops
    assert metrics["wire.bytes_per_msg"] == stats.message_bytes / stats.messages


@pytest.mark.parametrize("traced", [False, True])
def test_worker_sweep_repetition(worker, monkeypatch, traced):
    # The sweep repetition reads ``evaluation.run_sweep`` and its rows'
    # ``key()``, ``error``, ``replication`` and ``seed``, the three oracle
    # wrappers, ``run_scenario``, ``cli.result_record`` and
    # ``scenario.with_param``. The list-index design keeps it to 8 short rows.
    monkeypatch.setattr(worker, "SWEEP_DESIGN", Path("tests/golden/list_index_design.yaml"))
    m = worker.import_package(ROOT)
    tracer = worker.Tracer() if traced else None
    rep = worker.run_sweep(m, ROOT, 0, 1, tracer)
    assert rep["rows"] == 8
    assert rep["failed"] == 0, rep["failures"]
    if traced:
        metrics = worker.layer_metrics(tracer, rep["helpers"], rep)
        assert metrics["evaluation.oracle_s"] > 0
        assert metrics["evaluation.oracle_combos_per_s"] > 0
