import csv
import io
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from cohdasim import schema
from cohdasim.cli import _write_json, main
from cohdasim.schema import (
    _DELAYS,
    ScenarioError,
    load_design,
    load_scenario,
    parse_scenario_mapping,
    scenario_to_mapping,
)
from cohdasim.core import StructuralError
from cohdasim.scenario import BUILTIN_SCENARIOS

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "cohdasim" / "data"
# Every shipped scenario or design file; perfbench/fleet.yaml is only read.
SHIPPED_YAML = sorted(DATA.glob("*.yaml")) + [ROOT / "perfbench" / "fleet.yaml"]


def _write_scenario(tmp_path, name="sc.yaml", **edits):
    mapping = scenario_to_mapping(load_scenario("toy-2"))
    mapping.update(edits)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    return path


def test_python_dash_m_runs_the_command_line(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    ok = subprocess.run([sys.executable, "-m", "cohdasim", "validate", "toy-2"], env=env,
                        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.startswith("OK: 'toy-2', 2 devices")
    bad = subprocess.run([sys.executable, "-m", "cohdasim", "validate", "no-such"], env=env,
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2 and "no such scenario" in bad.stderr


def test_missing_file_nonzero_exit(capsys):
    code = main(["run", "/no/such/file.yaml"])
    assert code == 2
    assert "no such scenario" in capsys.readouterr().err


def _assert_round_trip(scenario):
    mapping = scenario_to_mapping(scenario)
    assert parse_scenario_mapping(mapping, "<round-trip>") == scenario
    text = yaml.safe_dump(mapping, sort_keys=False)
    assert parse_scenario_mapping(yaml.safe_load(text), "<round-trip>") == scenario


def test_scenario_round_trip():
    assert set(BUILTIN_SCENARIOS) >= {"epex-peakload", "toy-2", "small-demo"}
    for load in BUILTIN_SCENARIOS.values():
        _assert_round_trip(load())


def test_unknown_key_reports_location(tmp_path):
    path = _write_scenario(tmp_path)
    text = path.read_text() + "bogus_key: 1\n"
    path.write_text(text)
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    message = str(err.value)
    assert "bogus_key" in message
    assert str(path) in message and ":" in message.split(str(path))[1]


def test_nested_unknown_key_location(tmp_path):
    mapping = scenario_to_mapping(load_scenario("toy-2"))
    mapping["network"]["oops"] = True
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert "oops" in str(err.value)


def test_yaml_syntax_error_location(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("horizon: {intervals: 1\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert "broken.yaml" in str(err.value)
    path.write_text("name: a\nname: b\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert f"{path}:2:1: " in str(err.value) and "duplicate key 'name'" in str(err.value)


class _PurePythonLoader(yaml.SafeLoader):
    pass


_PurePythonLoader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG,
                                  schema._construct_mapping)


def _with_marks(value):
    """``value`` with every mapping's own mark and each key's mark."""
    if isinstance(value, dict):
        return value.mark, {k: (value.key_marks[k], _with_marks(v)) for k, v in value.items()}
    if isinstance(value, list):
        return [_with_marks(v) for v in value]
    return value


def _problem_mark(text, loader):
    with pytest.raises(yaml.MarkedYAMLError) as err:
        yaml.load(text, Loader=loader)
    return err.value.problem_mark.line, err.value.problem_mark.column


def test_libyaml_loader_gives_the_pure_python_mappings_and_marks():
    assert issubclass(schema._Loader, yaml.CSafeLoader) == yaml.__with_libyaml__
    shipped = SHIPPED_YAML + sorted((ROOT / "tests" / "golden").rglob("*.yaml"))
    for path in shipped:
        text = path.read_text()
        fast = _with_marks(yaml.load(text, Loader=schema._Loader))
        assert fast == _with_marks(yaml.load(text, Loader=_PurePythonLoader)), path
    bad = ["horizon: {intervals: 1\n", "a: [1, 2\nb: 3\n", "a: b: c\n", "- a\nb: 1\n",
           "a:\n  - 1\n - 2\n", "a: 'x\n", "name: a\nname: b\n", "a: &x 1\nb: *y\n",
           "\t a: 1\n", "a: @x\n"]
    for text in bad:
        assert _problem_mark(text, schema._Loader) == _problem_mark(text, _PurePythonLoader), text


def test_validate_builtin(capsys):
    assert main(["validate", "toy-2"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "2 devices" in out


def test_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "toy-2", "--seed", "3", "--out", str(out), "--trace"])
    assert code == 0
    for name in (
        "result.json",
        "timing.json",
        "curve.jsonl",
        "series.csv",
        "temperatures.csv",
        "scenario.yaml",
        "trace.jsonl",
    ):
        assert (out / name).exists(), name
    record = json.loads((out / "result.json").read_text())
    assert record["seed"] == 3
    assert record["consistent"] is True
    assert "wall_time" not in record
    assert record["uncontrolled_coverage_l1"] <= 1.0
    with (out / "series.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["target_kw"] == "-5.0"
    temps = (out / "temperatures.csv").read_text().strip().splitlines()
    # header + 2 devices x (T+1) points
    assert len(temps) == 1 + 2 * 2


def test_a_sampling_failure_names_its_device(tmp_path, capsys):
    # small-demo with eight proposals each: dev000-dev004 find 8 distinct
    # feasible patterns, dev005 only 7. toy-2 with b000's tank unable to
    # take an on interval: a000 finds both patterns, b000, in the second
    # group, only one.
    small = scenario_to_mapping(load_scenario("small-demo"))
    small["sampling"] = {"count": 8, "attempt_factor": 1}
    toy = scenario_to_mapping(load_scenario("toy-2"))
    toy["devices"][1]["temp_max_c"] = 505.0
    for mapping, message in [
        (small, "dev005: found only 7 of 8 distinct feasible patterns within 8 attempts"),
        (toy, "b000: found only 1 of 2 distinct feasible patterns within 100 attempts"),
    ]:
        path = tmp_path / "sc.yaml"
        path.write_text(yaml.safe_dump(mapping, sort_keys=False))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: SamplingError: {message}\n"


def test_run_outputs_byte_identical_across_repeats(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "small-demo", "--seed", "7", "--out", str(out1), "--trace"]) == 0
    assert main(["run", "small-demo", "--seed", "7", "--out", str(out2), "--trace"]) == 0
    for name in ("result.json", "curve.jsonl", "series.csv", "temperatures.csv", "trace.jsonl"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_run_scenario_file_round_trips_through_cli(tmp_path):
    path = _write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    dumped = yaml.safe_load((out / "scenario.yaml").read_text())
    assert parse_scenario_mapping(dumped, "x") == load_scenario(str(path))


def test_result_json_is_strict_json_when_the_window_energy_cancels(tmp_path):
    # Window target energies -5 and +5 sum to zero: the energy ratio is undefined.
    mapping = scenario_to_mapping(load_scenario("toy-2"))
    mapping["horizon"] = {"intervals": 2, "interval_hours": 1.0, "window_intervals": [0, 1]}
    mapping["target"] = {"power_kw": [-5.0, 5.0]}
    for device in mapping["devices"]:
        device["demand_kw"] = 0.0
    path = tmp_path / "cancel.yaml"
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    record = json.loads((out / "result.json").read_text(), parse_constant=refuse)
    assert record["coverage_energy_ratio"] is None
    with pytest.raises(ValueError):
        _write_json(tmp_path / "nan.json", {"ratio": float("nan")})


def test_run_stopped_before_every_device_is_selected(tmp_path):
    # After one message the committed candidate selects a single device; the
    # other device gets no temperature rows.
    path = _write_scenario(tmp_path, limits={"max_sim_time_s": 1000.0, "max_messages": 1})
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "result.json").read_text())["terminated"] is False
    with (out / "temperatures.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 and len({row["device_id"] for row in rows}) == 1


@pytest.mark.parametrize("hours, window, key", [
    (1.0e-320, [0, 1], "window_hours"),  # the quotient 1 / 1e-320 overflows
    (1.0, [0, 2], "window_hours"),  # one interval past the horizon
    (1.0, [-1, 1], "window_hours"),
    (0.0, [0, 1], "interval_hours"),
], ids=["overflow", "past-the-end", "negative", "zero-interval"])
def test_window_hours_checked_against_the_horizon(tmp_path, capsys, hours, window, key):
    path = _write_scenario(
        tmp_path, horizon={"intervals": 1, "interval_hours": hours, "window_hours": window})
    reported, line = _located_error(path)
    assert reported.startswith(f"horizon.{key} must")
    assert line.strip().startswith(f"{key}:")
    assert main(["validate", str(path)]) == 2
    assert f"horizon.{key}" in capsys.readouterr().err


def test_oracle_toy_file(tmp_path, capsys):
    path = _write_scenario(tmp_path)
    assert main(["oracle", str(path)]) == 0
    out = capsys.readouterr().out
    assert "optimum fitness:   0.0" in out
    assert "worst-case fitness: 5.0" in out


def test_oracle_gap_against_run(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "toy-2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["oracle", "toy-2", "--result", str(out / "result.json")]) == 0
    printed = capsys.readouterr().out
    assert "optimality gap" in printed


@pytest.mark.parametrize("content", [None, "{}", '{"final_fitness": "high"}', "[1]", "not json",
                                     '{"final_fitness": NaN}'])
def test_oracle_refuses_an_unreadable_result_before_enumerating(tmp_path, capsys, content):
    path = tmp_path / "result.json"
    if content is not None:
        path.write_text(content)
    assert main(["oracle", "toy-2", "--result", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("run, found, wanted", [
    (["small-demo", "--seed", "0"], "'small-demo' at seed 0", "'toy-2' at seed 0"),
    (["toy-2", "--seed", "3"], "'toy-2' at seed 3", "'toy-2' at seed 0"),
], ids=["scenario", "seed"])
def test_oracle_refuses_the_result_of_another_instance(tmp_path, capsys, run, found, wanted):
    out = tmp_path / "out"
    assert main(["run", *run, "--out", str(out)]) == 0
    capsys.readouterr()
    path = out / "result.json"
    assert main(["oracle", "toy-2", "--result", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: a run of scenario {found}, not of {wanted}\n"


def test_oracle_refuses_epex(capsys):
    assert main(["oracle", "epex-peakload"]) == 1
    err = capsys.readouterr().err
    assert "refused" in err
    assert "10^283" in err


def test_uncontrolled_command(tmp_path, capsys):
    out = tmp_path / "unc"
    assert main(["uncontrolled", "toy-2", "--seed", "2", "--out", str(out)]) == 0
    record = json.loads((out / "uncontrolled.json").read_text())
    assert 0.0 <= record["coverage_l1"] <= 1.0
    assert (out / "uncontrolled_series.csv").exists()


def test_uncontrolled_equals_controlled_for_singleton_sets(tmp_path):
    mapping = scenario_to_mapping(load_scenario("toy-2"))
    mapping["sampling"]["count"] = 1
    path = tmp_path / "fixed.yaml"
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    with (out / "series.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert row["controlled_kw"] == row["uncontrolled_kw"]


def test_sweep_and_resume(tmp_path):
    design_path = tmp_path / "design.yaml"
    design_path.write_text(
        yaml.safe_dump(
            {
                "base_scenario": "toy-2",
                "factors": [
                    {"path": "network.duplicate_probability", "values": [0.0, 0.1]},
                ],
                "replications": 3,
                "base_seed": 2,
            },
            sort_keys=False,
        )
    )
    out = tmp_path / "sweep"
    assert main(["sweep", str(design_path), "--out", str(out)]) == 0
    results = (out / "results.csv").read_bytes()
    summary = (out / "summary.csv").read_bytes()
    with (out / "results.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert all(r["status"] == "ok" for r in rows)
    assert (out / "summary.csv").exists()

    # Drop the last two rows, then resume: only the missing rows rerun and
    # the final table is byte-identical to the full one.
    # The summary covers the final table, not only the rows rerun.
    lines = results.decode().strip().splitlines()
    (out / "results.csv").write_text("\n".join(lines[:-2]) + "\n")
    assert main(["sweep", str(design_path), "--out", str(out), "--resume"]) == 0
    assert (out / "results.csv").read_bytes() == results
    assert (out / "summary.csv").read_bytes() == summary
    # A resume with nothing left to run rewrites both tables unchanged.
    assert main(["sweep", str(design_path), "--out", str(out), "--resume"]) == 0
    assert (out / "results.csv").read_bytes() == results
    assert (out / "summary.csv").read_bytes() == summary


# summary.csv's metrics in row order: the metric name and its results.csv column.
_SUMMARY_COLUMNS = (
    ("final_fitness", "final_fitness"),
    ("coverage_l1", "coverage_l1"),
    ("messages_sent", "messages_sent"),
    ("message_bytes_total", "message_bytes_total"),
    ("termination_sim_time", "termination_sim_time_s"),
    ("objective_calls_total", "objective_calls_total"),
)


def _reference_summary(results_path, factor_paths) -> bytes:
    """summary.csv, worked out from the ok rows of the results.csv at
    ``results_path``."""
    with results_path.open() as fh:
        ok = [row for row in csv.DictReader(fh) if row["status"] == "ok"]
    cells = {}
    for row in ok:
        cells.setdefault(tuple(row[p] for p in factor_paths), []).append(row)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*factor_paths, "metric", "n", "mean", "sd", "min", "max", "ci_low", "ci_high"])
    for factors, rows in cells.items():
        for metric, column in _SUMMARY_COLUMNS:
            values = [float(row[column]) for row in rows]
            mean = statistics.fmean(values)
            sd = statistics.stdev(values) if len(values) > 1 else 0.0
            bounds = ["", ""]
            if len(values) >= 10:
                half = 1.96 * sd / len(values) ** 0.5
                bounds = [repr(mean - half), repr(mean + half)]
            writer.writerow([*factors, metric, len(values), repr(mean), repr(sd),
                             repr(min(values)), repr(max(values)), *bounds])
    return buf.getvalue().encode()


def test_summary_is_computed_from_the_ok_rows_of_results(tmp_path):
    # The 50 patterns cannot exist for T=1: that cell is all error rows and
    # has no summary rows. The exponential delay spreads the sim time.
    design_path = tmp_path / "design.yaml"
    design_path.write_text(
        "base_scenario: toy-2\n"
        "replications: 10\n"
        "factors:\n"
        "- path: sampling.count\n"
        "  values: [2, 50]\n"
        "- path: network.delay\n"
        "  values: [{kind: exponential, mean_s: 0.1}]\n"
    )
    factor_paths = ["sampling.count", "network.delay"]
    out = tmp_path / "sweep"
    assert main(["sweep", str(design_path), "--out", str(out)]) == 0
    results_path = out / "results.csv"
    results = results_path.read_bytes()
    summary = (out / "summary.csv").read_bytes()
    with results_path.open() as fh:
        statuses = [row["status"] for row in csv.DictReader(fh)]
    assert statuses == ["ok"] * 10 + ["error"] * 10
    assert summary == _reference_summary(results_path, factor_paths)
    with (out / "summary.csv").open() as fh:
        [sim_time] = [row for row in csv.DictReader(fh) if row["metric"] == "termination_sim_time"]
    assert sim_time["n"] == "10" and float(sim_time["sd"]) > 0 and sim_time["ci_low"]

    # Resumed from a table cut inside the ok cell: the resumed rows count.
    lines = results.decode().splitlines(keepends=True)
    results_path.write_text("".join(lines[:-12]))
    assert main(["sweep", str(design_path), "--out", str(out), "--resume"]) == 0
    assert results_path.read_bytes() == results
    assert (out / "summary.csv").read_bytes() == summary


def test_sweep_resume_writes_an_edited_ok_row_back_canonically(tmp_path):
    design_path = tmp_path / "design.yaml"
    design_path.write_text("base_scenario: toy-2\nreplications: 2\n")
    out = tmp_path / "sweep"
    assert main(["sweep", str(design_path), "--out", str(out)]) == 0
    results_path = out / "results.csv"
    with results_path.open() as fh:
        lines = list(csv.reader(fh))
    header = lines[0]
    edited = dict(zip(header, lines[1]), final_fitness="0.50", termination_sim_time_s="3")
    lines[1] = [edited[column] for column in header]
    with results_path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(lines)
    assert main(["sweep", str(design_path), "--out", str(out), "--resume"]) == 0
    with results_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0] == dict(edited, final_fitness="0.5", termination_sim_time_s="3.0")
    assert (out / "summary.csv").read_bytes() == _reference_summary(results_path, [])


def _corrupt_short(cells):
    return cells[:3]  # the factor, replication and seed cells only


def _corrupt_metric(cells):
    return cells[:4] + ["high"] + cells[5:]  # final_fitness of an ok row


def _corrupt_flag(cells):
    return cells[:7] + ["yes"] + cells[8:]  # terminated of an ok row


@pytest.mark.parametrize("row, corrupt, message", [
    (0, _corrupt_short, "header does not match this design"),
    (2, _corrupt_short, "row has 3 cells, header 14"),
    (2, _corrupt_metric, "ok row, bad metric cell: final_fitness: could not convert string "
                         "to float: 'high'"),
    (2, _corrupt_flag, "ok row, bad metric cell: terminated: must be 0 or 1, got 'yes'"),
], ids=["header", "short-row", "bad-metric", "bad-flag"])
def test_sweep_resume_refuses_a_damaged_row(tmp_path, capsys, row, corrupt, message):
    design_path = tmp_path / "design.yaml"
    design_path.write_text(
        "base_scenario: toy-2\n"
        "replications: 2\n"
        "factors:\n"
        "- path: network.duplicate_probability\n"
        "  values: [0.0]\n"
    )
    out = tmp_path / "sweep"
    assert main(["sweep", str(design_path), "--out", str(out)]) == 0
    results = out / "results.csv"
    with results.open() as fh:
        lines = list(csv.reader(fh))
    assert [line[3] for line in lines[1:]] == ["ok", "ok"]
    lines[row] = corrupt(lines[row])
    with results.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(lines)
    damaged = results.read_bytes()
    capsys.readouterr()
    assert main(["sweep", str(design_path), "--out", str(out), "--resume"]) == 2
    assert capsys.readouterr().err == f"error: {results}:{row + 1}: {message}\n"
    assert results.read_bytes() == damaged


def test_sweep_tables_byte_identical(tmp_path):
    design_path = tmp_path / "design.yaml"
    design_path.write_text(
        yaml.safe_dump(
            {"base_scenario": "toy-2", "factors": [], "replications": 4, "base_seed": 0},
            sort_keys=False,
        )
    )
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", str(design_path), "--out", str(out1)]) == 0
    assert main(["sweep", str(design_path), "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_empty_factor_list_single_cell(tmp_path):
    design_path = tmp_path / "design.yaml"
    design_path.write_text(
        yaml.safe_dump(
            {"base_scenario": "toy-2", "replications": 2, "base_seed": 0},
            sort_keys=False,
        )
    )
    out = tmp_path / "sweep"
    assert main(["sweep", str(design_path), "--out", str(out)]) == 0
    with (out / "results.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert [r["seed"] for r in rows] == ["0", "1"]


def test_shipped_design_files_parse():
    designs = 0
    for path in SHIPPED_YAML:
        if "base_scenario" in yaml.safe_load(path.read_text()):
            design = load_design(str(path))
            assert design.replications >= 3
            scenario = design.base_scenario
            designs += 1
        else:
            scenario = load_scenario(str(path))
        _assert_round_trip(scenario)
    assert designs == 2 and len(SHIPPED_YAML) == 6
    toy = load_scenario(str(DATA / "toy-2.yaml"))
    assert toy.device_count() == 2


def test_design_base_scenario_relative_to_design_file(tmp_path):
    scenario_path = _write_scenario(tmp_path, name="base.yaml")
    design_path = tmp_path / "design.yaml"
    design_path.write_text(
        yaml.safe_dump(
            {"base_scenario": "base.yaml", "replications": 1, "base_seed": 0},
            sort_keys=False,
        )
    )
    design = load_design(str(design_path))
    assert design.base_scenario.device_count() == 2


def test_design_base_scenario_is_not_read_from_the_working_directory(tmp_path, monkeypatch):
    # A same-named decoy in the working directory must not shadow the file
    # beside the design.
    (tmp_path / "designs").mkdir()
    _write_scenario(tmp_path / "designs", name="base.yaml")
    decoy = scenario_to_mapping(load_scenario("small-demo"))
    (tmp_path / "base.yaml").write_text(yaml.safe_dump(decoy, sort_keys=False))
    (tmp_path / "designs" / "d.yaml").write_text(
        yaml.safe_dump({"base_scenario": "base.yaml", "replications": 1}, sort_keys=False))
    monkeypatch.chdir(tmp_path)
    design = load_design("designs/d.yaml")
    assert design.base_scenario.device_count() == 2


def test_sweep_jobs_parallel_matches_serial(tmp_path):
    design_path = tmp_path / "design.yaml"
    design_path.write_text(
        yaml.safe_dump(
            {"base_scenario": "toy-2", "factors": [], "replications": 4, "base_seed": 1},
            sort_keys=False,
        )
    )
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert main(["sweep", str(design_path), "--out", str(out1)]) == 0
    assert main(["sweep", str(design_path), "--out", str(out2), "--jobs", "2"]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_refuses_jobs_below_one(tmp_path, capsys, jobs):
    # Refused with the arguments, before the design is read or a run starts.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", str(tmp_path / "missing.yaml"), "--out", str(out), "--jobs", jobs])
    assert exit_.value.code == 2
    assert f"argument --jobs: must be at least 1, not {jobs}\n" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_refuses_huge_product(tmp_path, capsys):
    # 200^200 combinations: far beyond a float, refused from the exact count.
    mapping = scenario_to_mapping(load_scenario("small-demo"))
    mapping["devices"][0]["count"] = 200
    mapping["sampling"]["count"] = 200
    path = tmp_path / "huge.yaml"
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    assert main(["oracle", str(path)]) == 1
    err = capsys.readouterr().err
    assert "enumeration refused" in err
    assert "10^460.2" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_oracle_refuses_cap_below_one(tmp_path, capsys, cap):
    # Refused with the arguments, before the scenario is read.
    with pytest.raises(SystemExit) as exit_:
        main(["oracle", str(tmp_path / "missing.yaml"), "--cap", cap])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert f"argument --cap: must be at least 1, not {cap}\n" in captured.err
    assert captured.out == ""


# (section, key, bad value, message, text on the reported line)
BAD_VALUES = [
    ("horizon", "intervals", 12.9, "horizon.intervals must be an integer", "intervals:"),
    ("sampling", "count", "many", "sampling.count must be an integer", "count:"),
    ("network", "reorder", "yes", "network.reorder must be true or false", "reorder:"),
    ("network", "drop_probability", float("nan"), "drop_probability must be finite", "drop_"),
    ("limits", "max_sim_time_s", float("inf"), "max_sim_time_s must be finite", "max_sim"),
    ("network", "delay", {"kind": "constant", "seconds": 1.0, "extra": 2},
     "unknown key 'extra' in network.delay", "extra:"),
    ("network", "delay", {"kind": "uniform", "low_s": 0.1},
     "missing key 'high_s' in network.delay", "kind: uniform"),
    ("topology", "family", 7, "topology.family must be a string", "family:"),
    ("network", "duplicate_probability", 10**400, "duplicate_probability must be finite",
     "duplicate_"),
    # Counts the wire format cannot encode: a configuration's record count is
    # packed as "<I" and a schedule index as "<i".
    ("sampling", "count", 2**31, "sampling count must be at most 2147483647", "count:"),
    (("devices", 0), "count", 2**32, "device group count must be at most 4294967295",
     "count:"),
]


def _located_error(path: Path, load=load_scenario) -> tuple[str, str]:
    """Message of the ScenarioError that loading ``path`` raises, and the
    file line its location points at."""
    with pytest.raises(ScenarioError) as err:
        load(str(path))
    match = re.match(rf"{re.escape(str(path))}:(\d+):\d+: (.*)", str(err.value))
    assert match, str(err.value)
    return match.group(2), path.read_text().splitlines()[int(match.group(1)) - 1]


@pytest.mark.parametrize("section, key, value, message, line_text", BAD_VALUES)
def test_bad_values_rejected_with_location(tmp_path, section, key, value, message, line_text):
    path = _write_scenario(tmp_path)
    mapping = yaml.safe_load(path.read_text())
    block = mapping[section[0]][section[1]] if isinstance(section, tuple) else mapping[section]
    block[key] = value
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    reported, line = _located_error(path)
    assert message in reported
    assert line_text in line


# Values that every reader accepts and the section's dataclass refuses:
# (section, key, bad value, the whole reported message).
SECTION_REFUSALS = [
    ("limits", "max_messages", 0, "limits.max_messages must be a positive integer, got 0"),
    ("limits", "max_sim_time_s", -1.0,
     "limits.max_sim_time_s must be finite and positive, got -1.0"),
    ("network", "duplicate_probability", 1.5, "network.duplicate_probability must be in [0, 1]"),
    ("network", "drop_probability", -0.5, "network.drop_probability must be in [0, 1]"),
    ("network", "max_delay_s", -1.0,
     "network.max_delay_s: delay max_delay_bound must be finite and non-negative, got -1.0"),
    ("sampling", "attempt_factor", 0, "sampling.attempt_factor: sampling settings must be positive"),
    ("topology", "family", "star", "topology.family: unknown topology family 'star'"),
]


@pytest.mark.parametrize("section, key, value, message", SECTION_REFUSALS)
def test_section_refusal_reported_at_its_key(tmp_path, section, key, value, message):
    path = _write_scenario(tmp_path)
    mapping = yaml.safe_load(path.read_text())
    mapping[section][key] = value
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    reported, line = _located_error(path)
    assert reported == message
    assert line.strip().startswith(f"{key}:")


@pytest.mark.parametrize("section, key, value, message, ignored", [
    ("target", "power_kw", [-1.0], "target takes value_kw or power_kw, not both", "value_kw"),
    # 5 h lies outside the file's one-hour horizon.
    ("horizon", "window_hours", [0, 5],
     "horizon takes window_intervals or window_hours, not both", "window_hours"),
], ids=["target", "horizon"])
def test_a_section_that_gives_both_alternatives_is_refused(tmp_path, capsys, section, key,
                                                           value, message, ignored):
    mapping = yaml.safe_load((DATA / "toy-2.yaml").read_text())
    mapping[section][key] = value
    path = tmp_path / "sc.yaml"
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    reported, line = _located_error(path)
    assert reported == message
    assert line.strip().startswith(f"{ignored}:")
    lineno = path.read_text().splitlines().index(line) + 1
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:{lineno}:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("k", 3, "topology.k must be a positive even integer, got 3"),
    ("k", 0, "topology.k must be a positive even integer, got 0"),
    ("p", 1.5, "topology.p must be a rewire probability in [0, 1], got 1.5"),
])
def test_small_world_parameters_refused_at_their_key(tmp_path, capsys, key, value, message):
    path = _write_scenario(tmp_path, topology={"family": "small_world", "k": 2, key: value})
    reported, line = _located_error(path)
    assert reported == message
    assert line.strip().startswith(f"{key}:")
    lineno = path.read_text().splitlines().index(line) + 1
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:{lineno}:")
    assert not (tmp_path / "out").exists()


def test_small_world_k_factor_refused_at_its_values(tmp_path, capsys):
    path = tmp_path / "design.yaml"
    path.write_text("base_scenario: small-demo\nreplications: 1\n"
                    "factors:\n- path: topology.k\n  values: [4, 3]\n")
    reported, line = _located_error(path, load_design)
    assert reported == ("factor 'topology.k' value 3: "
                        "topology.k must be a positive even integer, got 3")
    assert line == "  values: [4, 3]"
    assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:5:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k", [12, 14])
def test_small_world_k_against_the_device_count_is_refused_in_a_file(tmp_path, capsys, k):
    # A scenario file knows its device count, so it is refused at its k line.
    mapping = scenario_to_mapping(load_scenario("small-demo"))
    mapping["topology"]["k"] = k
    path = tmp_path / "sc.yaml"
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    reported, line = _located_error(path)
    assert reported == f"topology.k must be smaller than the device count 12, got {k}"
    assert line.strip() == f"k: {k}"
    lineno = path.read_text().splitlines().index(line) + 1
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:{lineno}:")
    assert not (tmp_path / "out").exists()
    mapping["topology"]["k"] = 10
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    assert main(["validate", str(path)]) == 0


def test_a_factor_that_repeats_a_value_is_refused_at_its_values(tmp_path, capsys):
    path = tmp_path / "design.yaml"
    path.write_text("base_scenario: toy-2\nreplications: 2\n"
                    "factors:\n- path: network.duplicate_probability\n  values: [0.0, 0.0]\n")
    reported, line = _located_error(path, load_design)
    assert reported == "factor 'network.duplicate_probability' repeats the value 0.0"
    assert line == "  values: [0.0, 0.0]"
    assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:5:")
    assert not (tmp_path / "out").exists()


def test_small_world_k_against_the_device_count_is_refused_at_its_values(tmp_path, capsys):
    # Each cell is read as a scenario file, so a k that is not below the
    # cell's device count is refused at load, not left to a run.
    path = tmp_path / "design.yaml"
    path.write_text("base_scenario: small-demo\nreplications: 1\n"
                    "factors:\n- path: topology.k\n  values: [12]\n")
    reported, line = _located_error(path, load_design)
    assert reported == ("factor 'topology.k' value 12: "
                        "topology.k must be smaller than the device count 12, got 12")
    assert line == "  values: [12]"
    assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:5:")
    assert not (tmp_path / "out").exists()


def test_small_world_k_is_judged_against_the_cells_device_count(tmp_path):
    # The base's k=4 is not below 3 devices, so each factor alone would be
    # refused; the design's one cell has k=2 and runs.
    path = tmp_path / "design.yaml"
    path.write_text("base_scenario: small-demo\nreplications: 1\nfactors:\n"
                    "- path: devices.0.count\n  values: [3]\n"
                    "- path: topology.k\n  values: [2]\n")
    [(cell, scenario)] = load_design(str(path)).cells
    assert cell == {"devices.0.count": 3, "topology.k": 2}
    assert (scenario.device_count(), scenario.topology.k) == (3, 2)
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out", str(out)]) == 0
    with (out / "results.csv").open() as fh:
        [row] = csv.DictReader(fh)
    assert row["status"] == "ok" and row["error"] == ""
    # A cell that is refused although each of its values alone is accepted
    # is refused at factors:, with the cell named.
    path.write_text("base_scenario: small-demo\nreplications: 1\nfactors:\n"
                    "- path: devices.0.count\n  values: [5]\n"
                    "- path: topology.k\n  values: [6]\n")
    reported, line = _located_error(path, load_design)
    assert reported == ("factor 'devices.0.count' value 5, factor 'topology.k' value 6: "
                        "topology.k must be smaller than the device count 5, got 6")
    assert line == "factors:"


@pytest.mark.parametrize(
    "delay",
    [
        {"kind": "constant", "seconds": -1.0},
        {"kind": "constant", "seconds": float("nan")},
        {"kind": "uniform", "low_s": -0.5, "high_s": 0.1},
        {"kind": "uniform", "low_s": 0.0, "high_s": float("inf")},
        {"kind": "exponential", "mean_s": 0.0},
        {"kind": "exponential", "mean_s": -2.0},
    ],
)
def test_bad_delay_parameters_rejected(tmp_path, capsys, delay):
    cls, fields = _DELAYS[delay["kind"]]
    keys = [f.key for f in fields]
    with pytest.raises(StructuralError):
        cls(**{f.attr: delay[f.key] for f in fields})
    path = _write_scenario(tmp_path)
    mapping = yaml.safe_load(path.read_text())
    mapping["network"]["delay"] = delay
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    reported, line = _located_error(path)
    assert reported.startswith("network.delay")
    assert line.split(":")[0].strip() in {"delay", *keys}
    assert main(["validate", str(path)]) == 2
    assert "network.delay" in capsys.readouterr().err


# (factor path, its values, message, the reported key)
BAD_FACTORS = [
    ("sampling.count", [2, 1.7],
     "factor 'sampling.count' value 1.7: sampling.count must be an integer", "values"),
    ("network.delay", [{"kind": "uniform", "low_s": 0.1}],
     "missing key 'high_s' in network.delay", "values"),
    ("network.bogus", [1], "no key 'network.bogus' in the scenario file", "path"),
    # A section is a key of the file, and 3 is not a mapping.
    ("sampling", [3], "factor 'sampling' value 3: sampling must be a mapping", "values"),
    # An integer beyond the float range, where a probability is read.
    ("network.drop_probability", [10**400], "must be finite", "values"),
    ("devices.0.count", [2, 2**32], "device group count must be at most 4294967295", "values"),
    # The first factor sets this path already.
    ("network.duplicate_probability", [0.2],
     "factor 'network.duplicate_probability' repeats an earlier factor's path", "path"),
]


@pytest.mark.parametrize("factor, values, message, key", BAD_FACTORS,
                         ids=["non-integer-count", "delay-missing-key", "unknown-path",
                              "section-path", "huge-probability", "huge-count", "repeated-path"])
def test_bad_design_factor_reported_at_its_key(tmp_path, capsys, factor, values, message, key):
    # The bad factor is the second one, so its keys are on lines 6 and 7.
    path = tmp_path / "design.yaml"
    path.write_text(
        "base_scenario: toy-2\n"
        "replications: 2\n"
        "factors:\n"
        "- path: network.duplicate_probability\n"
        "  values: [0.0, 0.1]\n"
        f"- path: {factor}\n"
        f"  values: {json.dumps(values)}\n"
    )
    reported, line = _located_error(path, load_design)
    assert message in reported
    assert line == (f"- path: {factor}" if key == "path" else f"  values: {json.dumps(values)}")
    assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:{6 if key == 'path' else 7}:")


# Designs with two faults, each refused at one line: (factors, message, the
# reported line's number and text).
TWO_FAULTS = [
    # The second factor repeats the first one's path and also has a value
    # that is refused alone. The design checks its paths before it builds a
    # cell, so the repeated path is reported.
    ("- path: network.duplicate_probability\n  values: [0.0, 0.1]\n"
     "- path: network.duplicate_probability\n  values: [7.0]\n",
     "factor 'network.duplicate_probability' repeats an earlier factor's path",
     6, "- path: network.duplicate_probability"),
    # 1.5 and 7.0 are both refused alone. The first refused cell is (2, 7.0),
    # and of its values only 7.0 is refused alone; 1.5 is in no cell built
    # before it.
    ("- path: sampling.count\n  values: [2, 1.5]\n"
     "- path: network.drop_probability\n  values: [7.0]\n",
     "factor 'network.drop_probability' value 7.0: "
     "network.drop_probability must be in [0, 1]",
     7, "  values: [7.0]"),
]


@pytest.mark.parametrize("factors, message, lineno, line_text", TWO_FAULTS,
                         ids=["repeated-path-and-bad-value", "first-refused-cell"])
def test_a_design_with_two_faults_is_refused_at_its_first_refusal(tmp_path, capsys, factors,
                                                                 message, lineno, line_text):
    path = tmp_path / "design.yaml"
    path.write_text(f"base_scenario: toy-2\nreplications: 2\nfactors:\n{factors}")
    reported, line = _located_error(path, load_design)
    assert (reported, line) == (message, line_text)
    assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:{lineno}:")
