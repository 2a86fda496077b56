import csv
import json
import re
from pathlib import Path

import pytest
import yaml

from cohdasim.cli import main
from cohdasim.schema import (
    ScenarioError,
    load_design,
    load_scenario,
    parse_scenario_mapping,
    scenario_to_mapping,
)
from cohdasim.core import StructuralError
from cohdasim.scenario import BUILTIN_SCENARIOS, build_small_demo_scenario, build_toy2_scenario
from cohdasim.simnet import DELAY_KINDS

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "cohdasim" / "data"
# Every shipped scenario or design file; perfbench/fleet.yaml is only read.
SHIPPED_YAML = sorted(DATA.glob("*.yaml")) + [ROOT / "perfbench" / "fleet.yaml"]


def _write_scenario(tmp_path, name="sc.yaml", **edits):
    mapping = scenario_to_mapping(build_toy2_scenario())
    mapping.update(edits)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    return path


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
    for builder in BUILTIN_SCENARIOS.values():
        _assert_round_trip(builder())


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
    mapping = scenario_to_mapping(build_toy2_scenario())
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
    mapping = scenario_to_mapping(build_toy2_scenario())
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
    assert designs == 2 and len(SHIPPED_YAML) == 4
    toy = load_scenario(str(DATA / "toy2_scenario.yaml"))
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


def test_oracle_refuses_huge_product(tmp_path, capsys):
    # 200^200 combinations: far beyond a float, refused from the exact count.
    mapping = scenario_to_mapping(build_small_demo_scenario())
    mapping["devices"][0]["count"] = 200
    mapping["sampling"]["count"] = 200
    path = tmp_path / "huge.yaml"
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    assert main(["oracle", str(path)]) == 1
    err = capsys.readouterr().err
    assert "enumeration refused" in err
    assert "10^460.2" in err


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
]


def _located_error(path: Path) -> tuple[str, str]:
    """Message of the ScenarioError that loading ``path`` raises, and the
    file line its location points at."""
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    match = re.match(rf"{re.escape(str(path))}:(\d+):\d+: (.*)", str(err.value))
    assert match, str(err.value)
    return match.group(2), path.read_text().splitlines()[int(match.group(1)) - 1]


@pytest.mark.parametrize("section, key, value, message, line_text", BAD_VALUES)
def test_bad_values_rejected_with_location(tmp_path, section, key, value, message, line_text):
    path = _write_scenario(tmp_path)
    mapping = yaml.safe_load(path.read_text())
    mapping[section][key] = value
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    reported, line = _located_error(path)
    assert message in reported
    assert line_text in line


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
    cls, keys = DELAY_KINDS[delay["kind"]]
    with pytest.raises(StructuralError):
        cls(*(delay[key] for key in keys))
    path = _write_scenario(tmp_path)
    mapping = yaml.safe_load(path.read_text())
    mapping["network"]["delay"] = delay
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    reported, line = _located_error(path)
    assert reported.startswith("network.delay")
    assert line.split(":")[0].strip() in {"delay", *keys}
    assert main(["validate", str(path)]) == 2
    assert "network.delay" in capsys.readouterr().err
