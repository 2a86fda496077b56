import dataclasses

import numpy as np
import pytest

from cohdasim.core import DegenerateTargetError, StructuralError
from cohdasim.scenario import (
    BUILTIN_SCENARIOS,
    DeviceGroup,
    build_epex_scenario,
    build_small_demo_scenario,
    build_toy2_scenario,
    materialize,
    mix_seed,
    with_param,
)
from cohdasim.schema import UnknownPathError, parse_scenario_mapping, scenario_to_mapping, with_keys
from cohdasim.simnet import ConstantDelay, ExponentialDelay, UniformDelay
from cohdasim.topology import is_connected, small_world


def test_epex_scenario_shape():
    sc = build_epex_scenario()
    assert sc.device_count() == 123  # 111 heat pumps + 4 + 8 CHP
    assert sc.horizon.interval_count == 96
    assert sc.horizon.interval_duration == 0.25
    # Delivery window covers 09:00 to 21:00, twelve hours.
    assert len(sc.horizon.product_window) == 48
    assert sc.horizon.product_window[0] == 36
    assert sc.horizon.product_window[-1] == 83
    for t in sc.horizon.product_window:
        assert sc.target.power[t] == -100.0
    assert sc.sampling.count == 200
    by_prefix = {g.prefix: g for g in sc.devices}
    assert by_prefix["hp"].count == 111
    assert by_prefix["hp"].model.p_el_on == -2.0
    assert (by_prefix["hp"].model.temp_min, by_prefix["hp"].model.temp_max) == (40.0, 50.0)
    assert by_prefix["chps"].count == 4
    assert by_prefix["chps"].model.p_el_on == 1.0
    assert by_prefix["chpl"].count == 8
    assert by_prefix["chpl"].model.p_el_on == 5.0
    for prefix in ("chps", "chpl"):
        model = by_prefix[prefix].model
        assert (model.temp_min, model.temp_max) == (50.0, 70.0)


def test_builtin_registry():
    assert set(BUILTIN_SCENARIOS) == {"epex-peakload", "toy-2", "small-demo"}
    for name, builder in BUILTIN_SCENARIOS.items():
        assert builder().name == name


def test_scenario_rejects_zero_window_target():
    sc = build_toy2_scenario()
    with pytest.raises(DegenerateTargetError):
        dataclasses.replace(sc, target=dataclasses.replace(sc.target, power=(0.0,)))


def test_materialize_deterministic_and_connected():
    sc = build_small_demo_scenario()
    a = materialize(sc, 3)
    b = materialize(sc, 3)
    assert a.device_ids == b.device_ids
    assert [x.neighbors for x in a.agents] == [y.neighbors for y in b.agents]
    assert all(x.on_patterns == y.on_patterns for x, y in zip(a.flexibility, b.flexibility))
    assert a.network_seed == b.network_seed
    assert is_connected({x.agent_id: x.neighbors for x in a.agents})
    c = materialize(sc, 4)
    assert any(x.on_patterns != y.on_patterns for x, y in zip(a.flexibility, c.flexibility))


def test_materialize_ids_and_neighbors():
    sc = build_small_demo_scenario()
    mat = materialize(sc, 0)
    assert mat.device_ids[0] == "dev000"
    assert len(mat.device_ids) == 12
    ids = [f"dev{i:03d}" for i in range(12)]
    neighbors = small_world(ids, 4, 0.1, mix_seed("topology", sc.seeds.topology, 0))
    for agent in mat.agents:
        assert agent.neighbors == neighbors[agent.agent_id]
        assert len(agent.window_matrix) == sc.sampling.count


@pytest.mark.parametrize("builder, seed", [(build_small_demo_scenario, 0),
                                           (build_small_demo_scenario, 7),
                                           (build_epex_scenario, 0)],
                         ids=["small-demo-0", "small-demo-7", "epex-0"])
def test_materialize_tables(refuse_records, builder, seed):
    scenario = builder()
    mat = materialize(scenario, seed)

    fleet = mat.fleet
    w = scenario.horizon.window_index
    assert fleet.rows.flags.c_contiguous
    for aid, device, flex in zip(mat.device_ids, mat.devices, mat.flexibility):
        for schedule, pattern in zip(flex.schedules, flex.on_patterns, strict=True):
            assert schedule == tuple(device.p_el_on if v else 0.0 for v in pattern)
        # The fleet shares the sampler's read-only power matrix.
        assert fleet.power[fleet.position[aid]] is flex.power
        window = fleet.windows[fleet.position[aid]]
        assert np.array_equal(window, flex.power[:, w])
        # The decide step's per-row sums depend on this order bit for bit.
        assert window.flags.f_contiguous


def test_mix_seed_stable_and_distinct():
    assert mix_seed("a", 1, 2) == mix_seed("a", 1, 2)
    assert mix_seed("a", 1, 2) != mix_seed("a", 1, 3)
    assert mix_seed("sampling", 0, 0) != mix_seed("network", 0, 0)


def test_with_param_scalar_paths():
    sc = build_small_demo_scenario()
    sc2 = with_param(sc, "network.duplicate_probability", 0.25)
    assert sc2.network.duplicate_probability == 0.25
    assert sc.network.duplicate_probability == 0.0
    sc3 = with_param(sc, "topology.k", 6)
    assert sc3.topology.k == 6
    sc4 = with_param(sc, "devices.0.count", 20)
    assert sc4.devices[0].count == 20
    assert sc4.device_count() == 20
    sc5 = with_param(sc, "sampling.count", 5)
    assert sc5.sampling.count == 5


def test_with_param_delay_mapping():
    sc = build_small_demo_scenario()
    sc2 = with_param(sc, "network.delay", {"kind": "exponential", "mean_s": 0.4})
    assert sc2.network.delay == ExponentialDelay(0.4)
    sc3 = with_param(sc, "network.delay", {"kind": "uniform", "low_s": 0.0, "high_s": 1.0})
    assert sc3.network.delay == UniformDelay(0.0, 1.0)
    assert sc.network.delay == ConstantDelay(0.05)


def test_with_param_unknown_path():
    sc = build_small_demo_scenario()
    with pytest.raises(StructuralError):
        with_param(sc, "network.bogus", 1)
    with pytest.raises(StructuralError):
        with_param(sc, "devices.9.count", 1)


@pytest.mark.parametrize("path, value", [("sampling.bogus", 3), ("name.first", 3),
                                         ("horizon.window_intervals.1", 3), ("devices.².count", 3)],
                         ids=["section", "name", "horizon", "index"])
def test_with_param_refuses_paths_that_end_at_no_parameter(path, value):
    # A key the section lacks, a key below a string, an index past a list, a
    # digit that is no index.
    with pytest.raises(UnknownPathError, match=f"no key '{path}' in the scenario file"):
        with_param(build_toy2_scenario(), path, value)


def test_with_param_leaf_kinds():
    sc = build_small_demo_scenario()
    assert with_param(sc, "network.max_delay_s", 2).network.max_delay_bound == 2.0
    assert with_param(sc, "network.reorder", False).network.reorder is False
    assert with_param(sc, "topology.family", "ring").topology.family == "ring"
    for path, value in [("topology.family", 3), ("network.reorder", 1), ("topology.k", 2.5),
                        ("network.delay", 0.1), ("devices.0.model.demand.3", 1.0),
                        ("network.duplicate_probability", 10**400),
                        ("sampling.count", 2**31), ("devices.0.count", 2**32)]:
        with pytest.raises(StructuralError):
            with_param(sc, path, value)


def _paths(node, prefix=""):
    """Every dotted path of a dumped scenario mapping, sections included."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield f"{prefix}{key}"
        if isinstance(child, (dict, list)):
            yield from _paths(child, f"{prefix}{key}.")


# (factor path, value, the same edit made by hand to the dumped scenario
# file), for each kind of reader.
FILE_EDITS = [
    ("sampling.count", 5, lambda m: m["sampling"].update(count=5)),
    ("network.duplicate_probability", 0.25,
     lambda m: m["network"].update(duplicate_probability=0.25)),
    ("network.reorder", False, lambda m: m["network"].update(reorder=False)),
    ("topology.family", "ring", lambda m: m["topology"].update(family="ring")),
    ("network.delay", {"kind": "exponential", "mean_s": 0.4},
     lambda m: m["network"].update(delay={"kind": "exponential", "mean_s": 0.4})),
    ("devices.0.demand_kw", [1.5] * 12, lambda m: m["devices"][0].update(demand_kw=[1.5] * 12)),
    ("devices.0.demand_kw.4", 3.0, lambda m: m["devices"][0]["demand_kw"].__setitem__(4, 3.0)),
    ("target.value_kw", -6.0, lambda m: m.update(target={"value_kw": -6.0})),
    ("horizon.window_hours", [2, 10], lambda m: m.update(
        horizon={"intervals": 12, "interval_hours": 1.0, "window_hours": [2, 10]})),
    ("sampling", {"count": 7}, lambda m: m.update(sampling={"count": 7})),
]


@pytest.mark.parametrize("path, value, edit", FILE_EDITS, ids=[p for p, _, _ in FILE_EDITS])
def test_a_factor_equals_a_file_edit(path, value, edit):
    base = build_small_demo_scenario()
    mapping = scenario_to_mapping(base)
    edit(mapping)
    edited = parse_scenario_mapping(mapping)
    assert with_param(base, path, value) == edited != base
    # Every key of the edited file set to its own dumped value changes nothing.
    dump = scenario_to_mapping(edited)
    for key in _paths(dump):
        own = dump
        for part in key.split("."):
            own = own[int(part) if isinstance(own, list) else part]
        assert with_param(edited, key, own) == edited, key


def test_a_path_into_an_earlier_paths_value_leaves_it_as_it_is():
    base = build_small_demo_scenario()
    group = scenario_to_mapping(base)["devices"][0]
    scenario = with_keys(base, {"devices.0": group, "devices.0.count": 6})
    assert scenario.devices[0].count == 6
    assert group == scenario_to_mapping(base)["devices"][0]


def test_device_group_validation():
    sc = build_toy2_scenario()
    with pytest.raises(StructuralError):
        DeviceGroup("x", 0, sc.devices[0].model)
    with pytest.raises(StructuralError):
        dataclasses.replace(sc, devices=(sc.devices[0], sc.devices[0]))
    # A configuration's record count is packed as "<I", a schedule index as "<i".
    model = sc.devices[0].model
    assert DeviceGroup("x", 2**32 - 1, model).count == 2**32 - 1
    with pytest.raises(StructuralError, match="device group count"):
        DeviceGroup("x", 2**32, model)
    halves = (DeviceGroup("x", 2**31, model), DeviceGroup("y", 2**31, model))
    with pytest.raises(StructuralError, match="scenario device count"):
        dataclasses.replace(sc, devices=halves)
    assert with_param(sc, "sampling.count", 2**31 - 1).sampling.count == 2**31 - 1
