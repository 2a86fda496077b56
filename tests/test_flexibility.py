import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cohdasim.core import PlanningHorizon, StructuralError
from cohdasim.flexibility import (
    _BATCH,
    DeviceModel,
    SamplingError,
    _repair_batch,
    sample_device_group,
    sample_feasible_schedules,
    simulate_tank,
)
from cohdasim.scenario import (
    build_epex_scenario,
    build_small_demo_scenario,
    build_toy2_scenario,
    materialize,
    mix_seed,
)


def _device(**overrides):
    base = dict(
        kind="heat_pump",
        p_el_on=-2.0,
        thermal_on=8.0,
        tank_capacity=0.581,
        loss_rate=0.01,
        ambient=20.0,
        demand=(1.5, 1.5, 1.5),
        temp_min=40.0,
        temp_max=50.0,
        temp_initial=45.0,
    )
    base.update(overrides)
    return DeviceModel(**base)


def test_device_validation():
    with pytest.raises(StructuralError):
        _device(kind="boiler")
    with pytest.raises(StructuralError):
        _device(p_el_on=2.0)  # heat pump must be a load
    with pytest.raises(StructuralError):
        _device(kind="chp")  # chp must generate
    # A row's on-pattern is its nonzero power entries, which needs these.
    for kind, p_el_on in [("heat_pump", 0.0), ("heat_pump", -0.0), ("chp", 0.0)]:
        with pytest.raises(StructuralError):
            _device(kind=kind, p_el_on=p_el_on)
    with pytest.raises(StructuralError):
        _device(tank_capacity=0.0)
    with pytest.raises(StructuralError):
        _device(temp_min=50.0, temp_max=40.0)
    with pytest.raises(StructuralError):
        _device(temp_initial=60.0)
    with pytest.raises(StructuralError):
        _device(demand=(-1.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "name",
    ["p_el_on", "thermal_on", "tank_capacity", "loss_rate", "ambient",
     "temp_min", "temp_max", "temp_initial"],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_device_rejects_non_finite_parameters(name, value):
    with pytest.raises(StructuralError, match=f"{name} must be finite"):
        _device(**{name: value})


def test_tank_constant_without_flux():
    horizon = PlanningHorizon(3, 0.25, (0,))
    device = _device(demand=(0.0, 0.0, 0.0), loss_rate=0.0)
    traj = simulate_tank(device, (False, False, False), horizon)
    assert traj == (45.0, 45.0, 45.0, 45.0)


def test_tank_single_on_interval_arithmetic():
    # 8 kW thermal for 0.25 h into 0.581 kWh/K: +3.442 K.
    horizon = PlanningHorizon(1, 0.25, (0,))
    device = _device(demand=(0.0,), loss_rate=0.0, temp_max=60.0)
    traj = simulate_tank(device, (True,), horizon)
    assert traj[0] == 45.0
    assert traj[1] == pytest.approx(45.0 + 8.0 * 0.25 / 0.581, abs=1e-9)
    assert traj[1] == pytest.approx(48.442, abs=1e-3)


def test_tank_strictly_decreasing_with_loss_only():
    horizon = PlanningHorizon(4, 1.0, (0,))
    device = _device(demand=(0.0,) * 4, loss_rate=0.5, temp_min=0.0)
    traj = simulate_tank(device, (False,) * 4, horizon)
    assert all(b < a for a, b in zip(traj, traj[1:]))


def test_tank_pattern_length_mismatch():
    horizon = PlanningHorizon(3, 0.25, (0,))
    with pytest.raises(StructuralError):
        simulate_tank(_device(), (True,), horizon)


def test_sampler_enumerates_everything_when_unconstrained():
    horizon = PlanningHorizon(3, 0.25, (0,))
    device = _device(
        demand=(0.0, 0.0, 0.0),
        loss_rate=0.0,
        temp_min=0.0,
        temp_max=1000.0,
        temp_initial=500.0,
    )
    flex = sample_feasible_schedules(device, 8, horizon, seed=4, attempt_budget=400)
    assert len(flex.schedules) == 8
    assert set(flex.on_patterns) == set(itertools.product((False, True), repeat=3))


def test_sampler_count_one_always_feasible():
    horizon = PlanningHorizon(6, 0.25, (0,))
    device = _device(demand=(1.5,) * 6)
    flex = sample_feasible_schedules(device, 1, horizon, seed=0, attempt_budget=50)
    traj = simulate_tank(device, flex.on_patterns[0], horizon)
    assert all(device.temp_min <= v <= device.temp_max for v in traj)


def test_sampler_deterministic_under_seed():
    horizon = PlanningHorizon(8, 0.25, (0,))
    device = _device(demand=(1.5,) * 8)
    a = sample_feasible_schedules(device, 10, horizon, seed=11, attempt_budget=500)
    b = sample_feasible_schedules(device, 10, horizon, seed=11, attempt_budget=500)
    assert a.on_patterns == b.on_patterns
    assert a.schedules == b.schedules
    c = sample_feasible_schedules(device, 10, horizon, seed=12, attempt_budget=500)
    assert a.on_patterns != c.on_patterns


def test_sampler_exhaustion_reports_found():
    horizon = PlanningHorizon(2, 0.25, (0,))
    device = _device(
        demand=(0.0, 0.0),
        loss_rate=0.0,
        temp_min=0.0,
        temp_max=1000.0,
        temp_initial=500.0,
    )
    with pytest.raises(SamplingError) as err:
        sample_feasible_schedules(device, 10, horizon, seed=1, attempt_budget=500)  # only 4 exist
    assert err.value.found == 4
    assert err.value.requested == 10


def test_feasibility_soundness_and_power_consistency():
    horizon = PlanningHorizon(12, 0.25, (0,))
    for device in (
        _device(demand=(1.5,) * 12),
        _device(
            kind="chp",
            p_el_on=5.0,
            thermal_on=12.5,
            demand=(0.5,) * 12,
            temp_min=50.0,
            temp_max=70.0,
            temp_initial=60.0,
        ),
    ):
        flex = sample_feasible_schedules(device, 25, horizon, seed=3, attempt_budget=1250)
        assert len(set(flex.on_patterns)) == 25
        for pattern, schedule in zip(flex.on_patterns, flex.schedules):
            traj = simulate_tank(device, pattern, horizon)
            assert all(device.temp_min <= v <= device.temp_max for v in traj)
            assert schedule == tuple(
                device.p_el_on if on else 0.0 for on in pattern
            )


def _reference_sample(device, count, horizon, seed, attempt_budget):
    """One device sampled on its own, one batch after another: the
    reference for the group sampler. Returns the power table, or the
    SamplingError that sampling it raises."""
    rng = np.random.default_rng(seed)
    rows = []
    seen = set()
    attempts = 0
    while attempts < attempt_budget and len(rows) < count:
        batch = min(_BATCH, attempt_budget - attempts)
        attempts += batch
        coins = rng.random((batch, horizon.interval_count)) < 0.5
        on, feasible = _repair_batch(device, coins, horizon)
        keys = np.packbits(on, axis=1)
        for row in np.flatnonzero(feasible):
            key = keys[row].tobytes()
            if key in seen:
                continue
            seen.add(key)
            rows.append(on[row])
            if len(rows) == count:
                break
    if len(rows) < count:
        return SamplingError(count, len(rows), attempts)
    return np.where(np.array(rows), device.p_el_on, 0.0)


def _assert_group_equals_reference(device, count, horizon, seeds, budget):
    expected = [_reference_sample(device, count, horizon, seed, budget) for seed in seeds]
    failing = [d for d, out in enumerate(expected) if isinstance(out, SamplingError)]
    if failing:
        # The lowest failing device is refused, with its own counts.
        with pytest.raises(SamplingError) as err:
            sample_device_group(device, count, horizon, seeds, budget)
        want = expected[failing[0]]
        assert (err.value.requested, err.value.found, err.value.attempts, err.value.position) == (
            want.requested, want.found, want.attempts, failing[0])
        return failing
    got = sample_device_group(device, count, horizon, seeds, budget)
    assert len(got) == len(seeds)
    for flex, power in zip(got, expected):
        assert flex.power.shape == power.shape
        assert flex.power.tobytes() == power.tobytes()
    return failing


@st.composite
def _tight_groups(draw):
    """A device with a tight temperature band, so that a few dozen distinct
    feasible patterns exist and finding them takes several rounds, with a
    count just below their number and a budget that some seeds need and
    others do not."""
    T = draw(st.sampled_from([8, 10]))
    width = draw(st.sampled_from([3.0, 3.5, 4.0, 4.5]))
    device = _device(demand=(1.5,) * T, temp_min=45.0 - width, temp_max=45.0 + width)
    horizon = PlanningHorizon(T, 0.25, (0,))
    # Every repaired pattern is the repair of some coin sequence.
    coins = np.array(list(itertools.product((False, True), repeat=T)))
    on, feasible = _repair_batch(device, coins, horizon)
    exist = len({row.tobytes() for row in on[feasible]})
    count = max(1, exist - draw(st.integers(0, 3)))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=6))
    budget = draw(st.integers(1, 10)) * _BATCH - draw(st.sampled_from([0, 0, 1, 100]))
    return device, count, horizon, seeds, budget


@given(_tight_groups())
def test_group_sampler_equals_one_device_reference(case):
    _assert_group_equals_reference(*case)


def test_group_sampler_refuses_the_lowest_short_device():
    # 90 distinct feasible patterns exist. Seeds 0-4 find 88 of them in
    # different numbers of rounds, seeds 1 and 4 not within 6 rounds: the
    # error is device 1's, with its own found count.
    device = _device(demand=(1.5,) * 10, temp_min=41.0, temp_max=49.0)
    horizon = PlanningHorizon(10, 0.25, (0,))
    seeds = [0, 1, 2, 3, 4]
    assert _assert_group_equals_reference(device, 88, horizon, seeds, 6 * _BATCH) == [1, 4]
    assert _assert_group_equals_reference(device, 88, horizon, seeds, 8 * _BATCH) == []


@pytest.mark.parametrize("build, seeds", [
    (build_epex_scenario, (0, 1, 2)),
    (build_small_demo_scenario, (0, 3)),
    (build_toy2_scenario, (0, 3)),
])
def test_materialize_samples_each_device_as_alone(build, seeds):
    # Seeds run over the devices of all groups; EPEX has three groups.
    scenario = build()
    sampling = scenario.sampling
    for run_seed in seeds:
        mat = materialize(scenario, run_seed)
        assert len(mat.flexibility) == scenario.device_count()
        for index, (model, flex) in enumerate(zip(mat.devices, mat.flexibility)):
            power = _reference_sample(
                model, sampling.count, scenario.horizon,
                mix_seed("sampling", scenario.seeds.sampling, run_seed, index),
                sampling.attempt_factor * sampling.count)
            assert flex.power.tobytes() == power.tobytes(), (run_seed, mat.device_ids[index])
