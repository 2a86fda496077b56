import itertools

import pytest

from cohdasim.core import PlanningHorizon, StructuralError
from cohdasim.flexibility import (
    DeviceModel,
    SamplingError,
    sample_feasible_schedules,
    simulate_tank,
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
