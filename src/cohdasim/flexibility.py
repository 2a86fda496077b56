"""Thermal-buffer device models and feasible-schedule sampling.

Devices are two-state per interval: either off or running at their rated
electrical power, while the thermal side charges a hot water tank that must
stay inside its temperature band. A device's flexibility is the matrix of
electrical power of its distinct feasible on/off patterns, one per row,
sampled with a repair strategy so that tightly buffered devices still yield
schedules. A device's power while on is never zero, so a row's on-pattern
is its nonzero entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Sequence

import numpy as np

from .core import PlanningHorizon, StructuralError

__all__ = [
    "SamplingError",
    "DeviceModel",
    "FlexibilitySet",
    "simulate_tank",
    "sample_feasible_schedules",
]

_BATCH = 256


class SamplingError(RuntimeError):
    """Could not sample the requested number of distinct feasible patterns."""

    def __init__(self, requested: int, found: int, attempts: int):
        super().__init__(
            f"found only {found} of {requested} distinct feasible patterns "
            f"within {attempts} attempts"
        )
        self.requested = requested
        self.found = found
        self.attempts = attempts


@dataclass(frozen=True)
class DeviceModel:
    """Two-state device coupled to a hot water tank.

    p_el_on       electrical power while on, kW (heat pumps negative, CHP positive)
    thermal_on    thermal power delivered to the tank while on, kW
    tank_capacity tank heat capacity, kWh per Kelvin
    loss_rate     standing loss, kW per Kelvin above ambient
    demand        thermal draw per interval, kW
    """

    kind: str  # "heat_pump" | "chp"
    p_el_on: float
    thermal_on: float
    tank_capacity: float
    loss_rate: float
    ambient: float
    demand: tuple[float, ...]
    temp_min: float
    temp_max: float
    temp_initial: float

    def __post_init__(self) -> None:
        for name in ("p_el_on", "thermal_on", "tank_capacity", "loss_rate", "ambient",
                     "temp_min", "temp_max", "temp_initial"):
            if not isfinite(getattr(self, name)):
                raise StructuralError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.kind not in ("heat_pump", "chp"):
            raise StructuralError(f"unknown device kind {self.kind!r}")
        if self.kind == "heat_pump" and not self.p_el_on < 0:
            raise StructuralError("heat pump electrical power must be negative (load)")
        if self.kind == "chp" and not self.p_el_on > 0:
            raise StructuralError("chp electrical power must be positive (generation)")
        if not self.tank_capacity > 0:
            raise StructuralError("tank capacity must be positive")
        if self.loss_rate < 0:
            raise StructuralError("loss rate must be non-negative")
        if not self.temp_min < self.temp_max:
            raise StructuralError("temperature band requires temp_min < temp_max")
        if not self.temp_min <= self.temp_initial <= self.temp_max:
            raise StructuralError("initial temperature outside the allowed band")
        demand = tuple(float(v) for v in self.demand)
        if not all(isfinite(v) and v >= 0 for v in demand):
            raise StructuralError("thermal demand must be finite and non-negative")
        object.__setattr__(self, "demand", demand)


@dataclass(frozen=True, eq=False)
class FlexibilitySet:
    """Sampled flexibility of one device: ``power`` holds the electrical
    schedules of its distinct feasible on-patterns in kW, one read-only row
    each, ``p_el_on`` where the device is on and 0.0 where it is off."""

    power: np.ndarray

    @property
    def schedules(self) -> tuple[tuple[float, ...], ...]:
        """One float tuple per row of ``power``, built on read."""
        return tuple(map(tuple, self.power.tolist()))

    @property
    def on_patterns(self) -> tuple[tuple[bool, ...], ...]:
        """One bool tuple per row of ``power``, true where it is nonzero,
        built on read."""
        return tuple(map(tuple, (self.power != 0).tolist()))


def _next_temps(device: DeviceModel, temp, t: int, k: float):
    """Tank temperature after interval ``t`` from ``temp`` (a float or an
    array), on and off: the one step of ``simulate_tank`` and of the repair,
    so a pattern that the repair marks feasible re-simulates in the band."""
    loss = device.loss_rate * (temp - device.ambient)
    next_on = temp + ((device.thermal_on - device.demand[t]) - loss) * k
    next_off = temp + ((0.0 - device.demand[t]) - loss) * k
    return next_on, next_off


def simulate_tank(
    device: DeviceModel, on: Sequence[bool] | np.ndarray, horizon: PlanningHorizon
) -> tuple[float, ...]:
    """Tank temperature trajectory (length T+1) for one on/off pattern."""
    T = horizon.interval_count
    if len(on) != T:
        raise StructuralError(f"pattern length {len(on)} does not match horizon {T}")
    if len(device.demand) != T:
        raise StructuralError("device demand length does not match horizon")
    k = horizon.interval_duration / device.tank_capacity
    temp = device.temp_initial
    trajectory = [temp]
    for t, state in enumerate(on):
        next_on, next_off = _next_temps(device, temp, t, k)
        temp = next_on if state else next_off
        trajectory.append(temp)
    return tuple(trajectory)


def _repair_batch(
    device: DeviceModel, coins: np.ndarray, horizon: PlanningHorizon
) -> tuple[np.ndarray, np.ndarray]:
    """Turn random coin proposals into repaired on-patterns.

    Whenever the proposed state would cross a temperature bound, the
    corrective state is forced (off when overheating, on when underheating).
    Returns the pattern matrix and a feasibility mask; rows stay infeasible
    only when even the corrective state violates a bound.
    """
    batch, T = coins.shape
    k = horizon.interval_duration / device.tank_capacity
    temp = np.full(batch, device.temp_initial, dtype=np.float64)
    on = np.zeros((batch, T), dtype=bool)
    feasible = np.ones(batch, dtype=bool)
    for t in range(T):
        next_on, next_off = _next_temps(device, temp, t, k)
        choose = coins[:, t].copy()
        choose[next_on > device.temp_max] = False
        choose[next_off < device.temp_min] = True
        temp = np.where(choose, next_on, next_off)
        feasible &= (temp >= device.temp_min) & (temp <= device.temp_max)
        on[:, t] = choose
    return on, feasible


def sample_feasible_schedules(
    device: DeviceModel,
    count: int,
    horizon: PlanningHorizon,
    seed: int,
    attempt_budget: int,
) -> FlexibilitySet:
    """Sample exactly ``count`` distinct feasible on-patterns for a device.

    Patterns are proposed interval-by-interval with probability 0.5 and
    repaired at the temperature bounds; exact duplicates are rejected.
    Deterministic under ``seed``. Raises ``SamplingError`` (reporting how
    many were found) if ``attempt_budget`` proposals run out first.
    """
    if count < 1:
        raise StructuralError("count must be at least 1")
    if len(device.demand) != horizon.interval_count:
        raise StructuralError("device demand length does not match horizon")
    rng = np.random.default_rng(seed)
    rows: list[np.ndarray] = []
    seen: set[bytes] = set()
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
        raise SamplingError(count, len(rows), attempts)
    power = np.where(np.array(rows), device.p_el_on, 0.0)
    power.setflags(write=False)
    return FlexibilitySet(power)
