"""Scenario descriptions: the full declarative input of one experiment.

A scenario lists device groups, the planning horizon and target, the
overlay family, the network disturbance model, sampling settings, seeds
and run limits. Everything derived from it (flexibility sets, overlay,
agents) is materialized deterministically from the scenario seeds mixed
with a per-run seed, so that runs, oracles and the uncontrolled baseline
all see the same instance for the same (scenario, seed) pair.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Sequence

from . import topology
from .agent import AgentState
from .core import Fleet, PlanningHorizon, StructuralError, TargetProfile, coverage
# ``sample_feasible_schedules`` is not called here, but perfbench's traced
# repetition wraps it under this module's name.
from .flexibility import (  # noqa: F401
    DeviceModel,
    FlexibilitySet,
    SamplingError,
    sample_device_group,
    sample_feasible_schedules,
)
from .simnet import (
    ConstantDelay,
    NetworkModel,
    RunLimits,
    UniformDelay,
)
from .wire import MAX_RECORDS, MAX_SCHEDULES

__all__ = [
    "DeviceGroup",
    "TopologySpec",
    "SamplingSpec",
    "SeedBlock",
    "Scenario",
    "Materialized",
    "mix_seed",
    "materialize",
    "with_param",
    "build_epex_scenario",
    "build_toy2_scenario",
    "build_small_demo_scenario",
    "BUILTIN_SCENARIOS",
]


@dataclass(frozen=True)
class DeviceGroup:
    """``count`` devices sharing one parameter template; ids are
    ``{prefix}{000..}``. Per-device overrides become singleton groups."""

    prefix: str
    count: int
    model: DeviceModel

    def __post_init__(self) -> None:
        if self.count < 1:
            raise StructuralError("device group count must be at least 1")
        if self.count > MAX_RECORDS:
            raise StructuralError(f"device group count must be at most {MAX_RECORDS}")


@dataclass(frozen=True)
class TopologySpec:
    family: str = "small_world"  # ring | small_world | complete
    k: int = 4
    p: float = 0.1

    def __post_init__(self) -> None:
        if self.family not in ("ring", "small_world", "complete"):
            raise StructuralError(f"unknown topology family {self.family!r}")
        if self.family == "small_world":
            topology.check_small_world(self.k, self.p)


@dataclass(frozen=True)
class SamplingSpec:
    count: int = 200
    attempt_factor: int = 50

    def __post_init__(self) -> None:
        if self.count < 1 or self.attempt_factor < 1:
            raise StructuralError("sampling settings must be positive")
        if self.count > MAX_SCHEDULES:
            raise StructuralError(f"sampling count must be at most {MAX_SCHEDULES}")


@dataclass(frozen=True)
class SeedBlock:
    sampling: int = 0
    topology: int = 1
    network: int = 2


@dataclass(frozen=True)
class Scenario:
    name: str
    horizon: PlanningHorizon
    target: TargetProfile
    devices: tuple[DeviceGroup, ...]
    topology: TopologySpec = TopologySpec()
    network: NetworkModel = NetworkModel()
    sampling: SamplingSpec = SamplingSpec()
    seeds: SeedBlock = SeedBlock()
    limits: RunLimits = RunLimits()

    def __post_init__(self) -> None:
        # Refuses a target of another length, or one all-zero on the window.
        coverage(0.0, self.target, self.horizon)
        if not self.devices:
            raise StructuralError("scenario needs at least one device group")
        prefixes = [g.prefix for g in self.devices]
        if len(set(prefixes)) != len(prefixes):
            raise StructuralError("device group prefixes must be unique")
        if self.device_count() > MAX_RECORDS:
            raise StructuralError(f"scenario device count must be at most {MAX_RECORDS}")

    def device_count(self) -> int:
        return sum(g.count for g in self.devices)


def mix_seed(*parts) -> int:
    """Stable 63-bit seed derived from arbitrary labeled parts."""
    h = hashlib.sha256()
    for p in parts:
        h.update(str(p).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:8], "little") >> 1


@dataclass(frozen=True)
class Materialized:
    """Concrete instance of a scenario under one run seed."""

    scenario: Scenario
    device_ids: tuple[str, ...]
    devices: tuple[DeviceModel, ...]
    flexibility: tuple[FlexibilitySet, ...]
    agents: tuple[AgentState, ...]
    network_seed: int

    @property
    def fleet(self) -> Fleet:
        """The run's fleet table, which every agent references."""
        return self.agents[0].fleet


def _expand_devices(scenario: Scenario) -> tuple[tuple[str, ...], tuple[DeviceModel, ...]]:
    ids: list[str] = []
    models: list[DeviceModel] = []
    for group in scenario.devices:
        for i in range(group.count):
            ids.append(f"{group.prefix}{i:03d}")
            models.append(group.model)
    if len(set(ids)) != len(ids):
        raise StructuralError("expanded device ids collide")
    return tuple(ids), tuple(models)


def _neighbors(spec: TopologySpec, ids: Sequence[str], seed: int) -> dict[str, tuple[str, ...]]:
    if spec.family == "ring":
        return topology.ring(ids)
    if spec.family == "complete":
        return topology.complete(ids)
    return topology.small_world(ids, spec.k, spec.p, seed)


def materialize(scenario: Scenario, run_seed: int = 0) -> Materialized:
    """Expand device groups, sample flexibility sets, build the overlay's
    neighbor lists and construct agents over one fleet table, all
    deterministically from (scenario, run_seed)."""
    ids, models = _expand_devices(scenario)
    sampling = scenario.sampling
    budget = sampling.attempt_factor * sampling.count
    flexibility: list[FlexibilitySet] = []
    for group in scenario.devices:
        # Seeds run over the devices of all groups, in id order.
        first = len(flexibility)
        seeds = [mix_seed("sampling", scenario.seeds.sampling, run_seed, first + i)
                 for i in range(group.count)]
        try:
            flexibility += sample_device_group(
                group.model, sampling.count, scenario.horizon, seeds, budget)
        except SamplingError as exc:
            raise SamplingError(exc.requested, exc.found, exc.attempts, exc.position,
                                ids[first + exc.position]) from None
    neighbors = _neighbors(
        scenario.topology, ids, mix_seed("topology", scenario.seeds.topology, run_seed)
    )
    fleet = Fleet({aid: flex.power for aid, flex in zip(ids, flexibility)}, scenario.horizon)
    agents = tuple(AgentState(aid, fleet, neighbors[aid]) for aid in ids)
    return Materialized(
        scenario=scenario,
        device_ids=ids,
        devices=models,
        flexibility=tuple(flexibility),
        agents=agents,
        network_seed=mix_seed("network", scenario.seeds.network, run_seed),
    )


def with_param(scenario: Scenario, path: str, value) -> Scenario:
    """A copy of the scenario with one dotted path of its scenario file, e.g.
    ``devices.0.count``, set to ``value``: ``schema.with_keys`` of one key."""
    from .schema import with_keys  # the schema module imports this one

    return with_keys(scenario, {path: value})


def build_epex_scenario() -> Scenario:
    """EPEX-style Peakload block scenario.

    123 devices at a typical medium-voltage node: 111 geothermal heat pumps
    at -2 kW plus 4 small and 8 large CHP units (+1 kW / +5 kW). The target
    is a constant -100 kW block between 09:00 and 21:00 on a 24 h horizon
    at 15 minute resolution; 200 sampled schedules per device.

    Thermal parameters are simplified stand-ins sized so that the fleet can
    actually sustain the block: heat pump tanks draw 4 kW so roughly half
    the pumps can run at any time during the window, and CHP tanks draw
    little enough that the units can stay mostly silent while the block is
    delivered.
    """
    T = 96
    dt = 0.25
    window = tuple(range(int(9 / dt), int(21 / dt)))
    horizon = PlanningHorizon(T, dt, window)
    target_values = [0.0] * T
    for t in window:
        target_values[t] = -100.0
    heat_pump = DeviceModel(
        kind="heat_pump",
        p_el_on=-2.0,
        thermal_on=8.0,
        tank_capacity=0.581,
        loss_rate=0.01,
        ambient=20.0,
        demand=(3.5,) * T,
        temp_min=40.0,
        temp_max=50.0,
        temp_initial=45.0,
    )
    chp_small = DeviceModel(
        kind="chp",
        p_el_on=1.0,
        thermal_on=2.5,
        tank_capacity=0.581,
        loss_rate=0.01,
        ambient=20.0,
        demand=(0.5,) * T,
        temp_min=50.0,
        temp_max=70.0,
        temp_initial=60.0,
    )
    chp_large = dataclasses.replace(chp_small, p_el_on=5.0, thermal_on=12.5)
    return Scenario(
        name="epex-peakload",
        horizon=horizon,
        target=TargetProfile(tuple(target_values)),
        devices=(
            DeviceGroup("hp", 111, heat_pump),
            DeviceGroup("chps", 4, chp_small),
            DeviceGroup("chpl", 8, chp_large),
        ),
        topology=TopologySpec("small_world", k=4, p=0.1),
        network=NetworkModel(delay=UniformDelay(0.01, 0.2)),
        sampling=SamplingSpec(count=200),
        seeds=SeedBlock(0, 0, 0),
        limits=RunLimits(max_sim_time=86_400.0, max_messages=2_000_000),
    )


def build_toy2_scenario() -> Scenario:
    """Two single-device groups over one interval; small enough that the
    optimum (-2 plus -3 matching a -5 kW target) is obvious by hand."""
    horizon = PlanningHorizon(1, 1.0, (0,))
    base = dict(
        kind="heat_pump",
        thermal_on=8.0,
        tank_capacity=1.0,
        loss_rate=0.0,
        ambient=20.0,
        demand=(0.0,),
        temp_min=0.0,
        temp_max=1000.0,
        temp_initial=500.0,
    )
    return Scenario(
        name="toy-2",
        horizon=horizon,
        target=TargetProfile((-5.0,)),
        devices=(
            DeviceGroup("a", 1, DeviceModel(p_el_on=-2.0, **base)),
            DeviceGroup("b", 1, DeviceModel(p_el_on=-3.0, **base)),
        ),
        topology=TopologySpec("ring"),
        network=NetworkModel(delay=ConstantDelay(1.0)),
        sampling=SamplingSpec(count=2),
        seeds=SeedBlock(0, 0, 0),
        limits=RunLimits(max_sim_time=1000.0, max_messages=100_000),
    )


def build_small_demo_scenario() -> Scenario:
    """Twelve-device demonstration scenario on an hourly 12 interval day."""
    T = 12
    horizon = PlanningHorizon(T, 1.0, tuple(range(3, 9)))
    target_values = [0.0] * T
    for t in horizon.product_window:
        target_values[t] = -8.0
    device = DeviceModel(
        kind="heat_pump",
        p_el_on=-2.0,
        thermal_on=6.0,
        tank_capacity=2.0,
        loss_rate=0.01,
        ambient=20.0,
        demand=(2.5,) * T,
        temp_min=40.0,
        temp_max=50.0,
        temp_initial=45.0,
    )
    return Scenario(
        name="small-demo",
        horizon=horizon,
        target=TargetProfile(tuple(target_values)),
        devices=(DeviceGroup("dev", 12, device),),
        topology=TopologySpec("small_world", k=4, p=0.1),
        network=NetworkModel(delay=ConstantDelay(0.05)),
        sampling=SamplingSpec(count=16),
        seeds=SeedBlock(0, 0, 0),
        limits=RunLimits(max_sim_time=10_000.0, max_messages=500_000),
    )


BUILTIN_SCENARIOS = {
    "epex-peakload": build_epex_scenario,
    "toy-2": build_toy2_scenario,
    "small-demo": build_small_demo_scenario,
}
