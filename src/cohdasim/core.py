"""Domain types, the scheduling objective and the candidate ordering.

Power convention: load is negative, generation positive (all values kW).
A schedule assignment is judged by the L1 distance between the aggregate
power profile and the target profile, restricted to the product delivery
window.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from hashlib import blake2b
from math import isfinite
from typing import Mapping

import numpy as np

__all__ = [
    "StructuralError",
    "DegenerateTargetError",
    "PlanningHorizon",
    "Schedule",
    "TargetProfile",
    "SelectionRecord",
    "SystemConfiguration",
    "Candidate",
    "aggregate",
    "objective",
    "coverage",
    "selection_items",
    "configuration_key",
    "make_candidate",
    "compare",
    "prefer",
]


class StructuralError(ValueError):
    """Lengths or identities of domain values do not line up."""


class DegenerateTargetError(ValueError):
    """The target is all-zero on the product window, coverage is undefined."""


def _cached_array(obj, values) -> np.ndarray:
    # Read-only ndarray view of a value tuple, stashed on the instance.
    arr = obj.__dict__.get("_arr")
    if arr is None:
        arr = np.asarray(values, dtype=np.float64)
        arr.setflags(write=False)
        obj.__dict__["_arr"] = arr
    return arr


@dataclass(frozen=True)
class PlanningHorizon:
    """Discretized planning horizon plus the market delivery window.

    ``product_window`` holds the interval indices that count toward the
    objective; power values outside the window are ignored everywhere.
    """

    interval_count: int
    interval_duration: float
    product_window: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.interval_count < 1:
            raise StructuralError("interval_count must be positive")
        if not self.interval_duration > 0:
            raise StructuralError("interval_duration must be positive")
        window = tuple(sorted({int(i) for i in self.product_window}))
        if not window:
            raise StructuralError("product_window must not be empty")
        if window[0] < 0 or window[-1] >= self.interval_count:
            raise StructuralError("product_window index out of range")
        object.__setattr__(self, "product_window", window)

    @property
    def window_index(self) -> np.ndarray:
        arr = self.__dict__.get("_widx")
        if arr is None:
            arr = np.asarray(self.product_window, dtype=np.intp)
            arr.setflags(write=False)
            self.__dict__["_widx"] = arr
        return arr


@dataclass(frozen=True)
class Schedule:
    """Per-device power profile over the full horizon (kW per interval)."""

    power: tuple[float, ...]

    def __post_init__(self) -> None:
        power = tuple(float(v) for v in self.power)
        if not all(isfinite(v) for v in power):
            raise StructuralError("schedule contains non-finite power values")
        object.__setattr__(self, "power", power)

    def __len__(self) -> int:
        return len(self.power)

    @property
    def arr(self) -> np.ndarray:
        return _cached_array(self, self.power)


@dataclass(frozen=True)
class TargetProfile:
    """Power profile the coalition has to deliver on the product window."""

    power: tuple[float, ...]

    def __post_init__(self) -> None:
        power = tuple(float(v) for v in self.power)
        if not all(isfinite(v) for v in power):
            raise StructuralError("target contains non-finite power values")
        object.__setattr__(self, "power", power)

    def __len__(self) -> int:
        return len(self.power)

    @property
    def arr(self) -> np.ndarray:
        return _cached_array(self, self.power)


@dataclass(frozen=True)
class SelectionRecord:
    """One agent's current schedule pick, tagged with a version counter.

    ``version`` strictly increases every time the owning agent changes its
    selection; it resolves conflicts when beliefs are merged.
    """

    agent_id: str
    schedule_index: int
    schedule: Schedule
    version: int = 0


# A system configuration maps agent ids to their selection records. It is
# treated as an immutable value everywhere: operations build new dicts and
# never mutate one that has been handed out.
SystemConfiguration = dict[str, SelectionRecord]


@dataclass(frozen=True)
class Candidate:
    """A (possibly partial) schedule assignment with its objective value.

    Candidates are the unit of the anytime solution: ``compare`` prefers
    larger ``size`` first, then smaller ``fitness``, then the smaller
    deterministic ``key`` so that there is a unique global winner no matter
    in which order knowledge spreads.
    """

    configuration: Mapping[str, SelectionRecord]
    fitness: float
    size: int
    creator: str
    key: int


def selection_items(config: Mapping[str, SelectionRecord]) -> tuple[tuple[str, int], ...]:
    """Canonical (agent_id, schedule_index) pairs, sorted by agent id."""
    return tuple((aid, config[aid].schedule_index) for aid in sorted(config))


def _record_key_bytes(rec: SelectionRecord) -> bytes:
    raw = rec.__dict__.get("_key_bytes")
    if raw is None:
        encoded = rec.agent_id.encode("utf-8")
        raw = struct.pack("<I", len(encoded)) + encoded + struct.pack("<q", rec.schedule_index)
        rec.__dict__["_key_bytes"] = raw
    return raw


def configuration_key(config: Mapping[str, SelectionRecord]) -> int:
    """Stable 64-bit digest of the sorted (agent_id, schedule_index) pairs."""
    h = blake2b(digest_size=8)
    h.update(b"".join(_record_key_bytes(config[aid]) for aid in sorted(config)))
    return int.from_bytes(h.digest(), "little")


def make_candidate(
    config: Mapping[str, SelectionRecord], fitness: float, creator: str
) -> Candidate:
    return Candidate(
        configuration=config,
        fitness=float(fitness),
        size=len(config),
        creator=creator,
        key=configuration_key(config),
    )


def compare(a: Candidate, b: Candidate) -> int:
    """Total order on candidates: positive if ``a`` is preferred, negative
    if ``b`` is preferred, zero only for identical selections.

    Larger size wins, then smaller fitness, then the smaller 64-bit key.
    The sorted selection pairs act as a final arbiter so that two distinct
    configurations never compare equal even under a key collision.
    """
    if a is b:
        return 0
    if a.size != b.size:
        return 1 if a.size > b.size else -1
    if a.fitness != b.fitness:
        return 1 if a.fitness < b.fitness else -1
    if a.key != b.key:
        return 1 if a.key < b.key else -1
    if a.configuration is b.configuration:
        return 0
    items_a = selection_items(a.configuration)
    items_b = selection_items(b.configuration)
    if items_a != items_b:
        return 1 if items_a < items_b else -1
    return 0


def prefer(a: Candidate, b: Candidate) -> Candidate:
    """The compare-preferred of the two; ``a`` wins ties."""
    return a if compare(a, b) >= 0 else b


def aggregate(config: Mapping[str, SelectionRecord], horizon: PlanningHorizon) -> Schedule:
    """Element-wise sum of all selected schedules (zero profile if empty).

    Summation runs in sorted agent-id order, which makes the result
    independent of the map's insertion history.
    """
    total = np.zeros(horizon.interval_count, dtype=np.float64)
    for aid in sorted(config):
        schedule = config[aid].schedule
        if len(schedule) != horizon.interval_count:
            raise StructuralError(
                f"schedule of {aid!r} has length {len(schedule)}, "
                f"expected {horizon.interval_count}"
            )
        total += schedule.arr
    return Schedule(tuple(total.tolist()))


def objective(
    config: Mapping[str, SelectionRecord],
    target: TargetProfile,
    horizon: PlanningHorizon,
) -> float:
    """L1 distance between the aggregate of ``config`` and the target profile
    on the product window. Zero exactly on window-exact matches.
    """
    if len(target) != horizon.interval_count:
        raise StructuralError(
            f"target length {len(target)} does not match horizon "
            f"{horizon.interval_count}"
        )
    agg = aggregate(config, horizon)
    w = horizon.window_index
    return float(np.abs(agg.arr[w] - target.arr[w]).sum())


def coverage(
    delivered: Schedule, target: TargetProfile, horizon: PlanningHorizon
) -> float:
    """Share of the target realized on the window: 1 - normalized L1 error,
    floored at zero. Requires a target with nonzero window magnitude.
    """
    if len(delivered) != horizon.interval_count or len(target) != horizon.interval_count:
        raise StructuralError("delivered/target length does not match horizon")
    w = horizon.window_index
    denom = float(np.abs(target.arr[w]).sum())
    if denom == 0.0:
        raise DegenerateTargetError("target is all-zero on the product window")
    err = float(np.abs(delivered.arr[w] - target.arr[w]).sum())
    return max(0.0, 1.0 - err / denom)
