"""Domain types, the scheduling objective and the candidate ordering.

Power convention: load is negative, generation positive (all values kW).
A schedule assignment is judged by the L1 distance between the aggregate
power profile and the target profile, restricted to the product delivery
window.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from hashlib import blake2b
from itertools import compress
from math import isfinite
from operator import getitem
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "StructuralError",
    "DegenerateTargetError",
    "PlanningHorizon",
    "TargetProfile",
    "SelectionRecord",
    "Fleet",
    "SystemConfiguration",
    "Candidate",
    "aggregate",
    "objective",
    "coverage",
    "selection_items",
    "configuration_key",
    "compare",
]


class StructuralError(ValueError):
    """Lengths or identities of domain values do not line up."""


class DegenerateTargetError(ValueError):
    """The target is all-zero on the product window, coverage is undefined."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
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

    @cached_property
    def window_index(self) -> np.ndarray:
        return _frozen(np.array(self.product_window, dtype=np.intp))


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

    @cached_property
    def arr(self) -> np.ndarray:
        return _frozen(np.array(self.power, dtype=np.float64))


@dataclass(frozen=True)
class SelectionRecord:
    """One agent's current schedule pick, tagged with a version counter: the
    read view of one entry of a ``SystemConfiguration``.

    ``schedule`` is the selected row of the agent's power table. ``version``
    strictly increases every time the owning agent changes its selection;
    it resolves conflicts when beliefs are merged.
    """

    agent_id: str
    schedule_index: int
    schedule: tuple[float, ...]
    version: int = 0


class Fleet:
    """The fixed table of one run, shared by all its agents and
    configurations.

    ``ids`` are the agent ids, sorted; ``position`` maps each to its place.
    ``power[i]`` is the read-only power table of the agent at place ``i``,
    one schedule per row, and ``windows[i]`` its window columns. ``rows``
    is one window-row table: for each agent a zero row, then its window
    matrix, so that schedule ``s`` of the agent at place ``i`` is row
    ``offsets[i] + s`` and index -1 is a zero row. ``record_lengths`` are
    the wire lengths of each agent's records, ``config_length`` that of a
    configuration that knows every agent, and ``key_parts[i][s]`` is
    what schedule ``s`` of agent ``i`` adds to a configuration key;
    ``key_parts[i][-1]`` is empty.
    """

    __slots__ = ("ids", "position", "horizon", "power", "windows", "rows", "offsets",
                 "record_lengths", "config_length", "key_parts")

    def __init__(self, power: Mapping[str, np.ndarray], horizon: PlanningHorizon):
        from .wire import EMPTY_CONFIG_LENGTH, record_length  # the wire module imports this one

        self.ids = tuple(sorted(power))
        self.position = {aid: i for i, aid in enumerate(self.ids)}
        self.horizon = horizon
        self.power = tuple(_power_table(power[aid], horizon) for aid in self.ids)
        # Column indexing leaves these in Fortran order; the decide step's
        # per-row sums depend on that order bit for bit.
        self.windows = tuple(_frozen(table[:, horizon.window_index]) for table in self.power)
        sizes = np.array([len(t) + 1 for t in self.power], dtype=np.intp)
        self.offsets = _frozen(1 + np.cumsum(sizes) - sizes)
        zero = np.zeros((1, len(horizon.product_window)), dtype=np.float64)
        blocks = [block for window in self.windows for block in (zero, window)]
        # C order, so that gathering rows reads each row in one piece.
        self.rows = _frozen(np.ascontiguousarray(np.concatenate(blocks or [zero])))
        self.record_lengths = tuple(record_length(aid, horizon.interval_count) for aid in self.ids)
        self.config_length = EMPTY_CONFIG_LENGTH + sum(self.record_lengths)
        self.key_parts = tuple(
            tuple(_key_part(aid, s) for s in range(len(table))) + (b"",)
            for aid, table in zip(self.ids, self.power)
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"Fleet({len(self.ids)} agents, T={self.horizon.interval_count})"


def _power_table(table, horizon: PlanningHorizon) -> np.ndarray:
    """``table`` as a read-only float64 C-order array, which must hold at
    least one schedule, one row of ``interval_count`` finite values each.
    A read-only float64 C-order array that owns its memory, as the
    flexibility sampler returns, is shared; anything else is copied."""
    if (isinstance(table, np.ndarray) and table.dtype == np.float64
            and table.flags.c_contiguous and table.flags.owndata and not table.flags.writeable):
        power = table
    else:
        power = _frozen(np.array(table, dtype=np.float64, order="C"))
    if power.ndim != 2 or power.shape[1] != horizon.interval_count:
        raise StructuralError(
            f"schedule table of shape {power.shape} does not match horizon "
            f"{horizon.interval_count}"
        )
    if len(power) == 0:
        raise StructuralError("schedule table holds no schedule")
    if not np.isfinite(power).all():
        raise StructuralError("schedule contains non-finite power values")
    return power


def _int_array(typecode: str, values: Iterable[int], name: str) -> array:
    """``values`` as an array of ``typecode``: the array itself when it has
    that typecode, else a converted copy."""
    if type(values) is array and values.typecode == typecode:
        return values
    try:
        return array(typecode, values)
    except OverflowError:
        raise StructuralError(f"a {name} is out of range of array({typecode!r})") from None


class SystemConfiguration(Mapping[str, SelectionRecord]):
    """Read-only map from agent id to selection record over one ``Fleet``.

    Backed by two arrays in fleet order, one entry per agent: each agent's
    schedule index, an ``array('i')``, and version, an ``array('q')``, which
    holds the wire's uint32 versions. Both are -1 for an agent the
    configuration does not know. Records are built only when read.
    Configurations are immutable values: the constructor takes over arrays
    of these typecodes as they are, converts any other int sequence, and
    nothing writes into the arrays of a configuration once it is built.
    """

    __slots__ = ("fleet", "index", "version")

    def __init__(self, fleet: Fleet, index: Iterable[int], version: Iterable[int]):
        self.fleet = fleet
        self.index = _int_array("i", index, "schedule index")
        self.version = _int_array("q", version, "version")
        if not len(self.index) == len(self.version) == len(fleet.ids):
            raise StructuralError(
                f"a configuration over {len(fleet.ids)} agents needs as many indices and "
                f"versions, got {len(self.index)} and {len(self.version)}")

    @classmethod
    def empty(cls, fleet: Fleet) -> SystemConfiguration:
        return cls(fleet, array("i", (-1,)) * len(fleet), array("q", (-1,)) * len(fleet))

    def known(self) -> Iterator[bool]:
        """Whether the configuration knows each agent, in fleet order."""
        return map((0).__le__, self.index)

    def __getitem__(self, aid: str) -> SelectionRecord:
        i = self.fleet.position.get(aid)
        if i is None or self.index[i] < 0:
            raise KeyError(aid)
        idx = self.index[i]
        return SelectionRecord(aid, idx, tuple(self.fleet.power[i][idx].tolist()), self.version[i])

    def __iter__(self) -> Iterator[str]:
        return compress(self.fleet.ids, self.known())

    def __len__(self) -> int:
        return len(self.index) - self.index.count(-1)

    def __eq__(self, other) -> bool:
        """Equal to a configuration over the same fleet with the same index
        and version arrays, and to nothing else."""
        return (getattr(other, "fleet", None) is self.fleet
                and self.index == other.index and self.version == other.version)

    def __repr__(self) -> str:
        return f"SystemConfiguration({dict(self)!r})"


@dataclass(frozen=True)
class Candidate:
    """A (possibly partial) schedule assignment with its objective value.

    Candidates are the unit of the anytime solution: ``compare`` prefers
    larger ``size`` first, then smaller ``fitness``, then the smaller
    deterministic ``key`` so that there is a unique global winner no matter
    in which order knowledge spreads. ``fitness`` is stored as a float and
    ``size``, the number of agents the configuration knows, is set from it
    on construction. ``key`` is the configuration's ``configuration_key``,
    computed on first read and kept on the instance; most comparisons are
    decided by size or fitness and never read it.
    """

    configuration: SystemConfiguration
    fitness: float
    creator: str
    # Not a cached_property: every candidate's size is read, and the first
    # read of one takes a lock before Python 3.12.
    size: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fitness", float(self.fitness))
        object.__setattr__(self, "size", len(self.configuration))

    @cached_property
    def key(self) -> int:
        return configuration_key(self.configuration)


def selection_items(config: SystemConfiguration) -> tuple[tuple[str, int], ...]:
    """Canonical (agent_id, schedule_index) pairs, sorted by agent id, read
    from the index array."""
    return tuple(compress(zip(config.fleet.ids, config.index), config.known()))


def _key_part(agent_id: str, schedule_index: int) -> bytes:
    """What one record adds to a configuration key."""
    encoded = agent_id.encode("utf-8")
    return struct.pack("<I", len(encoded)) + encoded + struct.pack("<q", schedule_index)


def configuration_key(config: SystemConfiguration) -> int:
    """Stable 64-bit blake2b digest of the sorted (agent_id, schedule_index)
    pairs, laid out from the fleet's table."""
    data = b"".join(map(getitem, config.fleet.key_parts, config.index))
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "little")


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


def aggregate(config: SystemConfiguration) -> np.ndarray:
    """Element-wise sum of all selected schedules over the fleet's horizon
    (zero profile if empty) as a read-only array, the fleet's table rows
    added in sorted agent-id order.
    """
    fleet = config.fleet
    total = np.zeros(fleet.horizon.interval_count, dtype=np.float64)
    for table, s in zip(fleet.power, config.index):
        if s >= 0:
            total += table[s]
    return _frozen(total)


def objective(
    config: SystemConfiguration,
    target: TargetProfile,
    horizon: PlanningHorizon,
) -> float:
    """L1 distance between the aggregate of ``config`` and the target profile
    on the product window of ``horizon``, which must have the fleet's
    interval count. Zero exactly on window-exact matches.
    """
    T = horizon.interval_count
    if len(target) != T or config.fleet.horizon.interval_count != T:
        raise StructuralError(
            f"target length {len(target)} and fleet horizon "
            f"{config.fleet.horizon.interval_count} must both match horizon {T}"
        )
    agg = aggregate(config)
    w = horizon.window_index
    return float(np.abs(agg[w] - target.arr[w]).sum())


def coverage(
    delivered: np.ndarray, target: TargetProfile, horizon: PlanningHorizon
) -> float:
    """Share of the target realized on the window by the power profile
    ``delivered``: 1 - normalized L1 error, floored at zero. Requires a
    target with nonzero window magnitude.
    """
    if len(delivered) != horizon.interval_count or len(target) != horizon.interval_count:
        raise StructuralError("delivered/target length does not match horizon")
    w = horizon.window_index
    denom = float(np.abs(target.arr[w]).sum())
    if denom == 0.0:
        raise DegenerateTargetError("target is all-zero on the product window")
    err = float(np.abs(delivered[w] - target.arr[w]).sum())
    return max(0.0, 1.0 - err / denom)
