"""Deterministic discrete-event kernel delivering knowledge messages.

The kernel broadcasts the optimization target to every agent at time zero,
then processes an event queue keyed by (simulated time, sequence number),
which makes simultaneous events deterministic. Message transmissions are
individually subjected to the configured network disturbances (drop,
duplicate, randomized delay) using a single seeded generator, so identical
(scenario, seed) pairs replay bit-for-bit.

A run ends at quiescence (empty queue) or when a limit trips; the latter is
flagged on the returned clock stats instead of raising, preserving the
anytime semantics.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from dataclasses import astuple, dataclass
from math import isfinite
from typing import Iterable, Mapping, Sequence, Union

from .agent import AgentState, NotStartedError, handle_message, handle_start
from .core import Candidate, StructuralError, TargetProfile, compare
from .topology import Overlay
from .wire import encoded_length

__all__ = [
    "ConstantDelay",
    "UniformDelay",
    "ExponentialDelay",
    "DelayModel",
    "DELAY_KINDS",
    "delay_from_mapping",
    "delay_to_mapping",
    "NetworkModel",
    "RunLimits",
    "TraceEvent",
    "EventTrace",
    "SimClockStats",
    "run",
    "check_consistency",
    "snapshot_best",
]


def _check_delay(name: str, value: float, positive: bool = False) -> None:
    if not isfinite(value) or value < 0 or (positive and value == 0):
        bound = "positive" if positive else "non-negative"
        raise StructuralError(f"delay {name} must be finite and {bound}, got {value!r}")


@dataclass(frozen=True)
class ConstantDelay:
    seconds: float

    def __post_init__(self) -> None:
        _check_delay("seconds", self.seconds)

    def sample(self, rng: random.Random) -> float:
        return self.seconds


@dataclass(frozen=True)
class UniformDelay:
    low: float
    high: float

    def __post_init__(self) -> None:
        _check_delay("low", self.low)
        _check_delay("high", self.high)
        if self.low > self.high:
            raise StructuralError("uniform delay requires low <= high")

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class ExponentialDelay:
    mean: float

    def __post_init__(self) -> None:
        _check_delay("mean", self.mean, positive=True)

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean)


DelayModel = Union[ConstantDelay, UniformDelay, ExponentialDelay]

# Scenario-file kind of each delay model and its parameter keys, in the
# order of the model's fields.
DELAY_KINDS = {
    "constant": (ConstantDelay, ("seconds",)),
    "uniform": (UniformDelay, ("low_s", "high_s")),
    "exponential": (ExponentialDelay, ("mean_s",)),
}


def delay_from_mapping(m: Mapping) -> DelayModel:
    """Build a delay model from a plain mapping (scenario files, sweeps)."""
    kind = m.get("kind")
    if kind not in DELAY_KINDS:
        raise StructuralError(f"unknown delay kind {kind!r}")
    cls, keys = DELAY_KINDS[kind]
    return cls(*(float(m[key]) for key in keys))


def delay_to_mapping(d: DelayModel) -> dict:
    kind, keys = next((k, keys) for k, (cls, keys) in DELAY_KINDS.items() if isinstance(d, cls))
    return {"kind": kind, **dict(zip(keys, astuple(d)))}


@dataclass(frozen=True)
class NetworkModel:
    """Disturbance model applied to every transmission.

    ``max_delay_bound`` caps sampled delays (a delivery guarantee in
    simulated seconds). With ``reorder`` disabled, per-link FIFO order is
    enforced by clamping delivery times.
    """

    delay: DelayModel = ConstantDelay(0.05)
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    reorder: bool = True
    max_delay_bound: float | None = None

    def __post_init__(self) -> None:
        for name in ("drop_probability", "duplicate_probability"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise StructuralError(f"{name} must be in [0, 1]")
        if self.max_delay_bound is not None and self.max_delay_bound < 0:
            raise StructuralError("max_delay_bound must be non-negative")


@dataclass(frozen=True)
class RunLimits:
    max_sim_time: float = 1.0e6
    max_messages: int = 10_000_000

    def __post_init__(self) -> None:
        if self.max_sim_time <= 0 or self.max_messages <= 0:
            raise StructuralError("run limits must be positive")


@dataclass(frozen=True)
class TraceEvent:
    time: float
    kind: str  # deliver | publish | drop | duplicate | best_improved
    payload: dict


EventTrace = list[TraceEvent]


@dataclass(frozen=True)
class SimClockStats:
    termination_time: float
    wall_time: float
    terminated: bool


def _sample_delay(network: NetworkModel, rng: random.Random) -> float:
    d = network.delay.sample(rng)
    if network.max_delay_bound is not None:
        d = min(d, network.max_delay_bound)
    return d


def run(
    agents: Sequence[AgentState],
    overlay: Overlay,
    target: TargetProfile,
    network: NetworkModel = NetworkModel(),
    seed: int = 0,
    limits: RunLimits = RunLimits(),
) -> tuple[dict[str, AgentState], EventTrace, SimClockStats]:
    """Drive the agents to quiescence over the given overlay.

    Returns the final agent states, the full event trace and clock stats.
    ``stats.terminated`` is False when a limit tripped before the queue
    drained.
    """
    states: dict[str, AgentState] = {a.agent_id: a for a in agents}
    if len(states) != len(agents):
        raise StructuralError("duplicate agent ids")
    if set(states) != set(overlay.node_ids):
        raise StructuralError("overlay does not cover exactly the agent ids")

    rng = random.Random(seed)
    seq = itertools.count()
    heap: list[tuple] = []
    trace: EventTrace = []
    last_on_link: dict[tuple[str, str], float] = {}
    messages_sent = 0
    halted = False
    now = 0.0
    started = time.perf_counter()

    for aid in sorted(states):
        heapq.heappush(heap, (0.0, next(seq), "start", aid, None))

    def transmit(sender: str, neighbors, outputs, at: float) -> bool:
        nonlocal messages_sent
        if not outputs:
            return True
        size = encoded_length(outputs[0])
        for recipient, msg in zip(neighbors, outputs):
            if messages_sent >= limits.max_messages:
                return False
            messages_sent += 1
            trace.append(
                TraceEvent(at, "publish", {"from": sender, "to": recipient, "bytes": size})
            )
            if rng.random() < network.drop_probability:
                trace.append(TraceEvent(at, "drop", {"from": sender, "to": recipient}))
                continue
            deliver_at = at + _sample_delay(network, rng)
            if not network.reorder:
                deliver_at = max(deliver_at, last_on_link.get((sender, recipient), 0.0))
                last_on_link[(sender, recipient)] = deliver_at
            heapq.heappush(heap, (deliver_at, next(seq), "deliver", recipient, msg))
            if rng.random() < network.duplicate_probability:
                dup_at = at + _sample_delay(network, rng)
                if not network.reorder:
                    dup_at = max(dup_at, last_on_link.get((sender, recipient), 0.0))
                    last_on_link[(sender, recipient)] = dup_at
                trace.append(
                    TraceEvent(
                        at,
                        "duplicate",
                        {"from": sender, "to": recipient, "deliver_at": dup_at},
                    )
                )
                heapq.heappush(heap, (dup_at, next(seq), "deliver", recipient, msg))
        return True

    while heap:
        at, _, kind, aid, payload = heapq.heappop(heap)
        if at > limits.max_sim_time:
            halted = True
            break
        now = at
        state = states[aid]
        if kind == "start":
            new_state, outputs = handle_start(state, target)
            detail = {"msg": "start", "to": aid}
        else:
            new_state, outputs = handle_message(state, payload)
            detail = {"msg": "knowledge", "to": aid, "from": payload.sender}
        own = new_state.memory.config.get(aid) if new_state.memory else None
        detail["version"] = own.version if own is not None else None
        trace.append(TraceEvent(at, "deliver", detail))

        old_best = state.memory.best if state.memory else None
        new_best = new_state.memory.best if new_state.memory else None
        if new_best is not None and (
            old_best is None or (new_best is not old_best and compare(new_best, old_best) > 0)
        ):
            trace.append(
                TraceEvent(
                    at,
                    "best_improved",
                    {
                        "agent": aid,
                        "fitness": new_best.fitness,
                        "size": new_best.size,
                        "key": new_best.key,
                    },
                )
            )
        states[aid] = new_state
        if not transmit(aid, new_state.neighbors, outputs, at):
            halted = True
            break

    stats = SimClockStats(
        termination_time=now,
        wall_time=time.perf_counter() - started,
        terminated=not halted and not heap,
    )
    return states, trace, stats


def check_consistency(agents: Iterable[AgentState]) -> bool:
    """True iff all agents share a compare-equal best candidate that covers
    every agent, and each agent's own selection conforms to it."""
    states = list(agents)
    if not states:
        return True
    if any(s.memory is None for s in states):
        return False
    ids = {s.agent_id for s in states}
    reference = states[0].memory.best
    for s in states:
        best = s.memory.best
        if compare(best, reference) != 0:
            return False
        if not set(best.configuration).issuperset(ids):
            return False
        own = s.memory.config.get(s.agent_id)
        recorded = best.configuration.get(s.agent_id)
        if own is None or recorded is None:
            return False
        if own.schedule_index != recorded.schedule_index:
            return False
    return True


def snapshot_best(agents: Iterable[AgentState]) -> Candidate:
    """Compare-maximal best candidate over all started agents: the anytime
    solution that a consistent termination would commit right now."""
    best: Candidate | None = None
    for s in agents:
        if s.memory is None:
            continue
        if best is None or compare(s.memory.best, best) > 0:
            best = s.memory.best
    if best is None:
        raise NotStartedError("no agent has started yet")
    return best
