"""Deterministic discrete-event kernel delivering knowledge messages.

The kernel broadcasts the optimization target to every agent at time zero,
then runs the queued events in (simulated time, scheduling order), which
makes simultaneous events deterministic. The queue is a heap of the
distinct pending times, each mapped to its events in the order they were
scheduled. Under a constant delay most in-flight messages share a few
times, so a delivery takes its event from its time's list rather than
from a heap of all events (Brown, "Calendar Queues", CACM 31(10), 1988).
Message transmissions are individually subjected to the configured network
disturbances (drop, duplicate, randomized delay) using a single seeded
generator, so identical (scenario, seed) pairs replay bit-for-bit.

A run ends at quiescence (empty queue) or when a limit trips; the latter is
flagged on the returned clock stats instead of raising, preserving the
anytime semantics. The kernel counts messages, bytes, disturbances and
deliveries and records the global improvement curve itself; it builds
``TraceEvent``s only for a caller that passes a list to append them to.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass
from math import isfinite
from typing import Iterable, Sequence, Union

from .agent import (
    AgentState,
    KnowledgeMessage,
    NotStartedError,
    handle_message,
    handle_start,
)
from .core import Candidate, StructuralError, TargetProfile, compare
from .wire import encoded_length

__all__ = [
    "ConstantDelay",
    "UniformDelay",
    "ExponentialDelay",
    "DelayModel",
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
        if self.max_delay_bound is not None:
            _check_delay("max_delay_bound", self.max_delay_bound)


@dataclass(frozen=True)
class RunLimits:
    max_sim_time: float = 1.0e6
    max_messages: int = 10_000_000

    def __post_init__(self) -> None:
        # A nan time limit would never trip: ``at > nan`` is always False.
        seconds, count = self.max_sim_time, self.max_messages
        if not (isfinite(seconds) and seconds > 0):
            raise StructuralError(f"max_sim_time must be finite and positive, got {seconds!r}")
        if isinstance(count, bool) or not isinstance(count, int) or count <= 0:
            raise StructuralError(f"max_messages must be a positive integer, got {count!r}")


@dataclass(frozen=True)
class TraceEvent:
    time: float
    kind: str  # deliver | publish | drop | duplicate | best_improved
    payload: dict


EventTrace = list[TraceEvent]


@dataclass(frozen=True)
class SimClockStats:
    """Clock and counters of one run.

    ``stop_reason`` is ``"quiescent"`` (the queue drained), ``"max_messages"``
    or ``"max_sim_time"``. ``messages`` and ``message_bytes`` count every
    transmission, dropped ones included; ``deliveries`` counts start and
    knowledge events, ``noop_deliveries`` the knowledge deliveries that left
    the agent's state unchanged. ``improvement_curve`` holds (sim_time,
    fitness, size) per strict improvement of the best candidate any agent
    holds.
    """

    termination_time: float
    wall_time: float
    stop_reason: str
    messages: int
    message_bytes: int
    drops: int
    duplicates: int
    deliveries: int
    noop_deliveries: int
    improvement_curve: tuple[tuple[float, float, int], ...]

    @property
    def terminated(self) -> bool:
        return self.stop_reason == "quiescent"


def _delivery_time(
    network: NetworkModel, rng: random.Random, at: float, link: tuple, last_on_link: dict
) -> float:
    """When one copy sent on ``link`` at ``at`` arrives: a sampled delay,
    capped by ``max_delay_bound``; with ``reorder`` disabled, never before
    the link's previous delivery."""
    delay = network.delay.sample(rng)
    if network.max_delay_bound is not None:
        delay = min(delay, network.max_delay_bound)
    deliver_at = at + delay
    if not network.reorder:
        deliver_at = max(deliver_at, last_on_link.get(link, 0.0))
        last_on_link[link] = deliver_at
    return deliver_at


def run(
    agents: Sequence[AgentState],
    target: TargetProfile,
    network: NetworkModel = NetworkModel(),
    seed: int = 0,
    limits: RunLimits = RunLimits(),
    trace: EventTrace | None = None,
) -> tuple[dict[str, AgentState], EventTrace, SimClockStats]:
    """Drive the agents to quiescence. Each agent's messages go to its
    ``neighbors``, which must be distinct other agents of the run. Each
    delivery tells the handler the highest ``seq`` delivered on its link
    before it.

    Returns the final agent states, the event trace and clock stats. Events
    are appended to ``trace`` when it is given, and the returned trace is
    empty otherwise. ``stats.terminated`` is False when a limit tripped
    before the queue drained.
    """
    states: dict[str, AgentState] = {a.agent_id: a for a in agents}
    if len(states) != len(agents):
        raise StructuralError("duplicate agent ids")
    for a in agents:
        others = set(a.neighbors)
        if len(others) != len(a.neighbors) or a.agent_id in others or not others.issubset(states):
            raise StructuralError(
                f"neighbors {a.neighbors!r} of agent {a.agent_id!r} are not distinct "
                "other agents of the run"
            )

    rng = random.Random(seed)
    # The event queue: a heap of the distinct pending delivery times, and
    # for each time its events in scheduling order, flat: recipient,
    # message, recipient, message, ... (a start event carries no message).
    times: list[float] = []
    due: dict[float, list] = {}

    def schedule(at: float, recipient: str, msg: KnowledgeMessage | None) -> None:
        events = due.get(at)
        if events is None:
            due[at] = [recipient, msg]
            heapq.heappush(times, at)
        else:
            events += recipient, msg

    for aid in sorted(states):
        schedule(0.0, aid, None)
    last_on_link: dict[tuple[str, str], float] = {}
    # For each recipient, the highest ``seq`` delivered from each sender.
    heard: dict[str, dict[str, int]] = {aid: {} for aid in states}
    # Per-run constants of the publish loop.
    routes = {aid: tuple((r, (aid, r)) for r in a.neighbors) for aid, a in states.items()}
    draw = rng.random
    drop_p, dup_p = network.drop_probability, network.duplicate_probability
    max_messages = limits.max_messages
    messages_sent = bytes_sent = drops = duplicates = deliveries = noops = 0
    curve: list[tuple[float, float, int]] = []
    leader: Candidate | None = None  # compare-maximal best any agent has held
    stop_reason = "quiescent"
    now = 0.0
    started = time.perf_counter()

    events: list = []  # the events at ``now`` not yet run, the next one last
    while events or times:
        if not events:
            at = heapq.heappop(times)
            if at < now:
                raise StructuralError(
                    f"simulated time went backwards: event at {at!r} after {now!r}")
            if at > limits.max_sim_time:
                stop_reason = "max_sim_time"
                break
            now = at
            # Taken off the queue whole: an event scheduled for ``at`` while
            # these run opens a new entry for ``at``, which runs after them.
            # Reversed, so that popping from the end releases each event as
            # it runs.
            events = due.pop(at)
            events.reverse()
        aid = events.pop()
        msg = events.pop()
        deliveries += 1
        state = states[aid]
        if msg is None:
            new_state, out = handle_start(state, target)
        else:
            seqs = heard[aid]
            since = seqs.get(msg.sender, 0)
            new_state, out = handle_message(state, msg, since)
            if msg.seq > since:
                seqs[msg.sender] = msg.seq
        if trace is not None:
            if msg is None:
                detail = {"msg": "start", "to": aid}
            else:
                detail = {"msg": "knowledge", "to": aid, "from": msg.sender}
            detail["version"] = new_state.memory.config.version[new_state.position]
            trace.append(TraceEvent(at, "deliver", detail))
        if out is None:
            # A knowledge delivery that taught nothing: no improvement,
            # nothing to send.
            noops += 1
            continue
        states[aid] = new_state

        old_best = state.memory.best if state.memory else None
        best = new_state.memory.best
        # Recorded as the agent made it, so that the trace shows a regression
        # too; the global curve takes only a new leader.
        if best is not old_best:
            if trace is not None:
                detail = {"agent": aid, "fitness": best.fitness, "size": best.size, "key": best.key}
                trace.append(TraceEvent(at, "best_improved", detail))
            if leader is None or compare(best, leader) > 0:
                leader = best
                curve.append((at, best.fitness, best.size))

        sends = routes[aid]
        if not sends:
            continue
        size = encoded_length(out)
        for recipient, link in sends:
            if messages_sent >= max_messages:
                stop_reason = "max_messages"
                break
            messages_sent += 1
            bytes_sent += size
            if trace is not None:
                detail = {"from": aid, "to": recipient, "bytes": size}
                trace.append(TraceEvent(at, "publish", detail))
            if draw() < drop_p:
                drops += 1
                if trace is not None:
                    trace.append(TraceEvent(at, "drop", {"from": aid, "to": recipient}))
                continue
            schedule(_delivery_time(network, rng, at, link, last_on_link), recipient, out)
            if draw() < dup_p:
                duplicates += 1
                dup_at = _delivery_time(network, rng, at, link, last_on_link)
                if trace is not None:
                    detail = {"from": aid, "to": recipient, "deliver_at": dup_at}
                    trace.append(TraceEvent(at, "duplicate", detail))
                schedule(dup_at, recipient, out)
        if stop_reason != "quiescent":
            break

    stats = SimClockStats(
        termination_time=now,
        wall_time=time.perf_counter() - started,
        stop_reason=stop_reason,
        messages=messages_sent,
        message_bytes=bytes_sent,
        drops=drops,
        duplicates=duplicates,
        deliveries=deliveries,
        noop_deliveries=noops,
        improvement_curve=tuple(curve),
    )
    return states, (trace if trace is not None else []), stats


def check_consistency(agents: Iterable[AgentState]) -> bool:
    """True iff all agents share a compare-equal best candidate that covers
    every agent, and each agent's own selection conforms to it. Reads the
    configurations' index arrays; builds no record."""
    states = list(agents)
    if not states:
        return True
    if any(s.memory is None for s in states):
        return False
    reference = states[0].memory.best
    for s in states:
        best = s.memory.best
        if compare(best, reference) != 0:
            return False
        own = s.memory.config.index[s.position]
        if own < 0 or own != best.configuration.index[s.position]:
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
