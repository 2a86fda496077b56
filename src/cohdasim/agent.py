"""Per-agent state machine for decentralized schedule selection.

Each agent owns a finite set of feasible schedules and coordinates with its
overlay neighbors exclusively through knowledge messages. Message handling
follows a three step rule:

1. update   -- merge the received system configuration into the local
               belief (newer selection versions win) and keep the
               compare-preferred of the local and received best candidate.
2. decide   -- re-optimize the own selection against the merged belief;
               if the resulting candidate beats the best known one it
               becomes the new best, otherwise the agent conforms to the
               selection recorded for it inside the best candidate.
3. publish  -- send the (possibly updated) belief and best candidate to
               every neighbor, but only if something actually changed.

If the update step changes neither the configuration nor the best
candidate, steps 2 and 3 are skipped entirely. This is a deliberate
reading: it makes a repeated message a no-op and rules out livelock by
re-broadcast.

An agent is a pure state transition function ``(state, event) -> (state,
messages)``; all state types are immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .core import (
    Candidate,
    PlanningHorizon,
    Schedule,
    SelectionRecord,
    StructuralError,
    SystemConfiguration,
    TargetProfile,
    compare,
    make_candidate,
)

__all__ = [
    "ConfigurationError",
    "NotStartedError",
    "ScheduleSet",
    "WorkingMemory",
    "KnowledgeMessage",
    "AgentState",
    "handle_start",
    "handle_message",
    "choose_schedule",
    "extract_assignment",
]


class ConfigurationError(ValueError):
    """The agent is set up in a way that cannot run (e.g. no schedules)."""


class NotStartedError(RuntimeError):
    """An operation needs working memory, but the agent never started."""


class ScheduleSet(Sequence[Schedule]):
    """Immutable, ordered schedule collection bound to a horizon.

    Precomputes the window-restricted power matrix once so that the
    per-message re-optimization stays a single vectorized pass.
    """

    __slots__ = ("schedules", "horizon", "window_matrix")

    def __init__(self, schedules: Iterable[Schedule], horizon: PlanningHorizon):
        self.schedules = tuple(schedules)
        for s in self.schedules:
            if len(s) != horizon.interval_count:
                raise StructuralError(
                    f"schedule length {len(s)} does not match horizon "
                    f"{horizon.interval_count}"
                )
        self.horizon = horizon
        if self.schedules:
            full = np.stack([s.arr for s in self.schedules])
        else:
            full = np.zeros((0, horizon.interval_count), dtype=np.float64)
        matrix = full[:, horizon.window_index]
        matrix.setflags(write=False)
        self.window_matrix = matrix

    def __len__(self) -> int:
        return len(self.schedules)

    def __getitem__(self, index):
        return self.schedules[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScheduleSet):
            return NotImplemented
        return self.schedules == other.schedules and self.horizon == other.horizon

    def __repr__(self) -> str:
        return f"ScheduleSet({len(self.schedules)} schedules, T={self.horizon.interval_count})"


@dataclass(frozen=True)
class WorkingMemory:
    """An agent's local knowledge: target, believed selections, best found."""

    target: TargetProfile
    config: SystemConfiguration
    best: Candidate


@dataclass(frozen=True)
class KnowledgeMessage:
    """The only message agents exchange: the sender's full belief.

    Carries the target profile so that an agent receiving knowledge before
    an explicit start can initialize itself from the message.
    """

    sender: str
    target: TargetProfile
    config: SystemConfiguration
    best: Candidate


@dataclass(frozen=True)
class AgentState:
    """Complete agent state between events.

    ``neighbors`` fixes the fan-out of every publish; emitted message lists
    are parallel to it (entry i goes to ``neighbors[i]``).
    ``objective_calls`` counts objective evaluations: every run of the
    choose step adds exactly ``len(schedule_set)``.
    """

    agent_id: str
    schedule_set: ScheduleSet
    horizon: PlanningHorizon
    neighbors: tuple[str, ...]
    memory: WorkingMemory | None = None
    objective_calls: int = 0


def _choose_index(
    state: AgentState, target: TargetProfile, config: SystemConfiguration
) -> tuple[int, float]:
    """Index of the own schedule minimizing the objective against ``config``
    with the own entry replaced, plus the resulting objective value.
    Ties break to the lowest index.
    """
    horizon = state.horizon
    others = np.zeros(horizon.interval_count, dtype=np.float64)
    for aid in sorted(config):
        if aid == state.agent_id:
            continue
        schedule = config[aid].schedule
        if len(schedule) != horizon.interval_count:
            raise StructuralError(f"schedule of {aid!r} does not match horizon")
        others += schedule.arr
    w = horizon.window_index
    gap = target.arr[w] - others[w]
    values = np.abs(state.schedule_set.window_matrix - gap).sum(axis=1)
    idx = int(np.argmin(values))
    return idx, float(values[idx])


def _boot_memory(state: AgentState, target: TargetProfile) -> tuple[WorkingMemory, int]:
    """Initial working memory: best own schedule against an otherwise empty
    configuration, version counter starting at zero."""
    if len(state.schedule_set) == 0:
        raise ConfigurationError(f"agent {state.agent_id!r} has no schedules")
    if len(target) != state.horizon.interval_count:
        raise StructuralError("target length does not match agent horizon")
    idx, value = _choose_index(state, target, {})
    record = SelectionRecord(state.agent_id, idx, state.schedule_set[idx], version=0)
    config: SystemConfiguration = {state.agent_id: record}
    best = make_candidate(config, value, creator=state.agent_id)
    return WorkingMemory(target, config, best), len(state.schedule_set)


def handle_start(
    state: AgentState, target: TargetProfile
) -> tuple[AgentState, list[KnowledgeMessage]]:
    """Initialize (or re-initialize) working memory and announce it.

    Emits one knowledge message per neighbor, parallel to
    ``state.neighbors``.
    """
    memory, calls = _boot_memory(state, target)
    new_state = replace(
        state, memory=memory, objective_calls=state.objective_calls + calls
    )
    message = KnowledgeMessage(state.agent_id, target, memory.config, memory.best)
    return new_state, [message] * len(state.neighbors)


def _merge(
    local: SystemConfiguration, remote: SystemConfiguration
) -> tuple[SystemConfiguration, bool]:
    """Union per agent id; strictly newer versions win, ties keep local.

    Returns the local dict object unchanged when nothing was newer, which
    lets callers detect change by identity.
    """
    merged = None
    for aid, rec in remote.items():
        current = (merged or local).get(aid)
        if current is None or rec.version > current.version:
            if merged is None:
                merged = dict(local)
            merged[aid] = rec
    if merged is None:
        return local, False
    return merged, True


def choose_schedule(state: AgentState) -> tuple[AgentState, int, float]:
    """Re-optimize the own selection against the current believed
    configuration. Returns the updated state (objective call counter
    advanced by ``len(schedule_set)``), the chosen index and its objective
    value. Does not modify the selection itself.
    """
    if state.memory is None:
        raise NotStartedError(f"agent {state.agent_id!r} has not started")
    idx, value = _choose_index(state, state.memory.target, state.memory.config)
    new_state = replace(
        state, objective_calls=state.objective_calls + len(state.schedule_set)
    )
    return new_state, idx, value


def handle_message(
    state: AgentState, msg: KnowledgeMessage
) -> tuple[AgentState, list[KnowledgeMessage]]:
    """Apply the update / decide / publish rule to one received message."""
    if len(msg.target) != state.horizon.interval_count:
        raise StructuralError("message target length does not match agent horizon")

    calls = state.objective_calls
    just_started = False
    if state.memory is None:
        # Implicit start: a message arriving first initializes the agent
        # from the carried target, then is processed normally.
        memory, boot_calls = _boot_memory(state, msg.target)
        calls += boot_calls
        just_started = True
    else:
        memory = state.memory

    config, config_changed = _merge(memory.config, msg.config)
    best = memory.best
    best_changed = False
    if compare(msg.best, best) > 0:
        best = msg.best
        best_changed = True

    if not (config_changed or best_changed or just_started):
        # Fixed point: the message taught us nothing, stay silent.
        return state, []

    # Decide: re-optimize own selection against the merged belief.
    idx, value = _choose_index(state, memory.target, config)
    calls += len(state.schedule_set)
    own = config.get(state.agent_id)

    if own is not None and own.schedule_index == idx:
        cand_record = own
        cand_config = config
    else:
        cand_record = SelectionRecord(
            state.agent_id,
            idx,
            state.schedule_set[idx],
            version=own.version + 1 if own is not None else 0,
        )
        cand_config = {**config, state.agent_id: cand_record}

    candidate = make_candidate(cand_config, value, creator=state.agent_id)
    if compare(candidate, best) > 0:
        best = candidate
        best_changed = True
        new_config = cand_config
    else:
        # Conform to the best known solution: adopt the selection it
        # records for this agent, if any.
        recorded = best.configuration.get(state.agent_id)
        if (
            recorded is not None
            and own is not None
            and recorded.schedule_index != own.schedule_index
        ):
            adopted = SelectionRecord(
                state.agent_id,
                recorded.schedule_index,
                recorded.schedule,
                version=own.version + 1,
            )
            new_config = {**config, state.agent_id: adopted}
        else:
            new_config = config

    new_memory = WorkingMemory(memory.target, new_config, best)
    new_state = replace(state, memory=new_memory, objective_calls=calls)
    out = KnowledgeMessage(state.agent_id, memory.target, new_config, best)
    return new_state, [out] * len(state.neighbors)


def extract_assignment(state: AgentState) -> dict[str, int]:
    """Selection indices recorded in the best known candidate (commit step)."""
    if state.memory is None:
        raise NotStartedError(f"agent {state.agent_id!r} has not started")
    best = state.memory.best
    return {aid: rec.schedule_index for aid, rec in sorted(best.configuration.items())}
