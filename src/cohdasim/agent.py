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
3. publish  -- send the (possibly updated) target, belief and best
               candidate to every neighbor, but only if something
               actually changed.

If the update step changes neither the configuration nor the best
candidate, steps 2 and 3 are skipped entirely. This is a deliberate
reading: it makes a repeated message a no-op and rules out livelock by
re-broadcast.

An agent is a pure state transition function ``(state, event) -> (state,
message)``; all state types are immutable values. An agent's memory is the
knowledge message it last published, so one value is both what it knows
and what it sends to every neighbor; a handler returns ``None`` instead of
a message for a delivery that changed nothing.

Every agent of a run references one ``Fleet``: the sorted agent ids, each
agent's power table and its window rows, and what a record adds to a key
and to the wire. A configuration is an index and a version array over that
table, so the update step is one vectorized comparison of versions and the
decide step gathers the other agents' window rows from the table. The
decide step sums those rows left to right in sorted-id order, so its
result is bitwise the one a from-scratch loop over the records gives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress, count
from operator import gt

import numpy as np

from .core import (
    Candidate,
    Fleet,
    PlanningHorizon,
    StructuralError,
    SystemConfiguration,
    TargetProfile,
    compare,
)

__all__ = [
    "NotStartedError",
    "KnowledgeMessage",
    "AgentState",
    "handle_start",
    "handle_message",
]


class NotStartedError(RuntimeError):
    """An operation needs an agent's memory, but the agent never started."""


@dataclass(frozen=True)
class KnowledgeMessage:
    """The only message agents exchange, and an agent's memory: target,
    believed selections and best candidate found.

    An agent's memory is the message it last published, whose ``sender``
    is the agent itself. Carries the target profile so that an agent
    receiving knowledge before an explicit start can initialize itself
    from the message.
    """

    sender: str
    target: TargetProfile
    config: SystemConfiguration
    best: Candidate


@dataclass(frozen=True)
class AgentState:
    """Complete agent state between events.

    ``neighbors`` are the agents every publish goes to, in send order; they
    are the topology the kernel routes on. ``memory`` is the message the
    agent last published, ``None`` before it starts. ``objective_calls``
    counts objective evaluations: every run of the choose step adds exactly
    the number of own schedules. The window matrix and the horizon are the
    fleet's.
    """

    agent_id: str
    fleet: Fleet
    neighbors: tuple[str, ...]
    memory: KnowledgeMessage | None = None
    objective_calls: int = 0

    def __post_init__(self) -> None:
        if self.agent_id not in self.fleet.position:
            raise StructuralError(f"agent {self.agent_id!r} is not in its fleet")

    @property
    def position(self) -> int:
        return self.fleet.position[self.agent_id]

    @property
    def window_matrix(self) -> np.ndarray:
        """The own schedules' window columns, one row per schedule."""
        return self.fleet.windows[self.position]

    @property
    def horizon(self) -> PlanningHorizon:
        return self.fleet.horizon


def _choose_index(
    state: AgentState, target: TargetProfile, config: SystemConfiguration
) -> tuple[int, float]:
    """Index of the own schedule minimizing the objective against ``config``
    with the own entry replaced, plus the resulting objective value. Ties
    break to the lowest index.

    The other agents' window rows are gathered from the fleet table in id
    order and summed left to right, unknown and own agents on a zero row.
    Zero rows change a partial sum at most in the sign of a zero, which the
    absolute values do not see, so the result is bitwise the one of the
    left-to-right sum over the known records. Each step writes into a
    buffer of the step before; the per-row sums run over the window
    matrix's Fortran order, as ``sum(axis=1)`` would.
    """
    fleet = state.fleet
    i = state.position
    pick = np.add(fleet.offsets, np.frombuffer(config.index, np.intc))
    pick[i] = fleet.offsets[i] - 1
    others = np.add.accumulate(fleet.rows.take(pick, axis=0), axis=0)[-1]
    gap = np.subtract(target.arr[fleet.horizon.window_index], others, out=others)
    diff = np.subtract(fleet.windows[i], gap)
    values = np.add.reduce(np.abs(diff, out=diff), axis=1)
    idx = int(values.argmin())
    return idx, float(values[idx])


def _select(state: AgentState, config: SystemConfiguration, idx: int) -> SystemConfiguration:
    """``config`` with the own selection set to schedule ``idx``, one version
    above the old own record, or version 0 for the first."""
    i = state.position
    index, version = config.index[:], config.version[:]
    index[i] = idx
    version[i] += 1
    return SystemConfiguration(config.fleet, index, version)


def _boot_memory(state: AgentState, target: TargetProfile) -> KnowledgeMessage:
    """Initial memory: best own schedule against an otherwise empty
    configuration, version counter starting at zero."""
    if len(target) != state.horizon.interval_count:
        raise StructuralError("target length does not match agent horizon")
    empty = SystemConfiguration.empty(state.fleet)
    idx, value = _choose_index(state, target, empty)
    config = _select(state, empty, idx)
    best = Candidate(config, value, state.agent_id)
    return KnowledgeMessage(state.agent_id, target, config, best)


def handle_start(
    state: AgentState, target: TargetProfile
) -> tuple[AgentState, KnowledgeMessage]:
    """Initialize (or re-initialize) the memory and announce it: the
    returned message is the new memory, sent to every neighbor."""
    memory = _boot_memory(state, target)
    calls = state.objective_calls + len(state.window_matrix)
    return replace(state, memory=memory, objective_calls=calls), memory


def _merge(local: SystemConfiguration, remote: SystemConfiguration) -> SystemConfiguration:
    """Union per agent id; strictly newer versions win, ties keep local.

    Both must be over one fleet. Returns ``local`` itself when no remote
    record is newer.
    """
    if not any(map(gt, remote.version, local.version)):
        return local
    newer = compress(count(), map(gt, remote.version, local.version))
    index, version = local.index[:], local.version[:]
    for i in newer:
        index[i] = remote.index[i]
        version[i] = remote.version[i]
    return SystemConfiguration(local.fleet, index, version)


def handle_message(
    state: AgentState, msg: KnowledgeMessage
) -> tuple[AgentState, KnowledgeMessage | None]:
    """Apply the update / decide / publish rule to one received message.

    Returns the new state and its memory, which goes to every neighbor, or
    the unchanged state and ``None`` when the message taught nothing."""
    if len(msg.target) != state.horizon.interval_count:
        raise StructuralError("message target length does not match agent horizon")
    for config in (msg.config, msg.best.configuration):
        if getattr(config, "fleet", None) is not state.fleet:
            raise StructuralError("message configuration is not over the agent's fleet")

    calls = state.objective_calls
    memory = state.memory
    just_started = memory is None
    if just_started:
        # Implicit start: a message arriving first initializes the agent
        # from the carried target, then is processed normally.
        memory = _boot_memory(state, msg.target)
        calls += len(state.window_matrix)

    config = _merge(memory.config, msg.config)
    best = memory.best
    best_changed = compare(msg.best, best) > 0
    if best_changed:
        best = msg.best

    if config is memory.config and not (best_changed or just_started):
        # Fixed point: the message taught us nothing, stay silent.
        return state, None

    # Decide: re-optimize own selection against the merged belief.
    idx, value = _choose_index(state, memory.target, config)
    calls += len(state.window_matrix)
    own = config.index[state.position]
    chosen = config if own == idx else _select(state, config, idx)

    candidate = Candidate(chosen, value, state.agent_id)
    if compare(candidate, best) > 0:
        best = candidate
        config = chosen
    else:
        # Conform to the best known solution: adopt the selection it
        # records for this agent, if any.
        recorded = best.configuration.index[state.position]
        if recorded >= 0 and recorded != own:
            config = _select(state, config, recorded)

    new_memory = KnowledgeMessage(state.agent_id, memory.target, config, best)
    return AgentState(state.agent_id, state.fleet, state.neighbors, new_memory, calls), new_memory
