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

A message also carries the simulator's delta of it: the sender's publish
count ``seq`` and the positions ``changed`` since the sender's previous
memory. Told the highest ``seq`` it has handled from the sender, a handler
drops an older message unread and merges the next one over its changed
records only, as a delta-state replica joins a delta (Almeida, Shoker and
Baquero, "Delta State Replicated Data Types", JPDC 2018).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True, slots=True)
class KnowledgeMessage:
    """The only message agents exchange, and an agent's memory: target,
    believed selections and best candidate found.

    An agent's memory is the message it last published, whose ``sender``
    is the agent itself. The target stays in the message because COHDA's
    message carries it, and it counts in the message's byte length.

    ``seq`` and ``changed`` are the simulator's delta of the message: they
    stay out of equality, out of ``repr`` and off the wire. ``seq`` is the
    sender's publish count (1 for its boot memory); ``changed`` holds the
    fleet positions whose record differs from the sender's previous memory,
    the empty configuration before the boot memory. ``seq`` 0 marks a
    message without a delta, whose ``changed`` is not read: a hand-built
    message, or one decoded by the tests' reference decoder, or one
    published from a hand-built memory.
    """

    sender: str
    target: TargetProfile
    config: SystemConfiguration
    best: Candidate
    seq: int = field(default=0, compare=False, repr=False)
    changed: tuple[int, ...] | None = field(default=None, compare=False, repr=False)


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
    size = config.size + (index[i] < 0)
    index[i] = idx
    version[i] += 1
    return SystemConfiguration._of(config.fleet, index, version, size)


def _decide(state: AgentState, target: TargetProfile, config: SystemConfiguration,
            best: Candidate | None, changed: tuple[int, ...], seq: int
            ) -> tuple[AgentState, KnowledgeMessage]:
    """Steps 2 and 3 against the merged belief ``config``, as publish ``seq``.
    No ``best`` means the own candidate wins; ``changed`` (the positions the
    update took) gains the own position when its version moves."""
    # Decide: re-optimize own selection against the merged belief.
    idx, value = _choose_index(state, target, config)
    i = state.position
    own, version = config.index[i], config.version[i]
    chosen = config if own == idx else _select(state, config, idx)

    candidate = Candidate(chosen, value, state.agent_id)
    if best is None or compare(candidate, best) > 0:
        best = candidate
        config = chosen
    else:
        # Conform to the best known solution: adopt the selection it
        # records for this agent, if any.
        recorded = best.configuration.index[i]
        if recorded >= 0 and recorded != own:
            config = _select(state, config, recorded)

    if config.version[i] != version and i not in changed:
        changed += (i,)
    memory = KnowledgeMessage(state.agent_id, target, config, best, seq, changed)
    calls = state.objective_calls + len(state.window_matrix)
    return AgentState(state.agent_id, state.fleet, state.neighbors, memory, calls), memory


def handle_start(
    state: AgentState, target: TargetProfile
) -> tuple[AgentState, KnowledgeMessage]:
    """Initialize the memory of an agent that has not started and announce
    it: the returned message is the new memory, sent to every neighbor. The
    memory is the decide step against the empty configuration with no best,
    as publish 1: the best own schedule at version zero.

    An agent starts once: a second start would reset its own version, so
    that its peers' older records of it would read as newer."""
    if state.memory is not None:
        raise StructuralError(f"agent {state.agent_id!r} has already started")
    if len(target) != state.horizon.interval_count:
        raise StructuralError("target length does not match agent horizon")
    return _decide(state, target, SystemConfiguration.empty(state.fleet), None, (), 1)


def _merge(
    local: SystemConfiguration,
    remote: SystemConfiguration,
    positions: tuple[int, ...] | None = None,
) -> tuple[SystemConfiguration, tuple[int, ...]]:
    """Union per agent id; strictly newer versions win, ties keep local.

    Both must be over one fleet. Compares only ``positions`` when given,
    every position otherwise. Returns the merged configuration, ``local``
    itself when no remote record is newer, and the positions where the
    remote record was newer.
    """
    lv, rv = local.version, remote.version
    if positions is None:
        newer = tuple(compress(count(), map(gt, rv, lv)))
    else:
        newer = tuple(i for i in positions if rv[i] > lv[i])
    if not newer:
        return local, ()
    index, version = local.index[:], local.version[:]
    size = local.size
    for i in newer:
        size += (remote.index[i] >= 0) - (index[i] >= 0)
        index[i] = remote.index[i]
        version[i] = rv[i]
    return SystemConfiguration._of(local.fleet, index, version, size), newer


def handle_message(
    state: AgentState, msg: KnowledgeMessage, since: int = 0
) -> tuple[AgentState, KnowledgeMessage | None]:
    """Apply the update / decide / publish rule to one received message.

    ``since`` is the highest ``seq`` of the sender's messages that this
    agent has already handled, 0 for none. A message at or below it teaches
    nothing: the sender's versions only grow and its best only improves,
    and this agent's memory holds that later message. The message right
    after it differs from it only at ``changed``, so only those records are
    merged. Any other message, and one without ``seq``, is merged whole.

    Returns the new state and its memory, which goes to every neighbor, or
    the unchanged state and ``None`` when the message taught nothing.
    Raises ``NotStartedError`` for an agent that has not started."""
    memory = state.memory
    if memory is None:
        raise NotStartedError(f"agent {state.agent_id!r} has not started")
    # A memory's target was checked when the agent started.
    if msg.target is not memory.target and len(msg.target) != state.horizon.interval_count:
        raise StructuralError("message target length does not match agent horizon")
    fleet = state.fleet
    if (getattr(msg.config, "fleet", None) is not fleet
            or getattr(msg.best.configuration, "fleet", None) is not fleet):
        raise StructuralError("message configuration is not over the agent's fleet")
    seq = msg.seq
    if 0 < seq <= since:
        return state, None

    positions = msg.changed if seq == since + 1 else None
    config, changed = _merge(memory.config, msg.config, positions)
    best_changed = compare(msg.best, memory.best) > 0
    if config is memory.config and not best_changed:
        # Fixed point: the message taught us nothing, stay silent.
        return state, None

    best = msg.best if best_changed else memory.best
    # A memory without a delta (seq 0, built by hand) has none to extend.
    return _decide(state, memory.target, config, best, changed, memory.seq + 1 if memory.seq else 0)
