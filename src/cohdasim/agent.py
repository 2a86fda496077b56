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

Working memory carries data derived from its configuration (``Derived``):
the other agents' window rows, the records' key bytes and versions, and the
wire length. A merge updates only the entries of changed records, so the
Python work of a delivery grows with the number of changed records, not
with the fleet. The decide step still sums the rows left to right in
sorted-id order, so its result is bitwise the one a from-scratch loop
gives. A published message carries the sender's sorted ids and versions;
when they are the receiver's ids, the update step finds the newer records
by comparing the two version tuples in C instead of looping over records.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import compress
from operator import gt
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
    key_of_parts,
    make_candidate,
    record_key_bytes,
)
from .wire import carry_config_length, config_length, record_length

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


class Derived:
    """Data derived from one configuration for one agent.

    ``ids`` are the configuration's agent ids, sorted. ``rows`` is a
    read-only matrix: a zero row, then the window row of each record in
    ``ids`` order, with the owner's own row zero, so that
    ``np.add.accumulate(rows, axis=0)[-1]`` is bitwise the left-to-right
    sorted-id sum of the other agents' window rows. ``parts`` are the
    records' key bytes and ``versions`` their versions, both in ``ids``
    order, and ``length`` is the configuration's wire length. ``config``,
    ``owner`` and ``horizon`` say what it was derived from; it is valid only
    for exactly those objects.
    """

    __slots__ = ("config", "owner", "horizon", "ids", "rows", "parts", "versions", "length")

    def __init__(self, config, owner, horizon, ids, rows, parts, versions, length):
        self.config = config
        self.owner = owner
        self.horizon = horizon
        self.ids = ids
        self.rows = rows
        self.parts = parts
        self.versions = versions
        self.length = length


@dataclass(frozen=True)
class WorkingMemory:
    """An agent's local knowledge: target, believed selections, best found.

    ``derived`` carries data derived from ``config`` so that a delivery costs
    Python work in the number of changed records only. It is never
    authoritative: when it is missing or was derived from another config
    (e.g. after ``dataclasses.replace``) it is rebuilt from ``config``.
    """

    target: TargetProfile
    config: SystemConfiguration
    best: Candidate
    derived: Derived | None = field(default=None, compare=False, repr=False)


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
    choose step adds exactly ``len(schedule_set)``. The horizon is the
    schedule set's.
    """

    agent_id: str
    schedule_set: ScheduleSet
    neighbors: tuple[str, ...]
    memory: WorkingMemory | None = None
    objective_calls: int = 0

    @property
    def horizon(self) -> PlanningHorizon:
        return self.schedule_set.horizon


def _derive(
    state: AgentState, base: Derived, config: SystemConfiguration, changed: Sequence[str]
) -> Derived:
    """``base`` brought up to ``config``, which differs from ``base.config``
    only in the records of the ids in ``changed``. Shares every part that
    did not change; never writes to an array of ``base``."""
    old = base.config
    added = [aid for aid in changed if aid not in old]
    if added:
        ids = tuple(sorted(base.ids + tuple(added)))
        at = {aid: i for i, aid in enumerate(ids)}
        rows = np.zeros((len(ids) + 1, base.rows.shape[1]), dtype=np.float64)
        rows[[at[aid] + 1 for aid in base.ids]] = base.rows[1:]
        parts = [b""] * len(ids)
        versions = [0] * len(ids)
        for aid, part, version in zip(base.ids, base.parts, base.versions):
            parts[at[aid]] = part
            versions[at[aid]] = version
    else:
        ids = base.ids
        rows = base.rows
        parts = list(base.parts)
        versions = list(base.versions)
    length = base.length
    horizon = state.horizon
    w = horizon.window_index
    for aid in changed:
        rec = config[aid]
        i = bisect_left(ids, aid)
        parts[i] = record_key_bytes(rec)
        versions[i] = rec.version
        prev = old.get(aid)
        length += record_length(rec) - (record_length(prev) if prev is not None else 0)
        if aid == state.agent_id:
            continue
        if len(rec.schedule) != horizon.interval_count:
            raise StructuralError(f"schedule of {aid!r} does not match horizon")
        if rows is base.rows:
            rows = rows.copy()
        rows[i + 1] = rec.schedule.arr[w]
    rows.setflags(write=False)
    return Derived(
        config, state.agent_id, horizon, ids, rows, tuple(parts), tuple(versions), length
    )


def _derived(state: AgentState, config: SystemConfiguration, carried: Derived | None) -> Derived:
    """``carried`` if it was derived from ``config`` for this agent, else the
    same data rebuilt from scratch."""
    if (
        carried is not None
        and carried.config is config
        and carried.owner == state.agent_id
        and carried.horizon is state.horizon
    ):
        return carried
    empty = np.zeros((1, len(state.horizon.product_window)), dtype=np.float64)
    base = Derived({}, state.agent_id, state.horizon, (), empty, (), (), config_length({}))
    return _derive(state, base, config, sorted(config))


def _choose_index(state: AgentState, target: TargetProfile, derived: Derived) -> tuple[int, float]:
    """Index of the own schedule minimizing the objective against the
    configuration ``derived`` was derived from, with the own entry replaced,
    plus the resulting objective value. Ties break to the lowest index.
    """
    others = np.add.accumulate(derived.rows, axis=0)[-1]
    gap = target.arr[state.horizon.window_index] - others
    values = np.abs(state.schedule_set.window_matrix - gap).sum(axis=1)
    idx = int(np.argmin(values))
    return idx, float(values[idx])


def _select(state: AgentState, derived: Derived, idx: int, schedule: Schedule) -> Derived:
    """``derived`` with the own selection set to ``schedule`` at index
    ``idx``, one version above the old own record, or version 0 for the
    first."""
    own = derived.config.get(state.agent_id)
    record = SelectionRecord(
        state.agent_id, idx, schedule, version=0 if own is None else own.version + 1
    )
    return _derive(state, derived, {**derived.config, state.agent_id: record}, [state.agent_id])


def _candidate(state: AgentState, derived: Derived, value: float) -> Candidate:
    candidate = make_candidate(
        derived.config, value, creator=state.agent_id, key=key_of_parts(derived.parts)
    )
    carry_config_length(candidate, derived.length)
    return candidate


def _carry_versions(message: KnowledgeMessage, derived: Derived) -> None:
    """Attach the sorted ids and versions of ``derived`` to a message. They
    are derived, not part of the message: ``dataclasses.replace`` drops
    them, and a receiver uses them only while ``derived.config`` is the
    message's ``config``."""
    message.__dict__["_versions"] = (derived.config, derived.ids, derived.versions)


def _publish(state: AgentState, memory: WorkingMemory) -> list[KnowledgeMessage]:
    """One knowledge message per neighbor, parallel to ``state.neighbors``."""
    message = KnowledgeMessage(state.agent_id, memory.target, memory.config, memory.best)
    carry_config_length(message, memory.derived.length)
    _carry_versions(message, memory.derived)
    return [message] * len(state.neighbors)


def _boot_memory(state: AgentState, target: TargetProfile) -> tuple[WorkingMemory, int]:
    """Initial working memory: best own schedule against an otherwise empty
    configuration, version counter starting at zero."""
    if len(state.schedule_set) == 0:
        raise ConfigurationError(f"agent {state.agent_id!r} has no schedules")
    if len(target) != state.horizon.interval_count:
        raise StructuralError("target length does not match agent horizon")
    empty = _derived(state, {}, None)
    idx, value = _choose_index(state, target, empty)
    derived = _select(state, empty, idx, state.schedule_set[idx])
    best = _candidate(state, derived, value)
    return WorkingMemory(target, derived.config, best, derived), len(state.schedule_set)


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
    return new_state, _publish(state, memory)


def _merge(
    local: SystemConfiguration, remote: SystemConfiguration
) -> tuple[SystemConfiguration, list[str]]:
    """Union per agent id; strictly newer versions win, ties keep local.

    Returns the merged configuration and the ids whose records it took
    from ``remote``. When nothing was newer that list is empty and the
    local dict object is returned unchanged.
    """
    merged = None
    changed = []
    get = local.get
    for aid, rec in remote.items():
        current = get(aid)
        if current is None or rec.version > current.version:
            if merged is None:
                merged = dict(local)
            merged[aid] = rec
            changed.append(aid)
    return (local if merged is None else merged), changed


def _merge_message(local: Derived, msg: KnowledgeMessage) -> tuple[SystemConfiguration, list[str]]:
    """``_merge(local.config, msg.config)``, up to the order of the changed
    ids. When the message carries versions derived from its own config for
    exactly the local ids, the newer records are found by comparing the two
    version tuples in C; otherwise this is the ``_merge`` loop."""
    carried = msg.__dict__.get("_versions")
    if carried is None or carried[0] is not msg.config or carried[1] != local.ids:
        return _merge(local.config, msg.config)
    changed = list(compress(local.ids, map(gt, carried[2], local.versions)))
    if not changed:
        return local.config, changed
    merged = dict(local.config)
    remote = msg.config
    for aid in changed:
        merged[aid] = remote[aid]
    return merged, changed


def choose_schedule(state: AgentState) -> tuple[AgentState, int, float]:
    """Re-optimize the own selection against the current believed
    configuration. Returns the updated state (objective call counter
    advanced by ``len(schedule_set)``), the chosen index and its objective
    value. Does not modify the selection itself.
    """
    memory = state.memory
    if memory is None:
        raise NotStartedError(f"agent {state.agent_id!r} has not started")
    derived = _derived(state, memory.config, memory.derived)
    idx, value = _choose_index(state, memory.target, derived)
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

    derived = _derived(state, memory.config, memory.derived)
    config, changed = _merge_message(derived, msg)
    best = memory.best
    best_changed = compare(msg.best, best) > 0
    if best_changed:
        best = msg.best

    if not (changed or best_changed or just_started):
        # Fixed point: the message taught us nothing, stay silent.
        return state, []

    # Decide: re-optimize own selection against the merged belief.
    if changed:
        derived = _derive(state, derived, config, changed)
    idx, value = _choose_index(state, memory.target, derived)
    calls += len(state.schedule_set)
    own = config.get(state.agent_id)
    if own is not None and own.schedule_index == idx:
        chosen = derived
    else:
        chosen = _select(state, derived, idx, state.schedule_set[idx])

    candidate = _candidate(state, chosen, value)
    if compare(candidate, best) > 0:
        best = candidate
        derived = chosen
    else:
        # Conform to the best known solution: adopt the selection it
        # records for this agent, if any.
        recorded = best.configuration.get(state.agent_id)
        if (
            recorded is not None
            and own is not None
            and recorded.schedule_index != own.schedule_index
        ):
            derived = _select(state, derived, recorded.schedule_index, recorded.schedule)

    new_memory = WorkingMemory(memory.target, derived.config, best, derived)
    new_state = replace(state, memory=new_memory, objective_calls=calls)
    return new_state, _publish(state, new_memory)


def extract_assignment(state: AgentState) -> dict[str, int]:
    """Selection indices recorded in the best known candidate (commit step)."""
    if state.memory is None:
        raise NotStartedError(f"agent {state.agent_id!r} has not started")
    best = state.memory.best
    return {aid: rec.schedule_index for aid, rec in sorted(best.configuration.items())}
