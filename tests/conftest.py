import struct
from hashlib import blake2b

import pytest
from hypothesis import settings

from cohdasim import core
from cohdasim.agent import AgentState
from cohdasim.core import Fleet, PlanningHorizon, SelectionRecord, SystemConfiguration

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def make_fleet(horizon, schedules):
    """Fleet over ``schedules``: agent id -> schedule rows (lists of floats)."""
    return Fleet(schedules, horizon)


def make_agents(horizon, schedules, neighbors=None):
    """Agents over one shared fleet, by id. ``schedules`` maps each id to its
    schedule rows, ``neighbors`` an id to its neighbors' ids."""
    fleet = make_fleet(horizon, schedules)
    neighbors = neighbors or {}
    return {aid: AgentState(aid, fleet, tuple(neighbors.get(aid, ()))) for aid in schedules}


def make_agent(agent_id, schedules, horizon, neighbors=()):
    """An agent alone in its fleet, with explicit schedule rows."""
    return make_agents(horizon, {agent_id: schedules}, {agent_id: neighbors})[agent_id]


def configuration(fleet, picks):
    """Configuration over ``fleet`` from ``{agent_id: (index, version)}``:
    each agent selects that entry of its power table."""
    index = [-1] * len(fleet)
    version = [-1] * len(fleet)
    for aid, (idx, ver) in picks.items():
        i = fleet.position[aid]
        assert 0 <= idx < len(fleet.power[i]) and ver >= 0
        index[i], version[i] = idx, ver
    return SystemConfiguration(fleet, tuple(index), tuple(version))


def reference_key(config):
    """``core.configuration_key`` of ``config``, computed from its records
    one by one in sorted agent-id order."""
    parts = []
    for aid, rec in sorted(config.items()):
        raw = aid.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)) + raw + struct.pack("<q", rec.schedule_index))
    return int.from_bytes(blake2b(b"".join(parts), digest_size=8).digest(), "little")


def record(agent_id, index, row, version=0):
    return SelectionRecord(agent_id, index, tuple(map(float, row)), version)


@pytest.fixture
def refuse_records(monkeypatch):
    """Make building a ``SelectionRecord`` in ``cohdasim.core`` raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a selection record was built")

    monkeypatch.setattr(core, "SelectionRecord", refuse)


@pytest.fixture
def horizon1():
    return PlanningHorizon(1, 1.0, (0,))


@pytest.fixture
def horizon4():
    return PlanningHorizon(4, 0.25, (0, 1, 2, 3))
