import random

import pytest
from hypothesis import settings

from cohdasim.agent import AgentState, ScheduleSet
from cohdasim.core import PlanningHorizon, Schedule, SelectionRecord, TargetProfile

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def make_agent(agent_id, schedules, horizon, neighbors=()):
    """Agent with explicit schedule rows (lists of floats)."""
    sset = ScheduleSet((Schedule(tuple(row)) for row in schedules), horizon)
    return AgentState(agent_id, sset, tuple(neighbors))


def record(agent_id, index, row, version=0):
    return SelectionRecord(agent_id, index, Schedule(tuple(row)), version)


def random_instance(rng: random.Random, n_agents, n_schedules, T, window=None):
    """Random raw instance: ids, schedule rows, target, horizon."""
    if window is None:
        window = tuple(range(T))
    horizon = PlanningHorizon(T, 1.0, window)
    ids = [f"a{i:03d}" for i in range(n_agents)]
    sets = [
        [[rng.uniform(-5.0, 5.0) for _ in range(T)] for _ in range(n_schedules)]
        for _ in ids
    ]
    target = TargetProfile(tuple(rng.uniform(-5.0, 5.0) * n_agents / 2 for _ in range(T)))
    return ids, sets, target, horizon


@pytest.fixture
def horizon1():
    return PlanningHorizon(1, 1.0, (0,))


@pytest.fixture
def horizon4():
    return PlanningHorizon(4, 0.25, (0, 1, 2, 3))
