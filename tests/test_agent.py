import dataclasses
import random
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cohdasim import agent as agent_module
from cohdasim.agent import (
    AgentState,
    ConfigurationError,
    NotStartedError,
    ScheduleSet,
    choose_schedule,
    extract_assignment,
    handle_message,
    handle_start,
    _merge,
    KnowledgeMessage,
    WorkingMemory,
)
from cohdasim.core import (
    PlanningHorizon,
    Schedule,
    SelectionRecord,
    StructuralError,
    TargetProfile,
    compare,
    configuration_key,
    make_candidate,
    objective,
)
from cohdasim.wire import encode_message, encoded_length

from conftest import make_agent, record


# --- handle_start -----------------------------------------------------------


def test_start_selects_enumerated_best(horizon1):
    # Oracle: enumerate both options against the target.
    target = TargetProfile((2.0,))
    rows = [[1.0], [2.0]]
    best_idx = min(range(2), key=lambda i: abs(rows[i][0] - 2.0))
    assert best_idx == 1

    agent = make_agent("A", rows, horizon1, neighbors=("B", "C"))
    state, msgs = handle_start(agent, target)
    assert state.memory.best.fitness == 0.0
    assert state.memory.config["A"].schedule_index == 1
    assert state.memory.config["A"].version == 0
    assert len(msgs) == 2
    assert all(m.sender == "A" and m.target == target for m in msgs)
    assert state.objective_calls == 2


def test_start_single_option(horizon1):
    agent = make_agent("A", [[0.0]], horizon1)
    state, msgs = handle_start(agent, TargetProfile((3.0,)))
    assert state.memory.config["A"].schedule_index == 0
    assert msgs == []


def test_start_identical_schedules_lowest_index(horizon1):
    agent = make_agent("A", [[1.5], [1.5]], horizon1)
    state, _ = handle_start(agent, TargetProfile((1.5,)))
    assert state.memory.config["A"].schedule_index == 0


def test_start_empty_schedule_set(horizon1):
    agent = make_agent("A", [], horizon1)
    with pytest.raises(ConfigurationError):
        handle_start(agent, TargetProfile((0.0,)))


def test_start_target_length_mismatch(horizon1):
    agent = make_agent("A", [[0.0]], horizon1)
    with pytest.raises(StructuralError):
        handle_start(agent, TargetProfile((0.0, 1.0)))


def test_agent_horizon_is_its_schedule_sets(horizon4):
    # A separate horizon could disagree with the schedule set's window.
    agent = make_agent("A", [[0.0, 0.0, 0.0, 0.0]], horizon4)
    assert agent.horizon is agent.schedule_set.horizon
    with pytest.raises(TypeError):
        AgentState("A", agent.schedule_set, (), horizon=horizon4)


# --- merge_config -----------------------------------------------------------


def test_merge_union_with_empty():
    remote = {"A": record("A", 0, [1.0], version=3)}
    assert _merge({}, remote)[0] == remote


def test_merge_larger_version_wins_keep_local_on_tie():
    local = {"A": record("A", 1, [1.0], version=5)}
    remote = {"A": record("A", 0, [0.0], version=3)}
    assert _merge(local, remote)[0]["A"].schedule_index == 1

    tie_local = {"A": record("A", 1, [1.0], version=3)}
    merged = _merge(tie_local, remote)[0]
    assert merged["A"] is tie_local["A"]


def test_merge_mixed_example():
    local = {"A": record("A", 0, [0.0], version=1)}
    remote = {
        "A": record("A", 1, [1.0], version=2),
        "B": record("B", 2, [2.0], version=0),
    }
    merged = _merge(local, remote)[0]
    assert merged["A"].version == 2 and merged["A"].schedule_index == 1
    assert merged["B"].schedule_index == 2


@st.composite
def configs(draw):
    ids = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), unique=True, max_size=4))
    return {
        aid: record(aid, draw(st.integers(0, 3)), [float(draw(st.integers(-3, 3)))],
                    version=draw(st.integers(0, 4)))
        for aid in ids
    }


@given(configs())
def test_merge_idempotent(config):
    assert _merge(config, config)[0] == config


@given(configs(), configs())
def test_merge_commutative_up_to_equal_version_ties(a, b):
    ab = _merge(a, b)[0]
    ba = _merge(b, a)[0]
    assert set(ab) == set(ba)
    for aid in ab:
        if ab[aid] != ba[aid]:
            # Only equal-version conflicts may differ (each side kept its own).
            assert ab[aid].version == ba[aid].version


@given(configs(), configs(), configs())
def test_merge_associative_on_conflict_free_inputs(a, b, c):
    # Make inputs conflict-free: distinct versions per agent id across maps.
    seen: dict[str, int] = {}
    for m in (a, b, c):
        for aid in list(m):
            bump = seen.get(aid, 0)
            m[aid] = dataclasses.replace(m[aid], version=bump)
            seen[aid] = bump + 1
    left = _merge(_merge(a, b)[0], c)[0]
    right = _merge(a, _merge(b, c)[0])[0]
    assert left == right


# --- choose_schedule --------------------------------------------------------


def test_choose_fills_gap(horizon1):
    agent = make_agent("A", [[-2.0], [0.0]], horizon1)
    state, _ = handle_start(agent, TargetProfile((-100.0,)))
    config = dict(state.memory.config)
    config["X"] = record("X", 0, [-98.0])
    state = dataclasses.replace(state, memory=dataclasses.replace(state.memory, config=config))
    state2, idx, value = choose_schedule(state)
    assert idx == 0 and value == 0.0
    assert state2.objective_calls == state.objective_calls + 2


def test_choose_all_identical_lowest_index(horizon1):
    agent = make_agent("A", [[1.0], [1.0], [1.0]], horizon1)
    state, _ = handle_start(agent, TargetProfile((0.0,)))
    _, idx, _ = choose_schedule(state)
    assert idx == 0


def test_choose_zero_target_minimal_magnitude():
    horizon = PlanningHorizon(2, 1.0, (0, 1))
    rows = [[3.0, -3.0], [1.0, 1.0], [-2.0, 0.5]]
    # Enumeration oracle: the row with minimal L1 magnitude wins.
    expect = min(range(3), key=lambda i: sum(abs(v) for v in rows[i]))
    agent = make_agent("A", rows, horizon)
    state, _ = handle_start(agent, TargetProfile((0.0, 0.0)))
    _, idx, _ = choose_schedule(state)
    assert idx == expect == 1


def test_choose_requires_memory(horizon1):
    agent = make_agent("A", [[0.0]], horizon1)
    with pytest.raises(NotStartedError):
        choose_schedule(agent)


# --- handle_message ---------------------------------------------------------


def _started(agent_id, rows, horizon, target, neighbors=("N",)):
    agent = make_agent(agent_id, rows, horizon, neighbors=neighbors)
    state, _ = handle_start(agent, target)
    return state


def test_message_identical_to_memory_is_silent(horizon1):
    target = TargetProfile((-1.0,))
    state = _started("A", [[-1.0], [0.0]], horizon1, target)
    echo = KnowledgeMessage("B", target, dict(state.memory.config), state.memory.best)
    state2, out = handle_message(state, echo)
    assert out == []
    assert state2.memory == state.memory
    assert state2.objective_calls == state.objective_calls  # step 2 skipped


def test_message_with_larger_best_replaces_and_publishes(horizon1):
    target = TargetProfile((-5.0,))
    state = _started("A", [[-1.0]], horizon1, target)
    remote_config = {
        "B": record("B", 0, [-2.0]),
        "C": record("C", 1, [-2.0]),
    }
    remote_best = make_candidate(remote_config, objective(remote_config, target, horizon1), "B")
    msg = KnowledgeMessage("B", target, remote_config, remote_best)
    state2, out = handle_message(state, msg)
    assert state2.memory.best.size == 3  # own candidate over the merged view wins
    assert len(out) == len(state.neighbors)
    assert compare(state2.memory.best, remote_best) > 0
    # The decide step ran: exactly one evaluation per own schedule.
    assert state2.objective_calls == state.objective_calls + len(state.schedule_set)


def test_two_agent_quiescence_matches_enumeration(horizon1):
    # Brute-force oracle over the 2x2 product.
    target = TargetProfile((4.0,))
    rows_a = [[1.0], [2.0]]
    rows_b = [[1.0], [3.0]]
    combos = [
        (ia, ib, abs(rows_a[ia][0] + rows_b[ib][0] - 4.0))
        for ia in range(2)
        for ib in range(2)
    ]
    best = min(combos, key=lambda c: c[2])
    assert best[:2] == (0, 1) and best[2] == 0.0

    a = make_agent("A", rows_a, horizon1, neighbors=("B",))
    b = make_agent("B", rows_b, horizon1, neighbors=("A",))
    state_a, out_a = handle_start(a, target)
    state_b, out_b = handle_start(b, target)
    inbox = [("B", out_a[0]), ("A", out_b[0])]
    states = {"A": state_a, "B": state_b}
    hops = 0
    while inbox and hops < 50:
        hops += 1
        to, msg = inbox.pop(0)
        states[to], out = handle_message(states[to], msg)
        other = "A" if to == "B" else "B"
        inbox.extend((other, m) for m in out)
    assert hops < 50
    for state in states.values():
        assert extract_assignment(state) == {"A": 0, "B": 1}
        assert state.memory.best.fitness == 0.0


def test_message_unknown_target_length(horizon1):
    state = _started("A", [[0.0]], horizon1, TargetProfile((0.5,)))
    bad = KnowledgeMessage("B", TargetProfile((1.0, 2.0)), {}, state.memory.best)
    with pytest.raises(StructuralError):
        handle_message(state, bad)


def test_implicit_start_on_first_message(horizon1):
    target = TargetProfile((-3.0,))
    sender = _started("B", [[-3.0]], horizon1, target)
    msg = KnowledgeMessage("B", target, dict(sender.memory.config), sender.memory.best)
    cold = make_agent("A", [[-1.0], [0.0]], horizon1, neighbors=("B",))
    state, out = handle_message(cold, msg)
    assert state.memory is not None
    assert state.memory.target == target
    assert "A" in state.memory.config and "B" in state.memory.config
    assert len(out) == 1  # started agents announce themselves
    # Boot choose plus decide choose.
    assert state.objective_calls == 4


def test_adopt_realigns_with_best(horizon1):
    target = TargetProfile((-2.0,))
    state = _started("A", [[-1.0], [-2.0]], horizon1, target)
    assert state.memory.config["A"].schedule_index == 1
    # A remote best of larger size records index 0 for A; A cannot beat it
    # alone (size), so it must conform and bump its version.
    remote_config = {
        "A": record("A", 0, [-1.0], version=0),
        "B": record("B", 0, [-1.0], version=0),
    }
    remote_best = make_candidate(remote_config, objective(remote_config, target, horizon1), "B")
    msg = KnowledgeMessage("B", target, remote_config, remote_best)
    state2, out = handle_message(state, msg)
    if compare(state2.memory.best, remote_best) == 0:
        assert state2.memory.config["A"].schedule_index == 0
        assert state2.memory.config["A"].version == 1
    else:
        # Own candidate with the same size but better fitness won instead.
        assert state2.memory.best.fitness <= remote_best.fitness
    assert len(out) == 1


def test_version_monotone_over_message_sequence(horizon1):
    rng = random.Random(3)
    target = TargetProfile((-4.0,))
    state = _started("A", [[-1.0], [-2.0], [0.0]], horizon1, target)
    versions = [state.memory.config["A"].version]
    for step in range(30):
        other = f"B{rng.randrange(3)}"
        config = {other: record(other, rng.randrange(2), [float(rng.randrange(-3, 1))],
                                version=rng.randrange(4))}
        best = make_candidate(config, objective(config, target, horizon1), other)
        state, _ = handle_message(state, KnowledgeMessage(other, target, config, best))
        versions.append(state.memory.config["A"].version)
    assert versions == sorted(versions)


def test_anytime_monotone_over_message_sequence(horizon1):
    rng = random.Random(11)
    target = TargetProfile((-6.0,))
    state = _started("A", [[-1.0], [-2.0], [0.0]], horizon1, target)
    previous = state.memory.best
    for step in range(40):
        other = f"C{rng.randrange(4)}"
        config = {other: record(other, 0, [float(rng.randrange(-4, 0))], version=rng.randrange(3))}
        best = make_candidate(config, objective(config, target, horizon1), other)
        state, _ = handle_message(state, KnowledgeMessage(other, target, config, best))
        assert compare(state.memory.best, previous) >= 0
        previous = state.memory.best


def test_best_config_subset_of_own_config_invariant(horizon1):
    rng = random.Random(5)
    target = TargetProfile((-6.0,))
    state = _started("A", [[-2.0], [0.0]], horizon1, target)
    for step in range(40):
        other = f"D{rng.randrange(4)}"
        config = {
            other: record(other, 0, [float(rng.randrange(-4, 0))], version=rng.randrange(3)),
            "E": record("E", 0, [-1.0], version=rng.randrange(3)),
        }
        best = make_candidate(config, objective(config, target, horizon1), other)
        state, _ = handle_message(state, KnowledgeMessage(other, target, config, best))
        assert set(state.memory.best.configuration) <= set(state.memory.config)


# --- carried derived state ----------------------------------------------------


def _reference_choose(state, target, config):
    """The decide step from scratch: sum the other agents' full schedules
    left to right in sorted-id order, then score every own schedule."""
    horizon = state.horizon
    others = np.zeros(horizon.interval_count, dtype=np.float64)
    for aid in sorted(config):
        if aid != state.agent_id:
            others += config[aid].schedule.arr
    w = horizon.window_index
    values = np.abs(state.schedule_set.window_matrix - (target.arr[w] - others[w])).sum(axis=1)
    idx = int(np.argmin(values))
    return idx, float(values[idx])


def _bits(x):
    return struct.pack("<d", x)


_IDS = [f"a{i:02d}" for i in range(12)]
_OWN = "a05"
_power = st.one_of(
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 0.1, -0.3, 1e-17]),
)


@st.composite
def _message_runs(draw):
    T = draw(st.sampled_from([1, 1, 3]))
    window = tuple(draw(st.sets(st.integers(0, T - 1), min_size=1)))
    horizon = PlanningHorizon(T, 1.0, window)

    def schedule():
        return [draw(_power) for _ in range(T)]

    def config(ids):
        return {aid: SelectionRecord(aid, draw(st.integers(0, 3)), Schedule(schedule()),
                                     draw(st.integers(0, 4)))
                for aid in ids}

    rows = [schedule() for _ in range(draw(st.integers(1, 4)))]
    target = TargetProfile(schedule())
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        sender = draw(st.sampled_from([aid for aid in _IDS if aid != _OWN]))
        known = draw(st.lists(st.sampled_from(_IDS), unique=True, max_size=len(_IDS)))
        best_ids = draw(st.lists(st.sampled_from(_IDS), unique=True, min_size=1))
        best = make_candidate(config(best_ids), draw(st.floats(0.0, 50.0)), sender)
        # In one step of four, swap the memory's config for another first.
        swap = None
        if draw(st.integers(0, 3)) == 0:
            swap = config(draw(st.lists(st.sampled_from(_IDS), unique=True)))
        steps.append((KnowledgeMessage(sender, target, config(known), best), swap))
    return horizon, rows, target, steps


@given(_message_runs())
def test_carried_state_matches_from_scratch(run):
    horizon, rows, target, steps = run
    decisions = []
    original = agent_module._choose_index

    def recording(state, target, derived):
        idx, value = original(state, target, derived)
        decisions.append((state, target, derived.config, idx, value))
        return idx, value

    state, _ = handle_start(make_agent(_OWN, rows, horizon, neighbors=("x", "y")), target)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(agent_module, "_choose_index", recording)
        for msg, swap in steps:
            if swap is not None:
                state = dataclasses.replace(
                    state, memory=dataclasses.replace(state.memory, config=swap))
            carried = state.memory.derived
            before = carried.rows.copy()
            decisions.clear()
            state, out = handle_message(state, msg)

            assert np.array_equal(carried.rows, before)  # the input is untouched
            memory = state.memory
            if decisions:  # a new memory was built, with fresh carried state
                assert memory.derived.config is memory.config
                assert not memory.derived.rows.flags.writeable
            for who, aim, config, idx, value in decisions:
                ref_idx, ref_value = _reference_choose(who, aim, config)
                assert idx == ref_idx and _bits(value) == _bits(ref_value)
            assert memory.best.key == configuration_key(memory.best.configuration)
            for m in out:
                assert m.best.key == configuration_key(m.best.configuration)
                assert encoded_length(m) == len(encode_message(m))
            _, idx, value = choose_schedule(state)
            ref_idx, ref_value = _reference_choose(state, target, memory.config)
            assert idx == ref_idx and _bits(value) == _bits(ref_value)


_POOL = ["a0", "a1", "a2", "a3", "a4", "a5"]


def _records(draw, versions):
    return {aid: record(aid, draw(st.integers(0, 3)), [float(draw(st.integers(-3, 3)))],
                        version=version)
            for aid, version in versions.items()}


@st.composite
def _deliveries(draw):
    """A started agent "a0" with a drawn belief, and a message to it whose
    ids equal, overlap or are disjoint from the local ones and whose
    versions are older, equal or newer. Also a config with the message's
    ids but other versions, to derive a stale version vector from."""
    horizon = PlanningHorizon(1, 1.0, (0,))
    target = TargetProfile((float(draw(st.integers(-6, 0))),))
    local_ids = ["a0"] + draw(st.lists(st.sampled_from(_POOL[1:]), unique=True, min_size=1))
    relation = draw(st.sampled_from(["equal", "equal", "overlap", "disjoint"]))
    rest = [aid for aid in _POOL if aid not in local_ids]
    if relation == "equal":
        remote_ids = list(local_ids)
    elif relation == "overlap":
        remote_ids = draw(st.lists(st.sampled_from(local_ids), unique=True, min_size=1))
        remote_ids += draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    else:
        remote_ids = draw(st.lists(st.sampled_from(rest), unique=True, min_size=1)) if rest else []
    remote_ids = draw(st.permutations(remote_ids))
    local_versions = {aid: draw(st.integers(1, 4)) for aid in local_ids}
    remote_versions = {
        aid: max(0, local_versions.get(aid, 1) + draw(st.sampled_from([-1, 0, 1])))
        for aid in remote_ids
    }
    local = _records(draw, local_versions)
    remote = _records(draw, remote_versions)
    stale = {aid: dataclasses.replace(rec, version=rec.version + draw(st.integers(-1, 2)))
             for aid, rec in remote.items()}
    rows = [[float(draw(st.integers(-3, 0)))] for _ in range(draw(st.integers(1, 3)))]

    state, _ = handle_start(make_agent("a0", rows, horizon, neighbors=("a1",)), target)
    local_best = make_candidate(local, float(draw(st.integers(0, 9))), "a0")
    memory = WorkingMemory(target, local, local_best,
                           agent_module._derived(state, local, None))
    state = dataclasses.replace(state, memory=memory)
    if draw(st.booleans()):
        best = local_best
    else:
        known = {**local, **remote}
        best_ids = draw(st.lists(st.sampled_from(sorted(known)), unique=True, min_size=1))
        best = make_candidate({aid: known[aid] for aid in best_ids},
                              float(draw(st.integers(0, 9))), "s")
    return state, KnowledgeMessage("s", target, remote, best), stale


@given(_deliveries())
def test_carried_versions_merge_equals_loop(delivery):
    state, plain, stale = delivery
    memory = state.memory
    ref_config, ref_changed = _merge(memory.config, plain.config)
    noop = not ref_changed and compare(plain.best, memory.best) <= 0
    plain_state, plain_out = handle_message(state, plain)
    sender = dataclasses.replace(state, agent_id="s", memory=None)
    # The message carries no vector, the sender's own one, or a stale one.
    for carried in (None, plain.config, stale):
        msg = dataclasses.replace(plain)
        if carried is not None:
            agent_module._carry_versions(msg, agent_module._derived(sender, carried, None))
        config, changed = agent_module._merge_message(memory.derived, msg)
        assert list(config.items()) == list(ref_config.items())
        assert sorted(changed) == sorted(ref_changed)
        assert (config is memory.config) == (ref_config is memory.config)

        new_state, out = handle_message(state, msg)
        if noop:
            assert new_state is state and out == []
        assert new_state == plain_state and out == plain_out
        derived = new_state.memory.derived
        assert derived.config is new_state.memory.config
        assert derived.versions == tuple(derived.config[aid].version for aid in derived.ids)


# --- extract_assignment -------------------------------------------------------


def test_extract_after_start_is_singleton(horizon1):
    state = _started("A", [[0.0]], horizon1, TargetProfile((1.0,)))
    assert extract_assignment(state) == {"A": 0}


def test_extract_before_start_raises(horizon1):
    agent = make_agent("A", [[0.0]], horizon1)
    with pytest.raises(NotStartedError):
        extract_assignment(agent)


def test_schedule_set_validates_lengths(horizon1):
    with pytest.raises(StructuralError):
        ScheduleSet([Schedule((1.0, 2.0))], horizon1)
