import dataclasses
import random
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cohdasim import agent as agent_module
from cohdasim.agent import (
    AgentState,
    NotStartedError,
    handle_message,
    handle_start,
    _choose_index,
    _merge,
    _select,
    KnowledgeMessage,
)
from cohdasim.core import (
    Candidate,
    PlanningHorizon,
    StructuralError,
    SystemConfiguration,
    TargetProfile,
    compare,
    objective,
    selection_items,
)
from cohdasim.simnet import snapshot_best
from cohdasim.wire import EMPTY_CONFIG_LENGTH, config_length, encoded_length

from conftest import configuration, make_agent, make_agents, make_fleet, reference_key
from wire_reference import decode_message, encode_message


# --- handle_start -----------------------------------------------------------


def test_start_selects_enumerated_best(horizon1):
    # Oracle: enumerate both options against the target.
    target = TargetProfile((2.0,))
    rows = [[1.0], [2.0]]
    best_idx = min(range(2), key=lambda i: abs(rows[i][0] - 2.0))
    assert best_idx == 1

    agent = make_agent("A", rows, horizon1, neighbors=("B", "C"))
    state, msg = handle_start(agent, target)
    assert state.memory.best.fitness == 0.0
    assert state.memory.config["A"].schedule_index == 1
    assert state.memory.config["A"].version == 0
    # The one message for every neighbor is the new memory.
    assert msg is state.memory
    assert msg.sender == "A" and msg.target == target
    assert state.objective_calls == 2


def test_start_single_option(horizon1):
    agent = make_agent("A", [[0.0]], horizon1)
    state, msg = handle_start(agent, TargetProfile((3.0,)))
    assert state.memory.config["A"].schedule_index == 0
    assert msg is state.memory


def test_start_identical_schedules_lowest_index(horizon1):
    agent = make_agent("A", [[1.5], [1.5]], horizon1)
    state, _ = handle_start(agent, TargetProfile((1.5,)))
    assert state.memory.config["A"].schedule_index == 0


def test_start_target_length_mismatch(horizon1):
    agent = make_agent("A", [[0.0]], horizon1)
    with pytest.raises(StructuralError):
        handle_start(agent, TargetProfile((0.0, 1.0)))


def test_start_refuses_an_agent_that_has_started(horizon1):
    # A second start would reset the own version to 0, so that a peer's
    # older record of the agent would read as newer than its own.
    target = TargetProfile((0.0,))
    agents = make_agents(horizon1, {"A": [[1.0], [0.0]], "B": [[2.0]]})
    state, _ = handle_start(agents["A"], target)
    with pytest.raises(StructuralError, match="'A' has already started"):
        handle_start(state, target)
    _, hello = handle_start(agents["B"], target)
    booted, _ = handle_message(agents["A"], hello)  # started by a message
    with pytest.raises(StructuralError, match="'A' has already started"):
        handle_start(booted, target)


def test_message_delta_stays_off_equality_repr_and_wire(horizon1, monkeypatch):
    target = TargetProfile((-3.0,))
    agents = make_agents(horizon1, {"A": [[-1.0], [0.0]], "B": [[-2.0], [0.0]]})
    a, boot = handle_start(agents["A"], target)
    b, hello = handle_start(agents["B"], target)
    assert (boot.seq, boot.changed) == (1, (a.position,))
    bare = dataclasses.replace(boot, seq=0, changed=None)
    assert bare == boot and repr(bare) == repr(boot)
    assert encode_message(bare) == encode_message(boot)
    assert decode_message(encode_message(boot), a.fleet).seq == 0
    # A's next memory records B's position, which the merge took.
    a2, out = handle_message(a, hello)
    assert out.seq == 2 and out.changed == (b.position,)
    # A memory built by hand has no delta, nor has what it publishes: its
    # ``changed`` is not relative to the empty configuration.
    by_hand = dataclasses.replace(a, memory=dataclasses.replace(boot, seq=0, changed=None))
    assert handle_message(by_hand, hello)[1].seq == 0
    # Delivered again on the same link, the message is stale: the handler
    # returns its input state without merging it.
    monkeypatch.setattr(agent_module, "_merge", None)
    new_state, out = handle_message(a2, hello, since=1)
    assert new_state is a2 and out is None


def test_agent_horizon_is_its_schedule_sets(horizon4):
    # A separate horizon could disagree with the window of the agent's
    # schedule table, which is the fleet's.
    agent = make_agent("A", [[0.0, 0.0, 0.0, 0.0]], horizon4)
    assert agent.horizon is agent.fleet.horizon
    with pytest.raises(TypeError):
        AgentState("A", agent.fleet, (), horizon=horizon4)


# --- _merge -----------------------------------------------------------------

_FLEET = make_fleet(PlanningHorizon(1, 1.0, (0,)),
                    {aid: [[0.0], [1.0], [2.0], [3.0]] for aid in "abcd"})


def test_merge_union_with_empty():
    remote = configuration(_FLEET, {"a": (0, 3)})
    assert _merge(SystemConfiguration.empty(_FLEET), remote) == (remote, (0,))


def test_merge_larger_version_wins_keep_local_on_tie():
    local = configuration(_FLEET, {"a": (1, 5)})
    remote = configuration(_FLEET, {"a": (0, 3)})
    assert _merge(local, remote)[0]["a"].schedule_index == 1

    tie_local = configuration(_FLEET, {"a": (1, 3)})
    merged, newer = _merge(tie_local, remote)
    assert merged is tie_local and newer == ()


def test_merge_mixed_example():
    local = configuration(_FLEET, {"a": (0, 1)})
    remote = configuration(_FLEET, {"a": (1, 2), "b": (2, 0)})
    merged, newer = _merge(local, remote)
    assert newer == (0, 1)
    assert merged["a"].version == 2 and merged["a"].schedule_index == 1
    assert merged["b"].schedule_index == 2


# {agent id: (schedule index, version)} over _FLEET
picks = st.dictionaries(st.sampled_from("abcd"), st.tuples(st.integers(0, 3), st.integers(0, 4)))


@given(picks)
def test_merge_idempotent(p):
    config = configuration(_FLEET, p)
    merged, newer = _merge(config, config)
    assert merged is config and newer == ()


@given(picks, picks)
def test_merge_commutative_up_to_equal_version_ties(pa, pb):
    a, b = configuration(_FLEET, pa), configuration(_FLEET, pb)
    ab, _ = _merge(a, b)
    ba, _ = _merge(b, a)
    assert set(ab) == set(ba)
    for aid in ab:
        if ab[aid] != ba[aid]:
            # Only equal-version conflicts may differ (each side kept its own).
            assert ab[aid].version == ba[aid].version


@given(picks, picks, picks)
def test_merge_associative_on_conflict_free_inputs(pa, pb, pc):
    # Make inputs conflict-free: distinct versions per agent id across maps.
    seen: dict[str, int] = {}
    for p in (pa, pb, pc):
        for aid in list(p):
            bump = seen.get(aid, 0)
            p[aid] = (p[aid][0], bump)
            seen[aid] = bump + 1
    a, b, c = (configuration(_FLEET, p) for p in (pa, pb, pc))
    left, _ = _merge(_merge(a, b)[0], c)
    right, _ = _merge(a, _merge(b, c)[0])
    assert left == right


# --- the decide step ---------------------------------------------------------


def test_choose_fills_gap(horizon1):
    target = TargetProfile((-100.0,))
    agents = make_agents(horizon1, {"A": [[-2.0], [0.0]], "X": [[-98.0]]})
    state, _ = handle_start(agents["A"], target)
    assert state.memory.config["A"].schedule_index == 0
    config, _ = _merge(state.memory.config, configuration(state.fleet, {"X": (0, 0)}))
    assert _choose_index(state, target, config) == (0, 0.0)
    # A message that teaches X's record runs the decide step once: one
    # evaluation per own schedule.
    best = Candidate(config, 0.0, "X")
    state2, _ = handle_message(state, KnowledgeMessage("X", target, config, best))
    assert state2.objective_calls == state.objective_calls + 2


def test_choose_all_identical_lowest_index(horizon1):
    target = TargetProfile((0.0,))
    agent = make_agent("A", [[1.0], [1.0], [1.0]], horizon1)
    state, _ = handle_start(agent, target)
    assert _choose_index(state, target, state.memory.config) == (0, 1.0)


def test_choose_zero_target_minimal_magnitude():
    horizon = PlanningHorizon(2, 1.0, (0, 1))
    rows = [[3.0, -3.0], [1.0, 1.0], [-2.0, 0.5]]
    # Enumeration oracle: the row with minimal L1 magnitude wins.
    expect = min(range(3), key=lambda i: sum(abs(v) for v in rows[i]))
    target = TargetProfile((0.0, 0.0))
    agent = make_agent("A", rows, horizon)
    state, _ = handle_start(agent, target)
    idx, _ = _choose_index(state, target, state.memory.config)
    assert idx == expect == 1


def test_choose_requires_memory(horizon1):
    # The decide step runs against a memory only: a delivery to an agent
    # that has not started boots it from the carried target first, and then
    # decides and announces itself even when the message teaches nothing.
    target = TargetProfile((0.0,))
    agent = make_agent("A", [[1.0], [0.0]], horizon1)
    assert agent.memory is None
    empty = SystemConfiguration.empty(agent.fleet)
    state, msg = handle_message(agent, KnowledgeMessage("B", target, empty,
                                                        Candidate(empty, 0.0, "B")))
    assert msg is state.memory and msg.sender == "A" and msg.target == target
    assert selection_items(msg.config) == (("A", 1),)
    assert state.objective_calls == 4  # the boot's choose, then the decide's


# --- handle_message ---------------------------------------------------------


def _started(agent, target):
    state, _ = handle_start(agent, target)
    return state


def test_message_identical_to_memory_is_silent(horizon1):
    target = TargetProfile((-1.0,))
    state = _started(make_agent("A", [[-1.0], [0.0]], horizon1, ("N",)), target)
    echo_config = configuration(state.fleet, {aid: (r.schedule_index, r.version)
                                              for aid, r in state.memory.config.items()})
    echo = KnowledgeMessage("B", target, echo_config, state.memory.best)
    state2, out = handle_message(state, echo)
    assert out is None and state2 is state
    assert state2.memory == state.memory
    assert state2.objective_calls == state.objective_calls  # step 2 skipped


def test_message_with_larger_best_replaces_and_publishes(horizon1):
    target = TargetProfile((-5.0,))
    agents = make_agents(horizon1, {"A": [[-1.0]], "B": [[-2.0]], "C": [[0.0], [-2.0]]},
                         {"A": ("N",)})
    state = _started(agents["A"], target)
    remote_config = configuration(state.fleet, {"B": (0, 0), "C": (1, 0)})
    remote_best = Candidate(remote_config, objective(remote_config, target, horizon1), "B")
    msg = KnowledgeMessage("B", target, remote_config, remote_best)
    state2, out = handle_message(state, msg)
    assert state2.memory.best.size == 3  # own candidate over the merged view wins
    assert out is state2.memory
    assert compare(state2.memory.best, remote_best) > 0
    # The decide step ran: exactly one evaluation per own schedule.
    assert state2.objective_calls == state.objective_calls + len(state.window_matrix)


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

    agents = make_agents(horizon1, {"A": rows_a, "B": rows_b}, {"A": ("B",), "B": ("A",)})
    state_a, out_a = handle_start(agents["A"], target)
    state_b, out_b = handle_start(agents["B"], target)
    inbox = [("B", out_a), ("A", out_b)]
    states = {"A": state_a, "B": state_b}
    hops = 0
    while inbox and hops < 50:
        hops += 1
        to, msg = inbox.pop(0)
        states[to], out = handle_message(states[to], msg)
        if out is not None:
            inbox.append(("A" if to == "B" else "B", out))
    assert hops < 50
    for state in states.values():
        assert selection_items(state.memory.best.configuration) == (("A", 0), ("B", 1))
        assert state.memory.best.fitness == 0.0


def test_message_unknown_target_length(horizon1):
    state = _started(make_agent("A", [[0.0]], horizon1, ("N",)), TargetProfile((0.5,)))
    bad = KnowledgeMessage("B", TargetProfile((1.0, 2.0)), SystemConfiguration.empty(state.fleet),
                           state.memory.best)
    with pytest.raises(StructuralError):
        handle_message(state, bad)


def test_message_over_another_fleet_is_refused(horizon1):
    target = TargetProfile((0.0,))
    state, _ = handle_start(make_agent("A", [[0.0]], horizon1), target)
    twin = make_fleet(horizon1, {"A": [[0.0]]})  # equal tables, another run
    foreign = configuration(twin, {"A": (0, 1)})
    dict_best = Candidate(dict(state.memory.config), 0.0, "B")
    for config, best in [(foreign, state.memory.best),
                         (state.memory.config, Candidate(foreign, 0.0, "B")),
                         (state.memory.config, dict_best)]:
        with pytest.raises(StructuralError):
            handle_message(state, KnowledgeMessage("B", target, config, best))


def test_implicit_start_on_first_message(horizon1):
    target = TargetProfile((-3.0,))
    agents = make_agents(horizon1, {"A": [[-1.0], [0.0]], "B": [[-3.0]]}, {"A": ("B",)})
    sender = _started(agents["B"], target)
    msg = KnowledgeMessage("B", target, sender.memory.config, sender.memory.best)
    state, out = handle_message(agents["A"], msg)
    assert state.memory is not None
    assert state.memory.target == target
    assert "A" in state.memory.config and "B" in state.memory.config
    assert out is state.memory  # started agents announce themselves
    # Boot choose plus decide choose.
    assert state.objective_calls == 4


def test_adopt_realigns_with_best(horizon1):
    target = TargetProfile((-2.0,))
    agents = make_agents(horizon1, {"A": [[-1.0], [-2.0]], "B": [[-1.0]]}, {"A": ("N",)})
    state = _started(agents["A"], target)
    assert state.memory.config["A"].schedule_index == 1
    # A remote best of larger size records index 0 for A; A cannot beat it
    # alone (size), so it must conform and bump its version.
    remote_config = configuration(state.fleet, {"A": (0, 0), "B": (0, 0)})
    remote_best = Candidate(remote_config, objective(remote_config, target, horizon1), "B")
    msg = KnowledgeMessage("B", target, remote_config, remote_best)
    state2, out = handle_message(state, msg)
    if compare(state2.memory.best, remote_best) == 0:
        assert state2.memory.config["A"].schedule_index == 0
        assert state2.memory.config["A"].version == 1
    else:
        # Own candidate with the same size but better fitness won instead.
        assert state2.memory.best.fitness <= remote_best.fitness
    assert out is state2.memory


def _message_from(fleet, target, sender, index, version, extra=None):
    """A message whose config and best hold a record of ``sender`` and the
    ``extra`` picks."""
    config = configuration(fleet, {sender: (index, version), **(extra or {})})
    best = Candidate(config, objective(config, target, fleet.horizon), sender)
    return KnowledgeMessage(sender, target, config, best)


# The other agents' schedule tables: their index picks the power value.
_LEVELS = [[-4.0], [-3.0], [-2.0], [-1.0], [0.0]]


def test_version_monotone_over_message_sequence(horizon1):
    rng = random.Random(3)
    target = TargetProfile((-4.0,))
    rows = {"A": [[-1.0], [-2.0], [0.0]], **{f"B{i}": _LEVELS for i in range(3)}}
    state = _started(make_agents(horizon1, rows, {"A": ("N",)})["A"], target)
    versions = [state.memory.config["A"].version]
    for step in range(30):
        other = f"B{rng.randrange(3)}"
        msg = _message_from(state.fleet, target, other, rng.randrange(1, 5), rng.randrange(4))
        state, _ = handle_message(state, msg)
        versions.append(state.memory.config["A"].version)
    assert versions == sorted(versions)


def test_anytime_monotone_over_message_sequence(horizon1):
    rng = random.Random(11)
    target = TargetProfile((-6.0,))
    rows = {"A": [[-1.0], [-2.0], [0.0]], **{f"C{i}": _LEVELS for i in range(4)}}
    state = _started(make_agents(horizon1, rows, {"A": ("N",)})["A"], target)
    previous = state.memory.best
    for step in range(40):
        other = f"C{rng.randrange(4)}"
        msg = _message_from(state.fleet, target, other, rng.randrange(0, 4), rng.randrange(3))
        state, _ = handle_message(state, msg)
        assert compare(state.memory.best, previous) >= 0
        previous = state.memory.best


def test_best_config_subset_of_own_config_invariant(horizon1):
    rng = random.Random(5)
    target = TargetProfile((-6.0,))
    rows = {"A": [[-2.0], [0.0]], "E": [[-1.0]], **{f"D{i}": _LEVELS for i in range(4)}}
    state = _started(make_agents(horizon1, rows, {"A": ("N",)})["A"], target)
    for step in range(40):
        other = f"D{rng.randrange(4)}"
        msg = _message_from(state.fleet, target, other, rng.randrange(0, 4), rng.randrange(3),
                            {"E": (0, rng.randrange(3))})
        state, _ = handle_message(state, msg)
        assert set(state.memory.best.configuration) <= set(state.memory.config)


# --- the decide step and the merge against dict references ----------------------


def _reference_choose(state, target, config):
    """The decide step from scratch, through the records: sum the other
    agents' full schedules left to right in sorted-id order, then score
    every own schedule."""
    horizon = state.horizon
    others = np.zeros(horizon.interval_count, dtype=np.float64)
    for aid in sorted(config):
        if aid != state.agent_id:
            others += config[aid].schedule
    w = horizon.window_index
    values = np.abs(state.window_matrix - (target.arr[w] - others[w])).sum(axis=1)
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


def _index(draw, fleet, aid):
    return draw(st.integers(0, len(fleet.power[fleet.position[aid]]) - 1))


def _draw_config(draw, fleet, ids):
    return configuration(fleet, {aid: (_index(draw, fleet, aid), draw(st.integers(0, 4)))
                                 for aid in ids})


@st.composite
def _message_runs(draw):
    T = draw(st.sampled_from([1, 1, 3]))
    window = tuple(draw(st.sets(st.integers(0, T - 1), min_size=1)))
    horizon = PlanningHorizon(T, 1.0, window)

    def schedule():
        return [draw(_power) for _ in range(T)]

    fleet = make_fleet(horizon, {
        aid: [schedule() for _ in range(draw(st.integers(1, 4)))] for aid in _IDS
    })
    target = TargetProfile(schedule())
    some_ids = st.lists(st.sampled_from(_IDS), unique=True, max_size=len(_IDS))
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        sender = draw(st.sampled_from([aid for aid in _IDS if aid != _OWN]))
        best_ids = draw(st.lists(st.sampled_from(_IDS), unique=True, min_size=1))
        best = Candidate(_draw_config(draw, fleet, best_ids), draw(st.floats(0.0, 50.0)),
                         sender)
        # In one step of four, swap the memory's config for another first.
        swap = None
        if draw(st.integers(0, 3)) == 0:
            swap = _draw_config(draw, fleet, draw(some_ids))
        config = _draw_config(draw, fleet, draw(some_ids))
        steps.append((KnowledgeMessage(sender, target, config, best), swap))
    return fleet, target, steps


@given(_message_runs())
def test_carried_state_matches_from_scratch(run):
    # Every decide step equals the record-by-record reference bit for bit.
    fleet, target, steps = run
    decisions = []
    original = agent_module._choose_index

    def recording(state, target, config):
        idx, value = original(state, target, config)
        decisions.append((state, target, config, idx, value))
        return idx, value

    state, _ = handle_start(AgentState(_OWN, fleet, ("x", "y")), target)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(agent_module, "_choose_index", recording)
        for msg, swap in steps:
            if swap is not None:
                state = dataclasses.replace(
                    state, memory=dataclasses.replace(state.memory, config=swap))
            decisions.clear()
            state, out = handle_message(state, msg)

            memory = state.memory
            for who, aim, config, idx, value in decisions:
                ref_idx, ref_value = _reference_choose(who, aim, config)
                assert idx == ref_idx and _bits(value) == _bits(ref_value)
            assert memory.best.key == reference_key(memory.best.configuration)
            if out is not None:
                assert out is memory
                assert encoded_length(out) == len(encode_message(out))
            idx, value = _choose_index(state, target, memory.config)
            ref_idx, ref_value = _reference_choose(state, target, memory.config)
            assert idx == ref_idx and _bits(value) == _bits(ref_value)


_POOL = ["a0", "a1", "a2", "a3", "a4", "a5"]


def _dict_merge(local, remote):
    """The merge rule over plain dicts of records: the union, in which a
    remote record replaces a local one only with a strictly newer version."""
    merged = dict(local)
    for aid, rec in remote.items():
        if aid not in local or rec.version > local[aid].version:
            merged[aid] = rec
    return merged


@st.composite
def _deliveries(draw):
    """A started agent "a0" with a drawn belief, and a message to it whose
    ids equal, overlap or are disjoint from the local ones and whose
    versions are older, equal or newer."""
    horizon = PlanningHorizon(1, 1.0, (0,))
    target = TargetProfile((float(draw(st.integers(-6, 0))),))
    levels = st.lists(st.integers(-3, 3), min_size=4, max_size=4)
    fleet = make_fleet(horizon, {
        "a0": [[float(draw(st.integers(-3, 0)))] for _ in range(draw(st.integers(1, 3)))],
        **{aid: [[float(v)] for v in draw(levels)] for aid in _POOL[1:]},
    })
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
    local_versions = {aid: draw(st.integers(1, 4)) for aid in local_ids}
    remote_versions = {
        aid: max(0, local_versions.get(aid, 1) + draw(st.sampled_from([-1, 0, 1])))
        for aid in remote_ids
    }
    local = configuration(fleet, {aid: (_index(draw, fleet, aid), version)
                                  for aid, version in local_versions.items()})
    remote = configuration(fleet, {aid: (_index(draw, fleet, aid), version)
                                   for aid, version in remote_versions.items()})

    state, _ = handle_start(AgentState("a0", fleet, ("a1",)), target)
    local_best = Candidate(local, float(draw(st.integers(0, 9))), "a0")
    state = dataclasses.replace(state, memory=KnowledgeMessage("a0", target, local, local_best))
    if draw(st.booleans()):
        best = local_best
    else:
        known = {**dict(local), **dict(remote)}
        best_ids = draw(st.lists(st.sampled_from(sorted(known)), unique=True, min_size=1))
        best = Candidate(
            configuration(fleet, {aid: (known[aid].schedule_index, known[aid].version)
                                  for aid in best_ids}),
            float(draw(st.integers(0, 9))), "s")
    return state, KnowledgeMessage("s", target, remote, best)


@given(_deliveries())
def test_merge_equals_dict_reference(delivery):
    state, msg = delivery
    local = state.memory.config
    merged, _ = _merge(local, msg.config)
    reference = _dict_merge(dict(local), dict(msg.config))
    assert dict(merged) == reference
    assert (merged is local) == (reference == dict(local))

    new_state, out = handle_message(state, msg)
    if merged is local and compare(msg.best, state.memory.best) <= 0:
        assert new_state is state and out is None
    # The message's bytes, decoded over the fleet, are handled the same way.
    decoded = decode_message(encode_message(msg), state.fleet)
    assert handle_message(state, decoded) == (new_state, out)


@given(st.data())
def test_stored_size_follows_merges_and_selects(data):
    # ``_merge`` and ``_select`` count the positions they fill instead of
    # recounting; after any chain of both, each configuration's stored size
    # is its count of known agents, and the candidate size and the wire
    # length read it.
    fleet = make_fleet(PlanningHorizon(1, 1.0, (0,)), {aid: [[0.0], [1.0], [2.0]] for aid in _POOL})
    picks = st.dictionaries(st.sampled_from(_POOL), st.tuples(st.integers(0, 2), st.integers(0, 3)))
    made = [SystemConfiguration.empty(fleet), *(configuration(fleet, data.draw(picks))
                                                 for _ in range(2))]
    for _ in range(data.draw(st.integers(1, 12))):
        config = data.draw(st.sampled_from(made))
        if data.draw(st.booleans()):
            positions = data.draw(st.none() | st.lists(st.integers(0, len(_POOL) - 1),
                                                       unique=True).map(tuple))
            made.append(_merge(config, data.draw(st.sampled_from(made)), positions)[0])
        else:
            owner = AgentState(data.draw(st.sampled_from(_POOL)), fleet, ())
            made.append(_select(owner, config, data.draw(st.integers(0, 2))))
    for config in made:
        known = [i >= 0 for i in config.index]
        assert config.size == len(config.index) - config.index.count(-1) == sum(known)
        assert Candidate(config, 0.0, "a0").size == len(config) == config.size
        assert config_length(config) == EMPTY_CONFIG_LENGTH + sum(
            length for length, k in zip(fleet.record_lengths, known) if k)


# --- the committed selections ----------------------------------------------------


def test_extract_after_start_is_singleton(horizon1):
    state = _started(make_agent("A", [[0.0]], horizon1), TargetProfile((1.0,)))
    assert selection_items(state.memory.best.configuration) == (("A", 0),)


def test_extract_before_start_raises(horizon1):
    # The commit step reads the started agents only, and refuses when none
    # has started.
    agents = make_agents(horizon1, {"A": [[0.0]], "B": [[0.0]]})
    assert agents["A"].memory is None
    with pytest.raises(NotStartedError):
        snapshot_best(agents.values())
    started = _started(agents["B"], TargetProfile((1.0,)))
    assert snapshot_best([agents["A"], started]) is started.memory.best


def test_schedule_set_validates_lengths(horizon1):
    # The fleet checks each agent's schedule table against the horizon.
    with pytest.raises(StructuralError):
        make_fleet(horizon1, {"A": [[1.0, 2.0]]})
