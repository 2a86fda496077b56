import dataclasses
from collections import defaultdict
from hashlib import blake2b

import pytest

from cohdasim import simnet
from cohdasim.agent import NotStartedError
from cohdasim.core import StructuralError, TargetProfile, compare
from cohdasim.simnet import (
    ConstantDelay,
    ExponentialDelay,
    NetworkModel,
    RunLimits,
    UniformDelay,
    check_consistency,
    run,
    snapshot_best,
)
from cohdasim.scenario import build_toy2_scenario, with_param
from cohdasim.schema import ScenarioError, parse_scenario_mapping, scenario_to_mapping
from cohdasim.topology import complete, ring

from conftest import make_agent, make_agents


def _agents(horizon, rows_by_id, overlay):
    return list(make_agents(horizon, rows_by_id, overlay).values())


def test_single_agent_quiesces_without_messages(horizon1):
    overlay = ring(["A"])
    agents = _agents(horizon1, {"A": [[1.0], [2.0]]}, overlay)
    states, trace, stats = run(agents, TargetProfile((2.0,)), trace=[])
    assert stats.terminated
    assert stats.termination_time == 0.0
    assert sum(1 for ev in trace if ev.kind == "publish") == 0
    assert states["A"].memory.best.fitness == 0.0
    assert check_consistency(states.values())


def test_two_agents_complete_graph_consistent(horizon1):
    overlay = complete(["A", "B"])
    agents = _agents(
        horizon1, {"A": [[1.0], [2.0]], "B": [[1.0], [3.0]]}, overlay
    )
    states, trace, stats = run(
        agents, TargetProfile((4.0,)), NetworkModel(delay=ConstantDelay(0.5))
    )
    assert stats.terminated
    assert check_consistency(states.values())
    best = snapshot_best(states.values())
    assert best.fitness == 0.0
    assert best.size == 2


def test_full_drop_leaves_singletons(horizon1):
    overlay = complete(["A", "B", "C"])
    rows = {aid: [[-1.0], [0.0]] for aid in "ABC"}
    network = NetworkModel(delay=ConstantDelay(0.1), drop_probability=1.0)
    states, trace, stats = run(_agents(horizon1, rows, overlay),
                               TargetProfile((-3.0,)), network, trace=[])
    assert stats.terminated
    for state in states.values():
        assert state.memory.best.size == 1
        assert set(state.memory.config) == {state.agent_id}
    assert not check_consistency(states.values())
    assert sum(1 for ev in trace if ev.kind == "drop") == \
        sum(1 for ev in trace if ev.kind == "publish")


def test_determinism_bit_for_bit(horizon4):
    overlay = complete(["A", "B", "C"])
    rows = {
        "A": [[-1.0, 0.0, -1.0, 0.0], [0.0, -1.0, 0.0, -1.0]],
        "B": [[-2.0, -2.0, 0.0, 0.0], [0.0, 0.0, -2.0, -2.0]],
        "C": [[-1.0, -1.0, -1.0, -1.0], [0.0, 0.0, 0.0, 0.0]],
    }
    target = TargetProfile((-3.0, -3.0, -3.0, -3.0))
    network = NetworkModel(delay=UniformDelay(0.01, 0.3), duplicate_probability=0.2)

    def one():
        agents = _agents(horizon4, rows, overlay)
        return run(agents, target, network, seed=123, trace=[])

    states1, trace1, stats1 = one()
    states2, trace2, stats2 = one()
    assert trace1 == trace2
    assert stats1.termination_time == stats2.termination_time
    assert {a: s.memory.best.key for a, s in states1.items()} == {
        a: s.memory.best.key for a, s in states2.items()
    }

    _, trace3, _ = run(_agents(horizon4, rows, overlay), target, network, seed=124,
                       trace=[])
    assert trace3 != trace1  # different seed, different disturbances


def test_snapshot_sequence_monotone_and_quiescent_consistency(horizon4):
    overlay = ring(["A", "B", "C", "D"])
    rows = {
        aid: [[-1.0, 0.0, -1.0, 0.0], [0.0, -1.0, 0.0, -1.0], [-1.0, -1.0, 0.0, 0.0]]
        for aid in "ABCD"
    }
    target = TargetProfile((-2.0, -2.0, -2.0, -2.0))
    network = NetworkModel(delay=ExponentialDelay(0.05))
    states, trace, stats = run(_agents(horizon4, rows, overlay), target,
                               network, seed=5, trace=[])
    assert stats.terminated
    assert check_consistency(states.values())
    final = snapshot_best(states.values())
    for state in states.values():
        assert compare(state.memory.best, final) == 0

    # Each agent's own best sequence improves strictly; the global running
    # maximum reconstructed from the trace ends at the final best.
    per_agent: dict[str, tuple] = {}
    global_best = None
    for ev in trace:
        if ev.kind != "best_improved":
            continue
        step = (ev.payload["size"], -ev.payload["fitness"], -ev.payload["key"])
        aid = ev.payload["agent"]
        if aid in per_agent:
            assert step > per_agent[aid]
        per_agent[aid] = step
        global_best = step if global_best is None else max(global_best, step)
    assert global_best is not None
    assert global_best[0] == final.size and -global_best[1] == final.fitness


def test_duplicates_and_reorder_still_consistent(horizon4):
    overlay = ring(["A", "B", "C", "D", "E"])
    rows = {
        aid: [[-1.0, 0.0, 0.0, -1.0], [0.0, -1.0, -1.0, 0.0]]
        for aid in "ABCDE"
    }
    target = TargetProfile((-2.0, -2.0, -2.0, -2.0))
    network = NetworkModel(delay=UniformDelay(0.0, 1.0), duplicate_probability=0.4)
    states, trace, stats = run(_agents(horizon4, rows, overlay), target,
                               network, seed=77, trace=[])
    assert stats.terminated
    assert check_consistency(states.values())
    assert any(ev.kind == "duplicate" for ev in trace)


def test_bounded_delay_clips_samples(horizon1):
    overlay = complete(["A", "B"])
    rows = {"A": [[-1.0], [0.0]], "B": [[-1.0], [0.0]]}
    network = NetworkModel(delay=ExponentialDelay(5.0), max_delay_bound=0.25)
    states, trace, stats = run(_agents(horizon1, rows, overlay),
                               TargetProfile((-2.0,)), network, seed=3, trace=[])
    assert stats.terminated
    deliveries = [ev for ev in trace if ev.kind == "deliver" and ev.payload["msg"] == "knowledge"]
    assert deliveries
    publishes = {(ev.payload["from"], ev.payload["to"], ev.time) for ev in trace if ev.kind == "publish"}
    # Every knowledge delivery happens within the bound of some publish time.
    publish_times = sorted(t for (_, _, t) in publishes)
    for ev in deliveries:
        assert any(t <= ev.time <= t + 0.25 + 1e-12 for t in publish_times)


def test_fifo_links_when_reorder_disabled(horizon4):
    overlay = complete(["A", "B", "C"])
    rows = {
        "A": [[-1.0, 0.0, -1.0, 0.0], [0.0, -1.0, 0.0, -1.0]],
        "B": [[-2.0, -2.0, 0.0, 0.0], [0.0, 0.0, -2.0, -2.0]],
        "C": [[-1.0, -1.0, -1.0, -1.0], [0.0, 0.0, 0.0, 0.0]],
    }
    target = TargetProfile((-3.0, -3.0, -3.0, -3.0))
    network = NetworkModel(delay=UniformDelay(0.0, 1.0), reorder=False)
    states, trace, stats = run(_agents(horizon4, rows, overlay), target, seed=9,
                               network=network)
    assert stats.terminated
    assert check_consistency(states.values())


def test_message_limit_flags_not_terminated(horizon1):
    overlay = complete(["A", "B", "C"])
    rows = {aid: [[-1.0], [0.0]] for aid in "ABC"}
    limits = RunLimits(max_sim_time=100.0, max_messages=3)
    states, trace, stats = run(_agents(horizon1, rows, overlay),
                               TargetProfile((-3.0,)), limits=limits, trace=[])
    assert not stats.terminated
    assert sum(1 for ev in trace if ev.kind == "publish") <= 3


def test_sim_time_limit_flags_not_terminated(horizon1):
    overlay = complete(["A", "B"])
    rows = {"A": [[-1.0], [0.0]], "B": [[-1.0], [0.0]]}
    network = NetworkModel(delay=ConstantDelay(10.0))
    limits = RunLimits(max_sim_time=5.0, max_messages=1000)
    states, trace, stats = run(_agents(horizon1, rows, overlay),
                               TargetProfile((-2.0,)), network, limits=limits)
    assert not stats.terminated


def _no_event(monkeypatch):
    def refuse(*args):
        raise AssertionError("an event was delivered")

    monkeypatch.setattr(simnet, "handle_start", refuse)


def test_overlay_must_cover_agents(horizon1, monkeypatch):
    # The agents' neighbor lists are the overlay: A's names B, which is not
    # an agent of the run. It is refused before the first event.
    _no_event(monkeypatch)
    agents = _agents(horizon1, {"A": [[0.0]]}, ring(["A", "B"]))
    with pytest.raises(StructuralError, match="not distinct other agents"):
        run(agents, TargetProfile((0.0,)))


@pytest.mark.parametrize("neighbors", [("A", "B"), ("B", "B")], ids=["self-loop", "duplicate"])
def test_neighbors_must_be_distinct_other_agents(horizon1, monkeypatch, neighbors):
    _no_event(monkeypatch)
    agents = make_agents(horizon1, {"A": [[0.0]], "B": [[0.0]]}, {"A": neighbors, "B": ("A",)})
    with pytest.raises(StructuralError, match="not distinct other agents"):
        run(list(agents.values()), TargetProfile((0.0,)))


def test_snapshot_before_start(horizon1):
    agent = make_agent("A", [[0.0]], horizon1)
    with pytest.raises(NotStartedError):
        snapshot_best([agent])


def test_check_consistency_detects_missing_agent(horizon1):
    overlay = complete(["A", "B"])
    rows = {"A": [[-1.0], [0.0]], "B": [[-1.0], [0.0]]}
    network = NetworkModel(delay=ConstantDelay(0.1), drop_probability=1.0)
    states, _, _ = run(_agents(horizon1, rows, overlay),
                       TargetProfile((-2.0,)), network)
    assert not check_consistency(states.values())


def test_delay_mapping_round_trip():
    # The scenario schema reads and writes the delay models.
    base = build_toy2_scenario()
    for mapping in (
        {"kind": "constant", "seconds": 0.5},
        {"kind": "uniform", "low_s": 0.1, "high_s": 0.9},
        {"kind": "exponential", "mean_s": 0.2},
    ):
        scenario = with_param(base, "network.delay", mapping)
        dumped = scenario_to_mapping(scenario)
        assert list(dumped["network"]["delay"].items()) == list(mapping.items())
        assert parse_scenario_mapping(dumped) == scenario
    with pytest.raises(StructuralError):
        with_param(base, "network.delay", {"kind": "nope"})
    with pytest.raises(StructuralError):
        UniformDelay(2.0, 1.0)
    with pytest.raises(StructuralError):
        NetworkModel(drop_probability=1.5)


@pytest.mark.parametrize("limits", [
    {"max_sim_time": float("nan")},  # ``at > nan`` is False: the limit would never trip
    {"max_sim_time": float("inf")},
    {"max_sim_time": 0.0},
    {"max_messages": 2.5},
    {"max_messages": True},
    {"max_messages": 0},
])
def test_run_limits_refuse_values_the_file_reader_refuses(limits):
    with pytest.raises(StructuralError):
        RunLimits(**limits)
    key = {"max_sim_time": "max_sim_time_s", "max_messages": "max_messages"}
    mapping = scenario_to_mapping(build_toy2_scenario())
    for name, value in limits.items():
        mapping["limits"][key[name]] = value
    with pytest.raises(ScenarioError):
        parse_scenario_mapping(mapping)


class _BackwardsDelay:
    """A delay model that the delay dataclasses would refuse."""

    def sample(self, rng):
        return -1.0


def test_time_going_backwards_raises(horizon1):
    overlay = complete(["A", "B"])
    rows = {"A": [[-1.0], [0.0]], "B": [[-1.0], [0.0]]}
    with pytest.raises(StructuralError, match="went backwards"):
        run(_agents(horizon1, rows, overlay), TargetProfile((-2.0,)),
            NetworkModel(delay=_BackwardsDelay()))


# --- kernel counters ----------------------------------------------------------


def _lossy_run(horizon4, seed, reorder, trace=None):
    """Five agents on a ring over a lossy, duplicating network."""
    overlay = ring(["A", "B", "C", "D", "E"])
    rows = {
        aid: [[-1.0, 0.0, 0.0, -1.0], [0.0, -1.0, -1.0, 0.0], [-1.0, -1.0, 0.0, 0.0]]
        for aid in "ABCDE"
    }
    target = TargetProfile((-2.0, -3.0, -2.0, -1.0))
    network = NetworkModel(delay=UniformDelay(0.0, 0.5), drop_probability=0.15,
                           duplicate_probability=0.3, reorder=reorder)
    return run(_agents(horizon4, rows, overlay), target, network, seed=seed,
               trace=trace)


def _lossy_runs(horizon4, traced):
    """(stats, trace) of a few lossy, duplicating runs, FIFO and reordering."""
    out = []
    for seed, reorder in ((1, False), (2, True), (3, False)):
        _, events, stats = _lossy_run(horizon4, seed, reorder, [] if traced else None)
        out.append((stats, events))
    return out


@pytest.mark.parametrize("reorder", [False, True])
def test_link_order_of_sender_versions(horizon4, monkeypatch, reorder):
    # Per link, the sender's own record version in each delivered message:
    # with reordering disabled it never decreases, duplicates included.
    handle = simnet.handle_message
    delivered = defaultdict(list)

    def record(state, msg):
        delivered[msg.sender, state.agent_id].append(msg.config[msg.sender].version)
        return handle(state, msg)

    monkeypatch.setattr(simnet, "handle_message", record)
    decreases = 0
    for seed in range(1, 11):
        delivered.clear()
        _, _, stats = _lossy_run(horizon4, seed, reorder)
        assert stats.duplicates > 0
        decreases += sum(
            later < earlier
            for versions in delivered.values()
            for earlier, later in zip(versions, versions[1:])
        )
    assert (decreases > 0) == reorder


def test_default_run_builds_no_events(horizon4, monkeypatch):
    def refuse(*args):
        raise AssertionError("a trace event was built without a trace")

    monkeypatch.setattr(simnet, "TraceEvent", refuse)
    for stats, events in _lossy_runs(horizon4, traced=False):
        assert events == []
        assert stats.messages > 0


def test_kernel_counters_match_the_trace(horizon4):
    untraced = _lossy_runs(horizon4, traced=False)
    for (stats, trace), (plain, _) in zip(_lossy_runs(horizon4, traced=True), untraced):
        kinds = [ev.kind for ev in trace]
        assert stats.messages == kinds.count("publish")
        assert stats.message_bytes == sum(
            ev.payload["bytes"] for ev in trace if ev.kind == "publish")
        assert stats.drops == kinds.count("drop") > 0
        assert stats.duplicates == kinds.count("duplicate") > 0
        assert stats.deliveries == kinds.count("deliver")
        assert 0 < stats.noop_deliveries < stats.deliveries
        # Collecting the trace changes no counter.
        assert dataclasses.replace(plain, wall_time=0.0) == \
            dataclasses.replace(stats, wall_time=0.0)


def _reference_curve(trace):
    """Global anytime curve folded from the best_improved events."""
    curve = []
    current = None  # (size, fitness, key)
    for ev in trace:
        if ev.kind != "best_improved":
            continue
        size = ev.payload["size"]
        fitness = ev.payload["fitness"]
        key = ev.payload["key"]
        if current is None or (
            size > current[0]
            or (size == current[0] and fitness < current[1])
            or (size == current[0] and fitness == current[1] and key < current[2])
        ):
            current = (size, fitness, key)
            curve.append((ev.time, fitness, size))
    return tuple(curve)


def test_kernel_curve_matches_reference_fold(horizon4):
    for stats, trace in _lossy_runs(horizon4, traced=True):
        assert len(stats.improvement_curve) > 1
        assert stats.improvement_curve == _reference_curve(trace)


@pytest.mark.parametrize("limits, delay, reason", [
    (RunLimits(max_sim_time=100.0, max_messages=1000), 1.0, "quiescent"),
    (RunLimits(max_sim_time=100.0, max_messages=3), 1.0, "max_messages"),
    (RunLimits(max_sim_time=0.5, max_messages=1000), 1.0, "max_sim_time"),
])
def test_stop_reason(horizon1, limits, delay, reason):
    overlay = complete(["A", "B", "C"])
    rows = {aid: [[-1.0], [0.0]] for aid in "ABC"}
    _, _, stats = run(_agents(horizon1, rows, overlay), TargetProfile((-3.0,)),
                      NetworkModel(delay=ConstantDelay(delay)), limits=limits)
    assert stats.stop_reason == reason
    assert stats.terminated == (reason == "quiescent")


# --- event order at shared times ----------------------------------------------

# Deliveries of a three-agent complete graph, seed 0, as produced by a kernel
# whose queue was a heap of (time, sequence number) entries: per delivery
# time, the deliveries in order, each "sender, recipient, the recipient's own
# version after it" ("-" sends a start event). The digest covers every event
# of the trace.
_ORDER_PINS = {
    "zero-delay": (NetworkModel(delay=ConstantDelay(0.0)), "4904a6b7f82128a1", {
        0.0: "-A0 -B0 -C0 AB1 AC1 BA1 BC2 CA2 CB2 BA2 BC2 CA2 CB2 AB2 AC3 CA2 CB2 AB2 AC4 BA2 "
             "BC4 AB2 AC4 CA2 CB2 AB2 AC4 BA3 BC5 BA3 BC5 CA3 CB2 AB2 AC5 BA3 BC5 BA3 BC5 CA3 "
             "CB2 AB2 AC5 CA3 CB2 AB2 AC5 CA3 CB2 AB2 AC5 BA3 BC5 AB2 AC5 BA3 BC5 BA3 BC5 CA3 "
             "CB2 AB2 AC5 BA3 BC5",
    }),
    "fifo-duplicates": (
        NetworkModel(delay=ConstantDelay(0.05), duplicate_probability=0.3, reorder=False),
        "360ae293431d54bc", {
            0.0: "-A0 -B0 -C0",
            0.05: "AB1 AC1 AC1 BA1 BC2 CA2 CB2",
            0.1: "BA2 BC2 BC2 CA2 CB2 AB2 AC3 CA2 CA2 CB2 AB2 AC4 BA2 BC4 BC4",
            0.15000000000000002: "AB2 AC4 CA2 CB2 CB2 AB2 AC4 BA3 BC5 BA3 BC5 CA3 CB2 AB2 AC5 "
                                 "BA3 BC5 BA3 BA3 BC5 BC5 CA3 CB2 CB2 AB2 AC5 CA3 CB2",
            0.2: "AB2 AB2 AC5 CA3 CB2 AB2 AC5 BA3 BA3 BC5 AB2 AC5 BA3 BA3 BC5",
            0.25: "BA3 BA3 BC5 CA3 CB2 AB2 AB2 AC5 BA3 BC5",
        }),
}


@pytest.mark.parametrize("case", sorted(_ORDER_PINS))
def test_event_order_at_shared_times_is_pinned(horizon1, case):
    # Every event here shares its delivery time with others. An event
    # scheduled for the time being delivered (zero delay, a FIFO clamp, a
    # duplicate) runs after the events already queued for that time.
    network, digest, expected = _ORDER_PINS[case]
    rows = {aid: [[-1.0], [0.0], [-2.0]] for aid in "ABC"}
    trace = []
    run(_agents(horizon1, rows, complete(list("ABC"))), TargetProfile((-3.0,)), network,
        seed=0, trace=trace)
    order = defaultdict(list)
    for ev in trace:
        if ev.kind == "deliver":
            p = ev.payload
            order[ev.time].append(f"{p.get('from', '-')}{p['to']}{p['version']}")
    assert {t: " ".join(tokens) for t, tokens in order.items()} == expected
    events = repr([(ev.time, ev.kind, ev.payload) for ev in trace]).encode()
    assert blake2b(events, digest_size=8).hexdigest() == digest


def test_no_handler_writes_into_a_configuration(horizon4, monkeypatch):
    # The index and version arrays of every delivered message, and of every
    # memory a handler returns, read the same bytes at the end of the run.
    seen = []

    def snapshot(msg):
        for config in (msg.config, msg.best.configuration):
            seen.append((config, bytes(config.index), bytes(config.version)))

    def recording(handle):
        def wrapped(state, event):
            if not isinstance(event, TargetProfile):
                snapshot(event)
            new_state, out = handle(state, event)
            snapshot(new_state.memory)
            return new_state, out

        return wrapped

    monkeypatch.setattr(simnet, "handle_start", recording(simnet.handle_start))
    monkeypatch.setattr(simnet, "handle_message", recording(simnet.handle_message))
    for seed, reorder in ((1, False), (2, True)):
        _, _, stats = _lossy_run(horizon4, seed, reorder)
        assert stats.deliveries > 100
    assert all(bytes(config.index) == index and bytes(config.version) == version
               for config, index, version in seen)
