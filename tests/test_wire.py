import struct

import pytest
from hypothesis import given, strategies as st

from cohdasim.agent import KnowledgeMessage
from cohdasim.core import (
    PlanningHorizon,
    SelectionRecord,
    StructuralError,
    SystemConfiguration,
    TargetProfile,
    make_candidate,
)
from cohdasim.wire import (
    _pack_config,
    config_length,
    decode_message,
    encode_message,
    encoded_length,
)

from conftest import configuration, make_fleet

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def messages(draw):
    """A message over a drawn fleet, and that fleet."""
    T = draw(st.integers(1, 6))
    ids = draw(st.lists(st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8
    ), unique=True, min_size=1, max_size=5))
    fleet = make_fleet(PlanningHorizon(T, 1.0, (0,)), {
        aid: [[draw(finite) for _ in range(T)] for _ in range(draw(st.integers(1, 3)))]
        for aid in ids
    })

    def config(subset):
        return configuration(fleet, {
            aid: (draw(st.integers(0, len(fleet.power[fleet.position[aid]]) - 1)),
                  draw(st.integers(0, 1000)))
            for aid in subset
        })

    cfg = config(ids)
    best_ids = ids[: draw(st.integers(1, len(ids)))]
    best = make_candidate(config(best_ids), draw(st.floats(0, 1e9)), best_ids[0])
    target = TargetProfile(tuple(draw(finite) for _ in range(T)))
    return KnowledgeMessage(ids[0], target, cfg, best), fleet


@given(messages())
def test_round_trip_identity(drawn):
    msg, fleet = drawn
    decoded = decode_message(encode_message(msg), fleet)
    assert decoded == msg
    assert decoded.best.key == msg.best.key


def test_decode_refuses_records_off_the_table():
    horizon = PlanningHorizon(1, 1.0, (0,))
    fleet = make_fleet(horizon, {"a": [[1.0], [2.0]], "b": [[3.0]]})
    config = configuration(fleet, {"a": (1, 4), "b": (0, 0)})
    data = encode_message(KnowledgeMessage("a", TargetProfile((0.0,)), config,
                                           make_candidate(config, 0.0, "a")))
    assert decode_message(data, fleet).config == config
    for other in ({"a": [[1.0], [2.5]], "b": [[3.0]]}, {"a": [[1.0]], "b": [[3.0]]},
                  {"a": [[1.0], [2.0]]}):
        with pytest.raises(StructuralError):
            decode_message(data, make_fleet(horizon, other))


def test_decode_refuses_a_best_size_that_is_not_its_record_count():
    horizon = PlanningHorizon(1, 1.0, (0,))
    fleet = make_fleet(horizon, {"a": [[1.0]], "b": [[2.0]]})
    full = configuration(fleet, {"a": (0, 0), "b": (0, 0)})
    one = configuration(fleet, {"a": (0, 0)})
    data = bytearray(encode_message(KnowledgeMessage("a", TargetProfile((0.0,)), full,
                                                     make_candidate(one, 0.0, "a"))))
    # The best candidate's size field comes just before its configuration,
    # which ends the message.
    offset = len(data) - config_length(one) - 4
    assert struct.unpack_from("<I", data, offset) == (1,)
    assert decode_message(bytes(data), fleet).best.size == 1
    struct.pack_into("<I", data, offset, 99)
    with pytest.raises(StructuralError):
        decode_message(bytes(data), fleet)


@given(messages())
def test_length_matches_real_encoding(drawn):
    msg, _ = drawn
    assert encoded_length(msg) == len(encode_message(msg))


def test_config_length_of_a_full_and_a_partial_configuration():
    # Ids of unequal byte length, so each agent's record has its own length.
    fleet = make_fleet(PlanningHorizon(2, 1.0, (0,)), {
        "a": [[1.0, 0.0]], "bbb": [[2.0, 1.0], [0.0, 0.5]], "c\u00e9\u00e9": [[0.0, 3.0]],
    })
    full = configuration(fleet, {"a": (0, 0), "bbb": (1, 2), "c\u00e9\u00e9": (0, 1)})
    assert config_length(full) == fleet.config_length
    for missing in fleet.ids:
        partial = configuration(fleet, {aid: (0, 0) for aid in fleet.ids if aid != missing})
        assert config_length(partial) < config_length(full)
        for config in (full, partial):
            msg = KnowledgeMessage("a", TargetProfile((0.0, 0.0)), config,
                                   make_candidate(config, 0.0, "a"))
            assert config_length(config) == len(_pack_config(config))
            assert encoded_length(msg) == len(encode_message(msg))


@given(messages())
def test_encoding_deterministic(drawn):
    msg, _ = drawn
    assert encode_message(msg) == encode_message(msg)


def test_map_ordering_is_canonical():
    fleet = make_fleet(PlanningHorizon(1, 1.0, (0,)), {"a": [[1.0]], "b": [[1.0]]})
    rec = lambda aid: SelectionRecord(aid, 0, fleet.schedule(fleet.position[aid], 0), 0)
    target = TargetProfile((0.0,))
    forward = SystemConfiguration.from_records(fleet, {"a": rec("a"), "b": rec("b")})
    backward = SystemConfiguration.from_records(fleet, {"b": rec("b"), "a": rec("a")})
    best = make_candidate(forward, 0.0, "a")
    m1 = KnowledgeMessage("a", target, forward, best)
    m2 = KnowledgeMessage("a", target, backward, best)
    assert encode_message(m1) == encode_message(m2)


def test_trace_byte_totals_match_reencoding():
    # message_bytes_total accounted in the trace equals re-encoded sizes.
    from cohdasim.scenario import build_toy2_scenario, materialize
    from cohdasim.simnet import run

    scenario = build_toy2_scenario()
    mat = materialize(scenario, 0)
    states, trace, stats = run(
        mat.agents, scenario.target, scenario.network,
        mat.network_seed, scenario.limits, trace=[],
    )
    publishes = [ev for ev in trace if ev.kind == "publish"]
    assert publishes
    sizes = {ev.payload["bytes"] for ev in publishes}
    # All sizes here stem from real messages of the same shape.
    for state in states.values():
        msg = KnowledgeMessage(
            state.agent_id, state.memory.target, state.memory.config, state.memory.best
        )
        assert encoded_length(msg) == len(encode_message(msg))
    assert all(isinstance(s, int) and s > 0 for s in sizes)
