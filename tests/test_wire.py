import struct
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from cohdasim.agent import KnowledgeMessage
from cohdasim.core import (
    Candidate,
    PlanningHorizon,
    StructuralError,
    SystemConfiguration,
    TargetProfile,
)
from cohdasim.scenario import build_small_demo_scenario, build_toy2_scenario, materialize
from cohdasim.simnet import run
from cohdasim.wire import (
    _pack_config,
    config_length,
    decode_message,
    encode_message,
    encoded_length,
)

from conftest import configuration, make_fleet, record

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
    best = Candidate(config(best_ids), draw(st.floats(0, 1e9)), best_ids[0])
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
                                           Candidate(config, 0.0, "a")))
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
                                                     Candidate(one, 0.0, "a"))))
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
                                   Candidate(config, 0.0, "a"))
            assert config_length(config) == len(_pack_config(config))
            assert encoded_length(msg) == len(encode_message(msg))


@given(messages())
def test_encoding_deterministic(drawn):
    msg, _ = drawn
    assert encode_message(msg) == encode_message(msg)


def test_trace_byte_totals_match_reencoding():
    # message_bytes_total accounted in the trace equals re-encoded sizes.
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


# --- the decoder accepts exactly the canonical encoding -------------------------

_FLEET = make_fleet(PlanningHorizon(2, 1.0, (1,)), {
    "a": [[0.0, 1.0], [2.0, -0.5]],
    "bb": [[1.5, 0.0]],
    "c\u00e9": [[0.0, 0.0], [3.0, 1e-17], [-2.0, 4.0]],
})
_KNOWN = configuration(_FLEET, {"a": (1, 0), "bb": (0, 2)})


def _pack_records(records):
    """A configuration's bytes from ``records``, one by one in the order
    given: the reference layout of a configuration on the wire."""
    parts = [struct.pack("<I", len(records))]
    for rec in records:
        raw = rec.agent_id.encode("utf-8")
        parts += (struct.pack("<I", len(raw)), raw,
                  struct.pack("<iI", rec.schedule_index, rec.version),
                  struct.pack(f"<I{len(rec.schedule)}d", len(rec.schedule), *rec.schedule))
    return b"".join(parts)


def _with_config(records):
    """A message over ``_FLEET`` whose believed configuration is the bytes
    of ``records``; its best candidate knows no agent."""
    empty = SystemConfiguration.empty(_FLEET)
    data = encode_message(KnowledgeMessage("a", TargetProfile((0.0, -1.0)), empty,
                                           Candidate(empty, 0.0, "a")))
    start = 1 + (4 + 1) + (4 + 8 * 2)  # format version, sender "a", target
    return data[:start] + _pack_records(records) + data[start + config_length(empty):]


def test_decode_refuses_crafted_records_off_the_table():
    good = list(_KNOWN.values())
    assert _pack_records(good) == _pack_config(_KNOWN)
    assert decode_message(_with_config(good), _FLEET).config == _KNOWN
    a, bb = good
    bad = [
        [record("a", 1, [2.0, -0.25]), bb],  # not the table's schedule 1
        [record("a", 0, [2.0, -0.5]), bb],  # schedule 1 under index 0
        [a, record("bb", 1, [1.5, 0.0])],  # index out of range
        [a, bb, record("zz", 0, [1.5, 0.0])],  # no agent of the fleet
        [a, a, bb],  # the same agent twice
        [bb, a],  # out of fleet order
        [record("a", 0, [-0.0, 1.0]), bb],  # the table's row up to the sign of a zero
        [a, record("bb", 0, [1.5])],  # a row off the horizon
    ]
    for records in bad:
        with pytest.raises(StructuralError):
            decode_message(_with_config(records), _FLEET)


def _replace(data, offset, fmt, *values):
    out = bytearray(data)
    struct.pack_into(fmt, out, offset, *values)
    return bytes(out)


# The best fitness comes 12 bytes before the best's configuration, which
# ends the message.
_FITNESS = -config_length(_KNOWN) - 12


@pytest.mark.parametrize("mutate", [
    lambda d: d + b"junk",
    lambda d: d[:-1],
    lambda d: d[:3],
    lambda d: b"",
    lambda d: _replace(d, 0, "<B", 2),  # another format version
    lambda d: _replace(d, 5, "<B", 0xFF),  # the sender is not UTF-8
    lambda d: _replace(d, 1, "<I", 2**32 - 1),  # a string longer than the message
    lambda d: _replace(d, 7, "<I", 1),  # a target off the horizon
    lambda d: _replace(d, len(d) + _FITNESS, "<d", float("nan")),
    lambda d: _replace(d, len(d) + _FITNESS, "<d", float("inf")),
], ids=["trailing", "truncated", "header-only", "empty", "version", "utf8", "long-string",
        "target-length", "nan-fitness", "inf-fitness"])
def test_decode_refuses_non_canonical_messages(mutate):
    data = encode_message(KnowledgeMessage("bb", TargetProfile((0.0, -1.0)), _KNOWN,
                                           Candidate(_KNOWN, 2.5, "bb")))
    assert encode_message(decode_message(data, _FLEET)) == data
    with pytest.raises(StructuralError):
        decode_message(mutate(data), _FLEET)


@cache
def _run_messages():
    """Encodings of every agent's final memory in toy-2 and small-demo runs,
    with the fleet of each run."""
    out = []
    for build in (build_toy2_scenario, build_small_demo_scenario):
        scenario = build()
        mat = materialize(scenario, 0)
        states, _, _ = run(mat.agents, scenario.target, scenario.network,
                           mat.network_seed, scenario.limits)
        out += [(encode_message(state.memory), mat.fleet) for state in states.values()]
    return out


@st.composite
def mutated_messages(draw):
    """An encoding of a run's message with bytes flipped, cut or appended."""
    data, fleet = draw(st.sampled_from(_run_messages()))
    kind = draw(st.sampled_from(["flip", "truncate", "append"]))
    if kind == "flip":
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 3))):
            out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
        data = bytes(out)
    elif kind == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    else:
        data += draw(st.binary(min_size=1, max_size=16))
    return data, fleet


@settings(max_examples=400)
@given(mutated_messages())
def test_decoder_accepts_only_canonical_bytes(drawn):
    data, fleet = drawn
    try:
        decoded = decode_message(data, fleet)
    except StructuralError:
        return
    assert encode_message(decoded) == data
