import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cohdasim import core
from cohdasim.agent import KnowledgeMessage
from cohdasim.core import (
    Candidate,
    DegenerateTargetError,
    Fleet,
    PlanningHorizon,
    StructuralError,
    TargetProfile,
    aggregate,
    compare,
    configuration_key,
    coverage,
    objective,
    selection_items,
    SystemConfiguration,
)
from cohdasim.wire import decode_message, encode_message

from conftest import configuration, make_fleet, reference_key


def test_horizon_validation():
    with pytest.raises(StructuralError):
        PlanningHorizon(0, 1.0, (0,))
    with pytest.raises(StructuralError):
        PlanningHorizon(4, 0.0, (0,))
    with pytest.raises(StructuralError):
        PlanningHorizon(4, 1.0, ())
    with pytest.raises(StructuralError):
        PlanningHorizon(4, 1.0, (4,))
    h = PlanningHorizon(4, 1.0, (2, 0, 2))
    assert h.product_window == (0, 2)


def test_arrays_are_cached_and_read_only():
    horizon = PlanningHorizon(3, 1.0, (2, 0))
    target = TargetProfile((0.0, -1.0, 2.0))
    for read in (lambda: horizon.window_index, lambda: target.arr):
        arr = read()
        assert read() is arr and not arr.flags.writeable
    assert horizon.window_index.tolist() == [0, 2]
    assert target.arr.tolist() == [0.0, -1.0, 2.0]
    delivered = aggregate(_config(horizon, {"A": [1.0, 2.0, 3.0]}))
    assert delivered.dtype == np.float64 and not delivered.flags.writeable


def test_fleet_refuses_an_empty_schedule_table(horizon1):
    # The one check for an agent without schedules: it could not boot, and
    # the enumeration oracle would have no product to scan.
    with pytest.raises(StructuralError, match="no schedule"):
        Fleet({"A": np.zeros((0, 1)), "B": [[0.0]]}, horizon1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_fleet_and_target_reject_non_finite(horizon1, bad):
    with pytest.raises(StructuralError, match="non-finite"):
        Fleet({"A": [[0.0], [bad]], "B": [[0.0]]}, horizon1)
    with pytest.raises(StructuralError, match="non-finite"):
        TargetProfile((0.0, bad))


def _config(horizon, rows):
    """Configuration over a fleet of its own in which each agent has the one
    schedule ``rows[agent_id]`` and selects it."""
    fleet = make_fleet(horizon, {aid: [row] for aid, row in rows.items()})
    return configuration(fleet, {aid: (0, 0) for aid in rows})


def test_aggregate_empty_config_is_zero(horizon4):
    empty = SystemConfiguration.empty(make_fleet(horizon4, {"A": [[1.0, 2.0, 3.0, 4.0]]}))
    assert aggregate(empty).tolist() == [0.0, 0.0, 0.0, 0.0]


def test_aggregate_two_agents():
    horizon = PlanningHorizon(2, 1.0, (0, 1))
    config = _config(horizon, {"A": [-2.0, -2.0], "B": [5.0, 0.0]})
    assert aggregate(config).tolist() == [3.0, -2.0]


def test_aggregate_single_agent_identity(horizon4):
    config = _config(horizon4, {"A": [1.0, 2.0, 3.0, 4.0]})
    assert aggregate(config).tolist() == [1.0, 2.0, 3.0, 4.0]


def test_objective_refuses_a_fleet_of_another_horizon(horizon4):
    config = _config(PlanningHorizon(1, 1.0, (0,)), {"A": [1.0]})
    assert aggregate(config).tolist() == [1.0]
    with pytest.raises(StructuralError, match="fleet horizon"):
        objective(config, TargetProfile((0.0,) * 4), horizon4)


def test_aggregate_permutation_invariant():
    horizon = PlanningHorizon(3, 1.0, (0, 1, 2))
    rows = {f"a{i}": [i * 0.7, -i, i / 3.0] for i in range(6)}
    forward = _config(horizon, dict(sorted(rows.items())))
    backward = _config(horizon, dict(sorted(rows.items(), reverse=True)))
    assert aggregate(forward).tolist() == aggregate(backward).tolist()


def test_objective_exact_match_is_zero():
    horizon = PlanningHorizon(2, 1.0, (0, 1))
    config = _config(horizon, {"A": [-1.0, 2.0]})
    target = TargetProfile((-1.0, 2.0))
    assert objective(config, target, horizon) == 0.0


def test_objective_l1_on_window():
    horizon = PlanningHorizon(2, 1.0, (0, 1))
    config = _config(horizon, {"A": [-90.0, -110.0]})
    target = TargetProfile((-100.0, -100.0))
    assert objective(config, target, horizon) == 20.0
    narrow = PlanningHorizon(2, 1.0, (0,))
    assert objective(config, target, narrow) == 10.0


def test_objective_ignores_values_outside_window():
    horizon = PlanningHorizon(3, 1.0, (1,))
    target = TargetProfile((0.0, 5.0, 0.0))
    a = _config(horizon, {"A": [99.0, 5.0, -99.0]})
    b = _config(horizon, {"A": [-1.0, 5.0, 123.0]})
    assert objective(a, target, horizon) == objective(b, target, horizon) == 0.0


def test_objective_length_mismatch():
    horizon = PlanningHorizon(2, 1.0, (0,))
    with pytest.raises(StructuralError):
        objective(_config(horizon, {"A": [1.0, 1.0]}), TargetProfile((1.0,)), horizon)


def test_objective_pluggable_distance():
    horizon = PlanningHorizon(2, 1.0, (0, 1))
    config = _config(horizon, {"A": [3.0, 0.0]})
    target = TargetProfile((0.0, 4.0))
    assert objective(config, target, horizon) == 7.0


# Agents "a", "b" and "c", each with four schedules.
_ABC = make_fleet(PlanningHorizon(1, 1.0, (0,)), {aid: [[0.0]] * 4 for aid in "abc"})


def _cand(items, fitness, creator="x"):
    return Candidate(configuration(_ABC, {aid: (idx, 0) for aid, idx in items}), fitness,
                     creator)


def test_compare_size_first():
    a = _cand([("a", 0), ("b", 0), ("c", 0)], 50.0)
    b = _cand([("a", 0), ("b", 0)], 0.0)
    assert compare(a, b) > 0
    assert compare(b, a) < 0


def test_compare_fitness_second():
    a = _cand([("a", 0), ("b", 0)], 5.0)
    b = _cand([("a", 1), ("b", 1)], 7.0)
    assert compare(a, b) > 0


def test_compare_key_breaks_ties_never_equal_for_distinct():
    a = _cand([("a", 0), ("b", 1)], 5.0)
    b = _cand([("a", 1), ("b", 0)], 5.0)
    assert a.key != b.key
    result = compare(a, b)
    assert result != 0
    assert (result > 0) == (a.key < b.key)
    assert compare(a, a) == 0


def test_configuration_key_stable_and_order_independent():
    c1 = configuration(_ABC, {"a": (3, 0), "b": (1, 0)})
    c2 = configuration(_ABC, {"b": (1, 9), "a": (3, 0)})
    # Key depends only on the sorted (agent, index) pairs.
    assert configuration_key(c1) == configuration_key(c2) == reference_key(c1)
    assert selection_items(c1) == (("a", 3), ("b", 1))


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=8))
def test_compare_total_order_on_random_triples(raw):
    candidates = []
    for i, (x, y, z) in enumerate(raw):
        candidates.append(_cand([("a", x), ("b", y), ("c", z)], float((x + 2 * y) % 5)))
    rng = random.Random(7)
    for _ in range(30):
        a, b, c = (rng.choice(candidates) for _ in range(3))
        # antisymmetry
        assert compare(a, b) == -compare(b, a)
        # transitivity
        if compare(a, b) >= 0 and compare(b, c) >= 0:
            assert compare(a, c) >= 0
        # equality only for identical selections
        if compare(a, b) == 0:
            assert selection_items(a.configuration) == selection_items(b.configuration)


def _error(delivered, target, horizon):
    """Objective value of a one-agent fleet whose only schedule is ``delivered``."""
    fleet = make_fleet(horizon, {"A": [list(delivered)]})
    return objective(configuration(fleet, {"A": (0, 0)}), target, horizon)


def test_coverage_exact_match_is_one():
    horizon = PlanningHorizon(2, 1.0, (0, 1))
    target = TargetProfile((-3.0, -4.0))
    assert coverage(_error([-3.0, -4.0], target, horizon), target, horizon) == 1.0


def test_coverage_all_zero_delivery_is_zero():
    horizon = PlanningHorizon(2, 1.0, (0, 1))
    target = TargetProfile((-3.0, -4.0))
    assert coverage(_error([0.0, 0.0], target, horizon), target, horizon) == 0.0


def test_coverage_reference_example():
    # -100 kW target on 12 one-hour intervals, delivered -99 kW each.
    horizon = PlanningHorizon(12, 1.0, tuple(range(12)))
    target = TargetProfile((-100.0,) * 12)
    error = _error([-99.0] * 12, target, horizon)
    assert coverage(error, target, horizon) == pytest.approx(0.99)


def test_coverage_degenerate_target():
    horizon = PlanningHorizon(2, 1.0, (0,))
    target = TargetProfile((0.0, 5.0))
    with pytest.raises(DegenerateTargetError):
        coverage(_error([1.0, 1.0], target, horizon), target, horizon)


@given(st.lists(st.floats(-50, 50), min_size=3, max_size=3), st.floats(0.1, 30))
def test_coverage_monotone_in_window_error(values, bump):
    horizon = PlanningHorizon(3, 1.0, (0, 1, 2))
    target = TargetProfile((-10.0, -10.0, -10.0))
    worse = list(values)
    # Push the first interval further away from the target.
    worse[0] += bump if worse[0] >= -10.0 else -bump
    assert coverage(_error(worse, target, horizon), target, horizon) <= \
        coverage(_error(values, target, horizon), target, horizon)


def test_candidate_fitness_matches_recomputed_objective():
    horizon = PlanningHorizon(2, 1.0, (0, 1))
    target = TargetProfile((-4.0, 1.0))
    fleet = make_fleet(horizon, {"A": [[-2.0, 0.0]], "B": [[0.0, 0.0], [-1.0, 0.5]]})
    config = configuration(fleet, {"A": (0, 0), "B": (1, 0)})
    fitness = objective(config, target, horizon)
    cand = Candidate(config, fitness, "A")
    assert cand.size == 2
    assert math.isclose(cand.fitness, objective(config, target, horizon), abs_tol=1e-9)


# --- configurations over a fleet table ------------------------------------------

_FLEET = make_fleet(PlanningHorizon(2, 1.0, (1,)), {
    "a": [[0.0, 1.0], [2.0, -0.5]],
    "bb": [[1.5, 0.0]],
    "c\u00e9": [[0.0, 0.0], [3.0, 1e-17], [-2.0, 4.0]],
})

fleet_configs = st.fixed_dictionaries({}, optional={
    "a": st.tuples(st.integers(0, 1), st.integers(0, 9)),
    "bb": st.tuples(st.just(0), st.integers(0, 9)),
    "c\u00e9": st.tuples(st.integers(0, 2), st.integers(0, 2**31)),
}).map(lambda picks: configuration(_FLEET, picks))


@given(fleet_configs)
def test_configuration_round_trips_through_records(config):
    records = dict(config)
    assert list(records) == sorted(records)
    for aid, rec in records.items():
        assert rec.agent_id == aid
        assert rec.schedule == tuple(_FLEET.power[_FLEET.position[aid]][rec.schedule_index])
    again = configuration(_FLEET, {aid: (r.schedule_index, r.version) for aid, r in records.items()})
    assert again == config and dict(again) == records
    assert len(config) == len(records)
    assert all((aid in config) == (aid in records) for aid in (*_FLEET.ids, "zz"))


@pytest.mark.parametrize("convert", [tuple, list, iter, lambda v: array("l", v)])
def test_configuration_converts_int_sequences_to_its_arrays(convert):
    config = SystemConfiguration(_FLEET, convert([1, -1, 2]), convert([0, -1, 2**32 - 1]))
    assert (config.index.typecode, config.version.typecode) == ("i", "q")
    assert config.index.tolist() == [1, -1, 2] and config.version.tolist() == [0, -1, 2**32 - 1]
    assert config == configuration(_FLEET, {"a": (1, 0), "c\u00e9": (2, 2**32 - 1)})


def test_configuration_takes_over_arrays_of_its_typecodes():
    index, version = array("i", [0, 0, -1]), array("q", [3, 1, -1])
    config = SystemConfiguration(_FLEET, index, version)
    assert config.index is index and config.version is version


@pytest.mark.parametrize("index, version", [
    ([2**31, -1, -1], [0, -1, -1]),
    ([-2**31 - 1, -1, -1], [0, -1, -1]),
    ([0, -1, -1], [2**63, -1, -1]),
])
def test_configuration_refuses_entries_out_of_array_range(index, version):
    with pytest.raises(StructuralError, match="out of range"):
        SystemConfiguration(_FLEET, index, version)


@pytest.mark.parametrize("index, version", [([0], [0]), ([0, 0, 0], [0, 0]), ([0] * 4, [0] * 4)])
def test_configuration_refuses_arrays_that_are_not_one_entry_per_agent(index, version):
    with pytest.raises(StructuralError, match="3 agents"):
        SystemConfiguration(_FLEET, index, version)


def test_power_table_shares_a_frozen_float64_table_and_copies_others(horizon1):
    frozen = np.array([[1.0], [2.0]])
    frozen.setflags(write=False)
    writable = np.array([[1.0], [2.0]])
    view = writable[:]
    view.setflags(write=False)
    fleet = Fleet({"a": frozen, "b": writable, "c": view, "d": [[1.0]]}, horizon1)
    assert fleet.power[0] is frozen
    for table in (writable, view):
        assert not any(np.shares_memory(power, table) for power in fleet.power)
    writable[0, 0] = 9.0
    assert fleet.power[1].tolist() == fleet.power[2].tolist() == [[1.0], [2.0]]
    assert not any(power.flags.writeable for power in fleet.power)


@given(fleet_configs)
def test_configuration_key_from_the_table_equals_the_dict_key(config):
    assert configuration_key(config) == reference_key(config)
    assert Candidate(config, 1.0, "a").size == len(dict(config))


@pytest.fixture
def key_calls(monkeypatch):
    """Arguments of every ``core.configuration_key`` call."""
    calls = []

    def counting(config):
        calls.append(config)
        return configuration_key(config)

    monkeypatch.setattr(core, "configuration_key", counting)
    return calls


def test_candidate_key_is_computed_on_first_read(key_calls):
    config = configuration(_FLEET, {"a": (1, 0), "c\u00e9": (2, 3)})
    cand = Candidate(config, 1.0, "a")
    assert key_calls == []
    # Size or fitness decide these comparisons, so neither reads a key.
    larger = Candidate(configuration(_FLEET, {"a": (0, 0), "bb": (0, 0), "c\u00e9": (0, 0)}),
                       9.0, "bb")
    fitter = Candidate(configuration(_FLEET, {"a": (0, 1), "bb": (0, 1)}), 0.5, "bb")
    assert compare(larger, cand) > 0 and compare(cand, fitter) < 0
    assert key_calls == []
    assert cand.key == cand.key == reference_key(config)
    assert key_calls == [config]


def test_decoded_candidate_key_equals_the_sent_one(key_calls):
    config = configuration(_FLEET, {"a": (1, 0), "bb": (0, 4)})
    sent = KnowledgeMessage("a", TargetProfile((0.0, -1.0)), config,
                            Candidate(config, 2.5, "bb"))
    decoded = decode_message(encode_message(sent), _FLEET)
    assert key_calls == []
    assert decoded.best.key == sent.best.key
