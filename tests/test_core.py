import math
import random

import pytest
from hypothesis import given, strategies as st

from cohdasim.core import (
    DegenerateTargetError,
    PlanningHorizon,
    Schedule,
    StructuralError,
    TargetProfile,
    aggregate,
    compare,
    configuration_key,
    coverage,
    make_candidate,
    objective,
    prefer,
    selection_items,
)

from conftest import record


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


def test_schedule_rejects_non_finite():
    with pytest.raises(StructuralError):
        Schedule((1.0, float("nan")))
    with pytest.raises(StructuralError):
        TargetProfile((float("inf"),))


def test_aggregate_empty_config_is_zero(horizon4):
    assert aggregate({}, horizon4).power == (0.0, 0.0, 0.0, 0.0)


def test_aggregate_two_agents():
    horizon = PlanningHorizon(2, 1.0, (0, 1))
    config = {
        "A": record("A", 0, [-2.0, -2.0]),
        "B": record("B", 0, [5.0, 0.0]),
    }
    assert aggregate(config, horizon).power == (3.0, -2.0)


def test_aggregate_single_agent_identity(horizon4):
    config = {"A": record("A", 0, [1.0, 2.0, 3.0, 4.0])}
    assert aggregate(config, horizon4).power == (1.0, 2.0, 3.0, 4.0)


def test_aggregate_length_mismatch(horizon4):
    with pytest.raises(StructuralError):
        aggregate({"A": record("A", 0, [1.0])}, horizon4)


def test_aggregate_permutation_invariant():
    horizon = PlanningHorizon(3, 1.0, (0, 1, 2))
    rows = {f"a{i}": record(f"a{i}", 0, [i * 0.7, -i, i / 3.0]) for i in range(6)}
    forward = dict(sorted(rows.items()))
    backward = dict(sorted(rows.items(), reverse=True))
    assert aggregate(forward, horizon).power == aggregate(backward, horizon).power


def test_objective_exact_match_is_zero():
    horizon = PlanningHorizon(2, 1.0, (0, 1))
    config = {"A": record("A", 0, [-1.0, 2.0])}
    target = TargetProfile((-1.0, 2.0))
    assert objective(config, target, horizon) == 0.0


def test_objective_l1_on_window():
    horizon = PlanningHorizon(2, 1.0, (0, 1))
    config = {"A": record("A", 0, [-90.0, -110.0])}
    target = TargetProfile((-100.0, -100.0))
    assert objective(config, target, horizon) == 20.0
    narrow = PlanningHorizon(2, 1.0, (0,))
    assert objective(config, target, narrow) == 10.0


def test_objective_ignores_values_outside_window():
    horizon = PlanningHorizon(3, 1.0, (1,))
    target = TargetProfile((0.0, 5.0, 0.0))
    a = {"A": record("A", 0, [99.0, 5.0, -99.0])}
    b = {"A": record("A", 0, [-1.0, 5.0, 123.0])}
    assert objective(a, target, horizon) == objective(b, target, horizon) == 0.0


def test_objective_length_mismatch():
    horizon = PlanningHorizon(2, 1.0, (0,))
    with pytest.raises(StructuralError):
        objective({}, TargetProfile((1.0,)), horizon)


def test_objective_pluggable_distance():
    horizon = PlanningHorizon(2, 1.0, (0, 1))
    config = {"A": record("A", 0, [3.0, 0.0])}
    target = TargetProfile((0.0, 4.0))
    assert objective(config, target, horizon) == 7.0


def _cand(items, fitness, creator="x"):
    config = {aid: record(aid, idx, [0.0]) for aid, idx in items}
    return make_candidate(config, fitness, creator)


def test_compare_size_first():
    a = _cand([("a", 0), ("b", 0), ("c", 0)], 50.0)
    b = _cand([("a", 0), ("b", 0)], 0.0)
    assert compare(a, b) > 0
    assert compare(b, a) < 0


def test_compare_fitness_second():
    a = _cand([("a", 0), ("b", 0)], 5.0)
    b = _cand([("a", 1), ("b", 1)], 7.0)
    assert compare(a, b) > 0
    assert prefer(a, b) is a


def test_compare_key_breaks_ties_never_equal_for_distinct():
    a = _cand([("a", 0), ("b", 1)], 5.0)
    b = _cand([("a", 1), ("b", 0)], 5.0)
    assert a.key != b.key
    result = compare(a, b)
    assert result != 0
    assert (result > 0) == (a.key < b.key)
    assert compare(a, a) == 0


def test_configuration_key_stable_and_order_independent():
    c1 = {"a": record("a", 3, [0.0]), "b": record("b", 1, [0.0])}
    c2 = {"b": record("b", 1, [1.0], version=9), "a": record("a", 3, [2.0])}
    # Key depends only on the sorted (agent, index) pairs.
    assert configuration_key(c1) == configuration_key(c2)
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


def test_coverage_exact_match_is_one():
    horizon = PlanningHorizon(2, 1.0, (0, 1))
    target = TargetProfile((-3.0, -4.0))
    assert coverage(Schedule((-3.0, -4.0)), target, horizon) == 1.0


def test_coverage_all_zero_delivery_is_zero():
    horizon = PlanningHorizon(2, 1.0, (0, 1))
    target = TargetProfile((-3.0, -4.0))
    assert coverage(Schedule((0.0, 0.0)), target, horizon) == 0.0


def test_coverage_reference_example():
    # -100 kW target on 12 one-hour intervals, delivered -99 kW each.
    horizon = PlanningHorizon(12, 1.0, tuple(range(12)))
    target = TargetProfile((-100.0,) * 12)
    delivered = Schedule((-99.0,) * 12)
    assert coverage(delivered, target, horizon) == pytest.approx(0.99)


def test_coverage_degenerate_target():
    horizon = PlanningHorizon(2, 1.0, (0,))
    with pytest.raises(DegenerateTargetError):
        coverage(Schedule((1.0, 1.0)), TargetProfile((0.0, 5.0)), horizon)


@given(st.lists(st.floats(-50, 50), min_size=3, max_size=3), st.floats(0.1, 30))
def test_coverage_monotone_in_window_error(values, bump):
    horizon = PlanningHorizon(3, 1.0, (0, 1, 2))
    target = TargetProfile((-10.0, -10.0, -10.0))
    base = Schedule(tuple(values))
    worse_values = list(values)
    # Push the first interval further away from the target.
    worse_values[0] += bump if worse_values[0] >= -10.0 else -bump
    worse = Schedule(tuple(worse_values))
    assert coverage(worse, target, horizon) <= coverage(base, target, horizon)


def test_candidate_fitness_matches_recomputed_objective():
    horizon = PlanningHorizon(2, 1.0, (0, 1))
    target = TargetProfile((-4.0, 1.0))
    config = {
        "A": record("A", 0, [-2.0, 0.0]),
        "B": record("B", 1, [-1.0, 0.5]),
    }
    fitness = objective(config, target, horizon)
    cand = make_candidate(config, fitness, "A")
    assert cand.size == 2
    assert math.isclose(cand.fitness, objective(config, target, horizon), abs_tol=1e-9)
