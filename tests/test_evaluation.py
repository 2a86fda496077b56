import dataclasses
import itertools
import random

import pytest

from cohdasim import agent, core, evaluation
from cohdasim.cli import main
from cohdasim.core import PlanningHorizon, StructuralError, TargetProfile
from cohdasim.evaluation import (
    CapExceededError,
    brute_force_optimum,
    design_points,
    EnumerationOracle,
    greedy_baseline,
    run_scenario,
    run_scenario_full,
    run_sweep,
    uncontrolled_configuration,
    worst_case_bound,
)
from cohdasim.scenario import with_param
from cohdasim.schema import DesignError, ExperimentDesign, load_scenario
from conftest import make_fleet
from wire_reference import decode_message, encode_message


def _rows(*rows):
    return [list(r) for r in rows]


def _oracle(ids, sets, target, horizon, **kwargs):
    return EnumerationOracle(make_fleet(horizon, dict(zip(ids, sets))), target, **kwargs)


@pytest.fixture
def toy_instance():
    horizon = PlanningHorizon(1, 1.0, (0,))
    target = TargetProfile((4.0,))
    sets = [_rows([1.0], [2.0]), _rows([1.0], [3.0])]
    return ["A", "B"], sets, target, horizon


def test_brute_force_toy_instance(toy_instance):
    ids, sets, target, horizon = toy_instance
    # Independent oracle: plain nested enumeration.
    best = min(
        ((ia, ib, abs(sets[0][ia][0] + sets[1][ib][0] - 4.0))
         for ia in range(2) for ib in range(2)),
        key=lambda c: (c[2], c[0], c[1]),
    )
    assert (best[0], best[1], best[2]) == (0, 1, 0.0)

    oracle = _oracle(ids, sets, target, horizon)
    assert oracle.optimum == 0.0
    assert oracle.optimum_assignment == {"A": 0, "B": 1}
    assert oracle.worst == 2.0
    assert oracle.worst_assignment == {"A": 0, "B": 0}


def test_brute_force_single_agent():
    horizon = PlanningHorizon(1, 1.0, (0,))
    target = TargetProfile((2.5,))
    oracle = _oracle(["A"], [_rows([1.0], [2.0], [4.0])], target, horizon)
    assert oracle.optimum == 0.5
    assert oracle.optimum_assignment == {"A": 1}


def test_brute_force_all_zero():
    horizon = PlanningHorizon(2, 1.0, (0, 1))
    target = TargetProfile((0.0, 0.0))
    sets = [_rows([0.0, 0.0], [0.0, 0.0]) for _ in range(3)]
    oracle = _oracle(["a", "b", "c"], sets, target, horizon)
    assert oracle.optimum == 0.0
    assert oracle.optimum_assignment == {"a": 0, "b": 0, "c": 0}


def test_brute_force_cap():
    horizon = PlanningHorizon(1, 1.0, (0,))
    target = TargetProfile((1.0,))
    sets = [_rows(*[[float(i)] for i in range(10)]) for _ in range(4)]
    with pytest.raises(CapExceededError):
        _oracle(list("abcd"), sets, target, horizon, cap=100)


def test_brute_force_matches_naive_on_random_instances():
    rng = random.Random(42)
    for trial in range(10):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        T = rng.randint(1, 3)
        horizon = PlanningHorizon(T, 1.0, tuple(range(T)))
        sets = [
            _rows(*[[rng.uniform(-3, 3) for _ in range(T)] for _ in range(m)])
            for _ in range(n)
        ]
        target = TargetProfile(tuple(rng.uniform(-3, 3) for _ in range(T)))
        oracle = _oracle([f"a{i}" for i in range(n)], sets, target, horizon)

        def value(combo):
            return sum(
                abs(sum(sets[i][j][t] for i, j in enumerate(combo)) - target.power[t])
                for t in range(T)
            )

        combos = list(itertools.product(*(range(m) for _ in range(n))))
        naive_best = min(value(c) for c in combos)
        naive_worst = max(value(c) for c in combos)
        assert oracle.optimum == pytest.approx(naive_best, abs=1e-9)
        assert oracle.worst == pytest.approx(naive_worst, abs=1e-9)


def test_value_of_uses_identical_float_path(toy_instance):
    ids, sets, target, horizon = toy_instance
    oracle = _oracle(ids, sets, target, horizon)
    for ia in range(2):
        for ib in range(2):
            v = oracle.value_of({"A": ia, "B": ib})
            assert oracle.optimum <= v <= oracle.worst


@pytest.mark.parametrize("n, m, width", [(2, 12, 9), (3, 5, 8), (5, 10, 8)])
def test_value_of_returns_the_scan_values(n, m, width):
    # Non-integer values, whose sums round differently in another order, over
    # windows wide enough for numpy's pairwise summation. 5 agents with 10
    # schedules each exceed the 65,536 combinations of one block, so there
    # the scan and value_of also add a prefix.
    rng = random.Random(100 * n + width)
    horizon = PlanningHorizon(width, 1.0, tuple(range(width)))
    for _ in range(5):
        sets = [[[rng.uniform(-3, 3) for _ in range(width)] for _ in range(m)]
                for _ in range(n)]
        target = TargetProfile(tuple(rng.uniform(-3, 3) for _ in range(width)))
        oracle = _oracle([f"a{i}" for i in range(n)], sets, target, horizon)
        assert oracle.value_of(oracle.optimum_assignment) == oracle.optimum
        assert oracle.value_of(oracle.worst_assignment) == oracle.worst


@pytest.mark.parametrize("block", [1, evaluation._BLOCK])
@pytest.mark.parametrize("agent", ["A", "B"])
@pytest.mark.parametrize("index", [-1, 2])
def test_value_of_refuses_an_index_outside_the_schedules(
        toy_instance, monkeypatch, block, agent, index):
    # _BLOCK 1 puts both agents in the prefix, the default both in the block.
    monkeypatch.setattr(evaluation, "_BLOCK", block)
    ids, sets, target, horizon = toy_instance
    oracle = _oracle(ids, sets, target, horizon)
    with pytest.raises(ValueError, match=f"agent '{agent}' has no schedule {index}"):
        oracle.value_of({"A": 0, "B": 0, agent: index})


@pytest.mark.parametrize("block", [1, 7, evaluation._BLOCK])
def test_oracle_ties_among_repeated_rows_match_an_integer_reference(monkeypatch, block):
    # 0/1 tables with repeated schedules, so that many window sums repeat and
    # many assignments tie. _BLOCK 1 enumerates every agent in the prefix, 7
    # leaves the last two in the block, the default all five.
    monkeypatch.setattr(evaluation, "_BLOCK", block)
    rng = random.Random(block)
    sizes, width = (3, 2, 4, 2, 3), 4
    horizon = PlanningHorizon(width, 1.0, tuple(range(width)))
    for _ in range(3):
        sets = []
        for size in sizes:
            rows = [[rng.randint(0, 1) for _ in range(width)] for _ in range(size)]
            rows[-1] = rows[0]
            sets.append(rows)
        target = [rng.randint(0, 4) for _ in range(width)]
        ids = [f"a{i}" for i in range(len(sizes))]
        oracle = _oracle(ids, sets, TargetProfile(tuple(target)), horizon)

        def value(combo):
            return sum(abs(sum(sets[i][j][t] for i, j in enumerate(combo)) - target[t])
                       for t in range(width))

        combos = list(itertools.product(*map(range, sizes)))
        best = min(combos, key=lambda c: (value(c), c))
        worst = min(combos, key=lambda c: (-value(c), c))
        assert (oracle.optimum, oracle.worst) == (value(best), value(worst))
        assert oracle.optimum_assignment == dict(zip(ids, best))
        assert oracle.worst_assignment == dict(zip(ids, worst))
        for combo in combos:
            assert oracle.value_of(dict(zip(ids, combo))) == value(combo)


@pytest.mark.parametrize("repeated", [False, True])
def test_value_of_adds_the_window_columns_in_order(monkeypatch, repeated):
    # Uniform floats over 12 intervals, whose sums round differently in
    # another order. _BLOCK 36 puts a0 in the prefix and a1, a2 in the block.
    # The reference adds the prefix rows left to right, the block rows left
    # to right, then the absolute errors column by column. With ``repeated``
    # every block row is the same, so the block has one distinct sum.
    monkeypatch.setattr(evaluation, "_BLOCK", 36)
    rng = random.Random(9)
    width, size = 12, 6
    horizon = PlanningHorizon(width, 1.0, tuple(range(width)))

    def table():
        if repeated:
            return [[rng.uniform(-3, 3) for _ in range(width)]] * size
        return [[rng.uniform(-3, 3) for _ in range(width)] for _ in range(size)]

    for _ in range(3):
        sets = [[[rng.uniform(-3, 3) for _ in range(width)] for _ in range(size)],
                table(), table()]
        target = [rng.uniform(-3, 3) for _ in range(width)]
        oracle = _oracle(["a0", "a1", "a2"], sets, TargetProfile(tuple(target)), horizon)

        def value(combo):
            prefix = [0.0 + x for x in sets[0][combo[0]]]
            block = [0.0] * width
            for i in (1, 2):
                block = [b + x for b, x in zip(block, sets[i][combo[i]])]
            total = 0.0
            for p, b, t in zip(prefix, block, target):
                total += abs((p + b) - t)
            return total

        for combo in itertools.product(range(size), repeat=3):
            assert oracle.value_of(dict(zip(["a0", "a1", "a2"], combo))) == value(combo)


def test_a_factor_value_repeated_as_a_cell_is_refused():
    # Two values repeat when they build the same scenario: two delays that
    # differ in key order, or 0 and 0.0 for a probability.
    delays = ({"kind": "constant", "seconds": 1.0}, {"seconds": 1.0, "kind": "constant"})
    for path, values, cell in [
        ("network.duplicate_probability", (0.0, 0.1, 0.0), "0.0"),
        ("network.delay", delays, '{"kind": "constant", "seconds": 1.0}'),
        ("network.duplicate_probability", (0, 0.0), "0.0"),
    ]:
        with pytest.raises(StructuralError) as err:
            ExperimentDesign(load_scenario("toy-2"), ((path, values),))
        assert str(err.value) == f"factor '{path}' repeats the value {cell}"


def test_a_design_that_repeats_a_factor_path_is_refused():
    path = "network.duplicate_probability"
    with pytest.raises(StructuralError) as err:
        ExperimentDesign(load_scenario("toy-2"), ((path, (0.0, 0.1)), (path, (0.2,))))
    assert str(err.value) == f"factor '{path}' repeats an earlier factor's path"
    assert (err.value.factor, err.value.key) == (1, "path")


def test_a_design_refusal_carries_its_location():
    # Where a design file puts each refusal: the factor's index (None for
    # the design's own keys) and its key.
    base = load_scenario("toy-2")
    first = ("network.duplicate_probability", (0.0, 0.1))
    for factors, replications, message, factor, key in [
        ((first, ("sampling.count", (2, 1.5))), 1,
         "factor 'sampling.count' value 1.5: sampling.count must be an integer", 1, "values"),
        ((first, ("network.bogus", (1,))), 1, "no key 'network.bogus' in the scenario file",
         1, "path"),
        ((first,), 0, "replications must be at least 1", None, "replications"),
    ]:
        with pytest.raises(DesignError) as err:
            ExperimentDesign(base, factors, replications)
        assert (str(err.value), err.value.factor, err.value.key) == (message, factor, key)


def test_worst_case_analytic_dominates_exhaustive():
    toy = load_scenario("toy-2")
    exact = worst_case_bound(toy, 0, method="exhaustive")
    analytic = worst_case_bound(toy, 0, method="analytic")
    assert analytic >= exact
    small = with_param(load_scenario("small-demo"), "sampling.count", 3)
    small = with_param(small, "topology.k", 2)  # before the count: k=4 needs 5 devices
    small = with_param(small, "devices.0.count", 4)
    assert worst_case_bound(small, 1, method="analytic") >= worst_case_bound(
        small, 1, method="exhaustive"
    )


def _huge_small_demo():
    # 200 devices x 200 schedules: 200^200 combinations, beyond any float.
    sc = with_param(load_scenario("small-demo"), "devices.0.count", 200)
    return with_param(sc, "sampling.count", 200)


def test_worst_case_auto_falls_back_to_analytic_on_huge_products():
    sc = _huge_small_demo()
    assert worst_case_bound(sc, 0, method="auto") == worst_case_bound(sc, 0, method="analytic")


def test_brute_force_refuses_huge_products():
    with pytest.raises(CapExceededError) as err:
        brute_force_optimum(_huge_small_demo(), 0)
    assert err.value.combinations == 200**200
    assert "10^460.2" in str(err.value)


def test_worst_case_singleton_sets_equal_everything():
    sc = with_param(load_scenario("toy-2"), "sampling.count", 1)
    opt, _ = brute_force_optimum(sc, 0)
    worst = worst_case_bound(sc, 0, method="exhaustive")
    greedy, _ = greedy_baseline(sc, 0)
    assert opt == worst == greedy


def test_scenario_oracles_on_toy2():
    sc = load_scenario("toy-2")
    opt, assignment = brute_force_optimum(sc, 0)
    assert opt == 0.0
    # The optimum turns both devices on (-2 and -3 against -5).
    mat_flex = {}
    from cohdasim.scenario import materialize

    mat = materialize(sc, 0)
    for aid, flex in zip(mat.device_ids, mat.flexibility):
        mat_flex[aid] = flex
    for aid, idx in assignment.items():
        assert mat_flex[aid].schedules[idx][0] != 0.0
    assert worst_case_bound(sc, 0, method="exhaustive") == 5.0


def test_greedy_baseline_hand_example(toy_instance):
    ids, sets, target, horizon = toy_instance
    # By hand: A alone picks 2.0 (index 1), then B ties between 1.0 and 3.0
    # and takes the lowest index; the final fitness is 1.0 either way.
    acc = 0.0
    a_pick = min(range(2), key=lambda i: abs(sets[0][i][0] - 4.0))
    assert a_pick == 1
    acc += sets[0][a_pick][0]
    b_values = [abs(acc + sets[1][i][0] - 4.0) for i in range(2)]
    assert b_values == [1.0, 1.0]


def test_greedy_on_scenarios_not_below_optimum():
    for builder_seed in (0, 1):
        sc = with_param(load_scenario("small-demo"), "sampling.count", 4)
        sc = with_param(sc, "devices.0.count", 5)
        opt, _ = brute_force_optimum(sc, builder_seed)
        greedy, _ = greedy_baseline(sc, builder_seed)
        assert greedy >= opt - 1e-9


def test_greedy_follows_the_device_order():
    # Groups "b" then "a": the devices choose in that order, not by sorted
    # id. b000 first takes -4.5 against -5, leaving a000 off (0.5); in id
    # order a000 would take -3 first and b000 stay off (2.0).
    toy = load_scenario("toy-2")
    b, a = (dataclasses.replace(g.model, p_el_on=p) for g, p in zip(toy.devices, (-4.5, -3.0)))
    sc = dataclasses.replace(toy, target=TargetProfile((-5.0,)),
                             devices=(dataclasses.replace(toy.devices[0], prefix="b", model=b),
                                      dataclasses.replace(toy.devices[1], prefix="a", model=a)))
    value, assignment = greedy_baseline(sc, 0)
    assert value == 0.5
    assert list(assignment) == ["b000", "a000"]
    assert value == brute_force_optimum(sc, 0)[0]


def test_greedy_single_agent_equals_brute_force():
    sc = load_scenario("toy-2")
    import dataclasses

    one = dataclasses.replace(
        sc,
        devices=(sc.devices[0],),
        target=dataclasses.replace(sc.target, power=(-2.0,)),
    )
    assert greedy_baseline(one, 0)[0] == brute_force_optimum(one, 0)[0]


def test_run_scenario_single_agent():
    # One-agent run: no neighbors, no messages.
    import dataclasses

    sc = load_scenario("toy-2")
    one = dataclasses.replace(
        sc,
        devices=(sc.devices[0],),
        target=dataclasses.replace(sc.target, power=(-2.0,)),
    )
    result = run_scenario(one, 0)
    assert result.terminated and result.consistent
    assert result.messages_sent == 0
    assert result.final_fitness == 0.0
    assert result.coverage_l1 == 1.0


def test_run_scenario_toy_matches_brute_force():
    sc = load_scenario("toy-2")
    result = run_scenario(sc, 0)
    opt, _ = brute_force_optimum(sc, 0)
    assert result.final_fitness == opt == 0.0
    assert result.consistent and result.terminated
    assert result.coverage_l1 == 1.0
    assert result.best_improvement_curve[-1][1] == result.final_fitness


def test_run_result_metric_consistency():
    sc = load_scenario("small-demo")
    trace = []
    full = run_scenario_full(sc, 2, trace=trace)
    r = full.result
    w = sc.horizon.window_index
    denom = float(abs(sc.target.arr[w]).sum())
    assert r.coverage_l1 == max(0.0, 1.0 - r.final_fitness / denom)
    # Cross-check against the coverage metric applied to the recomputed objective.
    from cohdasim.core import coverage, objective
    from cohdasim.simnet import snapshot_best

    best = snapshot_best(full.states.values())
    error = objective(best.configuration, sc.target, sc.horizon)
    assert coverage(error, sc.target, sc.horizon) == pytest.approx(r.coverage_l1, abs=1e-9)
    # Curve is monotone in the compare projection and ends at the result.
    fitnesses = [p[1] for p in r.best_improvement_curve]
    sizes = [p[2] for p in r.best_improvement_curve]
    assert sizes == sorted(sizes)
    assert r.best_improvement_curve[-1][1] == r.final_fitness
    assert r.messages_sent == sum(1 for ev in trace if ev.kind == "publish")
    assert r.message_bytes_total == sum(
        ev.payload["bytes"] for ev in trace if ev.kind == "publish"
    )
    assert set(r.objective_calls) == set(full.states)


@pytest.mark.parametrize("traced", [False, True])
def test_no_schedule_is_built_on_the_delivery_path(refuse_records, tmp_path, traced):
    # Records are the read view of the tests: no run, CLI output or wire
    # message builds one.
    expected = run_scenario(load_scenario("small-demo"), 0)
    full = run_scenario_full(load_scenario("small-demo"), 0, trace=[] if traced else None)
    assert full.result.terminated and full.result.consistent
    assert dataclasses.replace(full.result, wall_time=0.0) == dataclasses.replace(
        expected, wall_time=0.0)
    for state in full.states.values():
        assert decode_message(encode_message(state.memory), state.fleet) == state.memory
    assert main(["run", "small-demo", "--out", str(tmp_path)] + ["--trace"] * traced) == 0


def test_uncontrolled_first_sample_per_device():
    from cohdasim.scenario import materialize

    sc = load_scenario("small-demo")
    mat = materialize(sc, 1)
    unc = uncontrolled_configuration(mat)
    assert len(unc) == 12 and unc.fleet is mat.fleet
    for aid, flex in zip(mat.device_ids, mat.flexibility):
        assert unc[aid].schedule == flex.schedules[0] and unc[aid].version == 0


def test_design_points_arithmetic():
    sc = load_scenario("toy-2")
    d1 = ExperimentDesign(sc, (), replications=3, base_seed=5)
    points = design_points(d1)
    assert len(points) == 3
    assert [seed for _, _, seed in points] == [5, 6, 7]

    d2 = ExperimentDesign(
        sc,
        (
            ("network.drop_probability", (0.0, 0.1)),
            ("topology.family", ("ring", "complete")),
        ),
        replications=5,
        base_seed=0,
    )
    assert len(design_points(d2)) == 20


@pytest.mark.parametrize(
    "path, values, problem",
    [
        ("sampling.count", (2, 1.7), "must be an integer"),
        ("network.delay", ({"kind": "constant", "seconds": 0.05},
                           {"kind": "uniform", "low_s": 0.1}), "missing key 'high_s'"),
        ("network.delay", ({"kind": "constant", "seconds": 1.0, "bogus": 3},),
         "unknown key 'bogus'"),
        ("network.max_delay_s", (0.1, float("nan")), "must be finite"),
    ],
)
def test_design_rejects_every_bad_factor_value(path, values, problem):
    with pytest.raises(StructuralError, match=f"factor '{path}' value .*{problem}"):
        ExperimentDesign(load_scenario("small-demo"), ((path, values),))


def test_delivery_work_counts_on_small_demo(monkeypatch):
    # The run is byte-deterministic, so these counts are exact. A change that
    # computes candidate keys on the delivery path again, or decides more
    # often, fails here. Before keys were computed on first read, this run
    # made 1,489 key calls, one per decide.
    calls = {"configuration_key": 0, "_choose_index": 0}
    for module, name in ((core, "configuration_key"), (agent, "_choose_index")):
        original = getattr(module, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    run = run_scenario_full(load_scenario("small-demo"), 0)
    assert run.result.messages_sent == 5965
    assert calls == {"configuration_key": 229, "_choose_index": 1489}


def test_sweep_rows_and_determinism():
    sc = load_scenario("toy-2")
    design = ExperimentDesign(
        sc,
        (("network.duplicate_probability", (0.0, 0.2)),),
        replications=3,
        base_seed=1,
    )
    rows1 = run_sweep(design)
    rows2 = run_sweep(design)
    assert len(rows1) == 6
    assert all(r.error is None for r in rows1)
    for a, b in zip(rows1, rows2):
        assert a.factors == b.factors and a.seed == b.seed
        assert a.result.final_fitness == b.result.final_fitness
        assert a.result.messages_sent == b.result.messages_sent
        assert a.result.best_improvement_curve == b.result.best_improvement_curve


def test_sweep_asks_the_pool_for_no_more_workers_than_runs(monkeypatch):
    # A pool that forks eagerly starts every worker it is asked for, so the
    # request is capped at the number of runs. The stand-in pool starts no
    # process: it records the worker count and maps in this process.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", InlinePool)
    design = ExperimentDesign(load_scenario("toy-2"), (), replications=2, base_seed=4)

    def timeless(rows):
        return [(r.factors, r.replication, r.seed, dataclasses.replace(r.result, wall_time=0.0))
                for r in rows]

    assert timeless(run_sweep(design, jobs=10**6)) == timeless(run_sweep(design))
    assert sizes == [2]
    run_sweep(design, jobs=10**6, only={1})  # one run: no pool at all
    assert sizes == [2]


def test_sweep_records_row_errors_and_continues():
    sc = load_scenario("toy-2")
    design = ExperimentDesign(
        sc,
        (("sampling.count", (2, 50)),),  # 50 distinct patterns cannot exist for T=1
        replications=2,
        base_seed=0,
    )
    rows = run_sweep(design)
    assert len(rows) == 4
    ok = [r for r in rows if r.error is None]
    failed = [r for r in rows if r.error is not None]
    assert len(ok) == 2 and len(failed) == 2
    assert all("SamplingError" in r.error for r in failed)
