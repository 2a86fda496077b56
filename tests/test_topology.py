import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from cohdasim.topology import (
    ParameterError,
    check_small_world,
    complete,
    is_connected,
    ring,
    small_world,
)


def _ids(n):
    return [f"n{i:03d}" for i in range(n)]


def _edges(overlay):
    return sorted((a, b) for a, neighbors in overlay.items() for b in neighbors if a < b)


def _assert_well_formed(overlay):
    for node, neighbors in overlay.items():
        assert node not in neighbors  # no self loops
        assert list(neighbors) == sorted(set(neighbors))
        for nbr in neighbors:
            assert node in overlay[nbr]  # symmetric


def test_ring_singleton():
    overlay = ring(["A"])
    assert overlay == {"A": ()}
    assert is_connected(overlay)


def test_ring_three_nodes():
    overlay = ring(["A", "B", "C"])
    assert _edges(overlay) == [("A", "B"), ("A", "C"), ("B", "C")]


def test_ring_two_nodes_single_edge():
    overlay = ring(["A", "B"])
    assert overlay == {"A": ("B",), "B": ("A",)}


def test_ring_duplicate_ids():
    with pytest.raises(ParameterError):
        ring(["A", "A"])


def test_complete_counts():
    assert len(_edges(complete(_ids(3)))) == 3
    assert len(_edges(complete(_ids(1)))) == 0
    assert len(_edges(complete(_ids(5)))) == 10


def test_small_world_p_zero_is_ring_lattice():
    ids = _ids(8)
    overlay = small_world(ids, k=2, p=0.0, seed=1)
    assert overlay == ring(ids)
    overlay4 = small_world(ids, k=4, p=0.0, seed=1)
    expected = set()
    for i in range(8):
        for j in (1, 2):
            a, b = i, (i + j) % 8
            expected.add((min(a, b), max(a, b)))
    got = {(ids.index(a), ids.index(b)) for a, b in _edges(overlay4)}
    assert {(min(a, b), max(a, b)) for a, b in got} == expected


def test_small_world_full_rewire_keeps_edge_count():
    # Rewiring replaces edges one for one; repair may only add.
    overlay = small_world(_ids(20), k=4, p=1.0, seed=42)
    assert len(_edges(overlay)) >= 40
    assert is_connected(overlay)
    _assert_well_formed(overlay)


def test_small_world_deterministic_under_seed():
    a = small_world(_ids(30), k=4, p=0.3, seed=9)
    b = small_world(_ids(30), k=4, p=0.3, seed=9)
    assert a == b
    c = small_world(_ids(30), k=4, p=0.3, seed=10)
    assert a != c  # overwhelmingly likely


def test_small_world_parameter_errors():
    with pytest.raises(ParameterError):
        small_world(_ids(5), k=3, p=0.1, seed=0)
    with pytest.raises(ParameterError):
        small_world(_ids(4), k=4, p=0.1, seed=0)
    with pytest.raises(ParameterError):
        small_world(_ids(6), k=2, p=1.5, seed=0)
    for k, p in [(3, 0.1), (0, 0.1), (-2, 0.1), (2, -0.1), (2, float("nan"))]:
        with pytest.raises(ParameterError):
            check_small_world(k, p)
    check_small_world(40, 1.0)  # whether k fits the node count is the build's check


@given(
    st.integers(3, 40),
    st.sampled_from([2, 4, 6]),
    st.floats(0.0, 1.0),
    st.integers(0, 10_000),
)
def test_generated_overlays_always_connected(n, k, p, seed):
    if k >= n:
        k = 2
    if k >= n:
        return
    overlay = small_world(_ids(n), k=k, p=p, seed=seed)
    _assert_well_formed(overlay)
    assert is_connected(overlay)


def _epex_ids(n):
    # The group order the EPEX scenario file expands (hp, chps, chpl), which is
    # not the sorted order.
    a, b = n // 2, n // 4
    return ([f"hp{i:03d}" for i in range(a)] + [f"chps{i:03d}" for i in range(b)]
            + [f"chpl{i:03d}" for i in range(n - a - b)])


def test_small_world_adjacency_digest():
    # Pins every adjacency of a grid, in both id orders. Rewiring keeps the
    # edge count at n*k/2, so an overlay with more edges went through the
    # connectivity repair; the grid reaches it 298 times.
    digest = hashlib.sha256()
    repaired = 0
    for order in (_ids, _epex_ids):
        for n in range(3, 41):
            for k in (2, 4, 6):
                if k >= n:
                    continue
                for p in (0.0, 0.5, 1.0):
                    for seed in range(10):
                        adjacency = small_world(order(n), k, p, seed)
                        repaired += sum(map(len, adjacency.values())) // 2 > n * k // 2
                        digest.update(repr(sorted(adjacency.items())).encode())
    assert repaired == 298
    assert digest.hexdigest() == "4299a2782669231e1c981142da235a2b704680ea1cc0586982351752164b937e"


def test_ring_and_complete_connected_random_sizes():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(1, 30)
        for overlay in (ring(_ids(n)), complete(_ids(n))):
            _assert_well_formed(overlay)
            assert is_connected(overlay)
