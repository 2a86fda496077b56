"""Virtual communication overlays the heuristic gossips on.

An overlay is a map from each node id, in the given order, to the sorted
tuple of its neighbors, the value ``AgentState.neighbors`` takes. All
generators produce undirected, loop-free, connected graphs. The
heuristic's dissemination argument needs connectivity, so the small-world
generator repairs disconnected results deterministically.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable, Mapping, Sequence

__all__ = ["ParameterError", "ring", "small_world", "complete", "is_connected",
           "check_small_world"]


class ParameterError(ValueError):
    """Topology parameters are out of range for the requested node count."""


def _check_ids(ids: Sequence[str]) -> tuple[str, ...]:
    ids = tuple(ids)
    if len(set(ids)) != len(ids):
        raise ParameterError("duplicate node ids")
    if not ids:
        raise ParameterError("at least one node id required")
    return ids


def _neighbors(ids: tuple[str, ...], edges: set[tuple[int, int]]) -> dict[str, tuple[str, ...]]:
    adj: dict[str, list[str]] = {i: [] for i in ids}
    for a, b in edges:
        adj[ids[a]].append(ids[b])
        adj[ids[b]].append(ids[a])
    return {k: tuple(sorted(v)) for k, v in adj.items()}


def _norm(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def ring(ids: Sequence[str]) -> dict[str, tuple[str, ...]]:
    """Cycle over the ids in the given order; n=1 has no edges."""
    ids = _check_ids(ids)
    n = len(ids)
    edges = {_norm(i, (i + 1) % n) for i in range(n)} if n > 1 else set()
    return _neighbors(ids, edges)


def complete(ids: Sequence[str]) -> dict[str, tuple[str, ...]]:
    ids = _check_ids(ids)
    n = len(ids)
    edges = {(i, j) for i in range(n) for j in range(i + 1, n)}
    return _neighbors(ids, edges)


def check_small_world(k: int, p: float) -> None:
    """Refuse a lattice degree ``k`` that is not an even integer of at least
    2, or a rewire probability ``p`` outside [0, 1]. Whether ``k`` fits the
    node count is checked when the overlay is built."""
    if k < 2 or k % 2 != 0:
        raise ParameterError(f"k must be a positive even integer, got {k!r}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must be a rewire probability in [0, 1], got {p!r}")


def small_world(ids: Sequence[str], k: int, p: float, seed: int) -> dict[str, tuple[str, ...]]:
    """Watts-Strogatz construction: k-nearest-neighbor ring lattice with
    every lattice edge rewired with probability ``p``, followed by a
    deterministic connectivity repair. Identical seeds give identical
    overlays.
    """
    ids = _check_ids(ids)
    n = len(ids)
    check_small_world(k, p)
    if k >= n:
        raise ParameterError(f"k={k} must be smaller than the node count {n}")

    rng = random.Random(seed)
    edges = {_norm(i, (i + j) % n) for i in range(n) for j in range(1, k // 2 + 1)}
    degree = [k] * n
    for i in range(n):
        for j in range(1, k // 2 + 1):
            if rng.random() >= p:
                continue
            old = _norm(i, (i + j) % n)
            if old not in edges:
                continue  # already rewired away from the other endpoint
            if degree[i] >= n - 1:
                continue
            w = rng.randrange(n)
            while w == i or _norm(i, w) in edges:
                w = rng.randrange(n)
            edges.remove(old)
            edges.add(_norm(i, w))
            a, b = old
            degree[a] -= 1
            degree[b] -= 1
            degree[i] += 1
            degree[w] += 1

    _repair_connectivity(ids, edges)
    return _neighbors(ids, edges)


def _components(adjacency: Mapping[Hashable, Iterable[Hashable]]) -> list[set]:
    remaining = set(adjacency)
    components = []
    while remaining:
        root = remaining.pop()
        seen = {root}
        queue = [root]
        for node in queue:
            for nbr in adjacency[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    queue.append(nbr)
        components.append(seen)
        remaining -= seen
    return components


def is_connected(neighbors: Mapping[str, Iterable[str]]) -> bool:
    return len(_components(neighbors)) <= 1


def _repair_connectivity(ids: tuple[str, ...], edges: set[tuple[int, int]]) -> None:
    """Join the components of the index graph ``edges`` in place: an edge
    from the lowest id of the graph to the lowest id of every other
    component."""
    lowest = sorted(min(c) for c in _components(_neighbors(ids, edges)))
    root = ids.index(lowest[0])
    edges.update(_norm(root, ids.index(other)) for other in lowest[1:])
