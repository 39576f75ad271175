"""Independent NumPy reference implementations of the five applications.

These are the oracle side for engine correctness tests: synchronous,
dense-array fixpoint iterations with no shared code with the engines.
Integer edge weights keep min/max results exact in float64, so engine
results must match these bit-for-bit (see DESIGN.md §3).

Each function takes plain arrays (src, dst, w, num_vertices) so it can be
fed either a generator frame or a collected Spark frame.
"""
from __future__ import annotations

import numpy as np

INF = float("inf")


def _relax_min(vals: np.ndarray, src: np.ndarray, dst: np.ndarray, msg: np.ndarray) -> np.ndarray:
    """One synchronous superstep of a min aggregation: out = min(vals, min msg per dst)."""
    out = vals.copy()
    np.minimum.at(out, dst, msg)
    return out


def sssp(src, dst, w, num_vertices: int, root: int) -> np.ndarray:
    """Synchronous Bellman-Ford shortest distances from ``root``."""
    dist = np.full(num_vertices, INF)
    dist[root] = 0.0
    for _ in range(num_vertices):
        new = _relax_min(dist, src, dst, dist[src] + w)
        if np.array_equal(new, dist, equal_nan=True):
            break
        dist = new
    return dist


def sssp_trajectory(src, dst, w, num_vertices: int, root: int) -> list[np.ndarray]:
    """Per-superstep dist arrays (iteration 1..convergence) — Figure 1 check."""
    dist = np.full(num_vertices, INF)
    dist[root] = 0.0
    traj = []
    for _ in range(num_vertices):
        new = _relax_min(dist, src, dst, dist[src] + w)
        if np.array_equal(new, dist, equal_nan=True):
            break
        dist = new
        traj.append(dist.copy())
    return traj


def widest_path(src, dst, w, num_vertices: int, root: int) -> np.ndarray:
    """Max-min path width from ``root`` (0 for unreachable, inf at root)."""
    width = np.zeros(num_vertices)
    width[root] = INF
    for _ in range(num_vertices):
        new = width.copy()
        np.maximum.at(new, dst, np.minimum(width[src], w))
        new[root] = INF
        if np.array_equal(new, width):
            break
        width = new
    return width


def connected_components(src, dst, num_vertices: int) -> np.ndarray:
    """Min-label propagation over the symmetrised edge set."""
    s = np.concatenate([src, dst])
    d = np.concatenate([dst, src])
    label = np.arange(num_vertices, dtype=np.float64)
    for _ in range(num_vertices):
        new = _relax_min(label, s, d, label[s])
        if np.array_equal(new, label):
            break
        label = new
    return label


def pagerank(src, dst, num_vertices: int, *, iters: int = 10, damping: float = 0.85) -> np.ndarray:
    """The paper's Algorithm 5 recurrence: r = 0.15 + 0.85 * sum(r_u / outdeg_u).

    Returns the *undivided* rank after ``iters`` synchronous supersteps.
    Dangling mass is dropped, exactly as in the paper's pseudo-code.
    """
    out_deg = np.bincount(src, minlength=num_vertices).astype(np.float64)
    rank = np.ones(num_vertices)
    for _ in range(iters):
        contrib = np.where(out_deg > 0, rank / np.maximum(out_deg, 1.0), 0.0)
        s = np.zeros(num_vertices)
        np.add.at(s, dst, contrib[src])
        rank = (1 - damping) + damping * s
    return rank


def tunkrank(src, dst, num_vertices: int, *, iters: int = 10, p: float = 0.5) -> np.ndarray:
    """TunkRank influence: T(v) = sum over followers u->v of (1 + p*T(u)) / following(u)."""
    out_deg = np.bincount(src, minlength=num_vertices).astype(np.float64)
    t = np.ones(num_vertices)
    for _ in range(iters):
        contrib = np.where(out_deg > 0, (1.0 + p * t) / np.maximum(out_deg, 1.0), 0.0)
        s = np.zeros(num_vertices)
        np.add.at(s, dst, contrib[src])
        t = s
    return t


def bfs_levels(src, dst, num_vertices: int, roots) -> np.ndarray:
    """Unweighted BFS levels from ``roots`` (-1 when unreachable).

    This is the reference for the RRG preprocessing pass (Algorithm 1):
    with unit weights and the ``visited`` guard, a vertex's first visit is
    its BFS level.
    """
    level = np.full(num_vertices, -1, dtype=np.int64)
    frontier = np.unique(np.asarray(roots, dtype=np.int64))
    level[frontier] = 0
    lvl = 0
    while frontier.size:
        lvl += 1
        mask = np.isin(src, frontier)
        nxt = np.unique(dst[mask])
        nxt = nxt[level[nxt] < 0]
        level[nxt] = lvl
        frontier = nxt
    return level


def rrg_last_iter(src, dst, num_vertices: int, roots) -> np.ndarray:
    """Reference last_iter: 1 + max BFS level over reachable in-neighbours.

    Matches Algorithm 1: v_dst's lastIter is bumped every iteration in which
    some in-neighbour became active (was first visited) in the previous
    round, so its final value is 1 + the latest first-visit level among its
    in-neighbours. Vertices with no reachable in-neighbour keep 0 (always
    processed — the safe default).
    """
    level = bfs_levels(src, dst, num_vertices, roots)
    last = np.zeros(num_vertices, dtype=np.int64)
    ok = level[src] >= 0
    np.maximum.at(last, dst[ok], level[src[ok]] + 1)
    return last
