"""Simulated 8-node partitioning schemes (paper §3.1, §3.6, baselines).

The paper runs on an 8-node cluster; here the "cluster" is simulated by
assigning vertices/edges to ``N_NODES`` logical nodes and *counting* the
inter-node traffic each engine would generate. Three schemes:

* **chunk** (Gemini & SLFE): contiguous vertex ranges balanced by degree —
  every vertex has one master, updates travel to the distinct remote nodes
  holding its out-neighbours (``remote_fanout``).
* **vertex-cut** (PowerGraph): each edge lands on a pseudo-random node; a
  vertex is replicated on every node touching one of its edges, and each
  value change must be synced to ``replicas - 1`` mirrors (``sync_cost``).
* **hybrid-cut** (PowerLyra): low-in-degree vertices keep their in-edges at
  their hash node (low-cut) while high-in-degree vertices place in-edges by
  source (high-cut), which is exactly what lowers PowerLyra's replication
  factor below PowerGraph's.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

N_NODES = 8  # simulated cluster size, as in the paper's testbed


def _hash_node(ids: np.ndarray, salt: int = 0) -> np.ndarray:
    h = (ids.astype(np.uint64) + np.uint64(salt)) * np.uint64(0x9E3779B97F4A7C15)
    return ((h >> np.uint64(33)) % np.uint64(N_NODES)).astype(np.int64)


def chunk_nodes(statics: pd.DataFrame) -> np.ndarray:
    """Gemini-style chunking: contiguous id ranges with ~equal total degree."""
    deg = (statics["out_deg"] + statics["in_deg"]).to_numpy().astype(np.float64)
    cum = np.cumsum(deg)
    total = cum[-1] if cum[-1] > 0 else 1.0
    node = np.minimum((cum / total * N_NODES).astype(np.int64), N_NODES - 1)
    return node


def remote_fanout(edges_pdf: pd.DataFrame, node_of: np.ndarray) -> np.ndarray:
    """Per-vertex count of distinct *remote* nodes holding out-neighbours.

    One value update on a chunk-partitioned system is shipped once per
    remote node that needs it, so this is the per-update message cost.
    """
    src = edges_pdf["src"].to_numpy()
    dst_node = node_of[edges_pdf["dst"].to_numpy()]
    remote = dst_node != node_of[src]
    pairs = pd.DataFrame({"src": src[remote], "nd": dst_node[remote]})
    fan = pairs.drop_duplicates().groupby("src").size()
    out = np.zeros(len(node_of), dtype=np.int64)
    out[fan.index.to_numpy()] = fan.to_numpy()
    return out


def vertex_cut_replicas(edges_pdf: pd.DataFrame, num_vertices: int) -> np.ndarray:
    """PowerGraph random vertex-cut: replicas(v) = distinct nodes among v's edges."""
    src = edges_pdf["src"].to_numpy()
    dst = edges_pdf["dst"].to_numpy()
    enode = _hash_node(src * np.int64(1_000_003) + dst, salt=7)
    return _replicas_from_placement(src, dst, enode, num_vertices)


def hybrid_cut_replicas(
    edges_pdf: pd.DataFrame, statics: pd.DataFrame, *, theta_factor: float = 1.0
) -> np.ndarray:
    """PowerLyra hybrid-cut: in-edges of low-degree dsts stay at hash(dst),
    in-edges of high-degree dsts are placed at hash(src).

    ``theta`` = ``theta_factor`` x average in-degree, the hybrid-cut
    high-degree threshold.
    """
    src = edges_pdf["src"].to_numpy()
    dst = edges_pdf["dst"].to_numpy()
    in_deg = statics["in_deg"].to_numpy()
    theta = max(1.0, theta_factor * in_deg.mean())
    high = in_deg[dst] > theta
    enode = np.where(high, _hash_node(src, salt=3), _hash_node(dst, salt=3))
    return _replicas_from_placement(src, dst, enode, len(statics))


def _replicas_from_placement(
    src: np.ndarray, dst: np.ndarray, enode: np.ndarray, num_vertices: int
) -> np.ndarray:
    ids = np.concatenate([src, dst])
    nodes = np.concatenate([enode, enode])
    pairs = pd.DataFrame({"v": ids, "nd": nodes}).drop_duplicates()
    rep = pairs.groupby("v").size()
    out = np.ones(num_vertices, dtype=np.int64)  # isolated vertices: master only
    out[rep.index.to_numpy()] = rep.to_numpy()
    return out


def inter_node_imbalance(per_node_work: np.ndarray) -> float:
    """(max - min) / mean work across nodes — the paper's Figure 10b metric."""
    w = np.asarray(per_node_work, dtype=np.float64)
    if w.mean() == 0:
        return 0.0
    return float((w.max() - w.min()) / w.mean())
