"""Unit tests for the simulated 8-node partitioning schemes."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.graphs.generators import make_edges
from repro.graphs.partition import (
    N_NODES,
    chunk_nodes,
    hybrid_cut_replicas,
    inter_node_imbalance,
    remote_fanout,
    vertex_cut_replicas,
)


@pytest.fixture(scope="module")
def edges():
    return make_edges("PK", scale=1e-4)


@pytest.fixture(scope="module")
def statics(edges):
    n = int(max(edges["src"].max(), edges["dst"].max())) + 1
    return pd.DataFrame(
        {
            "id": np.arange(n, dtype=np.int64),
            "out_deg": np.bincount(edges["src"], minlength=n),
            "in_deg": np.bincount(edges["dst"], minlength=n),
        }
    )


class TestChunk:
    def test_contiguous_ranges(self, statics):
        node = chunk_nodes(statics)
        assert (np.diff(node) >= 0).all()  # monotone by vertex id

    def test_all_nodes_in_range(self, statics):
        node = chunk_nodes(statics)
        assert node.min() >= 0 and node.max() <= N_NODES - 1

    def test_degree_balance(self, statics):
        node = chunk_nodes(statics)
        deg = (statics["out_deg"] + statics["in_deg"]).to_numpy()
        per_node = np.bincount(node, weights=deg, minlength=N_NODES)
        # chunking balances degree within a hub's worth of slack
        assert per_node.max() <= per_node.mean() + deg.max() + 1

    def test_imbalance_metric_small(self, statics):
        node = chunk_nodes(statics)
        deg = (statics["out_deg"] + statics["in_deg"]).to_numpy()
        per_node = np.bincount(node, weights=deg, minlength=N_NODES)
        assert inter_node_imbalance(per_node) < 1.0


class TestRemoteFanout:
    def test_bounds(self, edges, statics):
        node = chunk_nodes(statics)
        fan = remote_fanout(edges, node)
        assert fan.min() >= 0
        assert fan.max() <= N_NODES - 1

    def test_at_most_out_degree(self, edges, statics):
        node = chunk_nodes(statics)
        fan = remote_fanout(edges, node)
        assert (fan <= statics["out_deg"].to_numpy()).all()

    def test_zero_for_sinks(self, edges, statics):
        node = chunk_nodes(statics)
        fan = remote_fanout(edges, node)
        sinks = statics["out_deg"].to_numpy() == 0
        assert (fan[sinks] == 0).all()

    def test_single_node_means_no_messages(self, edges, statics):
        fan = remote_fanout(edges, np.zeros(len(statics), dtype=np.int64))
        assert (fan == 0).all()


class TestVertexCut:
    def test_replicas_at_least_one(self, edges, statics):
        rep = vertex_cut_replicas(edges, len(statics))
        assert rep.min() >= 1

    def test_replicas_at_most_nodes(self, edges, statics):
        rep = vertex_cut_replicas(edges, len(statics))
        assert rep.max() <= N_NODES

    def test_replicas_at_most_degree_plus_one(self, edges, statics):
        rep = vertex_cut_replicas(edges, len(statics))
        deg = (statics["out_deg"] + statics["in_deg"]).to_numpy()
        assert (rep <= np.maximum(deg, 1)).all() or (rep[deg > 0] <= deg[deg > 0]).all()

    def test_hubs_replicate_more(self, edges, statics):
        rep = vertex_cut_replicas(edges, len(statics))
        deg = (statics["out_deg"] + statics["in_deg"]).to_numpy()
        hubs = deg >= np.percentile(deg, 95)
        low = (deg > 0) & (deg <= np.percentile(deg, 50))
        assert rep[hubs].mean() > rep[low].mean()


class TestHybridCut:
    def test_lower_replication_than_random_cut(self, edges, statics):
        """PowerLyra's raison d'etre: hybrid-cut replicates less."""
        pg = vertex_cut_replicas(edges, len(statics)).mean()
        pl = hybrid_cut_replicas(edges, statics).mean()
        assert pl < pg

    def test_bounds(self, edges, statics):
        rep = hybrid_cut_replicas(edges, statics)
        assert rep.min() >= 1 and rep.max() <= N_NODES

    def test_theta_monotone(self, edges, statics):
        """A higher threshold => more low-cut vertices => stays bounded."""
        lo = hybrid_cut_replicas(edges, statics, theta_factor=0.5).mean()
        hi = hybrid_cut_replicas(edges, statics, theta_factor=50.0).mean()
        assert lo > 1.0 and hi > 1.0


class TestImbalance:
    def test_balanced_is_zero(self):
        assert inter_node_imbalance(np.full(8, 10.0)) == 0.0

    def test_empty_is_zero(self):
        assert inter_node_imbalance(np.zeros(8)) == 0.0

    def test_skewed_positive(self):
        assert inter_node_imbalance(np.array([1, 1, 1, 1, 1, 1, 1, 9])) > 1.0
