"""Tests for the Graph container and ingress (build_graph)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.graphs.graph import build_graph, catalog_graph, fig1_graph


class TestBuildGraph:
    def test_degrees_match_numpy(self, pk_small):
        pdf = pk_small.edges_pdf()
        n = pk_small.num_vertices
        out_deg = np.bincount(pdf["src"], minlength=n)
        in_deg = np.bincount(pdf["dst"], minlength=n)
        assert np.array_equal(pk_small.statics["out_deg"].to_numpy(), out_deg)
        assert np.array_equal(pk_small.statics["in_deg"].to_numpy(), in_deg)

    def test_counts(self, pk_small):
        assert pk_small.num_edges == pk_small.edges.count()
        assert len(pk_small.statics) == pk_small.num_vertices

    def test_root_is_max_out_degree(self, pk_small):
        od = pk_small.statics["out_deg"].to_numpy()
        assert od[pk_small.root()] == od.max()

    def test_edges_pdf_cached_and_sorted(self, pk_small):
        a = pk_small.edges_pdf()
        b = pk_small.edges_pdf()
        assert a is b
        assert (a["src"].diff().fillna(0) >= 0).all()

    @pytest.mark.parametrize("graph", ["fig1", "pk_small"])
    def test_edges_pdf_holds_sparks_rows(self, request, graph):
        """The driver edge list is the ingested frame sorted (fig1's is given
        unsorted), with the same rows and dtypes as the persisted edges."""
        g = request.getfixturevalue(graph)
        spark_copy = g.edges.toPandas().sort_values(["src", "dst"], ignore_index=True)
        pd.testing.assert_frame_equal(g.edges_pdf(), spark_copy)

    def test_isolated_vertices_supported(self, spark):
        pdf = pd.DataFrame(
            {"src": np.array([0], dtype=np.int64), "dst": np.array([1], dtype=np.int64), "w": [1.0]}
        )
        g = build_graph(spark, pdf, name="iso", num_vertices=5)
        try:
            assert g.num_vertices == 5
            assert g.statics["out_deg"].sum() == 1
            assert (g.statics.loc[2:, ["out_deg", "in_deg"]] == 0).all().all()
        finally:
            g.unpersist()

    @pytest.mark.parametrize(
        "src,dst,num_vertices,match",
        [
            ([-1], [1], 3, r"\[-1, 1\], outside \[0, 3\)"),
            ([0], [3], 3, r"\[0, 3\], outside \[0, 3\)"),
            ([], [], None, "needs num_vertices"),
            ([], [], 0, "num_vertices=0, must be at least 1"),
        ],
        ids=["negative", "beyond", "empty", "no-vertices"],
    )
    def test_rejects_bad_edge_ids(self, spark, src, dst, num_vertices, match):
        pdf = pd.DataFrame(
            {
                "src": np.array(src, dtype=np.int64),
                "dst": np.array(dst, dtype=np.int64),
                "w": np.ones(len(src)),
            }
        )
        with pytest.raises(ValueError, match=match):
            build_graph(spark, pdf, name="ids", num_vertices=num_vertices)

    def test_unpersist_keeps_an_equal_graphs_edges(self, spark):
        """Unpersisting a graph leaves the edges of a graph built from an
        equal edge list cached."""
        pdf = pd.DataFrame(
            {"src": np.array([0, 1], dtype=np.int64), "dst": np.array([1, 2], dtype=np.int64), "w": [1.0, 2.0]}
        )
        a = build_graph(spark, pdf, name="a")
        b = build_graph(spark, pdf, name="b")
        a.unpersist()
        a.unpersist()  # a second call releases nothing more
        assert b.edges.storageLevel.useMemory
        b.unpersist()
        assert not b.edges.storageLevel.useMemory

    def test_unpersist_releases_its_own_relation(self, spark, fig1):
        """Each graph owns its cached relation, even when an equal edge list
        built another: unpersisting it frees its own and only its own, and
        once both are unpersisted nothing of either stays cached."""

        def persisted() -> set[int]:
            rdds = spark.sparkContext._jsc.getPersistentRDDs()
            return {int(i) for i in rdds.keySet().toArray()}

        before = persisted()
        a = build_graph(spark, fig1.edges_pdf(), name="a")
        b = build_graph(spark, fig1.edges_pdf(), name="b")
        ours = persisted() - before
        assert len(ours) == 2
        a.unpersist()
        assert not a.edges.storageLevel.useMemory
        assert b.edges.storageLevel.useMemory
        assert fig1.edges.storageLevel.useMemory
        assert len(persisted() & ours) == 1
        b.unpersist()
        assert not b.edges.storageLevel.useMemory
        assert not persisted() & ours


class TestUndirected:
    def test_symmetric_edge_set(self, pk_small):
        und = pk_small.as_undirected()
        pdf = und.edges_pdf()
        fwd = set(zip(pdf["src"], pdf["dst"]))
        assert all((d, s) in fwd for s, d in fwd)

    def test_cached(self, pk_small):
        assert pk_small.as_undirected() is pk_small.as_undirected()

    def test_edge_count_at_most_double(self, pk_small):
        und = pk_small.as_undirected()
        assert pk_small.num_edges <= und.num_edges <= 2 * pk_small.num_edges

    def test_max_weight_wins_on_antiparallel(self, spark):
        pdf = pd.DataFrame(
            {
                "src": np.array([0, 1], dtype=np.int64),
                "dst": np.array([1, 0], dtype=np.int64),
                "w": [3.0, 7.0],
            }
        )
        g = build_graph(spark, pdf, name="anti", num_vertices=2)
        try:
            und = g.as_undirected().edges_pdf()
            assert (und["w"] == 7.0).all()
            assert len(und) == 2
        finally:
            g.unpersist()


class TestFig1:
    def test_structure(self, fig1):
        assert fig1.num_vertices == 6
        assert fig1.num_edges == 6
        pdf = fig1.edges_pdf()
        assert set(zip(pdf["src"], pdf["dst"])) == {
            (0, 1),
            (0, 3),
            (1, 2),
            (3, 4),
            (2, 4),
            (4, 5),
        }


class TestCatalog:
    def test_name_embeds_scale(self, spark):
        g = catalog_graph(spark, "ST", scale=5e-5)
        try:
            assert g.name.startswith("ST@")
        finally:
            g.unpersist()

    def test_vertex_count_matches_spec(self, pk_small):
        from repro.graphs.generators import GRAPHS

        v, e = GRAPHS["PK"].sized(5e-5)
        assert pk_small.num_vertices == v
        assert 0.97 * e <= pk_small.num_edges <= e
