"""The ``Graph`` container shared by every engine.

A ``Graph`` owns:

* the persisted Spark edge DataFrame (``src``, ``dst``, ``w``) — the big,
  cluster-resident side of every superstep join;
* the edge list it was built from, kept on the driver sorted by
  (``src``, ``dst``): the input of the partitioning statics, of
  ``as_undirected`` and of the reference oracles;
* a small pandas frame of per-vertex statics (in/out degree), counted from
  that edge list — vertex state at our scales is tiny, and keeping the
  statics on the driver lets the superstep loop compute exact per-iteration
  metrics without extra jobs;
* caches for per-engine partitioning columns and for the (root-keyed)
  RRG produced by the preprocessing pass.

``as_undirected`` returns the symmetrised view used by ConnectedComponents;
it is a full ``Graph`` of its own so partitioning/RRG are recomputed for the
symmetric edge set, exactly as a real system would after ingress.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

EDGE_SCHEMA = T.StructType(
    [
        T.StructField("src", T.LongType(), False),
        T.StructField("dst", T.LongType(), False),
        T.StructField("w", T.DoubleType(), False),
    ]
)


def _edge_partitions(num_edges: int) -> int:
    """Enough partitions to parallelise, few enough to keep tasks cheap."""
    return int(np.clip(num_edges // 30_000, 4, 16))


@dataclass
class Graph:
    """An ingested graph: Spark edges + the driver's edge list and vertex statics."""

    spark: SparkSession
    name: str
    edges: DataFrame  # persisted: src, dst, w
    num_vertices: int
    num_edges: int
    statics: pd.DataFrame  # id, out_deg, in_deg (int64), indexed 0..V-1
    _edges_pdf: pd.DataFrame  # the ingested edge list, sorted by (src, dst)
    engine_cache: dict[str, pd.DataFrame] = field(default_factory=dict)
    rrg_cache: dict[str, Any] = field(default_factory=dict)
    _undirected: "Graph | None" = None

    def root(self) -> int:
        """Deterministic root for rooted apps: the max-out-degree vertex."""
        od = self.statics["out_deg"].to_numpy()
        return int(np.argmax(od))

    def edges_pdf(self) -> pd.DataFrame:
        """The driver's edge list, sorted by (src, dst): the frame given to
        ``build_graph``, holding the same rows as ``edges``. Runs no Spark job.
        """
        return self._edges_pdf

    def as_undirected(self) -> "Graph":
        """Symmetrised copy (max weight wins on duplicate anti-parallel edges)."""
        if self._undirected is None:
            pdf = self.edges_pdf()
            rev = pdf.rename(columns={"src": "dst", "dst": "src"})
            both = (
                pd.concat([pdf, rev], ignore_index=True)
                .groupby(["src", "dst"], as_index=False)["w"]
                .max()
            )
            self._undirected = build_graph(
                self.spark, both, name=f"{self.name}-und", num_vertices=self.num_vertices
            )
        return self._undirected

    def unpersist(self) -> None:
        """Release the cached edges and those of the undirected copy.

        Spark caches by query plan, and each upload is a relation of its own
        (an RDD behind a ``LogicalRDD`` leaf, see ``repro.session``), so no
        other graph shares these edges, even one built from an equal edge
        list. A second call releases nothing more.
        """
        self.edges.unpersist()
        if self._undirected is not None:
            self._undirected.unpersist()


def build_graph(
    spark: SparkSession,
    edges_pdf: pd.DataFrame,
    *,
    name: str,
    num_vertices: int | None = None,
) -> Graph:
    """Ingest an edge list into a persisted Spark DataFrame + vertex statics.

    ``edges_pdf`` must have int64 ``src``/``dst`` and float64 ``w`` columns,
    with ids in ``[0, num_vertices)``; ``num_vertices`` defaults to the
    largest id plus one and must be at least 1. The upload is persisted and
    materialised by ``count()``; the degrees are counted on the driver from
    the given frame, whose sorted copy the graph keeps as ``edges_pdf()``.
    """
    pdf = edges_pdf[["src", "dst", "w"]].reset_index(drop=True)
    ids = pdf[["src", "dst"]].to_numpy()
    if num_vertices is None:
        if not len(ids):
            raise ValueError(f"{name}: an empty edge list needs num_vertices")
        num_vertices = int(ids.max()) + 1
    if len(ids) and (ids.min() < 0 or ids.max() >= num_vertices):
        raise ValueError(
            f"{name}: edge ids span [{ids.min()}, {ids.max()}], "
            f"outside [0, {num_vertices})"
        )
    if num_vertices < 1:
        raise ValueError(f"{name}: num_vertices={num_vertices}, must be at least 1")
    n_part = _edge_partitions(len(pdf))
    edges = (
        spark.createDataFrame(pdf, schema=EDGE_SCHEMA)
        .repartition(n_part, "dst")
        .persist()
    )
    num_edges = edges.count()  # materialise the persist
    statics = pd.DataFrame(
        {
            "id": np.arange(num_vertices, dtype=np.int64),
            "out_deg": np.bincount(ids[:, 0], minlength=num_vertices),
            "in_deg": np.bincount(ids[:, 1], minlength=num_vertices),
        }
    )
    return Graph(
        spark=spark,
        name=name,
        edges=edges,
        num_vertices=num_vertices,
        num_edges=num_edges,
        statics=statics,
        _edges_pdf=pdf.sort_values(["src", "dst"], ignore_index=True),
    )


def fig1_graph(spark: SparkSession) -> Graph:
    """The worked example of the paper's Figure 1 (6 vertices, 6 edges).

    Weights reconstructed from the iteration table: dist trajectories
    V4: inf,4,3,3 and V5: inf,inf,5,4 under synchronous Bellman-Ford.
    """
    pdf = pd.DataFrame(
        {
            "src": np.array([0, 0, 1, 3, 2, 4], dtype=np.int64),
            "dst": np.array([1, 3, 2, 4, 4, 5], dtype=np.int64),
            "w": np.array([1.0, 2.0, 1.0, 2.0, 1.0, 1.0]),
        }
    )
    return build_graph(spark, pdf, name="fig1", num_vertices=6)


def catalog_graph(spark: SparkSession, name: str, *, scale: float) -> Graph:
    """Build catalog graph ``name`` (paper Table 4) at ``scale``."""
    from repro.graphs.generators import GRAPHS, make_edges

    v, _ = GRAPHS[name].sized(scale)
    return build_graph(
        spark, make_edges(name, scale=scale), name=f"{name}@{scale:g}", num_vertices=v
    )
