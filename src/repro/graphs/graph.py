"""The ``Graph`` container shared by every engine.

A ``Graph`` owns:

* the persisted Spark edge DataFrame (``src``, ``dst``, ``w``) — the big,
  cluster-resident side of every superstep join;
* a small pandas frame of per-vertex statics (in/out degree) — vertex state
  at our scales is tiny, and keeping the statics on the driver lets the
  superstep loop compute exact per-iteration metrics without extra jobs;
* caches for per-engine partitioning columns and for the (orientation-keyed)
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
from pyspark.sql import functions as F
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
    """An ingested graph: Spark edges + driver-side vertex statics."""

    spark: SparkSession
    name: str
    edges: DataFrame  # persisted: src, dst, w
    num_vertices: int
    num_edges: int
    statics: pd.DataFrame  # id, out_deg, in_deg (int64), indexed 0..V-1
    engine_cache: dict[str, pd.DataFrame] = field(default_factory=dict)
    rrg_cache: dict[str, Any] = field(default_factory=dict)
    _edges_pdf: pd.DataFrame | None = None
    _undirected: "Graph | None" = None

    @property
    def shuffle_partitions(self) -> int:
        return _edge_partitions(self.num_edges)

    def root(self) -> int:
        """Deterministic root for rooted apps: the max-out-degree vertex."""
        od = self.statics["out_deg"].to_numpy()
        return int(np.argmax(od))

    def edges_pdf(self) -> pd.DataFrame:
        """Driver copy of the edge list (oracle input); cached."""
        if self._edges_pdf is None:
            self._edges_pdf = self.edges.toPandas().sort_values(
                ["src", "dst"], ignore_index=True
            )
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

    ``edges_pdf`` must have int64 ``src``/``dst`` and float64 ``w`` columns.
    Degrees are computed with Spark aggregations (the one full scan every
    real system performs at ingress) and collected to the driver.
    """
    pdf = edges_pdf[["src", "dst", "w"]].reset_index(drop=True)
    if num_vertices is None:
        num_vertices = int(max(pdf["src"].max(), pdf["dst"].max())) + 1
    n_part = _edge_partitions(len(pdf))
    edges = (
        spark.createDataFrame(pdf, schema=EDGE_SCHEMA)
        .repartition(n_part, "dst")
        .persist()
    )
    num_edges = edges.count()  # materialise the persist

    deg = (
        edges.select(F.col("src").alias("id"))
        .groupBy("id")
        .agg(F.count("*").alias("out_deg"))
        .join(
            edges.select(F.col("dst").alias("id"))
            .groupBy("id")
            .agg(F.count("*").alias("in_deg")),
            "id",
            "full",
        )
        .toPandas()
    )
    statics = pd.DataFrame({"id": np.arange(num_vertices, dtype=np.int64)})
    statics = statics.merge(deg, on="id", how="left").fillna(0)
    statics["out_deg"] = statics["out_deg"].astype(np.int64)
    statics["in_deg"] = statics["in_deg"].astype(np.int64)
    return Graph(
        spark=spark,
        name=name,
        edges=edges,
        num_vertices=num_vertices,
        num_edges=num_edges,
        statics=statics,
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
