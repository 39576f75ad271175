"""Shape of the superstep and RRG plans, and what a run leaves behind.

The vertex state is broadcast to the edges, which stay hash-partitioned by
``dst`` from ingest, so neither a superstep nor a BFS level may shuffle: the
only exchanges in their executed plans are broadcasts. Uploads are RDDs, so
no plan holds rows of its own (no ``LocalRelation``), and adaptive execution
is off, so the executed plans are plain physical plans.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.apps import APPS
from repro.core.rrg import bfs_level, generate_rrg
from repro.engines.base import (
    SCOPE_OPEN,
    SCOPE_OPENING,
    SCOPE_SIGNALLED,
    VALS_SCHEMA,
    SuperstepExprs,
    superstep,
)
from repro.graphs.graph import _edge_partitions
from repro.session import SETTINGS

from tests.conftest import ENGINES

#: the most Spark jobs one superstep may launch: the two broadcasts (vertex
#: state to the edges, per-destination aggregates to the vertex state) and
#: the collect
MAX_JOBS = 3


def walk(plan) -> list:
    """Every node of a JVM query plan, root first."""
    nodes, todo = [], [plan]
    while todo:
        node = todo.pop()
        nodes.append(node)
        kids = node.children()
        todo.extend(kids.apply(i) for i in range(kids.size()))
    return nodes


def plan_nodes(df, phase: str = "executedPlan") -> list[str]:
    """Class names of the nodes of one plan of ``df``: by default the
    executed physical plan, or ``"analyzed"`` for the analyzed logical plan.

    A cached relation is a leaf of the executed plan: its own plan ran at
    ingest, not here.
    """
    plan = getattr(df._jdf.queryExecution(), phase)()
    return [node.getClass().getSimpleName() for node in walk(plan)]


def first_superstep(spark, graph, app_name: str, scope: int):
    """The plan of ``app_name``'s first superstep with every vertex at ``scope``."""
    app = APPS[app_name]
    n = graph.num_vertices
    vals, active = app.init(n, graph.root())
    state = pd.DataFrame(
        {
            "id": np.arange(n, dtype=np.int64),
            "val": vals.astype(np.float64),
            "active": active.astype(bool),
            "out_deg": graph.statics["out_deg"].to_numpy(),
            "scope": np.full(n, scope, dtype=np.int64),
        }
    )
    sdf = spark.createDataFrame(state, schema=VALS_SCHEMA)
    return superstep(graph.edges, sdf, SuperstepExprs.of(app))


def call_in_group(spark, fn, group: str):
    """Call ``fn()`` under job group ``group``; return its result and job count."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


@pytest.mark.parametrize(
    "app_name,scope",
    [("SSSP", SCOPE_OPEN), ("PR", SCOPE_OPENING)],
    ids=["minmax", "arith"],
)
def test_superstep_shuffles_no_edges(spark, pk_small, app_name, scope):
    df = first_superstep(spark, pk_small, app_name, scope)
    out, jobs = call_in_group(spark, df.toPandas, f"test/superstep/{app_name}")
    assert len(out) == pk_small.num_vertices
    nodes = plan_nodes(df)
    assert "ShuffleExchangeExec" not in nodes
    assert "AdaptiveSparkPlanExec" not in nodes
    assert nodes.count("BroadcastExchangeExec") == 2
    assert "LocalRelation" not in plan_nodes(df, "analyzed")
    assert jobs <= MAX_JOBS


def test_superstep_counts_the_gathered_edges(spark, pk_small):
    """OPENING gathers every in-edge, OPEN those from active sources and
    SIGNALLED every in-edge of a vertex with an active in-neighbour."""
    in_deg = pk_small.statics["in_deg"].to_numpy()
    opening = first_superstep(spark, pk_small, "PR", SCOPE_OPENING).toPandas()
    assert np.array_equal(opening.sort_values("id")["comps"].to_numpy(), in_deg)
    # SSSP starts with the root as the only active vertex
    root = pk_small.root()
    pdf = pk_small.edges_pdf()
    want = np.bincount(
        pdf["dst"][pdf["src"] == root], minlength=pk_small.num_vertices
    )
    open_ = first_superstep(spark, pk_small, "SSSP", SCOPE_OPEN).toPandas()
    assert np.array_equal(open_.sort_values("id")["comps"].to_numpy(), want)
    # SIGNALLED: the root's out-neighbours gather every in-edge, the rest none
    signalled = first_superstep(spark, pk_small, "SSSP", SCOPE_SIGNALLED).toPandas()
    want = np.where(want > 0, in_deg, 0)
    assert np.array_equal(signalled.sort_values("id")["comps"].to_numpy(), want)


def test_bfs_level_shuffles_no_edges(spark, pk_small):
    df = bfs_level(pk_small, np.array([pk_small.root()], dtype=np.int64))
    out, jobs = call_in_group(spark, df.toPandas, "test/rrg/level")
    assert len(out) > 0
    nodes = plan_nodes(df)
    assert "ShuffleExchangeExec" not in nodes
    assert "AdaptiveSparkPlanExec" not in nodes
    assert nodes.count("BroadcastExchangeExec") == 1
    assert "LocalRelation" not in plan_nodes(df, "analyzed")
    assert jobs <= 2  # the frontier's broadcast and the collect


def test_edges_are_not_rows_of_the_plan(pk_small):
    """The uploaded edge list is an RDD leaf, not a ``LocalRelation`` whose
    rows every query on the edges would carry through analysis."""
    nodes = plan_nodes(pk_small.edges, "analyzed")
    assert "LocalRelation" not in nodes
    assert "LogicalRDD" in nodes


def test_ingest_shuffle_names_its_partition_count(pk_small):
    """The plan that materialised the cached edges holds the program's only
    shuffle: the repartition by ``dst`` into ``_edge_partitions(E)``
    partitions. No plan reads the session's shuffle parallelism."""
    scans = [
        n
        for n in walk(pk_small.edges._jdf.queryExecution().executedPlan())
        if n.getClass().getSimpleName() == "InMemoryTableScanExec"
    ]
    assert len(scans) == 1
    shuffles = [
        n
        for n in walk(scans[0].relation().cachedPlan())
        if n.getClass().getSimpleName() == "ShuffleExchangeExec"
    ]
    assert len(shuffles) == 1
    part = shuffles[0].outputPartitioning()
    assert part.numPartitions() == _edge_partitions(pk_small.num_edges)
    assert part.toString().startswith("hashpartitioning(dst#")


@pytest.mark.parametrize("engine", ["gemini", "powergraph"])
def test_run_stays_within_the_superstep_job_budget(spark, pk_small, engine):
    """The loop around the superstep plans launches no Spark job of its own."""
    res, jobs = call_in_group(
        spark,
        lambda: ENGINES[engine]().run(pk_small, APPS["SSSP"]),
        f"test/run/{engine}",
    )
    assert jobs <= MAX_JOBS * res.metrics.iterations


def test_generate_rrg_runs_only_its_levels(spark, pk_small):
    """Algorithm 1 is one pass: ``last_iter`` is recorded from the BFS
    levels' own results, so no Spark work runs beyond them."""
    rrg, jobs = call_in_group(
        spark, lambda: generate_rrg(pk_small, [pk_small.root()]), "test/rrg/generate"
    )
    assert rrg.iterations > 1
    assert jobs <= 2 * rrg.iterations  # each level's budget, as above


def test_session_carries_the_shared_settings(spark):
    assert {k: spark.conf.get(k) for k in SETTINGS} == SETTINGS


@pytest.mark.parametrize("engine", list(ENGINES))
def test_run_leaves_session_conf_untouched(spark, fig1, engine):
    before = spark.conf.getAll
    ENGINES[engine]().run(fig1, APPS["SSSP"], root=0)
    assert spark.conf.getAll == before
