"""Shared synchronous superstep machinery for all engines.

Every engine (Gemini, PowerGraph, PowerLyra, SLFE) is the same synchronous
vertex-centric loop. An engine declares only:

* its partitioning (``vertex_statics``): the per-update message cost and
  replication factor on the simulated 8-node cluster;
* a per-vertex *gather scope* (``pull_scope``, the SCOPE_* codes below):
  which in-edges each destination gathers this superstep;
* where it differs from Gemini's, its mode rule (``choose_mode``) and its
  activation rule (``next_active``).

One engine-agnostic Spark plan (:func:`superstep`) then runs every
superstep of every engine: it gathers the in-edges the scope selects,
aggregates one message per destination, applies the app's Catalyst
expressions and returns, per vertex, the new value and the number of edges
gathered. The tiny per-vertex state (<= ~35k rows at bench scale) is
collected to the driver, which truncates lineage between supersteps (the
iterative-DataFrame analogue of checkpointing); every counter is a sum over
that one result.

Application semantics come from :class:`AppSpec`; the same spec runs
unmodified on every engine, which is what lets the tests assert
value-equality across engines.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.graphs.graph import Graph
from repro.metrics import RunMetrics

# Gemini's direction heuristic: pull when the active out-edge fraction is
# above 1/20 of |E| (dense), push otherwise (sparse).
DENSE_FRACTION = 20

# Value-stability granularity. The paper detects early-converged vertices
# when "the precision supported by the underlying hardware cannot reveal
# the changes"; on their hardware that is float32 over hundreds of
# supersteps. The simulated hardware exposes 3 decimal digits (half-
# precision-class) so the same convergence structure appears within the
# ~20-superstep budgets the sweeps can afford. Tests monkeypatch this for
# exactness checks. Stability is evaluated on the value an application
# *serves to its successors* (AppSpec.stable_expr — e.g. PageRank's
# rank/out_deg, exactly the divided rank that Algorithm 5 line 17
# compares), since that is what determines whether downstream vertices can
# observe a change.
STABLE_DECIMALS = 3

#: Per-vertex gather scope, uploaded with the vertex state. Destination
#: ``d`` gathers edge ``s -> d`` when
#: ``d.scope = OPENING or (d.scope = OPEN and s.active)``.
SCOPE_CLOSED = 0  # gathers nothing (start late / finish early)
SCOPE_OPENING = 1  # gathers every in-edge; arith apps apply only here
SCOPE_OPEN = 2  # gathers from active sources only (min/max relaxation)

VALS_SCHEMA = T.StructType(
    [
        T.StructField("id", T.LongType(), False),
        T.StructField("val", T.DoubleType(), False),
        T.StructField("active", T.BooleanType(), False),
        T.StructField("out_deg", T.LongType(), False),
        T.StructField("scope", T.LongType(), False),
    ]
)


@dataclass(frozen=True)
class AppSpec:
    """A vertex program: everything an engine needs to run one application.

    ``msg``/``better``/``vop`` build Catalyst column expressions, so the
    whole computation model executes inside Spark SQL.
    """

    name: str
    kind: str  # 'minmax' (start-late family) or 'arith' (finish-early family)
    agg: str  # 'min' | 'max' | 'sum'
    #: (src_val, w, src_out_deg) -> message column evaluated per edge
    msg: Callable[[Column, Column, Column], Column]
    #: minmax only: (msg, val) -> "msg improves val" boolean column
    better: Callable[[Column, Column], Column] | None = None
    #: arith only: aggregated msg sum -> new value column (paper's vOp)
    vop: Callable[[Column], Column] | None = None
    #: (num_vertices, root) -> (initial values, initially-active mask)
    init: Callable[[int, int | None], tuple[np.ndarray, np.ndarray]] | None = None
    symmetric: bool = False  # run on the symmetrised graph (CC)
    fixed_iters: int | None = None  # arith apps: superstep budget
    needs_root: bool = False
    #: arith only: (val, out_deg) -> the value served to successors, on
    #: which stability/EC is judged (paper Alg. 5 compares divided rank)
    stable_expr: Callable[[Column, Column], Column] | None = None

    def agg_fn(self, col: Column) -> Column:
        return {"min": F.min, "max": F.max, "sum": F.sum}[self.agg](col)


@dataclass
class RunResult:
    """Final per-vertex values plus the run's counted metrics."""

    values: pd.DataFrame  # columns: id, val
    metrics: RunMetrics
    state: pd.DataFrame  # full final driver state (tests/diagnostics)

    def values_np(self) -> np.ndarray:
        return self.values.sort_values("id")["val"].to_numpy()


class Engine:
    """Base synchronous engine with Gemini's rules; subclasses add a partitioning.

    Gemini relaxes min/max apps from active sources only (sparse push and
    dense pull do the same work in a dataflow execution: one computation
    per active out-edge), and gathers every in-edge of every vertex for
    arith apps (paper footnote 2 / SPARK-3427). Other engines override the
    scope, mode and activation rules.
    """

    name: str = "base"
    #: per-edge cost multiplier for the modeled runtime (see repro.metrics)
    comp_cost_factor: float = 1.0
    #: Algorithm 3: reactivate every vertex on a pull->push switch
    reactivate_on_push: bool = False

    # -- partitioning hooks -------------------------------------------------
    def vertex_statics(self, graph: Graph) -> pd.DataFrame:
        """Per-vertex ``sync_cost`` and ``replicas`` columns; cached on the graph."""
        raise NotImplementedError

    def _statics(self, graph: Graph) -> pd.DataFrame:
        key = self.name
        if key not in graph.engine_cache:
            graph.engine_cache[key] = self.vertex_statics(graph)
        return graph.engine_cache[key]

    # -- declared rules -------------------------------------------------------
    def make_context(self, graph: Graph, app: AppSpec, root: int | None) -> dict:
        return {}

    def choose_mode(self, ctx: dict, it: int, active_out_edges: int, num_edges: int) -> str:
        if ctx["arith"]:
            return "pull"
        return "pull" if active_out_edges * DENSE_FRACTION >= num_edges else "push"

    def pull_scope(
        self, ctx: dict, it: int, active: np.ndarray, stable_cnt: np.ndarray
    ) -> np.ndarray:
        """Per-destination gather scope codes (SCOPE_* above)."""
        code = SCOPE_OPENING if ctx["arith"] else SCOPE_OPEN
        return np.full(len(active), code, dtype=np.int64)

    def next_active(self, changed: np.ndarray, edges_pdf: pd.DataFrame) -> np.ndarray:
        return changed.copy()

    # -- the superstep loop --------------------------------------------------
    def run(
        self,
        graph: Graph,
        app: AppSpec,
        *,
        root: int | None = None,
        max_iters: int = 200,
    ) -> RunResult:
        if app.symmetric:
            graph = graph.as_undirected()
        spark = graph.spark
        if app.needs_root and root is None:
            root = graph.root()
        n = graph.num_vertices
        statics = self._statics(graph)
        out_deg = graph.statics["out_deg"].to_numpy()
        sync_cost = statics["sync_cost"].to_numpy()
        replicas = statics["replicas"].to_numpy()
        # Driver copy of the edge list, read only by the GAS scatter; cached
        # on the graph and already materialised by the partitioning statics.
        edges_pdf = graph.edges_pdf()

        metrics = RunMetrics(
            engine=self.name,
            app=app.name,
            graph=graph.name,
            num_vertices=n,
            num_edges=graph.num_edges,
            comp_cost_factor=self.comp_cost_factor,
        )
        ctx = self.make_context(graph, app, root)
        ctx["arith"] = app.kind == "arith"
        metrics.preprocess_time = ctx.get("preprocess_time", 0.0)
        # §3.7: no early exit before every ruler has opened.
        min_iters = ctx.get("max_last_iter", 0)

        vals, active = app.init(n, root)
        vals = vals.astype(np.float64)
        active = active.astype(bool)
        if app.kind == "minmax":
            # The initialisation is iteration 0's apply: on GAS engines the
            # initially-set vertices scatter, signalling their out-neighbours.
            active = self.next_active(active, edges_pdf)
        stable_cnt = np.zeros(n, dtype=np.int64)
        old_sp = spark.conf.get("spark.sql.shuffle.partitions")
        spark.conf.set("spark.sql.shuffle.partitions", str(graph.shuffle_partitions))
        t_start = time.perf_counter()
        prev_mode = None
        try:
            for it in range(1, max_iters + 1):
                active_out_edges = int(out_deg[active].sum())
                mode = self.choose_mode(ctx, it, active_out_edges, graph.num_edges)
                if self.reactivate_on_push and mode == "push" and prev_mode == "pull":
                    active = np.ones(n, dtype=bool)
                scope = self.pull_scope(ctx, it, active, stable_cnt)
                st = pd.DataFrame(
                    {
                        "id": np.arange(n, dtype=np.int64),
                        "val": vals,
                        "active": active,
                        "out_deg": out_deg,
                        "scope": scope,
                    }
                )
                out = superstep(
                    graph.edges, spark.createDataFrame(st, schema=VALS_SCHEMA), app
                ).sort_values("id", ignore_index=True)
                vals = out["val"].to_numpy()
                changed = out["changed"].to_numpy().astype(bool)
                comps = out["comps"].to_numpy()
                computed = scope == SCOPE_OPENING

                n_changed = int(changed.sum())
                metrics.comps.append(int(comps.sum()))
                metrics.updates.append(n_changed)
                metrics.vertex_computes.append(
                    int(replicas[computed | (comps > 0)].sum())
                )
                metrics.msgs.append(int(sync_cost[changed].sum()))
                metrics.modes.append(mode)

                if ctx["arith"]:
                    stable_cnt = np.where(
                        computed, np.where(changed, 0, stable_cnt + 1), stable_cnt
                    )
                active = self.next_active(changed, edges_pdf)
                prev_mode = mode
                fixed = app.fixed_iters is not None and it >= app.fixed_iters
                if fixed or (n_changed == 0 and it >= min_iters):
                    metrics.converged = True
                    break
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", old_sp)
        metrics.wall_time = time.perf_counter() - t_start
        if app.kind == "minmax" and not metrics.converged:
            raise RuntimeError(
                f"{self.name}/{app.name} on {graph.name} did not converge "
                f"within max_iters={max_iters}"
            )
        final = pd.DataFrame(
            {
                "id": np.arange(n, dtype=np.int64),
                "val": vals,
                "stable_cnt": stable_cnt,
            }
        )
        return RunResult(values=final[["id", "val"]], metrics=metrics, state=final)


def superstep(edges: DataFrame, state: DataFrame, app: AppSpec) -> pd.DataFrame:
    """One superstep of any engine as one Spark plan: gather, apply, collect.

    ``state`` holds every vertex's ``val``, ``active``, ``out_deg`` and
    ``scope``; the scope alone decides which in-edges are gathered. Returns
    one row per vertex: ``id``, the new ``val``, whether it ``changed``, and
    ``comps``, the number of in-edges it gathered.
    """
    src = state.select(
        F.col("id").alias("src"),
        F.col("val").alias("src_val"),
        F.col("out_deg").alias("src_out_deg"),
        F.col("active").alias("src_active"),
    )
    in_edges = edges.join(src, "src").withColumnRenamed("dst", "id")
    scope = F.col("scope")
    # The left join gives a vertex without in-edges one row of null edge
    # columns; it is not an edge, so it must not be gathered or counted.
    gathered = F.col("src").isNotNull() & (
        (scope == SCOPE_OPENING) | ((scope == SCOPE_OPEN) & F.col("src_active"))
    )
    m = app.msg(F.col("src_val"), F.col("w"), F.col("src_out_deg"))
    j = (
        state.join(in_edges, "id", "left")
        .groupBy("id", "val", "out_deg", "scope")
        .agg(
            app.agg_fn(F.when(gathered, m)).alias("msg"),
            F.count(F.when(gathered, F.lit(1))).alias("comps"),
        )
    )
    val, msg = F.col("val"), F.col("msg")
    if app.kind == "minmax":
        cond = msg.isNotNull() & app.better(msg, val)
        new_val = F.when(cond, msg).otherwise(val)
        changed = F.coalesce(cond, F.lit(False))
    else:
        computed = scope == SCOPE_OPENING
        applied = app.vop(F.coalesce(msg, F.lit(0.0)))
        new_val = F.when(computed, applied).otherwise(val)
        if app.stable_expr is not None:
            obs_new = app.stable_expr(new_val, F.col("out_deg"))
            obs_old = app.stable_expr(val, F.col("out_deg"))
        else:
            obs_new, obs_old = new_val, val
        changed = computed & (
            F.round(obs_new, STABLE_DECIMALS) != F.round(obs_old, STABLE_DECIMALS)
        )
    return j.select(
        "id", new_val.alias("val"), changed.alias("changed"), "comps"
    ).toPandas()
