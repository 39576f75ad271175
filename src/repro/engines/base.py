"""Shared synchronous superstep machinery for all engines.

Every engine (Gemini, PowerGraph, PowerLyra, SLFE) is the same synchronous
vertex-centric loop. An engine declares only:

* its partitioning (``vertex_statics``): the per-change message cost and
  replication factor on the simulated 8-node cluster, which only weigh a
  run's counters (:meth:`RunResult.weighed`);
* a per-vertex *gather scope* (``pull_scope``, the SCOPE_* codes below):
  which in-edges each destination gathers this superstep.

The push/pull mode follows from the scope: a push is source-driven and
cannot honour a per-destination scope, so a superstep pushes only when every
destination is OPEN and the frontier is sparse (Gemini's density rule), and
pulls otherwise.

A vertex is *active* on every engine for the same reason: its value changed
in the last superstep, or the app's ``init`` set it.

One engine-agnostic Spark plan (:func:`superstep`) then runs every
superstep of every engine: it broadcasts the vertex state to the edges,
which stay where ingest partitioned them, gathers the in-edges the scope
selects, aggregates one message per destination, applies the app's Catalyst
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

import copy
import functools
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
# above 1/20 of |E| (dense), push otherwise (sparse). A push also needs every
# destination's scope to be OPEN, since it cannot filter per destination.
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
#: ``d`` gathers edge ``s -> d`` when ``d.scope = OPENING``, or
#: ``d.scope = OPEN and s.active``, or ``d.scope = SIGNALLED`` and some
#: in-neighbour of ``d`` is active.
SCOPE_CLOSED = 0  # gathers nothing (start late / finish early)
SCOPE_OPENING = 1  # gathers every in-edge
SCOPE_OPEN = 2  # gathers from active sources only (min/max relaxation)
SCOPE_SIGNALLED = 3  # gathers every in-edge once an in-neighbour is active (GAS)

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


def cached_statics(fn: Callable[..., pd.DataFrame]) -> Callable[..., pd.DataFrame]:
    """Cache an engine's ``vertex_statics`` on the graph, keyed by engine name."""

    @functools.wraps(fn)
    def vertex_statics(self: "Engine", graph: Graph) -> pd.DataFrame:
        if self.name not in graph.engine_cache:
            graph.engine_cache[self.name] = fn(self, graph)
        return graph.engine_cache[self.name]

    return vertex_statics


#: an engine's rules; engines that share them differ only in partitioning
RULES = ("make_context", "pull_scope", "reactivate_on_push", "comp_cost_factor")


@dataclass
class RunResult:
    """Final per-vertex values plus the run's counted metrics."""

    values: pd.DataFrame  # columns: id, val
    metrics: RunMetrics
    changed: np.ndarray  # (supersteps x V): the vertex's value changed
    computed: np.ndarray  # (supersteps x V): its aggregation was evaluated
    engine: "Engine"  # whose rules the supersteps ran by
    graph: Graph  # the graph they ran on (symmetrised for CC)

    def values_np(self) -> np.ndarray:
        return self.values.sort_values("id")["val"].to_numpy()

    def weighed(self, engine: "Engine") -> RunMetrics:
        """The run's metrics, its masks weighed by ``engine``'s ``sync_cost`` and ``replicas``."""
        differ = [r for r in RULES if getattr(type(engine), r) != getattr(type(self.engine), r)]
        if differ:
            raise ValueError(f"{self.engine.name} run weighed as {engine.name}: {differ} differ")
        statics = engine.vertex_statics(self.graph)
        m = copy.deepcopy(self.metrics)
        m.engine = engine.name
        m.msgs = (self.changed @ statics["sync_cost"].to_numpy()).tolist()
        m.vertex_computes = (self.computed @ statics["replicas"].to_numpy()).tolist()
        return m


class Engine:
    """Base synchronous engine with Gemini's rules; subclasses add a partitioning.

    Gemini relaxes min/max apps from active sources only (sparse push and
    dense pull do the same work in a dataflow execution: one computation
    per active out-edge), and gathers every in-edge of every vertex for
    arith apps (paper footnote 2 / SPARK-3427). Other engines override the
    scope rule.
    """

    name: str = "base"
    #: per-edge cost multiplier for the modeled runtime (see repro.metrics)
    comp_cost_factor: float = 1.0
    #: Algorithm 3: reactivate every vertex on a pull->push switch
    reactivate_on_push: bool = False

    # -- partitioning hook ---------------------------------------------------
    def vertex_statics(self, graph: Graph) -> pd.DataFrame:
        """Per-vertex ``sync_cost`` and ``replicas`` columns; subclasses
        decorate theirs with :func:`cached_statics`."""
        raise NotImplementedError

    # -- declared rules -------------------------------------------------------
    def make_context(self, graph: Graph, app: AppSpec, root: int | None) -> dict:
        return {}

    def pull_scope(self, ctx: dict, it: int, stable_cnt: np.ndarray) -> np.ndarray:
        """Per-destination gather scope codes (SCOPE_* above)."""
        code = SCOPE_OPENING if ctx["arith"] else SCOPE_OPEN
        return np.full(len(stable_cnt), code, dtype=np.int64)

    # -- the superstep loop --------------------------------------------------
    def run(
        self,
        graph: Graph,
        app: AppSpec,
        *,
        root: int | None = None,
        max_iters: int = 200,
    ) -> RunResult:
        if max_iters < 1:
            raise ValueError(f"max_iters={max_iters}, must be at least 1")
        if app.symmetric:
            graph = graph.as_undirected()
        spark = graph.spark
        if app.needs_root and root is None:
            root = graph.root()
        n = graph.num_vertices
        if root is not None and not 0 <= root < n:
            raise ValueError(f"{graph.name}: root={root}, outside [0, {n})")
        out_deg = graph.statics["out_deg"].to_numpy()

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
        # §3.7: no early exit before every ruler has opened.
        min_iters = ctx.get("max_last_iter", 0)

        vals, active = app.init(n, root)
        vals = vals.astype(np.float64)
        active = active.astype(bool)
        stable_cnt = np.zeros(n, dtype=np.int64)
        changed_steps, computed_steps = [], []
        exprs = SuperstepExprs.of(app)
        t_start = time.perf_counter()
        for it in range(1, max_iters + 1):
            scope = self.pull_scope(ctx, it, stable_cnt)
            sparse = int(out_deg[active].sum()) * DENSE_FRACTION < graph.num_edges
            mode = "push" if sparse and (scope == SCOPE_OPEN).all() else "pull"
            if self.reactivate_on_push and mode == "push" and metrics.modes[-1:] == ["pull"]:
                active = np.ones(n, dtype=bool)
            st = pd.DataFrame(
                {
                    "id": np.arange(n, dtype=np.int64),
                    "val": vals,
                    "active": active,
                    "out_deg": out_deg,
                    "scope": scope,
                }
            )
            state = spark.createDataFrame(st, schema=VALS_SCHEMA)
            out = (
                superstep(graph.edges, state, exprs)
                .toPandas()
                .sort_values("id", ignore_index=True)
            )
            vals = out["val"].to_numpy()
            changed = out["changed"].to_numpy().astype(bool)
            comps = out["comps"].to_numpy()
            computed = (scope == SCOPE_OPENING) | (comps > 0)

            n_changed = int(changed.sum())
            metrics.comps.append(int(comps.sum()))
            metrics.updates.append(n_changed)
            metrics.modes.append(mode)
            changed_steps.append(changed)
            computed_steps.append(computed)

            if ctx["arith"]:
                stable_cnt = np.where(
                    computed, np.where(changed, 0, stable_cnt + 1), stable_cnt
                )
            active = changed
            fixed = app.fixed_iters is not None and it >= app.fixed_iters
            if fixed or (n_changed == 0 and it >= min_iters):
                metrics.converged = True
                break
        metrics.wall_time = time.perf_counter() - t_start
        if app.kind == "minmax" and not metrics.converged:
            raise RuntimeError(
                f"{self.name}/{app.name} on {graph.name} did not converge "
                f"within max_iters={max_iters}"
            )
        final = pd.DataFrame({"id": np.arange(n, dtype=np.int64), "val": vals})
        masks = np.array(changed_steps), np.array(computed_steps)
        res = RunResult(final, metrics, *masks, self, graph)
        res.metrics = res.weighed(self)
        return res


@dataclass(frozen=True)
class SuperstepExprs:
    """The Column expressions of one app's superstep plan.

    Columns name their inputs and are resolved only when a DataFrame uses
    them, so :meth:`Engine.run` builds them once and every superstep reuses
    them: each new Column costs py4j round trips to the JVM.
    """

    source: list[Column]  # the broadcast source side of the edges
    gather: list[Column]  # per-destination aggregates over its in-edges
    on: Column  # vertex state = per-destination aggregate
    apply: list[Column]  # id, val, changed, comps

    @classmethod
    def of(cls, app: AppSpec) -> "SuperstepExprs":
        m = app.msg(F.col("src_val"), F.col("w"), F.col("src_out_deg"))
        src_active = F.col("src_active")
        scope = F.col("scope")
        # The scope picks the aggregate pair; a CLOSED vertex, or one without
        # in-edges (no aggregate row, so a null n_act), gathers nothing.
        gathers_all = (scope == SCOPE_OPENING) | (
            (scope == SCOPE_SIGNALLED) & F.coalesce(F.col("n_act") > 0, F.lit(False))
        )
        open_ = scope == SCOPE_OPEN
        msg = F.when(gathers_all, F.col("msg_all")).when(open_, F.col("msg_act"))
        comps = F.coalesce(
            F.when(gathers_all, F.col("n_all")).when(open_, F.col("n_act")), F.lit(0)
        )
        val = F.col("val")
        if app.kind == "minmax":
            cond = msg.isNotNull() & app.better(msg, val)
            new_val = F.when(cond, msg).otherwise(val)
            changed = F.coalesce(cond, F.lit(False))
        else:
            applied = app.vop(F.coalesce(msg, F.lit(0.0)))
            new_val = F.when(gathers_all, applied).otherwise(val)
            if app.stable_expr is not None:
                obs_new = app.stable_expr(new_val, F.col("out_deg"))
                obs_old = app.stable_expr(val, F.col("out_deg"))
            else:
                obs_new, obs_old = new_val, val
            changed = gathers_all & (
                F.round(obs_new, STABLE_DECIMALS) != F.round(obs_old, STABLE_DECIMALS)
            )
        return cls(
            source=[
                F.col("id").alias("src"),
                F.col("val").alias("src_val"),
                F.col("out_deg").alias("src_out_deg"),
                F.col("active").alias("src_active"),
            ],
            gather=[
                app.agg_fn(m).alias("msg_all"),
                F.count(F.lit(1)).alias("n_all"),
                app.agg_fn(F.when(src_active, m)).alias("msg_act"),
                F.count(F.when(src_active, F.lit(1))).alias("n_act"),
            ],
            on=F.col("id") == F.col("dst"),
            apply=[
                F.col("id"),
                new_val.alias("val"),
                changed.alias("changed"),
                comps.alias("comps"),
            ],
        )


def superstep(edges: DataFrame, state: DataFrame, exprs: SuperstepExprs) -> DataFrame:
    """One superstep of any engine as one Spark plan: gather and apply.

    ``state`` holds every vertex's ``val``, ``active``, ``out_deg`` and
    ``scope``. The vertex state is broadcast to the edges, which keep their
    hash partitioning by ``dst``, so the per-destination aggregates need no
    Exchange: over all in-edges (``msg_all``/``n_all``) and over in-edges
    from active sources (``msg_act``/``n_act``). The aggregates are
    broadcast back to the vertex state, where the scope alone picks the pair
    a vertex gathers: OPENING all, OPEN active, SIGNALLED all if ``n_act``
    is positive, CLOSED none; arith apps apply where all are gathered.
    Returns one row per vertex: ``id``, the new ``val``, whether it
    ``changed``, and ``comps``, the number of in-edges it gathered.
    """
    per_dst = (
        edges.join(F.broadcast(state.select(*exprs.source)), "src")
        .groupBy("dst")
        .agg(*exprs.gather)
    )
    return state.join(F.broadcast(per_dst), exprs.on, "left").select(*exprs.apply)
