"""Simulated PowerGraph (Gonzalez et al., OSDI'12).

Synchronous GAS over a random vertex-cut across the 8 simulated nodes:

* **scatter** signals the out-neighbours of changed vertices, and
  **gather** runs for every *signalled* vertex over ALL of its in-edges
  (scope SIGNALLED: a vertex with an active in-neighbour) — even when only
  one in-neighbour changed, the whole neighbourhood is re-aggregated. This
  is the per-vertex computational redundancy the paper measures in Table 2;
* **apply + sync**: every value change is replicated to the vertex's
  mirrors, so updates are weighted by the replication factor and each
  change costs ``replicas - 1`` network messages.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.engines.base import SCOPE_OPENING, SCOPE_SIGNALLED, Engine, cached_statics
from repro.metrics import GAS_COMP_FACTOR
from repro.graphs.graph import Graph
from repro.graphs.partition import vertex_cut_replicas


class PowerGraphEngine(Engine):
    name = "powergraph"
    comp_cost_factor = GAS_COMP_FACTOR

    @cached_statics
    def vertex_statics(self, graph: Graph) -> pd.DataFrame:
        rep = vertex_cut_replicas(graph.edges_pdf(), graph.num_vertices)
        return pd.DataFrame(
            {
                "sync_cost": rep - 1,  # one sync per mirror
                "replicas": rep,
            }
        )

    def pull_scope(self, ctx: dict, it: int, stable_cnt: np.ndarray) -> np.ndarray:
        # Every vertex starts signalled: an arith app's first superstep
        # applies vOp everywhere, in-degree 0 included. No scope is OPEN, so
        # GAS always pulls (gathers).
        code = SCOPE_OPENING if ctx["arith"] and it == 1 else SCOPE_SIGNALLED
        return np.full(len(stable_cnt), code, dtype=np.int64)
