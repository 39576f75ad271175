"""Simulated PowerGraph (Gonzalez et al., OSDI'12).

Synchronous GAS over a random vertex-cut across the 8 simulated nodes:

* **gather** runs for every *signalled* vertex over ALL of its in-edges
  (scope OPENING; unsignalled vertices are CLOSED) — even when only one
  in-neighbour changed, the whole neighbourhood is re-aggregated. This is
  the per-vertex computational redundancy the paper measures in Table 2;
* **apply + sync**: every value change is replicated to the vertex's
  mirrors, so updates are weighted by the replication factor and each
  change costs ``replicas - 1`` network messages;
* **scatter** signals the out-neighbours of changed vertices.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.engines.base import SCOPE_CLOSED, SCOPE_OPENING, Engine
from repro.metrics import GAS_COMP_FACTOR
from repro.graphs.graph import Graph
from repro.graphs.partition import vertex_cut_replicas


class PowerGraphEngine(Engine):
    name = "powergraph"
    comp_cost_factor = GAS_COMP_FACTOR

    def vertex_statics(self, graph: Graph) -> pd.DataFrame:
        rep = vertex_cut_replicas(graph.edges_pdf(), graph.num_vertices)
        return pd.DataFrame(
            {
                "id": graph.statics["id"],
                "node": graph.statics["id"] % 8,
                "sync_cost": rep - 1,  # one sync per mirror
                "replicas": rep,
            }
        )

    def choose_mode(self, ctx: dict, it: int, active_out_edges: int, num_edges: int) -> str:
        return "pull"  # GAS always gathers

    def pull_scope(
        self, ctx: dict, it: int, active: np.ndarray, stable_cnt: np.ndarray
    ) -> np.ndarray:
        return np.where(active, SCOPE_OPENING, SCOPE_CLOSED)

    def next_active(self, changed: np.ndarray, edges_pdf: pd.DataFrame) -> np.ndarray:
        """Scatter: signal the out-neighbours of changed vertices."""
        src = edges_pdf["src"].to_numpy()
        dst = edges_pdf["dst"].to_numpy()
        nxt = np.zeros(len(changed), dtype=bool)
        nxt[dst[changed[src]]] = True
        return nxt
