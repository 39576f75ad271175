"""Simulated PowerLyra (Chen et al., EuroSys'15).

Identical GAS execution model to PowerGraph; the difference — exactly as in
the real systems — is the *hybrid-cut* partitioning: in-edges of
low-in-degree vertices are co-located at the vertex's hash node (low-cut)
while only high-in-degree vertices are cut by source (high-cut). The
resulting replication factor is strictly lower than a random vertex-cut, so
PowerLyra performs the same gathers (Table 5 weighs one PowerGraph run with
both partitionings) but fewer mirror syncs, which is why it lands between
PowerGraph and SLFE in Tables 2 and 5.
"""
from __future__ import annotations

import pandas as pd

from repro.engines.base import cached_statics
from repro.engines.powergraph import PowerGraphEngine
from repro.graphs.graph import Graph
from repro.graphs.partition import hybrid_cut_replicas


class PowerLyraEngine(PowerGraphEngine):
    name = "powerlyra"

    @cached_statics
    def vertex_statics(self, graph: Graph) -> pd.DataFrame:
        rep = hybrid_cut_replicas(graph.edges_pdf(), graph.statics)
        return pd.DataFrame(
            {
                "sync_cost": rep - 1,
                "replicas": rep,
            }
        )
