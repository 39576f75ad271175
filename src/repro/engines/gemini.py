"""Simulated Gemini (Zhu et al., OSDI'16): the strongest baseline.

Computation-centric design: chunk partitioning over the 8 simulated nodes,
an active list, and the dual push/pull propagation model. In a synchronous
dataflow execution, sparse push and dense pull perform the same amount of
work (one computation per active out-edge), so both map to the same
active-source gather (scope OPEN everywhere); the direction chosen by
Gemini's density heuristic is still recorded per superstep in the metrics.

Arithmetic applications (PR/TR) gather from *all* sources every superstep
(scope OPENING everywhere) — Gemini has no early-converged-vertex
detection, which is precisely the redundancy SLFE's "finish early" removes
(paper §2.2, footnote 2), and since no scope is OPEN they always pull.
These are the base engine's rules, so Gemini declares only its
partitioning.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.engines.base import Engine, cached_statics
from repro.graphs.graph import Graph
from repro.graphs.partition import chunk_nodes, remote_fanout


class GeminiEngine(Engine):
    name = "gemini"

    @cached_statics
    def vertex_statics(self, graph: Graph) -> pd.DataFrame:
        fan = remote_fanout(graph.edges_pdf(), chunk_nodes(graph.statics))
        return pd.DataFrame(
            {
                "sync_cost": fan,  # one message per remote node needing the value
                "replicas": np.ones(graph.num_vertices, dtype=np.int64),
            }
        )
