#!/usr/bin/env python
"""Standalone RRG preprocessing job (paper §3.2 / Algorithm 1).

Generates the redundancy-reduction guidance for a catalog graph and
reports its overhead (the paper's §4.4 analysis): RRG generation time vs
a Gemini SSSP run on the same graph. Both are timed warm: an untimed RRG
generation first takes the session's cold start (JIT, code generation).

Usage:
    python jobs/preprocess.py [--graph PK] [--scale 2e-4]
"""
from __future__ import annotations

import argparse

import numpy as np

from repro.apps import SSSP
from repro.core.rrg import generate_rrg
from repro.engines import GeminiEngine
from repro.graphs.graph import catalog_graph
from repro.session import get_spark
from repro.tables.table5 import TABLE5_GRAPHS


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", default="PK", choices=TABLE5_GRAPHS)
    ap.add_argument("--scale", type=float, default=2e-4)
    args = ap.parse_args()
    spark = get_spark("preprocess")
    try:
        g = catalog_graph(spark, args.graph, scale=args.scale)
        generate_rrg(g, [g.root()])  # warm-up, untimed
        rrg = generate_rrg(g, [g.root()])
        gem = GeminiEngine().run(g, SSSP)
        reached = int((rrg.level >= 0).sum())
        print(
            f"graph={g.name} V={g.num_vertices} E={g.num_edges}\n"
            f"RRG: bfs_iters={rrg.iterations} reached={reached} "
            f"max_last_iter={rrg.max_last_iter} "
            f"mean_last_iter={float(np.mean(rrg.last_iter)):.2f}\n"
            f"overhead: rrg_time={rrg.elapsed:.2f}s "
            f"gemini_sssp_wall={gem.metrics.wall_time:.2f}s "
            f"ratio={rrg.elapsed / max(gem.metrics.wall_time, 1e-9):.2f}"
        )
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
