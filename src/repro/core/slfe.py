"""The SLFE engine — "start late or finish early" (paper §3).

Built on the same superstep substrate and chunk partitioning as the Gemini
baseline; the paper's redundancy-reduction runtime is a per-vertex gather
scope (``SCOPE_*`` in :mod:`repro.engines.base`):

* ``pullEdge_singleRuler`` (Algorithm 2, min/max apps): a destination is
  CLOSED until the iteration counter (the *Ruler*) reaches its RRG
  ``last_iter`` — **start late**. At the superstep where the ruler opens it
  is OPENING and gathers from *all* in-neighbours regardless of their
  active bit (the §3.2 correctness note: delayed vertices must collect
  every skipped update); afterwards it is OPEN and relaxes like the
  baseline, from active sources only. This is the reading consistent with
  the paper's measurements (updates/vertex ~1 in Table 2's ideal,
  per-iteration computations below the no-RR curve in Figure 9) —
  re-gathering every in-edge on every post-ruler superstep would *exceed*
  baseline work.
* ``pullEdge_multiRuler`` (arith apps): each vertex carries its own ruler,
  the count of consecutive supersteps with a stable value; once it reaches
  ``last_iter`` the vertex is early-converged and CLOSED — **finish
  early** — while successors keep reading its cached value (Algorithm 5).
* ``pushEdge`` (Algorithm 3): pushes are never redundancy-filtered. Push
  runs only once every ruler has opened, so every vertex is OPEN and the
  same plan computes per active out-edge. On a pull->push transition every
  vertex is reactivated so updates hidden by RR deactivation cannot be
  lost (``reactivate_on_push``).

Termination honours the §3.7 proof through the base loop's stop rule: a
min/max run may not stop before the ruler has opened every vertex
(``iter >= max(last_iter)``), after which a change-free superstep is a
true fixpoint.
"""
from __future__ import annotations

import numpy as np

from repro.core.rrg import rrg_for
from repro.engines.base import SCOPE_CLOSED, SCOPE_OPEN, SCOPE_OPENING, AppSpec, Engine
from repro.engines.gemini import GeminiEngine
from repro.graphs.graph import Graph


class SlfeEngine(Engine):
    name = "slfe"
    reactivate_on_push = True
    vertex_statics = GeminiEngine.vertex_statics  # the same chunk partitioning

    def make_context(self, graph: Graph, app: AppSpec, root: int | None) -> dict:
        rrg = rrg_for(graph, root if root is not None else graph.root())
        last_iter = rrg.last_iter
        if app.kind == "arith":
            # A vertex with no reachable in-neighbour still needs >=1
            # computation before it may be declared early-converged.
            last_iter = np.maximum(last_iter, 1)
        return {
            "last_iter": last_iter,
            "max_last_iter": int(last_iter.max()) if len(last_iter) else 0,
            "preprocess_time": rrg.elapsed,
        }

    def choose_mode(self, ctx: dict, it: int, active_out_edges: int, num_edges: int) -> str:
        # Pull while rulers are still opening (start-late work pending);
        # then Gemini's rule: push to finish up unless the frontier is dense,
        # and always pull for arith apps (paper §3.3, footnote 2).
        if it <= ctx["max_last_iter"]:
            return "pull"
        return super().choose_mode(ctx, it, active_out_edges, num_edges)

    def pull_scope(
        self, ctx: dict, it: int, active: np.ndarray, stable_cnt: np.ndarray
    ) -> np.ndarray:
        li = ctx["last_iter"]
        if ctx["arith"]:
            # multiRuler: skip early-converged vertices (finish early).
            return np.where(stable_cnt < li, SCOPE_OPENING, SCOPE_CLOSED)
        # singleRuler: closed before last_iter, a one-off full gather at the
        # superstep the ruler opens, baseline relaxation afterwards.
        return np.select([li > it, li == it], [SCOPE_CLOSED, SCOPE_OPENING], SCOPE_OPEN)
