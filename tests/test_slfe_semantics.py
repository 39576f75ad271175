"""SLFE-specific semantics: start late, finish early, pushEdge, APIs."""
from __future__ import annotations

import numpy as np
import pytest

from repro.apps import APPS
from repro.core.rrg import rrg_for
from repro.core.slfe import SlfeEngine
from repro.engines.base import DENSE_FRACTION, SCOPE_CLOSED, SCOPE_OPEN, SCOPE_OPENING
from tests.conftest import ENGINES

MINMAX = ["SSSP", "CC", "WP"]
#: graph fixture -> root passed to the engine, the keys other matrix tests use
MODE_ROOTS = {"fig1": 0, "pk_small": None, "lj_small": None}
#: every engine x app, but only the min/max apps on lj_small (no other test
#: runs arith apps there)
MODE_CASES = [
    (graph, engine, app)
    for graph in MODE_ROOTS
    for engine in ENGINES
    for app in APPS
    if app in MINMAX or graph != "lj_small"
]


@pytest.fixture(scope="module")
def engine():
    return SlfeEngine()


class TestStartLate:
    def test_scope_codes_by_ruler(self, fig1, engine):
        ctx = engine.make_context(fig1, APPS["SSSP"], 0)
        ctx["arith"] = False
        # fig1 last_iter = [0,1,2,1,3,3]
        stable_cnt = np.zeros(6, dtype=np.int64)
        s1 = engine.pull_scope(ctx, 1, stable_cnt)
        assert list(s1) == [
            SCOPE_OPEN,  # last_iter 0: never delayed
            SCOPE_OPENING,  # opens at 1
            SCOPE_CLOSED,  # opens at 2
            SCOPE_OPENING,
            SCOPE_CLOSED,
            SCOPE_CLOSED,
        ]
        s3 = engine.pull_scope(ctx, 3, stable_cnt)
        assert list(s3) == [
            SCOPE_OPEN,
            SCOPE_OPEN,
            SCOPE_OPEN,
            SCOPE_OPEN,
            SCOPE_OPENING,
            SCOPE_OPENING,
        ]

    def test_v4_v5_single_update(self, fig1, get_run):
        """The paper's headline example: with start-late, V4 and V5 skip
        their intermediate values (4 and 5) and are written once, with the
        final distance."""
        res = get_run(fig1, "slfe", "SSSP", root=0)
        assert list(res.values_np()) == [0, 1, 2, 2, 3, 4]
        # total master updates: one per reached non-root vertex
        assert res.metrics.total_updates == 5

    def test_fewer_updates_than_gemini(self, fig1, get_run):
        slfe = get_run(fig1, "slfe", "SSSP", root=0).metrics.total_updates
        gem = get_run(fig1, "gemini", "SSSP", root=0).metrics.total_updates
        assert slfe < gem  # Gemini writes V4/V5 twice (Figure 1's redundancy)

    def test_termination_respects_max_last_iter(self, fig1, get_run):
        """§3.7 guard: the run may not stop before every ruler opened."""
        res = get_run(fig1, "slfe", "SSSP", root=0)
        rrg = rrg_for(fig1, 0)
        assert res.metrics.iterations >= rrg.max_last_iter

    def test_updates_per_vertex_near_one(self, pk_small, get_run):
        """Table 2's 'ideally 1': start-late removes pre-ruler writes, so
        master updates stay a small constant per reached vertex (updates
        after the ruler opens — weighted stragglers — remain legitimate)."""
        res = get_run(pk_small, "slfe", "SSSP")
        reached = int(np.isfinite(res.values_np()).sum())
        assert res.metrics.total_updates <= 2.5 * reached


class TestFinishEarly:
    def test_some_vertices_freeze(self, pk_small, get_run):
        # SLFE's chunk replicas are 1, so the last superstep's computes count
        # the vertices still open; the rest had frozen by then.
        res = get_run(pk_small, "slfe", "PR")
        frozen = pk_small.num_vertices - res.metrics.vertex_computes[-1]
        assert frozen > 0.2 * pk_small.num_vertices

    def test_fewer_comps_than_gemini(self, pk_small, get_run):
        slfe = get_run(pk_small, "slfe", "PR").metrics
        gem = get_run(pk_small, "gemini", "PR").metrics
        assert slfe.total_comps / slfe.iterations < gem.total_comps / gem.iterations

    def test_comps_decline_over_time(self, pk_small, get_run):
        """Figure 9e/f: EC detection shrinks per-superstep computation."""
        comps = get_run(pk_small, "slfe", "PR").metrics.comps
        assert comps[-1] < comps[0]

    def test_frozen_vertices_keep_cached_value(self, fig1):
        """A frozen vertex must serve its cached rank, not reset."""
        res = SlfeEngine().run(fig1, APPS["PR"], root=0)
        assert (res.values_np() > 0).all()


class TestPushAndModes:
    def test_arith_always_pull(self, pk_small, get_run):
        modes = get_run(pk_small, "slfe", "PR").metrics.modes
        assert set(modes) == {"pull"}

    def test_minmax_pull_while_rulers_open(self, pk_small, get_run):
        res = get_run(pk_small, "slfe", "SSSP")
        rrg = rrg_for(pk_small, pk_small.root())
        modes = res.metrics.modes
        assert all(m == "pull" for m in modes[: rrg.max_last_iter])

    @pytest.mark.parametrize("app", MINMAX)
    def test_reactivation_spike_on_transition(self, pk_small, get_run, app):
        """Algorithm 3: the pull->push transition reactivates everything,
        visible as a one-superstep computation spike (Figure 9a, circled)."""
        res = get_run(pk_small, "slfe", app)
        assert "push" in res.metrics.modes
        i = res.metrics.modes.index("push")
        assert res.metrics.comps[i] == res.graph.num_edges  # symmetrised for CC

    @pytest.mark.parametrize(("graph", "engine_name", "app"), MODE_CASES)
    def test_modes_follow_scope_and_density(self, request, get_run, graph, engine_name, app):
        """A superstep pushes iff every destination is OPEN and the active
        out-edges are fewer than |E| / DENSE_FRACTION (Gemini's rule). Gemini's
        min/max scopes are always OPEN, SLFE's once ``it > max(last_iter)``; no
        GAS or arith scope is ever all OPEN, so those runs always pull."""
        root = MODE_ROOTS[graph]
        res = get_run(request.getfixturevalue(graph), engine_name, app, root=root)
        modes = res.metrics.modes
        if APPS[app].kind == "arith" or engine_name in ("powergraph", "powerlyra"):
            assert set(modes) == {"pull"}
            return
        g = res.graph  # symmetrised for CC
        root = g.root() if root is None else root
        opened = rrg_for(g, root).max_last_iter if engine_name == "slfe" else 0
        out_deg = g.statics["out_deg"].to_numpy()
        active = APPS[app].init(g.num_vertices, root)[1].astype(bool)
        want = []
        for it in range(1, len(modes) + 1):
            sparse = out_deg[active].sum() * DENSE_FRACTION < g.num_edges
            want.append("push" if sparse and it > opened else "pull")
            active = res.changed[it - 1]
        assert modes == want


class TestApi:
    def test_sssp_via_table3_api(self, fig1):
        from repro.core.api import SlfeProgram

        def init(n, root):
            vals = np.full(n, np.inf)
            act = np.zeros(n, dtype=bool)
            vals[root] = 0.0
            act[root] = True
            return vals, act

        prog = SlfeProgram(fig1, name="user-sssp")
        res = prog.edge_proc_minmax(
            edge_func=lambda sv, w, od: sv + w,
            better=lambda m, v: m < v,
            init=init,
            agg="min",
            root=0,
        )
        assert list(res.values_np()) == [0, 1, 2, 2, 3, 4]

    def test_pagerank_via_table3_api(self, fig1):
        from pyspark.sql import functions as F

        from repro.core.api import SlfeProgram

        prog = SlfeProgram(fig1, name="user-pr")
        res = prog.edge_proc_arith(
            edge_func=lambda sv, w, od: sv / od,
            vertex_func=lambda s: F.lit(0.15) + F.lit(0.85) * s,
            init=lambda n, root: (np.ones(n), np.ones(n, dtype=bool)),
            iters=20,
            stable_func=lambda v, od: v / F.greatest(od, F.lit(1)),
        )
        builtin = SlfeEngine().run(fig1, APPS["PR"])
        assert np.allclose(res.values_np(), builtin.values_np(), atol=1e-12)
