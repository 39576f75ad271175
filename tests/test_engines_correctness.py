"""Correctness matrix: every engine x every app x small graphs.

min/max applications (integer weights => exact float64 arithmetic) must
match the NumPy reference bit-for-bit, checked through the DuckDB oracle.
Arithmetic applications on the non-SLFE engines must match the reference
up to early-stop drift at the simulated 3-decimal hardware precision;
SLFE's finish-early freezing is approximate by design and is checked with
a documented tolerance plus rank-ordering preservation.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from tests.conftest import ENGINES, reference_values

MINMAX = ["SSSP", "CC", "WP"]
ARITH = ["PR", "TR"]
ALL_ENGINES = list(ENGINES)


def _result_sdf(spark, result):
    return spark.createDataFrame(result.values)


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize("app", MINMAX)
class TestMinMaxExact:
    def test_fig1_exact_via_oracle(self, spark, fig1, get_run, engine, app):
        res = get_run(fig1, engine, app, root=0)
        ref = pd.DataFrame(
            {
                "id": np.arange(fig1.num_vertices, dtype=np.int64),
                "val": reference_values(fig1, app, root=0),
            }
        )
        assert_equivalent(_result_sdf(spark, res), "SELECT id, val FROM ref", ref=ref)

    def test_pk_exact_via_oracle(self, spark, pk_small, get_run, engine, app):
        res = get_run(pk_small, engine, app)
        ref = pd.DataFrame(
            {
                "id": np.arange(pk_small.num_vertices, dtype=np.int64),
                "val": reference_values(pk_small, app),
            }
        )
        assert_equivalent(_result_sdf(spark, res), "SELECT id, val FROM ref", ref=ref)


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize("app", MINMAX)
def test_minmax_exact_on_lj(lj_small, get_run, engine, app):
    res = get_run(lj_small, engine, app)
    expect = reference_values(lj_small, app)
    assert np.array_equal(res.values_np(), expect)


@pytest.mark.parametrize("engine", ["gemini", "powergraph", "powerlyra"])
@pytest.mark.parametrize("app", ARITH)
def test_arith_baselines_near_reference(pk_small, get_run, engine, app):
    """Non-SLFE engines never freeze values; only early stop at the
    simulated precision separates them from the exact reference."""
    res = get_run(pk_small, engine, app)
    expect = reference_values(pk_small, app)
    assert np.allclose(res.values_np(), expect, rtol=5e-2, atol=5e-3)


@pytest.mark.parametrize("app", ARITH)
def test_slfe_arith_tolerance_and_ordering(pk_small, get_run, app):
    """Finish-early freezes values at the simulated precision; the result
    must stay close and preserve the ranking of clearly-separated
    vertices."""
    res = get_run(pk_small, "slfe", app)
    expect = reference_values(pk_small, app)
    got = res.values_np()
    assert np.allclose(got, expect, rtol=0.1, atol=5e-2)
    # top-5 vertices by reference value are the top-5 by SLFE value
    k = 5
    assert set(np.argsort(expect)[-k:]) == set(np.argsort(got)[-k:])


@pytest.mark.parametrize("app", ARITH)
def test_slfe_arith_exact_when_freezing_disabled(spark, fig1, app, monkeypatch):
    """With the stability granularity pushed beyond float64 rounding and
    the budget reached, no vertex freezes and SLFE must be exact."""
    import repro.engines.base as base
    from repro.apps import APPS
    from repro.core.slfe import SlfeEngine

    monkeypatch.setattr(base, "STABLE_DECIMALS", 12)
    res = SlfeEngine().run(fig1, APPS[app], root=0)
    expect = reference_values(fig1, app, root=0)
    ref = pd.DataFrame(
        {"id": np.arange(fig1.num_vertices, dtype=np.int64), "val": expect}
    )
    assert_equivalent(
        spark.createDataFrame(res.values), "SELECT id, val FROM ref", ref=ref
    )


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_sssp_nondefault_root(fig1, engine):
    from repro.apps import APPS

    res = ENGINES[engine]().run(fig1, APPS["SSSP"], root=3)
    expect = reference_values(fig1, "SSSP", root=3)
    assert np.array_equal(res.values_np(), expect)


@pytest.mark.parametrize("root", [-1, 6], ids=["-1", "V"])
@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_rejects_bad_root(fig1, engine, root):
    """A root outside the vertex range is an error, not a wrapped index."""
    from repro.apps import APPS

    assert fig1.num_vertices == 6
    with pytest.raises(ValueError, match=r"root=.*outside \[0, 6\)"):
        ENGINES[engine]().run(fig1, APPS["SSSP"], root=root)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_dag_graph_sssp(dag_graph, get_run, engine):
    res = get_run(dag_graph, engine, "SSSP", root=0)
    expect = reference_values(dag_graph, "SSSP", root=0)
    assert np.array_equal(res.values_np(), expect)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_minmax_run_out_of_iterations_raises(pk_small, engine):
    """A min/max run cut off at ``max_iters`` has no fixpoint to return."""
    from repro.apps import APPS

    with pytest.raises(RuntimeError, match="did not converge within max_iters=2"):
        ENGINES[engine]().run(pk_small, APPS["SSSP"], max_iters=2)


@pytest.mark.parametrize("app", ["PR", "SSSP"])
@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_rejects_max_iters_below_one(fig1, engine, app):
    """A run of no superstep is an error, not the initial values."""
    from repro.apps import APPS

    with pytest.raises(ValueError, match="max_iters=0"):
        ENGINES[engine]().run(fig1, APPS[app], max_iters=0)


#: tiny hand-built graphs: name -> (src, dst, w, num_vertices, root)
DEGENERATE = {
    "edgeless": ([], [], [], 4, 0),
    "sink-root": ([0, 1], [1, 2], [1.0, 1.0], 3, 2),  # the root has no out-edges
    "dup-self-loop": ([0, 0, 1, 1, 2], [1, 1, 1, 2, 0], [3.0, 1.0, 2.0, 4.0, 1.0], 3, 0),
}


@pytest.fixture(scope="module", params=list(DEGENERATE))
def degenerate(request, spark):
    from repro.graphs.graph import build_graph

    src, dst, w, n, root = DEGENERATE[request.param]
    pdf = pd.DataFrame(
        {
            "src": np.array(src, dtype=np.int64),
            "dst": np.array(dst, dtype=np.int64),
            "w": np.array(w, dtype=np.float64),
        }
    )
    g = build_graph(spark, pdf, name=request.param, num_vertices=n)
    yield g, root
    g.unpersist()


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_degenerate_graphs(degenerate, engine):
    """Edgeless graphs, a root without out-edges, duplicate edges and a
    self-loop reach the reference fixpoint; edgeless PR is 0.15 everywhere."""
    from repro.apps import APPS

    g, root = degenerate
    for app in MINMAX:
        res = ENGINES[engine]().run(g, APPS[app], root=root)
        assert np.array_equal(res.values_np(), reference_values(g, app, root=root)), app
    if g.num_edges == 0:
        res = ENGINES[engine]().run(g, APPS["PR"])
        assert np.allclose(res.values_np(), 0.15, rtol=0, atol=1e-15)
