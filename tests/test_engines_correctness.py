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
