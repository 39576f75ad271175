"""Per-superstep counters of every engine x app, pinned to a recorded golden.

The run totals are checked elsewhere; this pins each superstep's
``comps``, ``vertex_computes``, ``updates``, ``msgs`` and ``modes`` so that
a change to how the superstep is planned cannot shift work between
supersteps unnoticed. ``fig1`` runs from root 0 and ``pk_small`` from its
default root, the same keys as the other matrix tests, so the runs come
from the shared ``get_run`` cache.

Re-record (only when a counter definition changes on purpose) with::

    PYTHONPATH=src python -m tests.test_counter_golden
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden_counters.json")
ENGINE_NAMES = ("gemini", "powergraph", "powerlyra", "slfe")
APP_NAMES = ("SSSP", "CC", "WP", "PR", "TR")
FIELDS = ("comps", "vertex_computes", "updates", "msgs", "modes")
#: graph fixture -> root passed to the engine
ROOTS = {"fig1": 0, "pk_small": None}


def counters(metrics) -> dict[str, list]:
    return {f: list(getattr(metrics, f)) for f in FIELDS}


@pytest.mark.parametrize("app", APP_NAMES)
@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("graph", list(ROOTS))
def test_per_superstep_counters(request, get_run, graph, engine, app):
    want = json.loads(GOLDEN.read_text())[f"{graph}/{engine}/{app}"]
    g = request.getfixturevalue(graph)
    assert counters(get_run(g, engine, app, root=ROOTS[graph]).metrics) == want


@pytest.mark.parametrize("app", APP_NAMES)
@pytest.mark.parametrize("graph", list(ROOTS))
def test_powergraph_run_weighed_as_powerlyra(request, get_run, graph, app):
    """PowerLyra differs from PowerGraph only in partitioning: its recorded
    counters are a PowerGraph run weighed with the hybrid-cut replicas."""
    from repro.engines import PowerLyraEngine

    want = json.loads(GOLDEN.read_text())[f"{graph}/powerlyra/{app}"]
    g = request.getfixturevalue(graph)
    m = get_run(g, "powergraph", app, root=ROOTS[graph]).weighed(PowerLyraEngine())
    assert m.engine == "powerlyra"
    assert counters(m) == want


@pytest.mark.parametrize(("engine", "as_engine"), [("gemini", "slfe"), ("powergraph", "gemini")])
def test_weighing_across_rules_raises(fig1, get_run, engine, as_engine):
    """A run can only be weighed by an engine with the rules it ran by."""
    from tests.conftest import ENGINES

    run = get_run(fig1, engine, "SSSP", root=ROOTS["fig1"])
    with pytest.raises(ValueError, match=f"{engine} run weighed as {as_engine}"):
        run.weighed(ENGINES[as_engine]())


if __name__ == "__main__":
    from repro.apps import APPS
    from repro.graphs.graph import catalog_graph, fig1_graph
    from repro.session import get_spark
    from tests.conftest import ENGINES, SMALL_SCALE

    spark = get_spark("record-counter-golden")
    graphs = {
        "fig1": fig1_graph(spark),
        "pk_small": catalog_graph(spark, "PK", scale=SMALL_SCALE),
    }
    out = {
        f"{gname}/{e}/{a}": counters(
            ENGINES[e]().run(g, APPS[a], root=ROOTS[gname]).metrics
        )
        for gname, g in graphs.items()
        for e in ENGINE_NAMES
        for a in APP_NAMES
    }
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in out.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
