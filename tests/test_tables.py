"""Tests for the Table 2 / Table 5 harnesses (reduced sweeps)."""
from __future__ import annotations

from collections import Counter

import pytest

from repro.engines import Engine
from repro.tables.table2 import PAPER_TABLE2, format_table2, run_table2
from repro.tables.table5 import (
    PAPER_TABLE5,
    TABLE5_GRAPHS,
    format_table5,
    run_table5,
)

SCALE = 5e-5  # tiny sweep for tests; jobs run 2e-4


@pytest.fixture(scope="module")
def t2(spark):
    return run_table2(spark, scale=SCALE, graphs=["PK", "ST"])


@pytest.fixture(scope="module")
def t5_runs() -> Counter:
    """(graph, app) -> the ``Engine.run`` calls the ``t5`` sweep made for it."""
    return Counter()


@pytest.fixture(scope="module")
def t5(spark, t5_runs):
    run = Engine.run

    def counted(eng, graph, app, **kw):
        t5_runs[graph.name, app.name] += 1
        return run(eng, graph, app, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "run", counted)
        return run_table5(spark, scale=SCALE, graphs=["PK"], apps=["SSSP", "PR"])


class TestTable2:
    def test_rows_are_papers(self, t2):
        assert set(t2) == {"powerlyra", "gemini"}

    def test_all_graphs_measured(self, t2):
        for row in t2.values():
            assert set(row) == {"PK", "ST"}

    def test_redundancy_present(self, t2):
        """Paper: 'ideally this number is 1' — baselines are well above."""
        for row in t2.values():
            for v in row.values():
                assert v > 1.0

    def test_powerlyra_row_above_gemini(self, t2):
        for g in t2["gemini"]:
            assert t2["powerlyra"][g] > t2["gemini"][g]

    def test_format_contains_paper_numbers(self, t2):
        txt = format_table2(t2)
        assert "PowerLyra" in txt and "Gemini" in txt
        assert f"{PAPER_TABLE2['gemini']['PK']:.2f}" in txt


class TestTable5:
    def test_structure(self, t5):
        assert set(t5.cells) == {"SSSP", "PR"}
        assert set(t5.cells["SSSP"]) == {"powergraph", "powerlyra", "slfe"}
        assert set(t5.cells["SSSP"]["slfe"]) == {"PK"}

    def test_slfe_wins_every_cell(self, t5):
        for app in t5.cells:
            for g in t5.cells[app]["slfe"]:
                s = t5.cells[app]["slfe"][g].modeled
                assert s < t5.cells[app]["powergraph"][g].modeled
                assert s < t5.cells[app]["powerlyra"][g].modeled

    def test_speedup_above_one(self, t5):
        for app in t5.cells:
            assert t5.speedup(app, "PK") > 1.0

    def test_geomean(self, t5):
        assert t5.geomean_speedup() > 1.0

    def test_cells_carry_metrics(self, t5):
        c = t5.cells["SSSP"]["slfe"]["PK"]
        assert c.metrics.iterations > 0 and c.wall > 0

    def test_format_contains_paper_numbers(self, t5):
        txt = format_table5(t5)
        assert "Speedup(x)" in txt and "GEOMEAN" in txt
        assert f"{PAPER_TABLE5['SSSP']['slfe']['PK']:.2f}" in txt

    def test_gas_runs_once_per_cell(self, t5, t5_runs):
        """PowerLyra's cells weigh the PowerGraph run: GAS and SLFE run once each."""
        pk = f"PK@{SCALE:g}"
        assert t5_runs == {(pk, "SSSP"): 2, (pk, "PR"): 2}

    def test_powerlyra_cell_shares_the_gas_run(self, t5):
        for app in t5.cells:
            pg, pl = t5.cells[app]["powergraph"]["PK"], t5.cells[app]["powerlyra"]["PK"]
            assert pl.metrics.engine == "powerlyra" and pl.wall == pg.wall
            assert pl.metrics.comps == pg.metrics.comps

    def test_paper_table_complete(self):
        for app, rows in PAPER_TABLE5.items():
            for row in ("powergraph", "powerlyra", "slfe", "speedup"):
                assert set(rows[row]) == set(TABLE5_GRAPHS), (app, row)

    def test_paper_speedup_convention(self):
        """Our geomean reading of the paper's speedup row reproduces the
        printed values on the cells used to verify it."""
        import math

        for app, g, printed in [("SSSP", "PK", 19.8), ("SSSP", "LJ", 5.7)]:
            pg = PAPER_TABLE5[app]["powergraph"][g]
            pl = PAPER_TABLE5[app]["powerlyra"][g]
            s = PAPER_TABLE5[app]["slfe"][g]
            assert math.sqrt(pg / s * pl / s) == pytest.approx(printed, rel=0.02)
