"""Counter invariants and the redundancy/cost-model relations the tables
are built on."""
from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import GAS_COMP_FACTOR, T_COMP, T_ITER, T_MSG, RunMetrics


class TestRunMetrics:
    def _m(self):
        return RunMetrics(
            engine="e",
            app="a",
            graph="g",
            num_vertices=10,
            num_edges=100,
            comps=[50, 30],
            updates=[5, 2],
            vertex_computes=[8, 4],
            msgs=[20, 10],
            modes=["pull", "push"],
        )

    def test_totals(self):
        m = self._m()
        assert m.iterations == 2
        assert m.total_comps == 80
        assert m.total_updates == 7
        assert m.total_vertex_computes == 12
        assert m.total_msgs == 30

    def test_updates_per_vertex(self):
        assert self._m().updates_per_vertex() == pytest.approx(1.2)

    def test_modeled_time_components(self):
        assert self._m().modeled_time() == pytest.approx(
            2 * T_ITER + 80 * T_COMP + 30 * T_MSG
        )

    def test_comp_cost_factor_applies(self):
        m = self._m()
        m.comp_cost_factor = GAS_COMP_FACTOR
        assert m.modeled_time() == pytest.approx(
            2 * T_ITER + 80 * T_COMP * GAS_COMP_FACTOR + 30 * T_MSG
        )

    def test_per_iteration(self):
        assert self._m().modeled_time_per_iteration() == pytest.approx(
            (2 * T_ITER + 80 * T_COMP + 30 * T_MSG) / 2
        )


@pytest.mark.parametrize("app", ["SSSP", "CC", "WP", "PR", "TR"])
class TestCounterSanity:
    def test_counters_aligned(self, pk_small, get_run, app):
        for eng in ("gemini", "powergraph", "powerlyra", "slfe"):
            m = get_run(pk_small, eng, app).metrics
            n = m.iterations
            assert n > 0
            assert len(m.comps) == len(m.updates) == len(m.msgs) == n
            assert len(m.vertex_computes) == len(m.modes) == n

    def test_counts_nonnegative(self, pk_small, get_run, app):
        for eng in ("gemini", "powergraph", "powerlyra", "slfe"):
            m = get_run(pk_small, eng, app).metrics
            assert min(m.comps) >= 0 and min(m.msgs) >= 0 and min(m.updates) >= 0

    def test_converged(self, pk_small, get_run, app):
        for eng in ("gemini", "powergraph", "powerlyra", "slfe"):
            assert get_run(pk_small, eng, app).metrics.converged

    def test_wall_time_recorded(self, pk_small, get_run, app):
        m = get_run(pk_small, "gemini", app).metrics
        assert m.wall_time > 0


class TestRedundancyRelations:
    """The relations behind Tables 2 and 5."""

    def test_table2_baselines_have_redundancy(self, pk_small, get_run):
        """Both baselines compute vertices well more than once (Table 2:
        'ideally this number is 1')."""
        for eng in ("gemini", "powerlyra"):
            m = get_run(pk_small, eng, "SSSP").metrics
            assert m.updates_per_vertex() > 1.5

    def test_powerlyra_above_gemini(self, pk_small, get_run):
        pl = get_run(pk_small, "powerlyra", "SSSP").metrics.updates_per_vertex()
        ge = get_run(pk_small, "gemini", "SSSP").metrics.updates_per_vertex()
        assert pl > ge

    def test_powergraph_messages_exceed_powerlyra(self, pk_small, get_run):
        """Hybrid-cut's lower replication factor => fewer mirror syncs."""
        for app in ("SSSP", "CC", "PR"):
            pg = get_run(pk_small, "powergraph", app).metrics.total_msgs
            pl = get_run(pk_small, "powerlyra", app).metrics.total_msgs
            assert pl < pg

    @pytest.mark.parametrize("app", ["SSSP", "CC", "WP", "PR", "TR"])
    def test_slfe_beats_gas_baselines(self, pk_small, get_run, app):
        """Table 5's core claim: SLFE's modeled runtime is below both
        PowerGraph's and PowerLyra's in every cell."""
        s = get_run(pk_small, "slfe", app).metrics.modeled_time()
        for eng in ("powergraph", "powerlyra"):
            b = get_run(pk_small, eng, app).metrics.modeled_time()
            assert s < b

    def test_slfe_master_updates_not_above_gemini(self, pk_small, get_run):
        """Start-late can only remove intermediate writes."""
        s = get_run(pk_small, "slfe", "SSSP").metrics.total_updates
        g = get_run(pk_small, "gemini", "SSSP").metrics.total_updates
        assert s <= g

    def test_slfe_arith_saves_computation(self, pk_small, get_run):
        for app in ("PR", "TR"):
            s = get_run(pk_small, "slfe", app).metrics
            g = get_run(pk_small, "gemini", app).metrics
            assert (
                s.total_comps / s.iterations < g.total_comps / g.iterations
            ), app

    def test_gemini_arith_computes_everything(self, pk_small, get_run):
        """SPARK-3427 / footnote 2: no active tracking in arith apps."""
        m = get_run(pk_small, "gemini", "PR").metrics
        assert all(c == pk_small.num_edges for c in m.comps)

    def test_sssp_comps_bounded_by_work(self, pk_small, get_run):
        """Gemini SSSP: total computation = sum of out-degrees of active
        vertices — at most (updates) x max degree."""
        m = get_run(pk_small, "gemini", "SSSP").metrics
        max_deg = int(pk_small.statics["out_deg"].max())
        assert m.total_comps <= (m.total_updates + 1) * max_deg
