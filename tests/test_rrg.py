"""Tests for RRG preprocessing (Algorithm 1) — the paper's contribution's
first half: the Spark BFS must agree with the independent NumPy reference
and with the hand-derived Figure 1 guidance."""
from __future__ import annotations

import numpy as np
import pytest

from repro import reference as ref
from repro.core.rrg import generate_rrg, rrg_for


class TestFig1:
    @pytest.fixture(scope="class")
    def rrg(self, fig1):
        return generate_rrg(fig1, [0])

    def test_levels(self, rrg):
        assert list(rrg.level) == [0, 1, 2, 1, 2, 3]

    def test_last_iter(self, rrg):
        # hand-derived in the paper's example: V4 and V5 live in late
        # propagation sequences (their start is delayed to iteration 3)
        assert list(rrg.last_iter) == [0, 1, 2, 1, 3, 3]

    def test_max_last_iter(self, rrg):
        assert rrg.max_last_iter == 3

    def test_bfs_iterations_equal_eccentricity(self, rrg):
        assert rrg.iterations == 3 + 1  # 3 levels + the empty-frontier probe

    def test_elapsed_recorded(self, rrg):
        assert rrg.elapsed > 0

    @pytest.mark.parametrize("root", [-1, 6])
    def test_rejects_out_of_range_root(self, fig1, root):
        with pytest.raises(ValueError, match=r"outside \[0, 6\)"):
            generate_rrg(fig1, [root])


@pytest.mark.parametrize("gname", ["pk_small", "lj_small", "dag_graph"])
class TestAgainstReference:
    def test_levels_match_numpy(self, request, gname):
        g = request.getfixturevalue(gname)
        root = g.root()
        rrg = rrg_for(g, root)
        pdf = g.edges_pdf()
        expect = ref.bfs_levels(
            pdf["src"].to_numpy(), pdf["dst"].to_numpy(), g.num_vertices, [root]
        )
        assert np.array_equal(rrg.level, expect)

    def test_last_iter_matches_numpy(self, request, gname):
        g = request.getfixturevalue(gname)
        root = g.root()
        rrg = rrg_for(g, root)
        pdf = g.edges_pdf()
        expect = ref.rrg_last_iter(
            pdf["src"].to_numpy(), pdf["dst"].to_numpy(), g.num_vertices, [root]
        )
        assert np.array_equal(rrg.last_iter, expect)


class TestGuidanceProperties:
    def test_unreachable_have_zero_last_iter(self, dag_graph):
        rrg = rrg_for(dag_graph, dag_graph.root())
        unreachable_srcs = rrg.level < 0
        # a vertex whose in-neighbours are all unreachable keeps 0
        pdf = dag_graph.edges_pdf()
        dst = pdf["dst"].to_numpy()
        src = pdf["src"].to_numpy()
        has_reachable_in = np.zeros(dag_graph.num_vertices, dtype=bool)
        has_reachable_in[dst[~unreachable_srcs[src]]] = True
        assert (rrg.last_iter[~has_reachable_in] == 0).all()

    def test_last_iter_at_least_level(self, pk_small):
        """A vertex's last update cannot precede its first visit."""
        rrg = rrg_for(pk_small, pk_small.root())
        reached = rrg.level > 0
        assert (rrg.last_iter[reached] >= rrg.level[reached]).all()

    def test_cached_and_reused(self, pk_small):
        """§4.4: the guidance is generated once and reused across apps."""
        a = rrg_for(pk_small, pk_small.root())
        b = rrg_for(pk_small, pk_small.root())
        assert a is b

    def test_visited_guard_one_computation_per_vertex(self, pk_small):
        """Preprocessing is one BFS: iterations bounded by eccentricity+1,
        far below what the unguarded label propagation would run."""
        rrg = rrg_for(pk_small, pk_small.root())
        assert rrg.iterations <= rrg.level.max() + 1 + 1
