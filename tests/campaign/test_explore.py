"""Adaptive crossover search: bisection vs the exhaustive grid.

The acceptance property of the explorer: on the flat-vs-node aggregation
frontier it finds the *same* bracket as the exhaustive grid with *fewer*
margin evaluations, deterministically.
"""

from __future__ import annotations

import pytest

from repro.campaign.explore import (
    AGGREGATION_CANDIDATES,
    ExploreError,
    aggregation_crossover,
    find_crossover,
)


class TestFindCrossover:
    def test_bisect_finds_sign_change(self):
        calls = []

        def margin(x):
            calls.append(x)
            return 10.0 - x  # crosses between 10 and 11

        report = find_crossover(list(range(1, 21)), margin, method="bisect")
        assert report.bracket == (10, 11)
        assert report.crossover == 11
        assert report.evaluations == len(calls) <= 6  # 2 ends + ~log2(20)

    def test_grid_finds_same_bracket_with_more_evaluations(self):
        candidates = list(range(1, 21))
        bisect = find_crossover(candidates, lambda x: 10.0 - x, method="bisect")
        grid = find_crossover(candidates, lambda x: 10.0 - x, method="grid")
        assert grid.bracket == bisect.bracket
        assert grid.evaluations == 20
        assert bisect.evaluations < grid.evaluations

    def test_no_sign_change_yields_no_bracket(self):
        report = find_crossover([1, 2, 3], lambda x: 1.0, method="bisect")
        assert report.bracket is None
        assert report.crossover is None
        assert report.evaluations == 2  # endpoints only

    def test_deterministic(self):
        a = find_crossover(list(range(8)), lambda x: 3.5 - x, method="bisect")
        b = find_crossover(list(range(8)), lambda x: 3.5 - x, method="bisect")
        assert a.margins == b.margins
        assert a.bracket == b.bracket

    def test_render_mentions_frontier_and_skips(self):
        report = find_crossover(
            list(range(10)), lambda x: 4.5 - x, axis="p", method="bisect"
        )
        text = report.render()
        assert "frontier: between p=4 and p=5" in text
        assert "(skipped)" in text

    def test_rejects_bad_inputs(self):
        with pytest.raises(ExploreError, match="two candidates"):
            find_crossover([1], lambda x: x)
        with pytest.raises(ExploreError, match="distinct"):
            find_crossover([1, 1], lambda x: x)
        with pytest.raises(ExploreError, match="unknown search"):
            find_crossover([1, 2], lambda x: x, method="annealing")


class TestAggregationCrossover:
    """The real frontier, on the rma-heavy profile (simulated points)."""

    @pytest.fixture(scope="class")
    def reports(self):
        bisect = aggregation_crossover(method="bisect")
        grid = aggregation_crossover(method="grid")
        return bisect, grid

    def test_adaptive_beats_exhaustive_with_same_answer(self, reports):
        bisect, grid = reports
        assert grid.evaluations == len(AGGREGATION_CANDIDATES)
        assert bisect.evaluations < grid.evaluations
        assert bisect.bracket == grid.bracket
        assert bisect.bracket is not None  # the frontier exists

    def test_margin_is_monotone_across_the_axis(self, reports):
        _, grid = reports
        crossed = [grid.margins[c] < 0 for c in grid.candidates]
        assert crossed == sorted(crossed)  # not crossed, then crossed: one flip

    def test_flat_wins_small_node_wins_large(self, reports):
        _, grid = reports
        first, last = AGGREGATION_CANDIDATES[0], AGGREGATION_CANDIDATES[-1]
        assert grid.margins[first] > 0  # flat faster at 8 procs
        assert grid.margins[last] < 0  # node faster at 96 procs

    def test_deterministic_margins(self, reports):
        bisect, _ = reports
        again = aggregation_crossover(method="bisect")
        assert again.margins == bisect.margins
        assert again.evaluations == bisect.evaluations

    def test_store_records_every_evaluated_pair(self, tmp_path, reports):
        from repro.campaign.store import CampaignStore
        from repro.perf.campaign import CampaignRunner

        bisect, _ = reports
        store = CampaignStore(tmp_path)
        cold = CampaignRunner(1, store=store)
        report = aggregation_crossover(
            candidates=AGGREGATION_CANDIDATES[:4], method="grid", runner=cold
        )
        assert len(store) == 2 * report.evaluations  # a flat+node pair each
        flat = store.query("topo", where={"aggregation": "flat"})
        assert {r.get("net") for r in flat} == {"rma-heavy"}
        # a rerun over the same store finds the same bracket, simulating nothing
        warm = CampaignRunner(1, store=store)
        again = aggregation_crossover(
            candidates=AGGREGATION_CANDIDATES[:4], method="grid", runner=warm
        )
        assert (again.bracket, again.margins) == (report.bracket, report.margins)
        assert (warm.hits, warm.misses) == (cold.misses, 0)
