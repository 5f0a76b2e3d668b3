"""Unit tests for graph metrics and distribution statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    ViewGraph,
    in_degree_distribution,
    local_clustering_coefficient,
    percentile,
    stacked_percentiles,
)


class TestViewGraph:
    def test_degrees(self):
        graph = ViewGraph({1: [2, 3], 2: [3], 3: []})
        assert graph.successors[1] == {2, 3}
        assert graph.in_degree(3) == 2
        assert graph.in_degree(1) == 0

    def test_self_loops_dropped(self):
        graph = ViewGraph({1: [1, 2], 2: []})
        assert graph.successors[1] == {2}
        assert graph.in_degree(1) == 0

    def test_undirected_neighbours(self):
        graph = ViewGraph({1: [2], 2: [], 3: [1]})
        assert graph.undirected_neighbours(1) == {2, 3}

    def test_clustering_triangle(self):
        graph = ViewGraph({1: [2, 3], 2: [3], 3: [1]})
        assert local_clustering_coefficient(graph, 1) == 1.0

    def test_clustering_star_is_zero(self):
        graph = ViewGraph({0: [1, 2, 3], 1: [], 2: [], 3: []})
        assert local_clustering_coefficient(graph, 0) == 0.0

    def test_clustering_needs_two_neighbours(self):
        graph = ViewGraph({1: [2], 2: []})
        assert local_clustering_coefficient(graph, 1) == 0.0

    def test_in_degree_distribution_sorted_and_filtered(self):
        graph = ViewGraph({1: [2, 3], 2: [3], 3: [2]})
        assert in_degree_distribution(graph) == [0, 2, 2]
        assert in_degree_distribution(graph, nodes=[2, 3]) == [2, 2]


class TestPercentiles:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5, 1, 9]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 9

    def test_single_sample(self):
        assert percentile([7], 99) == 7

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_stacked_percentiles_uses_paper_levels(self):
        stacked = stacked_percentiles(list(range(101)))
        assert set(stacked) == {5.0, 25.0, 50.0, 75.0, 90.0}
        assert stacked[50.0] == 50

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50),
           st.floats(0, 100))
    def test_percentile_within_range_property(self, samples, q):
        value = percentile(samples, q)
        assert min(samples) <= value <= max(samples)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0, 1e6), min_size=2, max_size=50))
    def test_percentile_monotone_property(self, samples):
        assert percentile(samples, 25) <= percentile(samples, 75)


class TestStackedPercentilesEdgeCases:
    def test_single_sample_collapses_all_levels(self):
        stacked = stacked_percentiles([42.0])
        assert set(stacked) == {5.0, 25.0, 50.0, 75.0, 90.0}
        assert all(value == 42.0 for value in stacked.values())

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            stacked_percentiles([])

    def test_custom_levels(self):
        stacked = stacked_percentiles(list(range(101)), levels=(0.0, 100.0))
        assert stacked == {0.0: 0, 100.0: 100}

    def test_levels_are_monotone(self):
        stacked = stacked_percentiles([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0])
        values = [stacked[level] for level in sorted(stacked)]
        assert values == sorted(values)

    def test_identical_samples(self):
        stacked = stacked_percentiles([7.0] * 10)
        assert set(stacked.values()) == {7.0}

