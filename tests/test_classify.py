import pytest

from twopartite import build, genericity
from twopartite.catalog import (
    ApproximantSpec,
    Direction,
    complement_matching_digraph,
    complete_bipartite_digraph,
    empty_digraph,
    generic_2partite_approx,
    generic_bipartite_approx,
    generic_orientation_approx,
    matching_complement_pair,
    matching_digraph,
)
from twopartite.classify import (
    BipartiteKind,
    ClassCase,
    classify_exact,
    classify_profile,
    edge_direction,
    classify_bipartite_graph,
    matching_complement_size,
)

from conftest import distinct_neighbourhoods

L2R, R2L = Direction.LEFT_TO_RIGHT, Direction.RIGHT_TO_LEFT

FOUR_CYCLE = build(["a", "c"], ["b", "d"],
                   [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


class TestGgkClass:
    def test_complete(self):
        g = complete_bipartite_digraph(3, 3).underlying_bipartite()
        assert classify_bipartite_graph(g).subkind is BipartiteKind.COMPLETE

    def test_empty(self):
        g = empty_digraph(3, 2).underlying_bipartite()
        assert classify_bipartite_graph(g).subkind is BipartiteKind.EMPTY

    def test_matching(self):
        g = matching_digraph(3).underlying_bipartite()
        assert classify_bipartite_graph(g).subkind is BipartiteKind.PERFECT_MATCHING

    def test_complement_of_matching(self):
        g = complement_matching_digraph(3).underlying_bipartite()
        assert classify_bipartite_graph(g).subkind is BipartiteKind.COMPLEMENT_OF_MATCHING

    def test_degenerate_sides_are_empty_kind(self):
        g = empty_digraph(0, 3).underlying_bipartite()
        assert classify_bipartite_graph(g).subkind is BipartiteKind.EMPTY

    def test_generic_needs_level(self):
        g = generic_bipartite_approx(ApproximantSpec(32, 1, seed=5)).underlying_bipartite()
        assert classify_bipartite_graph(g).case is ClassCase.INCONCLUSIVE
        assert classify_bipartite_graph(g, level=1).subkind is BipartiteKind.GENERIC

    def test_unbalanced_half_graph_inconclusive(self):
        g = build(["x1", "x2"], ["y1", "y2"],
                  [("x1", "y1"), ("x1", "y2"), ("x2", "y1")]).underlying_bipartite()
        assert classify_bipartite_graph(g).case is ClassCase.INCONCLUSIVE

    def test_reads_adjacency_in_either_direction(self):
        # the two-direction pair's underlying graph is complete
        pair = matching_complement_pair(3)
        assert classify_bipartite_graph(pair) == classify_bipartite_graph(
            pair.underlying_bipartite())
        assert classify_bipartite_graph(pair).subkind is BipartiteKind.COMPLETE
        mixed = build(["x1", "x2"], ["y1", "y2"], [("x1", "y1"), ("y2", "x2")])
        assert classify_bipartite_graph(mixed).subkind is BipartiteKind.PERFECT_MATCHING


class TestDistinctNeighbourhoods:
    def test_m3(self):
        assert distinct_neighbourhoods(matching_complement_pair(3))

    def test_complete(self):
        assert not distinct_neighbourhoods(complete_bipartite_digraph(2, 2))

    def test_empty(self):
        assert not distinct_neighbourhoods(empty_digraph(2, 2))

    def test_single_vertex_sides_vacuous(self):
        assert distinct_neighbourhoods(build(["x1"], ["y1"], [("x1", "y1")]))


class TestMatchingComplementSize:
    def test_four_cycle(self):
        assert matching_complement_size(FOUR_CYCLE) == 2

    def test_round_trip(self):
        assert matching_complement_size(matching_complement_pair(5)) == 5
        assert matching_complement_size(matching_complement_pair(3, R2L)) == 3

    def test_complete_is_not(self):
        assert matching_complement_size(complete_bipartite_digraph(3, 3)) is None

    def test_non_square_is_not(self):
        assert matching_complement_size(complete_bipartite_digraph(2, 3)) is None

    def test_single_pair_too_small(self):
        assert matching_complement_size(build(["x1"], ["y1"], [("x1", "y1")])) is None

    def test_incomplete_underlying_is_not(self):
        assert matching_complement_size(matching_digraph(2)) is None


class TestClassifyExact:
    def test_m2(self):
        label = classify_exact(matching_complement_pair(2))
        assert label.case is ClassCase.MATCHING_COMPLEMENT and label.pair_size == 2

    def test_matching(self):
        label = classify_exact(matching_digraph(2))
        assert label.case is ClassCase.BIPARTITE_HOMOGENEOUS
        assert label.subkind is BipartiteKind.PERFECT_MATCHING
        assert label.direction is L2R

    def test_matching_reversed_direction(self):
        label = classify_exact(matching_digraph(2, R2L))
        assert label.direction is R2L

    def test_not_homogeneous_with_counterexample(self):
        d = build(["x1", "x2"], ["y1"], [("x1", "y1")])
        label = classify_exact(d)
        assert label.case is ClassCase.NOT_HOMOGENEOUS
        assert label.counterexample is not None

    def test_edgeless_label(self):
        label = classify_exact(empty_digraph(0, 0))
        assert label.case is ClassCase.BIPARTITE_HOMOGENEOUS
        assert label.subkind is BipartiteKind.EMPTY
        assert label.direction is None

    def test_isomorphism_invariant(self):
        a = classify_exact(matching_complement_pair(2))
        b = classify_exact(FOUR_CYCLE)
        assert (a.case, a.pair_size) == (b.case, b.pair_size)

    def test_verdict_in_evidence(self):
        label = classify_exact(matching_complement_pair(2))
        assert label.evidence["homogeneity"].holds


class TestClassifyProfile:
    def test_matching_complement_pair_structural_match_first(self):
        # the matching/complement pair passes level-1 extension demands,
        # so the structural branch has to come before the generic ones
        label = classify_profile(matching_complement_pair(4), 1)
        assert label.case is ClassCase.MATCHING_COMPLEMENT and label.pair_size == 4

    def test_two_partite_approximant(self):
        d = generic_2partite_approx(ApproximantSpec(48, 2, seed=1))
        label = classify_profile(d, 2)
        assert label.case is ClassCase.GENERIC_2PARTITE

    def test_orientation_approximant(self):
        d = generic_orientation_approx(ApproximantSpec(128, 2, seed=1))
        label = classify_profile(d, 2)
        assert label.case is ClassCase.GENERIC_ORIENTATION

    def test_bipartite_approximant(self):
        d = generic_bipartite_approx(ApproximantSpec(32, 1, seed=4), R2L)
        label = classify_profile(d, 1)
        assert label.case is ClassCase.BIPARTITE_HOMOGENEOUS
        assert label.subkind is BipartiteKind.GENERIC
        assert label.direction is R2L

    def test_agrees_with_exact_on_finite_classes(self):
        for d in (matching_complement_pair(3), matching_digraph(2), complete_bipartite_digraph(2, 2),
                  empty_digraph(2, 2), complement_matching_digraph(3)):
            exact = classify_exact(d)
            for level in (0, 1, 2):
                profile = classify_profile(d, level)
                assert (profile.case, profile.subkind, profile.pair_size) == \
                    (exact.case, exact.subkind, exact.pair_size)

    def test_inconclusive_names_first_failing_condition(self):
        d = build(["x1", "x2"], ["y1", "y2"],
                  [("x1", "y1"), ("y2", "x1"), ("x2", "y2")])
        label = classify_profile(d, 2)
        assert label.case is ClassCase.INCONCLUSIVE
        assert label.reason

    def test_defect_counts_read_from_runs(self, monkeypatch):
        # the reason counts both checks' defects from their runs: expanding
        # the 1,603,650 orientation rows would take about 200 MB
        d = generic_2partite_approx(ApproximantSpec(64, 2, seed=1))

        def refuse(runs):
            pytest.fail("defect runs expanded into rows")

        monkeypatch.setattr(genericity, "_expand", refuse)
        label = classify_profile(d, 3)
        assert label.case is ClassCase.INCONCLUSIVE
        assert label.reason == ("extension checks fail at level 3: 130 two-partite "
                                "defect(s), 1603650 orientation defect(s)")

    def test_mixed_perp_flag(self):
        # x1 sees every right vertex, x2 has a perp vertex: the profile a
        # homogeneous structure cannot have
        d = build(["x1", "x2"], ["y1", "y2"],
                  [("x1", "y1"), ("y2", "x1"), ("x2", "y2")])
        assert classify_profile(d, 1).evidence["mixed_perp_profile"]
        assert not classify_profile(matching_complement_pair(3), 1).evidence["mixed_perp_profile"]


class TestBipartiteReadsMatrix:
    def test_never_lists_edges(self, refuse_edges):
        generic = generic_bipartite_approx(ApproximantSpec(32, 1, seed=4), R2L)
        refuse_edges()
        assert classify_bipartite_graph(empty_digraph(3, 2)).subkind is BipartiteKind.EMPTY
        assert classify_bipartite_graph(empty_digraph(0, 0)).subkind is BipartiteKind.EMPTY
        assert (classify_bipartite_graph(matching_digraph(3, R2L)).subkind
                is BipartiteKind.PERFECT_MATCHING)
        assert classify_bipartite_graph(generic, 1).subkind is BipartiteKind.GENERIC
        assert classify_profile(generic, 1).subkind is BipartiteKind.GENERIC
        assert classify_exact(matching_digraph(3)).subkind is BipartiteKind.PERFECT_MATCHING


class TestEdgeDirection:
    def test_directions(self):
        assert edge_direction(matching_digraph(2)) is L2R
        assert edge_direction(matching_digraph(2, R2L)) is R2L
        assert edge_direction(empty_digraph(2, 2)) is None
        assert edge_direction(matching_complement_pair(2)) is None
