import json
import pickle
import random

import pytest
from hypothesis import given

from twopartite import (
    Side,
    build,
    from_json_text,
    to_dot,
    to_json_text,
)
from twopartite.catalog import (
    complete_bipartite_digraph,
    empty_digraph,
    matching_complement_pair,
    matching_digraph,
)
from twopartite.core import TwoPartiteDigraph, from_json_obj
from twopartite.errors import (
    DuplicateVertex,
    MalformedInput,
    SameSideEdge,
    SideOverlap,
    SymmetricEdgePair,
    UnknownEndpoint,
    UnknownVertex,
)

from conftest import digraphs, random_digraph


class TestBuild:
    def test_smallest_nonempty(self):
        d = build(["x1"], ["y1"], [("x1", "y1")])
        assert d.edges == (("x1", "y1"),)

    def test_symmetric_pair_rejected(self):
        with pytest.raises(SymmetricEdgePair):
            build(["x1"], ["y1"], [("x1", "y1"), ("y1", "x1")])

    def test_side_overlap(self):
        with pytest.raises(SideOverlap):
            build(["x1"], ["x1"], [])

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateVertex):
            build(["x1", "x1"], ["y1"], [])

    def test_same_side_edge(self):
        with pytest.raises(SameSideEdge):
            build(["x1", "x2"], ["y1"], [("x1", "x2")])

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEndpoint):
            build(["x1"], ["y1"], [("x1", "zz")])

    def test_unhashable_endpoint(self):
        for edge in ((["x1"], "y1"), ("x1", {"y": 1})):
            with pytest.raises(MalformedInput, match="unhashable"):
                build(["x1"], ["y1"], [edge])

    def test_edge_order_irrelevant(self):
        a = build(["x1", "x2"], ["y1"], [("x1", "y1"), ("y1", "x2")])
        b = build(["x1", "x2"], ["y1"], [("y1", "x2"), ("x1", "y1")])
        assert a == b

    def test_duplicate_edge_collapses(self):
        d = build(["x1"], ["y1"], [("x1", "y1"), ("x1", "y1")])
        assert len(d.edges) == 1

    def test_edge_order_is_the_sorted_order(self):
        # edges read from the matrix come out in the order of the earlier
        # sort by endpoint position (left ids first, then right ids)
        rng = random.Random(41)
        for _ in range(100):
            d = random_digraph(rng, max_side=6)
            edges = list(d.edges)
            rng.shuffle(edges)
            pos = {v: p for p, v in enumerate(d.vertices())}
            again = build(d.left, d.right, edges + edges[: len(edges) // 2])
            assert again.edges == tuple(sorted(edges, key=lambda e: (pos[e[0]], pos[e[1]])))
            assert again == d

    def test_errors_among_many_edges(self):
        left, right = ["x1", "x2", "x3"], ["y1", "y2"]
        fine = [("x1", "y1"), ("y2", "x1"), ("x1", "y1"), ("y1", "x3")]
        with pytest.raises(SymmetricEdgePair):
            build(left, right, fine + [("y1", "x1")])
        with pytest.raises(SymmetricEdgePair):
            build(left, right, fine + [("x1", "y2")])
        with pytest.raises(SameSideEdge):
            build(left, right, fine + [("y2", "y1")])
        with pytest.raises(UnknownEndpoint):
            build(left, right, fine + [("y2", "x9")])

    @given(digraphs())
    def test_stored_matrix_matches_edges(self, d):
        # every constructor stores the matrix and index maps that build
        # would compute from the structure's own edges
        keep = [v for v in d.vertices() if not v.endswith("2")]
        rename = {v: v.upper() for v in d.vertices() if v.endswith("1")}
        for s in (d, d.swap_sides(), d.induced(keep), d.relabel(rename),
                  d.underlying_bipartite()):
            fresh = build(s.left, s.right, s.edges)
            assert s.pair_states() == fresh.pair_states()
            assert s.pair_states() is s.matrix
            assert dict(s.row_of) == {x: i for i, x in enumerate(s.left)}
            assert dict(s.col_of) == {y: j for j, y in enumerate(s.right)}
            assert s.edges == fresh.edges and repr(s) == repr(fresh)


# Exception type and message of each invalid edge, through build and
# through the JSON reader, pinned on the build that checked every endpoint
# before placing an edge.
BAD_EDGES = [
    ("non-pair", [["x1", "y1", "y2"]], MalformedInput,
     "edge ('x1', 'y1', 'y2') is not a pair", "edges[0] must be a [src, dst] pair"),
    ("unknown u", [["z", "y1"]], UnknownEndpoint, "edge ('z', 'y1'): unknown endpoint 'z'", None),
    ("unknown v", [["x1", "z"]], UnknownEndpoint, "edge ('x1', 'z'): unknown endpoint 'z'", None),
    ("both unknown", [["z", "w"]], UnknownEndpoint,
     "edge ('z', 'w'): unknown endpoint 'z'", None),
    ("same side", [["x1", "x2"]], SameSideEdge,
     "edge ('x1', 'x2') joins vertices of the same side", None),
    ("same side right", [["y2", "y1"]], SameSideEdge,
     "edge ('y2', 'y1') joins vertices of the same side", None),
    ("unhashable u", [[["x1"], "y1"]], MalformedInput,
     "edge (['x1'], 'y1') has an unhashable endpoint", None),
    ("unhashable v", [["x1", ["y1"]]], MalformedInput,
     "edge ('x1', ['y1']) has an unhashable endpoint", None),
    ("right u, unhashable v", [["y1", ["x1"]]], MalformedInput,
     "edge ('y1', ['x1']) has an unhashable endpoint", None),
    ("unknown u, unhashable v", [["z", ["y1"]]], UnknownEndpoint,
     "edge ('z', ['y1']): unknown endpoint 'z'", None),
    ("symmetric", [["x1", "y1"], ["y1", "x1"]], SymmetricEdgePair,
     "both ('y1', 'x1') and ('x1', 'y1') supplied", None),
    ("symmetric right first", [["y2", "x2"], ["x2", "y2"]], SymmetricEdgePair,
     "both ('x2', 'y2') and ('y2', 'x2') supplied", None),
]


@pytest.mark.parametrize("edges,error,message,json_message",
                         [case[1:] for case in BAD_EDGES], ids=[case[0] for case in BAD_EDGES])
def test_bad_edge_errors_pinned(edges, error, message, json_message):
    left, right = ["x1", "x2"], ["y1", "y2"]
    with pytest.raises(error) as err:
        build(left, right, map(tuple, edges))
    assert type(err.value) is error and str(err.value) == message
    with pytest.raises(error) as err:
        from_json_obj({"x": left, "y": right, "edges": edges})
    assert type(err.value) is error and str(err.value) == (json_message or message)


class TestColumns:
    def test_transpose_of_the_matrix(self):
        rng = random.Random(15)
        for _ in range(100):
            d = random_digraph(rng, max_side=6, min_side=1)
            assert d.columns == tuple(zip(*d.matrix))
            assert len(d.columns) == len(d.right)

    @pytest.mark.parametrize("m,n", [(0, 0), (0, 3), (3, 0), (1, 0), (0, 1)])
    def test_empty_sides(self, m, n):
        d = empty_digraph(m, n)
        assert d.columns == ((),) * n
        if m:
            assert d.columns == tuple(zip(*d.matrix))

    def test_not_part_of_equality(self):
        rng = random.Random(16)
        d = random_digraph(rng, min_side=1)
        fresh = build(d.left, d.right, d.edges)
        d.columns
        assert d == fresh and hash(d) == hash(fresh)
        assert "columns" not in repr(d)


class TestLazyEdges:
    def test_order_matches_enumeration(self):
        rng = random.Random(11)
        for _ in range(60):
            d = random_digraph(rng)
            expected = [(x, y) for x in d.left for y in d.right if d.has_edge(x, y)]
            expected += [(y, x) for y in d.right for x in d.left if d.has_edge(y, x)]
            assert d.edges == tuple(expected)

    def test_equal_and_hash_equal_across_edge_orders(self):
        rng = random.Random(12)
        for _ in range(30):
            d = random_digraph(rng)
            edges = list(d.edges)
            rng.shuffle(edges)
            e = build(d.left, d.right, edges)
            assert e == d and hash(e) == hash(d)
            assert e.edges == d.edges

    def test_matrix_decides_equality(self):
        a = build(["x1"], ["y1"], [("x1", "y1")])
        assert a != build(["x1"], ["y1"], [("y1", "x1")])
        assert a != build(["x1"], ["y1"], [])
        assert a != build(["x1"], ["y2"], [("x1", "y2")])

    def test_repr_pinned(self):
        d = build(["x1", "x2"], ["y1", "y2"], [("y2", "x1"), ("x1", "y1"), ("y1", "x2")])
        assert repr(d) == ("TwoPartiteDigraph(left=('x1', 'x2'), right=('y1', 'y2'), "
                           "edges=(('x1', 'y1'), ('y1', 'x2'), ('y2', 'x1')))")
        assert repr(build([], [], [])) == "TwoPartiteDigraph(left=(), right=(), edges=())"

    def test_pickle_round_trip(self):
        rng = random.Random(13)
        for read_edges in (False, True):
            d = random_digraph(rng, min_side=1)
            if read_edges:
                d.edges
            copy = pickle.loads(pickle.dumps(d))
            assert copy == d and hash(copy) == hash(d)
            assert copy.edges == d.edges and copy.row_of == d.row_of
            assert copy.col_of == d.col_of

    def test_derived_structures_never_list_edges(self, refuse_edges):
        d = random_digraph(random.Random(14), min_side=2)
        refuse_edges()
        d.swap_sides().underlying_bipartite().induced(d.left[:1] + d.right[:1])
        d.relabel({d.left[0]: "renamed"})


class TestNeighbourhoods:
    def test_m2_out(self):
        m2 = matching_complement_pair(2)
        assert m2.out_neighbourhood("x1") == ("y1",)

    def test_m2_in(self):
        # complement edges run the other way, avoiding the matched partner
        m2 = matching_complement_pair(2)
        assert m2.in_neighbourhood("x1") == ("y2",)

    def test_empty_digraph(self):
        d = empty_digraph(2, 3)
        assert d.out_neighbourhood("x1") == ()
        assert d.in_neighbourhood("y2") == ()

    def test_complete_out(self):
        d = complete_bipartite_digraph(2, 3)
        assert d.out_neighbourhood("x1") == ("y1", "y2", "y3")

    def test_matching_in(self):
        d = matching_digraph(2)
        assert d.in_neighbourhood("y1") == ("x1",)

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            empty_digraph(1, 1).out_neighbourhood("zz")

    def test_perp_complete(self):
        d = complete_bipartite_digraph(2, 2)
        assert d.perp("x1") == ()

    def test_perp_empty(self):
        d = empty_digraph(1, 3)
        assert d.perp("x1") == ("y1", "y2", "y3")

    def test_perp_m3(self):
        m3 = matching_complement_pair(3)
        assert all(m3.perp(v) == () for v in m3.vertices())

    @given(digraphs())
    def test_partition_of_opposite_side(self, d):
        for v in d.vertices():
            out = set(d.out_neighbourhood(v))
            inn = set(d.in_neighbourhood(v))
            perp = set(d.perp(v))
            opposite = set(d.side(d.side_of(v).opposite))
            assert out | inn | perp == opposite
            assert not (out & inn) and not (out & perp) and not (inn & perp)


class TestDegreeProfile:
    def test_m4(self):
        prof = matching_complement_pair(4).degree_profile()
        assert all(prof[x] == (1, 3, 0) for x in ("x1", "x2", "x3", "x4"))
        assert all(prof[y] == (3, 1, 0) for y in ("y1", "y2", "y3", "y4"))

    def test_empty(self):
        prof = empty_digraph(1, 2).degree_profile()
        assert prof["x1"] == (0, 0, 2)

    def test_complete(self):
        prof = complete_bipartite_digraph(5, 5).degree_profile()
        assert prof["x1"] == (5, 0, 0)

    @given(digraphs())
    def test_sums_to_opposite_side(self, d):
        prof = d.degree_profile()
        for v in d.left:
            assert sum(prof[v]) == len(d.right)
        for v in d.right:
            assert sum(prof[v]) == len(d.left)


class TestInduced:
    def test_identity(self):
        m2 = matching_complement_pair(2)
        assert m2.induced(m2.vertices()) == m2

    def test_m2_single_edge(self):
        sub = matching_complement_pair(2).induced({"x1", "y1"})
        assert sub.edges == (("x1", "y1"),)

    def test_empty_selection(self):
        sub = matching_complement_pair(2).induced(set())
        assert sub.left == () and sub.right == () and sub.edges == ()

    def test_unknown(self):
        with pytest.raises(UnknownVertex):
            matching_complement_pair(2).induced({"zz"})

    @given(digraphs())
    def test_functorial(self, d):
        verts = d.vertices()
        big = [v for v in verts if not v.endswith("3")]
        small = [v for v in big if not v.endswith("2")]
        assert d.induced(big).induced(small) == d.induced(small)

    @given(digraphs())
    def test_commutes_with_underlying(self, d):
        keep = [v for v in d.vertices() if not v.endswith("1")]
        assert d.induced(keep).underlying_bipartite() == \
            d.underlying_bipartite().induced(keep)


class TestUnderlyingAndDirection:
    def test_matching_complement_pair_complete(self):
        g = matching_complement_pair(3).underlying_bipartite()
        assert g.first_nonadjacent_pair() is None

    def test_empty(self):
        assert empty_digraph(2, 2).underlying_bipartite().edges == ()

    def test_matching(self):
        g = matching_digraph(3).underlying_bipartite()
        assert len(g.edges) == 3
        assert all(out + inn == 1 for out, inn, _ in g.degree_profile().values())

    def test_one_direction(self):
        assert complete_bipartite_digraph(2, 2).is_bipartite_digraph()
        assert empty_digraph(2, 2).is_bipartite_digraph()
        assert not matching_complement_pair(2).is_bipartite_digraph()

    def test_underlying_bipartite_orients_left_to_right(self):
        g = matching_complement_pair(3).underlying_bipartite()
        assert g == complete_bipartite_digraph(3, 3)
        assert g.underlying_bipartite() == g

    @given(digraphs())
    def test_swap_involution(self, d):
        assert d.swap_sides().swap_sides() == d

    def test_swap_moves_sides(self):
        d = build(["x1"], ["y1"], [("y1", "x1")])
        s = d.swap_sides()
        assert s.left == ("y1",) and s.right == ("x1",)
        assert s.edges == (("y1", "x1"),)


class TestBipartiteGraph:
    def test_build_normalizes_endpoint_order(self):
        g1 = build(["x1"], ["y1"], [("y1", "x1")]).underlying_bipartite()
        g2 = build(["x1"], ["y1"], [("x1", "y1")]).underlying_bipartite()
        assert g1 == g2

    def test_neighbours(self):
        g = build(["x1", "x2"], ["y1"], [("y1", "x1")]).underlying_bipartite()
        assert g.in_neighbourhood("y1") == ("x1",)
        assert g.out_neighbourhood("x1") == ("y1",)
        assert g.out_neighbourhood("x2") == () and g.in_neighbourhood("x2") == ()

    def test_first_nonadjacent_pair(self):
        g = build(["x1", "x2"], ["y1", "y2"], [("x1", "y1"), ("y2", "x1"), ("y1", "x2")])
        assert g.first_nonadjacent_pair() == ("x2", "y2")
        assert matching_complement_pair(2).first_nonadjacent_pair() is None
        assert empty_digraph(0, 3).first_nonadjacent_pair() is None


class TestFileFormats:
    @given(digraphs())
    def test_json_round_trip(self, d):
        assert from_json_text(to_json_text(d)) == d

    def test_json_shape(self):
        obj = json.loads(to_json_text(matching_complement_pair(2)))
        assert set(obj) == {"x", "y", "edges"}
        assert obj["x"] == ["x1", "x2"]

    def test_json_positional_error(self):
        with pytest.raises(MalformedInput) as err:
            from_json_text('{"x": [}')
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("text", ["[" * 1000, "[" * 100_000, "[" * 5000 + "]" * 5000,
                                      '{"x": ' + "[" * 1000])
    def test_json_nested_too_deeply(self, text):
        with pytest.raises(MalformedInput, match="nested too deeply"):
            from_json_text(text)

    def test_json_text_of_bytes_not_utf8(self):
        # bytes that are not UTF-8, decoded as the file reader's escapes
        with pytest.raises(MalformedInput, match="line 1, column 1"):
            from_json_text(b"\xff\xfe".decode("utf-8", "surrogateescape"))

    def test_json_missing_field(self):
        with pytest.raises(MalformedInput) as err:
            from_json_text('{"x": [], "edges": []}')
        assert "'y'" in str(err.value)

    def test_json_bad_edge_record(self):
        with pytest.raises(MalformedInput) as err:
            from_json_text('{"x": ["a"], "y": ["b"], "edges": [["a"]]}')
        assert "edges[0]" in str(err.value)

    def test_validation_applies_on_read(self):
        with pytest.raises(SymmetricEdgePair):
            from_json_text('{"x": ["a"], "y": ["b"], "edges": [["a","b"],["b","a"]]}')

    def test_dot_output(self):
        dot = to_dot(build(["x1"], ["y1"], [("x1", "y1")]))
        assert '"x1" [shape=box];' in dot
        assert '"y1" [shape=ellipse];' in dot
        assert '"x1" -> "y1";' in dot


class TestRelabel:
    def test_relabel_keeps_structure(self):
        m2 = matching_complement_pair(2)
        r = m2.relabel({"x1": "a", "y2": "b"})
        assert r.left == ("a", "x2")
        assert ("y1", "x2") in r.edges
        assert ("b", "a") in r.edges
