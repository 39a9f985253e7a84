import random
from itertools import permutations

import pytest

from twopartite import build
from twopartite.catalog import (
    complete_bipartite_digraph,
    empty_digraph,
    matching_complement_pair,
    matching_digraph,
    Direction,
)
from twopartite.census import _classes, _side_regular_states, enumerate_all
from twopartite.errors import AutGroupTooLarge, InvalidPartialMap, ValidationError
from twopartite.iso import (
    PartialMap,
    are_isomorphic,
    automorphisms,
    canonical_form,
    extends_to_automorphism,
    is_homogeneous,
    is_homogeneous_bipartite,
    is_valid_partial_iso,
)

from conftest import (
    DESK_PAIRS,
    census_classes,
    lexmin_canonical_form,
    naive_automorphisms,
    naive_homogeneous,
    random_digraph,
    search_homogeneous,
)

R2L = Direction.RIGHT_TO_LEFT

FOUR_CYCLE = build(["a", "c"], ["b", "d"],
                   [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


class TestCanonicalForm:
    def test_relabel_invariant(self):
        m3 = matching_complement_pair(3)
        relabeled = m3.relabel({"x1": "p", "x2": "q", "y3": "r"})
        assert canonical_form(m3) == canonical_form(relabeled)

    def test_three_one_by_one_classes(self):
        forms = {
            canonical_form(build(["x1"], ["y1"], [])),
            canonical_form(build(["x1"], ["y1"], [("x1", "y1")])),
            canonical_form(build(["x1"], ["y1"], [("y1", "x1")])),
        }
        assert len(forms) == 3

    def test_m2_is_the_directed_4_cycle(self):
        assert canonical_form(matching_complement_pair(2)) == canonical_form(FOUR_CYCLE)

    def test_agrees_with_iso_search_exhaustively(self):
        # complete cross-check over every class with sides up to 2
        reps = []
        for m in (1, 2):
            for n in (1, 2):
                reps.extend(enumerate_all(m, n))
        for d1 in reps:
            for d2 in reps:
                same = canonical_form(d1) == canonical_form(d2)
                assert same == (are_isomorphic(d1, d2) is not None)

    def test_random_relabel_invariance(self):
        rng = random.Random(5)
        for _ in range(25):
            d = random_digraph(rng, max_side=4)
            names = list(d.vertices())
            shuffled = names[:]
            rng.shuffle(shuffled)
            relabeled = d.relabel(dict(zip(names, ("t" + s for s in shuffled))))
            assert canonical_form(d) == canonical_form(relabeled)


class TestSortedColumnCanonicalForm:
    """The sorted-column form against ``lexmin_canonical_form``, which
    tries every pair of side orderings."""

    @pytest.mark.parametrize("m,n", DESK_PAIRS)
    def test_every_small_class(self, m, n):
        for d in census_classes(m, n):
            assert canonical_form(d) == lexmin_canonical_form(d)

    def test_side_regular_four_by_four_classes(self):
        for _, d in _classes(4, 4, _side_regular_states(4, 4)):
            assert canonical_form(d) == lexmin_canonical_form(d)

    def test_seeded_random_structures(self):
        rng = random.Random(11)
        for _ in range(320):
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            # shuffled ids: stored order is not id order
            left = [f"x{k}" for k in rng.sample(range(20), m)]
            right = [f"y{k}" for k in rng.sample(range(20), n)]
            # varied densities, from one state throughout to an even mix
            weights = [rng.choice((0, 1, 3, 10)) for _ in range(3)]
            if not any(weights):
                weights[0] = 1
            edges = []
            for x in left:
                for y in right:
                    s = rng.choices((0, 1, 2), weights)[0]
                    if s == 1:
                        edges.append((x, y))
                    elif s == 2:
                        edges.append((y, x))
            d = build(left, right, edges)
            assert canonical_form(d) == lexmin_canonical_form(d), (left, right, edges)


    @pytest.mark.parametrize("directed", [False, True])
    def test_colour_refinement_leaves_one_class_per_side(self, directed):
        # two cycles of lengths 4 and 6 against one of length 10: every
        # vertex keeps one colour, so the orderings alone decide
        def cycles(lengths):
            left, right, edges = [], [], []
            for c, k in enumerate(lengths):
                xs = [f"x{c}_{i}" for i in range(k)]
                ys = [f"y{c}_{i}" for i in range(k)]
                left += xs
                right += ys
                for i in range(k):
                    edges.append((xs[i], ys[i]))
                    edges.append((ys[(i + 1) % k], xs[i]) if directed
                                 else (xs[i], ys[(i + 1) % k]))
            rng = random.Random(len(lengths))
            rng.shuffle(left)
            rng.shuffle(right)
            return build(left, right, edges)

        one, two = cycles((5,)), cycles((2, 3))
        for d in (one, two, two.swap_sides()):
            assert canonical_form(d) == lexmin_canonical_form(d)
        assert canonical_form(one) != canonical_form(two)


class TestAreIsomorphic:
    def test_self(self):
        m3 = matching_complement_pair(3)
        pm = are_isomorphic(m3, m3)
        assert pm is not None and is_valid_partial_iso(m3, m3, pm)

    def test_reversed_matchings_differ(self):
        # sides are fixed, so reversing every edge is not absorbable
        a = matching_digraph(2)
        b = matching_digraph(2, R2L)
        assert are_isomorphic(a, b) is None
        # confirmed by the 4 side-preserving bijections directly
        eset_a, eset_b = set(a.edges), set(b.edges)
        for pl in permutations(a.left):
            for pr in permutations(a.right):
                phi = dict(zip(a.left, pl))
                phi.update(zip(a.right, pr))
                assert any(((u, v) in eset_a) != ((phi[u], phi[v]) in eset_b)
                           for u in phi for v in phi if u != v)

    def test_m2_vs_four_cycle(self):
        pm = are_isomorphic(matching_complement_pair(2), FOUR_CYCLE)
        assert pm is not None
        assert is_valid_partial_iso(matching_complement_pair(2), FOUR_CYCLE, pm)

    def test_equivalence_properties(self):
        rng = random.Random(9)
        d1 = random_digraph(rng, max_side=3)
        relabeled = d1.relabel({v: "z" + v for v in d1.vertices()})
        fwd = are_isomorphic(d1, relabeled)
        back = are_isomorphic(relabeled, d1)
        assert fwd is not None and back is not None
        assert is_valid_partial_iso(relabeled, d1, fwd.inverse())
        assert fwd.compose(back).is_identity()


class TestAutomorphisms:
    def test_empty_two_one(self):
        assert len(automorphisms(empty_digraph(2, 1))) == 2

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 6), (4, 24)])
    def test_matching_group_order(self, n, count):
        assert len(automorphisms(matching_digraph(n))) == count

    def test_single_edge_rigid(self):
        assert len(automorphisms(build(["x1"], ["y1"], [("x1", "y1")]))) == 1

    def test_matches_naive_filter(self):
        rng = random.Random(31)
        for _ in range(10):
            d = random_digraph(rng, max_side=3)
            ours = {tuple(sorted(p.pairs)) for p in automorphisms(d)}
            naive = {tuple(sorted(a.items())) for a in naive_automorphisms(d)}
            assert ours == naive

    def test_group_laws(self):
        d = matching_complement_pair(3)
        auts = automorphisms(d)
        as_sets = {a.pairs for a in auts}
        assert any(a.is_identity() for a in auts)
        for a in auts:
            assert a.inverse().pairs in as_sets
            for b in auts:
                assert a.compose(b).pairs in as_sets

    def test_cap(self):
        with pytest.raises(AutGroupTooLarge):
            automorphisms(empty_digraph(4, 4), cap=100)
        assert len(automorphisms(empty_digraph(2, 2), cap=4)) == 4

    def test_negative_cap_rejected(self):
        with pytest.raises(ValidationError):
            automorphisms(matching_digraph(2), cap=-1)


class TestExtendsToAutomorphism:
    def test_identity_restriction(self):
        m3 = matching_complement_pair(3)
        assert extends_to_automorphism(m3, PartialMap.from_dict({"x2": "x2"}))

    def test_matching_swap(self):
        d = matching_digraph(2)
        assert extends_to_automorphism(d, PartialMap.from_dict({"x1": "x2"}))

    def test_degree_mismatch(self):
        d = build(["x1", "x2"], ["y1"], [("x1", "y1")])
        assert not extends_to_automorphism(d, PartialMap.from_dict({"x1": "x2"}))

    def test_invalid_map_rejected(self):
        d = matching_digraph(2)
        with pytest.raises(InvalidPartialMap):
            extends_to_automorphism(d, PartialMap.from_dict({"x1": "y1"}))


class TestHomogeneity:
    def test_m2_holds(self):
        assert is_homogeneous(matching_complement_pair(2)).holds

    def test_complete_holds(self):
        assert is_homogeneous(complete_bipartite_digraph(3, 3)).holds

    def test_mixed_profile_fails_with_counterexample(self):
        d = build(["x1", "x2"], ["y1", "y2"],
                  [("x1", "y1"), ("x1", "y2"), ("x2", "y1"), ("y2", "x2")])
        verdict = is_homogeneous(d)
        assert not verdict.holds
        cex = verdict.counterexample
        assert cex is not None
        assert is_valid_partial_iso(d, d, cex)
        assert not extends_to_automorphism(d, cex)

    def test_counterexample_is_smallest(self):
        d = build(["x1", "x2"], ["y1"], [("x1", "y1")])
        verdict = is_homogeneous(d)
        assert not verdict.holds and len(verdict.counterexample) == 1

    def test_matches_naive_oracle_exhaustively_2x2(self):
        for d in enumerate_all(2, 2):
            assert is_homogeneous(d).holds == naive_homogeneous(d)

    def test_matches_naive_oracle_random(self):
        rng = random.Random(77)
        for _ in range(12):
            d = random_digraph(rng, max_side=3, min_side=1)
            assert is_homogeneous(d).holds == naive_homogeneous(d)

    def test_isomorphism_invariant(self):
        rng = random.Random(13)
        for _ in range(8):
            d = random_digraph(rng, max_side=3)
            relabeled = d.relabel({v: "q" + v for v in d.vertices()})
            assert is_homogeneous(d).holds == is_homogeneous(relabeled).holds

    def test_size_bound_monotone(self):
        d = build(["x1", "x2"], ["y1"], [("x1", "y1")])
        ks = [k for k in range(1, 4) if not is_homogeneous(d, k).holds]
        assert ks == list(range(min(ks), 4))

    def test_matches_per_map_search(self, census33):
        # verdicts and counterexamples, unbounded and k-bounded, against the
        # decider that ran one completion search per candidate map
        structures = [e.representative for e in census33] + list(enumerate_all(2, 4))
        rng = random.Random(55)
        structures += [random_digraph(rng, max_side=3, min_side=1) for _ in range(30)]
        for d in structures:
            assert is_homogeneous(d) == search_homogeneous(d)
        for d in structures[-10:]:
            for k in range(len(d.vertices()) + 1):
                verdict = is_homogeneous(d, k)
                assert verdict == search_homogeneous(d, k)
                assert verdict == search_homogeneous(d, k, orbit_threshold=0)

    def test_empty_structure_vacuous(self):
        assert is_homogeneous(empty_digraph(0, 0)).holds

    def test_orbit_reduction_propagates_group_cap(self):
        # the group is enumerated before any domain is checked, at every
        # size, so a cap below its order surfaces
        with pytest.raises(AutGroupTooLarge):
            is_homogeneous(empty_digraph(5, 5), aut_cap=100)
        with pytest.raises(AutGroupTooLarge):
            is_homogeneous(empty_digraph(2, 2), aut_cap=1)

    def test_negative_arguments_rejected(self):
        d = matching_digraph(2)
        with pytest.raises(ValidationError):
            is_homogeneous(d, -1)
        with pytest.raises(ValidationError):
            is_homogeneous(d, aut_cap=-1)


class TestUndirectedHomogeneity:
    def test_agrees_with_direction_transfer_small(self):
        # one-direction structures decide like their underlying graphs
        for d in enumerate_all(2, 2):
            if not d.is_bipartite_digraph():
                continue
            assert (is_homogeneous(d).holds
                    == is_homogeneous_bipartite(d.underlying_bipartite()).holds)
