import random
from itertools import permutations

import pytest

from twopartite import build, iso
from twopartite.catalog import (
    complete_bipartite_digraph,
    empty_digraph,
    matching_complement_pair,
    matching_digraph,
    Direction,
)
from twopartite.census import enumerate_all
from twopartite.errors import AutGroupTooLarge, InvalidPartialMap, ValidationError
from twopartite.iso import (
    DEFAULT_AUT_CAP,
    PartialMap,
    _refined_colors,
    _search_maps,
    _search_tables,
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
    _classes,
    automorphism_maps,
    census_classes,
    cycle_structure,
    lexmin_canonical_form,
    naive_automorphisms,
    naive_homogeneous,
    pairwise_search_maps,
    random_digraph,
    search_homogeneous,
    shuffled_copy,
    side_regular_states,
    two_sided_refined_colors,
    walk_homogeneous,
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
        for _, d in _classes(4, 4, side_regular_states(4, 4)):
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
        one, two = cycle_structure((5,), directed), cycle_structure((2, 3), directed)
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


# -- the signature search and the counting decider against their oracles -----

def _random_partial_isos(d1, d2, rng, count: int):
    """Up to ``count`` valid partial isomorphisms d1 -> d2 on random
    domains, drawn as random side-preserving injections; some extend,
    some do not."""
    found = []
    for _ in range(20 * count):
        if len(found) == count:
            break
        mapping = {}
        for src, dst in ((d1.left, d2.left), (d1.right, d2.right)):
            size = rng.randint(0, len(src))
            mapping.update(zip(rng.sample(src, size), rng.sample(dst, size)))
        if mapping and is_valid_partial_iso(d1, d2, PartialMap.from_dict(mapping)):
            found.append(mapping)
    return found


def _shaped_digraph(rng, m, n):
    """A random structure on sides of size m and n, mostly non-adjacent,
    so that equal lines, and with them larger automorphism groups, are
    common."""
    left = [f"x{i}" for i in range(m)]
    right = [f"y{j}" for j in range(n)]
    edges = []
    for x in left:
        for y in right:
            state = rng.choice((0, 0, 0, 1, 2))
            if state:
                edges.append((x, y) if state == 1 else (y, x))
    return build(left, right, edges)


SIDE_REGULAR_4X4 = [d for _, d in _classes(4, 4, side_regular_states(4, 4))]
# colour refinement gives every vertex one colour, so only the search tells
CYCLE_PAIRS = [(cycle_structure((k,), directed), cycle_structure(split, directed))
               for k, split in ((5, (2, 3)), (6, (2, 4)), (6, (3, 3)))
               for directed in (False, True)]


class TestRefinedColours:
    """``_refined_colors`` gives the colour values, not only the classes, of
    the refinement that spelled out each side: ``TP1`` encodings sort
    classes by those values."""

    @pytest.mark.parametrize("m,n", DESK_PAIRS)
    def test_every_small_class(self, m, n):
        for d in census_classes(m, n):
            assert _refined_colors(d) == two_sided_refined_colors(d)

    def test_seeded_random_structures(self):
        rng = random.Random(68)
        for _ in range(200):
            d = shuffled_copy(random_digraph(rng, max_side=6), rng)
            assert _refined_colors(d) == two_sided_refined_colors(d)

    @pytest.mark.parametrize("one,two", CYCLE_PAIRS)
    def test_cycles(self, one, two):
        for d in (one, two):
            assert _refined_colors(d) == two_sided_refined_colors(d)

    @pytest.mark.parametrize("m,n", [(0, 0), (0, 1), (0, 4), (1, 0), (4, 0)])
    def test_empty_sides(self, m, n):
        for d in (empty_digraph(m, n), complete_bipartite_digraph(m, n)):
            assert _refined_colors(d) == two_sided_refined_colors(d)


def _same_maps(d1, d2, initial=None):
    for limit in (None, 1, 2):
        ours = list(_search_maps(_search_tables(d1), _search_tables(d2),
                                 dict(initial or {}), limit))
        assert ours == list(pairwise_search_maps(d1, d2, dict(initial or {}), limit))


class TestSignatureSearch:
    """``_search_maps`` yields the maps of the pairwise search, in its order."""

    @pytest.mark.parametrize("m,n", DESK_PAIRS)
    def test_every_small_class(self, m, n):
        rng = random.Random(m * 10 + n)
        for d in census_classes(m, n):
            _same_maps(d, d)
            for initial in _random_partial_isos(d, d, rng, 2):
                _same_maps(d, d, initial)

    def test_side_regular_four_by_four_classes(self):
        assert len(SIDE_REGULAR_4X4) == 21
        rng = random.Random(44)
        for d in SIDE_REGULAR_4X4:
            other = shuffled_copy(d, rng)
            _same_maps(d, d)
            _same_maps(d, other)
            for initial in _random_partial_isos(d, other, rng, 3):
                _same_maps(d, other, initial)

    def test_seeded_random_structures(self):
        rng = random.Random(66)
        for _ in range(200):
            d = shuffled_copy(random_digraph(rng, max_side=6), rng)
            other = shuffled_copy(d, rng)
            _same_maps(d, d)
            _same_maps(d, other)
            _same_maps(other, random_digraph(rng, max_side=6))
            for initial in _random_partial_isos(d, other, rng, 2):
                _same_maps(d, other, initial)

    @pytest.mark.parametrize("one,two", CYCLE_PAIRS)
    def test_cycles_colour_refinement_cannot_split(self, one, two):
        rng = random.Random(len(one.left))
        _same_maps(one, two)
        _same_maps(one, shuffled_copy(one, rng))
        _same_maps(two, two)
        for initial in _random_partial_isos(one, one, rng, 3):
            _same_maps(one, one, initial)


class TestCountingDecider:
    """``is_homogeneous`` gives the verdicts and counterexamples of the
    deciders that listed the group: the one that walked every valid
    image and the one that searched once per candidate map.  The order
    of its stabiliser chain is the number of automorphisms."""

    @staticmethod
    def _agree(d):
        for k in (None, 1, 2, 3):
            verdict = is_homogeneous(d, k)
            assert verdict == walk_homogeneous(d, k), k
            # orbit-reduced at every size, which keeps 6x6 inputs quick
            assert verdict == search_homogeneous(d, k, orbit_threshold=0), k
        # k = 0 checks no domain, so only the group order can raise
        order = len(automorphisms(d))
        assert is_homogeneous(d, 0, aut_cap=order).holds
        with pytest.raises(AutGroupTooLarge):
            is_homogeneous(d, 0, aut_cap=order - 1)

    @pytest.mark.parametrize("m,n", DESK_PAIRS)
    def test_every_small_class(self, m, n):
        for d in census_classes(m, n):
            self._agree(d)

    def test_passing_structures_walk_no_image(self, monkeypatch):
        # only a failing domain walks its images; on a 9x1 structure that
        # walk would be up to 9! ordered left images
        def walked(*args):
            raise AssertionError("the decider walked the images of a passing domain")
        monkeypatch.setattr(iso, "permutations", walked)
        for d in (empty_digraph(9, 1), empty_digraph(1, 9), complete_bipartite_digraph(8, 2),
                  complete_bipartite_digraph(2, 8), matching_digraph(4), matching_digraph(8)):
            assert is_homogeneous(d).holds

    @pytest.mark.parametrize("m,n", [(9, 1), (8, 2), (2, 7), (7, 2)])
    def test_tall_and_wide_structures(self, m, n):
        rng = random.Random(m * 10 + n)
        for _ in range(3):
            self._agree(shuffled_copy(_shaped_digraph(rng, m, n), rng))
        # the one-direction structures: their groups, m!n!, are too large
        # for the deciders that listed them, except at 2x7 and 7x2
        assert is_homogeneous(complete_bipartite_digraph(m, n, R2L)).holds
        if m * n == 14:
            self._agree(empty_digraph(m, n))
        else:
            assert is_homogeneous(empty_digraph(m, n)).holds

    def test_side_regular_four_by_four_classes(self):
        for d in SIDE_REGULAR_4X4:
            self._agree(d)

    def test_seeded_random_structures(self):
        rng = random.Random(67)
        for _ in range(200):
            self._agree(shuffled_copy(random_digraph(rng, max_side=6), rng))

    @pytest.mark.parametrize("one,two", CYCLE_PAIRS)
    def testcycle_structure(self, one, two):
        self._agree(one)
        self._agree(two)

    def test_group_is_never_listed(self, monkeypatch):
        def listed(*args, **kwargs):
            raise AssertionError("the decider listed the automorphism group")
        monkeypatch.setattr(iso._StabiliserChain, "maps", listed)
        monkeypatch.setattr(iso, "automorphisms", listed)
        assert is_homogeneous(empty_digraph(6, 6)).holds
        assert is_homogeneous(matching_digraph(5)).holds


def paley_type(p: int):
    """The two-state Paley-type 2-partite structure on Z_p and Z_p: the
    pair (x_i, y_j) is an edge x_i -> y_j when i + j is 0 or a quadratic
    residue mod p, and y_j -> x_i otherwise."""
    residues = {i * i % p for i in range(p)}
    left, right = [f"x{i}" for i in range(p)], [f"y{j}" for j in range(p)]
    return build(left, right, [(x, y) if (i + j) % p in residues else (y, x)
                               for i, x in enumerate(left) for j, y in enumerate(right)])


class TestChainListing:
    """``automorphisms`` lists the group from the stabiliser chain, in the
    order of one full map search (the ``automorphism_maps`` oracle):
    lexicographic in the images of the vertices in stored order.  The
    chain's order is checked against the cap before any map is listed."""

    @staticmethod
    def _agree(d):
        ids = sorted(d.vertices())
        expected = [tuple((v, g[v]) for v in ids)
                    for g in automorphism_maps(d, DEFAULT_AUT_CAP)]
        assert [a.pairs for a in automorphisms(d)] == expected
        order = len(expected)
        assert len(automorphisms(d, cap=order)) == order
        with pytest.raises(AutGroupTooLarge):
            automorphisms(d, cap=order - 1)

    @pytest.mark.parametrize("m,n", DESK_PAIRS)
    def test_every_small_class(self, m, n):
        for d in census_classes(m, n):
            self._agree(d)

    def test_seeded_random_structures(self):
        rng = random.Random(71)
        for _ in range(200):
            self._agree(shuffled_copy(random_digraph(rng, max_side=6), rng))

    @pytest.mark.parametrize("one,two", CYCLE_PAIRS)
    def test_cycle_structures(self, one, two):
        self._agree(one)
        self._agree(two)

    def test_paley_type_nineteen(self):
        d = paley_type(19)
        # x -> a x + b, y -> a y - b for a quadratic residue a
        assert len(automorphisms(d)) == 19 * 9
        self._agree(d)
        self._agree(shuffled_copy(d, random.Random(19)))

    def test_cap_is_checked_before_listing(self, monkeypatch):
        def listed(*args, **kwargs):
            raise AssertionError("the group was listed past the cap")
        monkeypatch.setattr(iso._StabiliserChain, "maps", listed)
        with pytest.raises(AutGroupTooLarge):
            automorphisms(matching_digraph(5), cap=5 * 4 * 3 * 2 - 1)
        with pytest.raises(AutGroupTooLarge):
            automorphisms(empty_digraph(7, 7))


class TestLargeCyclePairs:
    """10x10 cycle pairs that colour refinement cannot split: without
    cuts the search would try every one of the 10! left orders."""

    def test_twenty_cycle_against_eight_plus_twelve(self):
        assert are_isomorphic(cycle_structure((10,), False), cycle_structure((4, 6), False)) is None

    def test_relabelled_twenty_cycle(self):
        one = cycle_structure((10,), False)
        two = shuffled_copy(one, random.Random(20))
        pmap = are_isomorphic(one, two)
        assert pmap is not None and len(pmap) == 20
        assert is_valid_partial_iso(one, two, pmap)

    def test_extension_agrees_with_pairwise_search(self):
        # left-side maps: the pairwise search then only places right vertices
        d = cycle_structure((10,), False)
        ring = sorted(d.left, key=lambda v: int(v.split("_")[1]))
        maps = [dict(zip(ring, ring[3:] + ring[:3])),        # a rotation
                dict(zip(ring, ring[::-1])),                 # a reflection
                dict(zip(ring, ring[1:2] + ring[:1] + ring[2:]))]  # a transposition
        verdicts = []
        for mapping in maps:
            expected = any(True for _ in pairwise_search_maps(d, d, mapping, limit=1))
            verdicts.append(extends_to_automorphism(d, PartialMap.from_dict(mapping)))
            assert verdicts[-1] == expected
        assert verdicts == [True, True, False]
