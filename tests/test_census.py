import math
from collections import Counter
from itertools import product

import pytest

import twopartite.census as census_mod
from twopartite.catalog import Direction, empty_digraph, matching_complement_pair, matching_digraph
from twopartite.census import (
    CensusEntry,
    _burnside_count,
    _census_all,
    _line_symmetric_states,
    _structure,
    census_homogeneous,
    verify_classification,
)
from twopartite.classify import ClassCase, classify_exact
from twopartite.errors import AutGroupTooLarge, ValidationError
from twopartite.iso import (
    HomogeneityVerdict,
    _encode,
    automorphisms,
    canonical_form,
    is_homogeneous,
)

from conftest import (
    DESK_PAIRS,
    _classes,
    burnside_class_count,
    canonicalised_census,
    census_classes,
    enumerate_all,
    full_census,
    side_regular_census,
    side_regular_states,
)

L2R, R2L = Direction.LEFT_TO_RIGHT, Direction.RIGHT_TO_LEFT


class StateCounts(dict):
    """Memo: a line of pair states -> its count of each state."""

    def __missing__(self, line):
        counts = self[line] = (line.count(0), line.count(1), line.count(2))
        return counts


state_counts = StateCounts().__getitem__


def is_side_regular(rows):
    """Whether all rows have the same count of each pair state, and so
    do all columns."""
    return len(set(map(state_counts, rows))) <= 1 and \
        len(set(map(state_counts, zip(*rows)))) <= 1


def closed_under_permutations(lines):
    """Whether the multiset ``lines`` is closed under permuting the
    entries of a line: each line with given state counts is in it, and
    all of them equally often."""
    if not lines:
        return True
    size = len(lines[0])
    mult = Counter(lines)
    for counts in set(map(state_counts, mult)):
        group = [line for line in mult if state_counts(line) == counts]
        orbit = math.factorial(size) // math.prod(map(math.factorial, counts))
        if len(group) != orbit or len({mult[line] for line in group}) != 1:
            return False
    return True


def is_line_symmetric(rows):
    """Whether the columns are closed under permuting the rows, and the
    rows under permuting the columns."""
    rows = [tuple(r) for r in rows]
    return closed_under_permutations(list(zip(*rows))) and closed_under_permutations(rows)


def filtered_product_walk(m, n):
    """The side-regular row-major state vectors, by filtering every
    vector in lexicographic order (taken row by row, which is the same
    order)."""
    for rows in product(product((0, 1, 2), repeat=n), repeat=m):
        if is_side_regular(rows):
            yield sum(rows, ())


class TestEnumerateAll:
    @pytest.mark.parametrize("m,n", [(0, 0), (1, 1), (2, 1), (1, 3), (2, 2), (2, 3)])
    def test_class_count_matches_orbit_count(self, m, n):
        assert sum(1 for _ in enumerate_all(m, n)) == burnside_class_count(m, n)

    def test_one_one_has_three(self):
        assert sum(1 for _ in enumerate_all(1, 1)) == 3

    def test_zero_zero_has_one(self):
        assert sum(1 for _ in enumerate_all(0, 0)) == 1

    def test_no_duplicate_canonical_forms(self):
        forms = [canonical_form(d) for d in enumerate_all(2, 2)]
        assert len(forms) == len(set(forms))

    def test_negative_bounds_rejected(self):
        for m, n in ((-1, 2), (2, -1)):
            with pytest.raises(ValidationError, match="non-negative"):
                census_homogeneous(m, n)
            with pytest.raises(ValidationError, match="non-negative"):
                verify_classification(m, n)

    def test_orbit_stabilizer_audit(self):
        # sum of orbit sizes m!n!/|Aut| over classes recovers the
        # labelled count 3^(m*n)
        for (m, n) in [(1, 1), (2, 1), (2, 2)]:
            total = 0
            for d in enumerate_all(m, n):
                total += (math.factorial(m) * math.factorial(n)
                          // len(automorphisms(d)))
            assert total == 3 ** (m * n)


class TestCensus:
    def test_one_one_shape_all_homogeneous(self):
        entries = census_homogeneous(1, 1)
        one_one = [e for e in entries
                   if len(e.representative.left) == 1 and len(e.representative.right) == 1]
        assert len(one_one) == 3
        assert all(e.verdict.holds for e in entries)

    def test_two_two_includes_directed_4_cycle(self, census33):
        sizes = [e for e in census33 if e.label.case is ClassCase.MATCHING_COMPLEMENT]
        assert any(e.label.pair_size == 2 for e in sizes)
        m2 = next(e for e in sizes if e.label.pair_size == 2)
        assert m2.canonical == canonical_form(matching_complement_pair(2))

    def test_matchings_both_directions_distinct(self, census33):
        forms = {e.canonical for e in census33}
        a = canonical_form(matching_digraph(2))
        b = canonical_form(matching_digraph(2, R2L))
        assert a != b and a in forms and b in forms

    def test_entry_invariants(self, census33):
        for e in census33:
            assert e.verdict.holds
            fresh = classify_exact(e.representative)
            assert (fresh.case, fresh.subkind, fresh.direction, fresh.pair_size) == \
                (e.label.case, e.label.subkind, e.label.direction, e.label.pair_size)

    def test_matching_complement_pair_entries_shape(self, census33):
        for e in census33:
            if e.label.case is not ClassCase.MATCHING_COMPLEMENT:
                continue
            rep = e.representative
            on_left = set(rep.left)
            lr = sum(1 for (u, _) in rep.edges if u in on_left)
            rl = len(rep.edges) - lr
            assert len(rep.left) == len(rep.right)
            assert len(rep.left) in (lr, rl)

    def test_closed_under_side_swap(self, census33):
        forms = {e.canonical for e in census33}
        for e in census33:
            assert canonical_form(e.representative.swap_sides()) in forms

    def test_removed_keywords_are_type_errors(self):
        for call in (lambda: census_homogeneous(1, 1, jobs=1),
                     lambda: verify_classification(1, 1, jobs=1),
                     lambda: verify_classification(1, 1, census=[])):
            with pytest.raises(TypeError, match="jobs|census"):
                call()


class TestVerifyClassification:
    def test_two_by_two_passes(self):
        report = verify_classification(2, 2)
        assert report.ok
        assert report.classes_scanned == 47
        assert report.homogeneous_classes == 20

    def test_fault_injection_reported(self, monkeypatch):
        # a non-homogeneous entry is left out; one whose verdict wrongly
        # holds keeps its honest label, which must be flagged
        from twopartite import build
        bad = build(["x1", "x2"], ["y1"], [("x1", "y1")])
        honest = CensusEntry(canonical_form(bad), bad, is_homogeneous(bad), classify_exact(bad))
        forged = CensusEntry(canonical_form(bad), bad, HomogeneityVerdict(True),
                             classify_exact(bad))
        homogeneous = len(census_homogeneous(1, 1))
        census = _census_all(1, 1) + [honest, forged]
        monkeypatch.setattr(census_mod, "_census_all", lambda m, n: census)
        report = verify_classification(1, 1)
        assert not report.ok
        assert report.homogeneous_classes == homogeneous + 1
        assert {d.kind for d in report.discrepancies} == {"unexpected-label"}

    def test_missing_catalog_structure_reported(self, monkeypatch):
        census = [e for e in _census_all(2, 2)
                  if e.canonical != canonical_form(matching_complement_pair(2))]
        monkeypatch.setattr(census_mod, "_census_all", lambda m, n: census)
        report = verify_classification(2, 2)
        assert not report.ok
        assert any(d.kind == "catalog-missing" for d in report.discrepancies)


class TestSideRegularCensus:
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(13) for n in range(13)
                                     if m * n <= 12])
    def test_walk_is_the_filtered_product_walk(self, m, n):
        # order included: the census keeps each class's first vector
        assert list(side_regular_states(m, n)) == list(filtered_product_walk(m, n))

    @pytest.mark.parametrize("m,n", [(3, 3), (2, 4), (4, 4), (5, 5)])
    def test_walk_sizes(self, m, n):
        expected = {(3, 3): 51, (2, 4): 21, (4, 4): 1065, (5, 5): 106563}[m, n]
        assert sum(1 for _ in side_regular_states(m, n)) == expected

    @pytest.mark.parametrize("m,n", DESK_PAIRS)
    def test_classes_that_are_not_side_regular_fail_at_size_one(self, m, n):
        for d in census_classes(m, n):
            if not is_side_regular(d.pair_states()):
                assert is_homogeneous(d, 1).holds is False

    @pytest.mark.parametrize("bounds", [(3, 3), (2, 4)])
    def test_equals_the_full_census(self, bounds):
        expected = [e for e in full_census(*bounds) if e.verdict.holds]
        # entries compare by canonical form, representative, verdict and label
        assert census_homogeneous(*bounds) == expected

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(4) for n in range(4)])
    def test_burnside_count(self, m, n):
        count = _burnside_count(m, n)
        assert count == burnside_class_count(m, n) == len(census_classes(m, n))

    def test_burnside_count_beyond_the_budget(self):
        assert _burnside_count(3, 4) == _burnside_count(4, 3) == 5053
        assert _burnside_count(4, 4) == 90492
        assert burnside_class_count(3, 4) == 5053


# the side pairs with m*n <= 16 on which the walk's table of all 3^n rows
# stays small; 1x16 alone would tabulate 43 million rows
WALKABLE_PAIRS = [(m, n) for m in range(17) for n in range(11) if m * n <= 16]


class TestLineSymmetricCensus:
    @pytest.mark.parametrize("m,n", WALKABLE_PAIRS + [(5, 5)])
    def test_generator_is_the_filtered_walk(self, m, n):
        # order included: each class keeps the first vector the walk meets
        walked = [v for v in side_regular_states(m, n)
                  if is_line_symmetric([v[i * n:(i + 1) * n] for i in range(m)])]
        first = [sum(map(tuple, d.pair_states()), ()) for _, d in _classes(m, n, walked)]
        assert _line_symmetric_states(m, n) == first

    @pytest.mark.parametrize("m,n,count", [(6, 6, 9), (7, 7, 9), (8, 8, 9), (1, 16, 3),
                                           (16, 1, 3), (6, 10, 3), (12, 12, 9)])
    def test_beyond_the_walk(self, m, n, count):
        states = _line_symmetric_states(m, n)
        assert len(states) == count and states == sorted(set(states))
        for v in states:
            assert is_line_symmetric([v[i * n:(i + 1) * n] for i in range(m)])

    @pytest.mark.parametrize("m,n", DESK_PAIRS)
    def test_classes_that_are_not_line_symmetric_fail_on_a_side(self, m, n):
        # a whole side is a domain whose every permutation must extend
        for d in census_classes(m, n):
            if not is_line_symmetric(d.pair_states()):
                assert is_homogeneous(d, max(m, n)).holds is False

    def test_equals_the_side_regular_census(self):
        expected = [e for e in side_regular_census(4, 4) if e.verdict.holds]
        assert census_homogeneous(4, 4) == expected


class TestLeastVectorKeys:
    @pytest.mark.parametrize("bounds", [(6, 6), (5, 7), (7, 5), (4, 8), (8, 4), (3, 8),
                                        (8, 3), (2, 9), (9, 2), (1, 9), (9, 1)])
    def test_equals_the_canonicalised_census(self, bounds):
        expected = [e for e in canonicalised_census(*bounds) if e.verdict.holds]
        # entries compare by canonical form, representative, verdict and label
        assert census_homogeneous(*bounds) == expected

    def test_key_is_the_canonical_form(self):
        # a line-symmetric structure is side-regular, so colour refinement
        # leaves one colour per side and the least vector is canonical
        checked = 0
        for m, n in product(range(13), repeat=2):
            if min(m, n) <= 7:
                for v in _line_symmetric_states(m, n):
                    assert canonical_form(_structure(m, n, v)) == _encode(m, n, v), (m, n, v)
                    checked += 1
        assert checked == 415

    def test_census_computes_no_canonical_form(self, monkeypatch):
        def refuse(digraph):
            raise AssertionError("the census canonicalised a class")
        monkeypatch.setattr(census_mod, "canonical_form", refuse)
        # the homogeneous class count that ``verify --max-x 6 --max-y 6`` reports
        assert len(census_homogeneous(6, 6)) == 148


class TestAutomorphismCapBound:
    def test_refused_before_any_class_is_built(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the census built a class before refusing")
        monkeypatch.setattr(census_mod, "canonical_form", no_work)
        monkeypatch.setattr(census_mod, "classify_exact", no_work)
        for run in (lambda: census_homogeneous(7, 7), lambda: verify_classification(1, 10),
                    lambda: census_homogeneous(10 ** 9, 1)):
            with pytest.raises(AutGroupTooLarge):
                run()

    def test_refuses_exactly_what_the_decider_refuses(self, monkeypatch):
        # the empty structure on the largest sides has the largest group;
        # with no candidates the census does nothing past its bound
        monkeypatch.setattr(census_mod, "_line_symmetric_states", lambda m, n: [])
        for m, n in product(range(11), repeat=2):
            try:
                is_homogeneous(empty_digraph(m, n), 0)
            except AutGroupTooLarge:
                with pytest.raises(AutGroupTooLarge):
                    census_homogeneous(m, n)
            else:
                assert census_homogeneous(m, n) == [], (m, n)
