import hashlib
import random

import pytest

from twopartite import genericity
from twopartite.catalog import (
    ApproximantSpec,
    Direction,
    complete_bipartite_digraph,
    empty_digraph,
    generic_2partite_approx,
    generic_bipartite_approx,
    generic_orientation_approx,
    matching_complement_pair,
    witness_closure,
)
from twopartite.core import Side, build, to_json_text
from twopartite.errors import (
    ApproximantNotFound,
    CapExceeded,
    InvalidRequirement,
    ValidationError,
)
from twopartite.genericity import (
    Mode,
    achieved_level,
    brute_witness_scan,
    check_generic_2partite,
    check_generic_bipartite,
    check_generic_orientation,
    first_defect,
    iter_requirements,
    requirement,
)

from conftest import (
    defect_row,
    materialized_defects,
    naive_witness,
    random_digraph,
    requirement_sort_key,
    unrolled_scan,
)


class TestWitnessScan:
    def test_vacuous_requirement(self):
        d = matching_complement_pair(3)
        assert brute_witness_scan(d, requirement(Side.LEFT)) == "y1"

    def test_m5_two_predecessors_impossible(self):
        # in the matching direction every right vertex has exactly one
        # in-neighbour, so a two-element b-demand has no witness
        d = matching_complement_pair(5)
        req = requirement(Side.LEFT, b={"x1", "x2"})
        assert brute_witness_scan(d, req) is None
        assert naive_witness(d, req) is None

    def test_complete_demand(self):
        d = complete_bipartite_digraph(2, 2)
        assert brute_witness_scan(d, requirement(Side.RIGHT, a={"y1"})) == "x1"

    def test_exclude(self):
        d = complete_bipartite_digraph(2, 2)
        req = requirement(Side.RIGHT, a={"y1"})
        assert brute_witness_scan(d, req, exclude={"x1"}) == "x2"
        assert brute_witness_scan(d, req, exclude={"x1", "x2"}) is None

    def test_undirected_scan(self):
        # BIPARTITE mode reads adjacency in either direction
        d = build(["x1", "x2"], ["y1", "y2"], [("y1", "x1"), ("x1", "y2"), ("x2", "y1")])
        assert naive_witness(d, requirement(Side.LEFT, a={"x1"}), Mode.BIPARTITE) == "y1"
        assert naive_witness(d, requirement(Side.LEFT, c={"x1"}), Mode.BIPARTITE) is None
        assert first_defect(d, 1, Mode.BIPARTITE) == requirement(Side.LEFT, c={"x1"})

    def test_unknown_vertices_rejected(self):
        with pytest.raises(InvalidRequirement):
            brute_witness_scan(matching_complement_pair(2), requirement(Side.LEFT, a={"zz"}))

    def test_overlapping_sets_rejected(self):
        with pytest.raises(InvalidRequirement):
            requirement(Side.LEFT, a={"x1"}, b={"x1"})

    def test_matches_naive_scan(self):
        rng = random.Random(4)
        for _ in range(20):
            d = random_digraph(rng, max_side=6)
            for req in iter_requirements(d.left, d.right, 2, Mode.ORIENTATION):
                assert brute_witness_scan(d, req) == naive_witness(d, req)


class TestIterRequirements:
    def test_counts(self):
        left = ("x1", "x2", "x3")
        right = ("y1", "y2")
        # orientation mode, level 2: per side sum over sizes of
        # C(p,1)*3 and C(p,2)*9 plus the empty requirement
        n_left = 1 + 3 * 3 + 3 * 9
        n_right = 1 + 2 * 3 + 1 * 9
        got = list(iter_requirements(left, right, 2, Mode.ORIENTATION))
        assert len(got) == n_left + n_right

    def test_mode_restrictions(self):
        left, right = ("x1",), ("y1",)
        for req in iter_requirements(left, right, 1, Mode.TWO_PARTITE):
            assert not req.c
        for req in iter_requirements(left, right, 1, Mode.BIPARTITE):
            assert not req.b

    def test_deterministic(self):
        left, right = ("x1", "x2"), ("y1",)
        a = list(iter_requirements(left, right, 2, Mode.ORIENTATION))
        b = list(iter_requirements(left, right, 2, Mode.ORIENTATION))
        assert a == b


class TestTwoPartiteCheck:
    def test_m5_level1_holds(self):
        assert check_generic_2partite(matching_complement_pair(5), 1).holds

    def test_m5_level2_defect_shape(self):
        report = check_generic_2partite(matching_complement_pair(5), 2)
        assert not report.holds
        first = report.defects[0]
        assert first.side is Side.LEFT and not first.a and len(first.b) == 2

    def test_structural_defect(self):
        report = check_generic_2partite(empty_digraph(2, 2), 0)
        assert not report.holds
        assert report.nonadjacent == ("x1", "y1")
        assert report.defects == ()

    def test_level0_vacuous(self):
        assert check_generic_2partite(matching_complement_pair(2), 0).holds

    def test_holds_implies_empty_perp(self):
        d = generic_2partite_approx(ApproximantSpec(16, 1, seed=2))
        assert check_generic_2partite(d, 1).holds
        assert all(p[2] == 0 for p in d.degree_profile().values())


class TestOrientationCheck:
    def test_level0_nonempty_sides(self):
        assert check_generic_orientation(empty_digraph(1, 1), 0).holds

    def test_level0_empty_side_fails(self):
        assert not check_generic_orientation(empty_digraph(2, 0), 0).holds

    def test_complete_level1_defect(self):
        report = check_generic_orientation(complete_bipartite_digraph(3, 3), 1)
        assert not report.holds
        assert any(d.side is Side.LEFT and len(d.a) == 1 for d in report.defects)

    def test_built_approximant_passes(self):
        d = generic_orientation_approx(ApproximantSpec(32, 1, seed=6))
        assert check_generic_orientation(d, 1).holds


class TestBipartiteCheck:
    def test_level0(self):
        g = empty_digraph(1, 1).underlying_bipartite()
        assert check_generic_bipartite(g, 0).holds

    def test_complete_misses_nonneighbour(self):
        g = complete_bipartite_digraph(3, 3).underlying_bipartite()
        report = check_generic_bipartite(g, 1)
        assert not report.holds
        assert all(not d.a and len(d.c) == 1 for d in report.defects)

    def test_reads_adjacency_of_any_digraph(self):
        # a two-direction digraph gets the report of its underlying graph,
        # and the defects are the requirements no vertex adjacent in either
        # direction witnesses
        rng = random.Random(61)
        for _ in range(60):
            d = random_digraph(rng, max_side=5)
            for level in (1, 2):
                report = check_generic_bipartite(d, level)
                assert report == check_generic_bipartite(d.underlying_bipartite(), level)
                want = {req for req in iter_requirements(d.left, d.right, level, Mode.BIPARTITE)
                        if naive_witness(d, req, Mode.BIPARTITE) is None}
                assert set(report.defects) == want

    def test_kernel_tables_are_adjacency_tables(self):
        # the a slot is adjacency in either direction and the c slot its
        # complement, for rows and for the opposite side's columns alike
        rng = random.Random(300)
        for _ in range(300):
            d = random_digraph(rng, max_side=6)
            tables = genericity._digraph_tables_by_side(d)
            for side in (Side.LEFT, Side.RIGHT):
                pool, wit, rows, cols = genericity._kernel_tables(tables, side, Mode.BIPARTITE)
                for elements, witnesses, (adjacent, apart) in ((pool, wit, rows), (wit, pool, cols)):
                    for i, v in enumerate(elements):
                        nbrs = set(d.out_neighbourhood(v)) | set(d.in_neighbourhood(v))
                        bits = sum(1 << k for k, w in enumerate(witnesses) if w in nbrs)
                        assert adjacent[i] == bits
                        assert apart[i] == ((1 << len(witnesses)) - 1) & ~bits


class TestReportProperties:
    def test_level_monotone(self):
        rng = random.Random(11)
        for _ in range(10):
            d = random_digraph(rng, max_side=6, min_side=1)
            holds = [check_generic_orientation(d, t).holds for t in range(3)]
            for lo, hi in zip(holds, holds[1:]):
                assert lo or not hi  # holds at t+1 implies holds at t

    def test_defect_soundness(self):
        rng = random.Random(21)
        for _ in range(10):
            d = random_digraph(rng, max_side=6)
            report = check_generic_orientation(d, 2)
            for defect in report.defects:
                assert brute_witness_scan(d, defect) is None

    def test_defects_normalized(self):
        d = complete_bipartite_digraph(4, 4)
        report = check_generic_orientation(d, 2)
        keys = [requirement_sort_key(r) for r in report.defects]
        assert keys == sorted(keys)

    def test_side_symmetry(self):
        rng = random.Random(31)
        for _ in range(8):
            d = random_digraph(rng, max_side=5)
            swapped = d.swap_sides()
            r1 = check_generic_orientation(d, 2)
            r2 = check_generic_orientation(swapped, 2)
            assert r1.holds == r2.holds
            flip = {Side.LEFT: Side.RIGHT, Side.RIGHT: Side.LEFT}
            got = {(flip[x.side], x.a, x.b, x.c) for x in r1.defects}
            want = {(x.side, x.a, x.b, x.c) for x in r2.defects}
            assert got == want

    def test_mode_coherence(self):
        d = generic_orientation_approx(ApproximantSpec(32, 1, seed=8))
        assert check_generic_orientation(d, 1).holds
        assert check_generic_bipartite(d.underlying_bipartite(), 1).holds

    def test_jobs_do_not_change_output(self):
        d = complete_bipartite_digraph(4, 3)
        seq = check_generic_orientation(d, 2)
        par = check_generic_orientation(d, 2, jobs=2)
        assert seq == par


# -- the transposed kernel against the unrolled scan it replaced --------------

def _unrolled_kernel(rows, cols, pool_size, wit_count, size, limit):
    return unrolled_scan(rows, pool_size, wit_count, size, limit)


def _with_unrolled(fn, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(genericity, "_scan_size", _unrolled_kernel)
        return fn(*args, **kwargs)


def _skewed_digraph(rng, max_side=7):
    """Random structure whose non-adjacency rate varies between draws, so
    that both dense and sparse defect sets occur."""
    m, n = rng.randint(0, max_side), rng.randint(0, max_side)
    p_none = rng.choice((0.0, 0.0, 0.1, 1 / 3, 0.7))
    left = [f"x{i}" for i in range(1, m + 1)]
    right = [f"y{j}" for j in range(1, n + 1)]
    edges = []
    for x in left:
        for y in right:
            if rng.random() >= p_none:
                edges.append((x, y) if rng.random() < 0.5 else (y, x))
    return build(left, right, edges)


def _mode_inputs(digraph):
    return ((Mode.TWO_PARTITE, digraph), (Mode.ORIENTATION, digraph),
            (Mode.BIPARTITE, digraph.underlying_bipartite()))


CHECKS = {Mode.TWO_PARTITE: check_generic_2partite,
          Mode.ORIENTATION: check_generic_orientation,
          Mode.BIPARTITE: check_generic_bipartite}


class TestTransposedKernel:
    LEVELS = range(5)

    def test_collect_defects_in_unrolled_order(self):
        # an unlimited scan at a level runs every size the lower levels
        # run; at level 4 it materialises up to ~10^4 defects per
        # structure, so only every fourth structure gets it
        limited = [(level, limit) for level in self.LEVELS for limit in (1, 2)]
        rng = random.Random(2024)
        for index in range(200):
            d = _skewed_digraph(rng)
            cases = limited + [(3 if index % 4 else 4, None)]
            for mode, structure in _mode_inputs(d):
                tables = genericity._digraph_tables_by_side(structure)
                for level, limit in cases:
                    got = genericity._collect_defects(tables, level, mode, limit=limit)
                    want = _with_unrolled(genericity._collect_defects,
                                          tables, level, mode, limit=limit)
                    assert got == want, (d, mode, level, limit)

    def test_raw_scan_order_matches(self):
        # the sort in _collect_defects hides the scan order unless a limit
        # cuts it; compare the raw assignment lists too
        rng = random.Random(77)
        for _ in range(200):
            d = _skewed_digraph(rng)
            for mode, structure in _mode_inputs(d):
                tables = genericity._digraph_tables_by_side(structure)
                for side in (Side.LEFT, Side.RIGHT):
                    pool, wit, rows, cols = genericity._kernel_tables(tables, side, mode)
                    for size in self.LEVELS:
                        for limit in (None, 1, 2):
                            got = genericity._scan_size(rows, cols, len(pool), len(wit),
                                                        size, limit)
                            want = unrolled_scan(rows, len(pool), len(wit), size, limit)
                            assert got == want, (d, mode, side, size, limit)

    def test_first_defect_and_achieved_level(self):
        rng = random.Random(4048)
        for _ in range(200):
            d = _skewed_digraph(rng)
            for mode, structure in _mode_inputs(d):
                for level in self.LEVELS:
                    assert (first_defect(structure, level, mode)
                            == _with_unrolled(first_defect, structure, level, mode))
                    assert (achieved_level(structure, mode, level)
                            == _with_unrolled(achieved_level, structure, mode, level))

    def test_parallel_path(self):
        rng = random.Random(5)
        for _ in range(2):
            d = _skewed_digraph(rng, max_side=6)
            for mode, structure in _mode_inputs(d):
                check = CHECKS[mode]
                assert check(structure, 3, jobs=2) == _with_unrolled(check, structure, 3)


# -- report rows against the materialised collector they replaced -------------

def _scrambled_digraph(rng, max_side=7):
    """A skewed structure under ids whose string order, stored order and
    numeric order differ: ``x10`` sorts before ``x2``, and the stored
    order is random."""
    d = _skewed_digraph(rng, max_side)
    old = d.left + d.right
    numbers = rng.sample(range(1, 40), len(old))
    return d.relabel({v: f"{v[0]}{k}" for v, k in zip(old, numbers)})


def _oracle_rows(tables, level, mode, **kwargs):
    return [defect_row(r) for r in materialized_defects(tables, level, mode, **kwargs)]


def _oracle_achieved_level(structure, mode, max_level):
    if mode is Mode.TWO_PARTITE and structure.first_nonadjacent_pair() is not None:
        return -1
    tables = genericity._digraph_tables_by_side(structure)
    for total in range(max_level + 1):
        if materialized_defects(tables, max_level, mode, limit=1, only_total=total):
            return total - 1
    return max_level


class TestDefectRows:
    LEVELS = range(5)

    def test_rows_and_reports_match_oracle(self):
        # unlimited level 4 materialises up to ~10^4 defects per structure,
        # so only every fourth structure gets it
        limited = [(level, limit) for level in self.LEVELS for limit in (1, 2)]
        rng = random.Random(808)
        for index in range(200):
            d = _scrambled_digraph(rng)
            cases = limited + [(3 if index % 4 else 4, None)]
            for mode, structure in _mode_inputs(d):
                tables = genericity._digraph_tables_by_side(structure)
                for level, limit in cases:
                    got = genericity._collect_defects(tables, level, mode, limit=limit)
                    assert got == _oracle_rows(tables, level, mode, limit=limit), \
                        (d, mode, level, limit)
                for total, limit in [(t, 1) for t in self.LEVELS] + [(2, None)]:
                    got = genericity._collect_defects(tables, 4, mode, limit=limit,
                                                      only_total=total)
                    assert got == _oracle_rows(tables, 4, mode, limit=limit,
                                               only_total=total)
                report = CHECKS[mode](structure, 2)
                want = materialized_defects(tables, 2, mode)
                assert report.rows == tuple(map(defect_row, want))
                assert report.defects == tuple(want)

    def test_first_defect_and_achieved_level(self):
        rng = random.Random(909)
        for _ in range(200):
            d = _scrambled_digraph(rng)
            for mode, structure in _mode_inputs(d):
                tables = genericity._digraph_tables_by_side(structure)
                for level in self.LEVELS:
                    want = materialized_defects(tables, level, mode, limit=1)
                    assert first_defect(structure, level, mode) == (want[0] if want else None)
                    assert (achieved_level(structure, mode, level)
                            == _oracle_achieved_level(structure, mode, level))

    def test_parallel_rows(self):
        rng = random.Random(17)
        for _ in range(2):
            d = _scrambled_digraph(rng, max_side=6)
            for mode, structure in _mode_inputs(d):
                tables = genericity._digraph_tables_by_side(structure)
                report = CHECKS[mode](structure, 3, jobs=2)
                assert report.rows == tuple(_oracle_rows(tables, 3, mode, jobs=2))

    def test_closure_cut_pools(self):
        # the closure scans its partial structure over pools cut to the
        # original vertices; the remaining defects come back in order
        rng = random.Random(1234)
        seen = 0
        for _ in range(60):
            d = _scrambled_digraph(rng, max_side=5)
            for mode, structure in _mode_inputs(d):
                try:
                    witness_closure(structure, mode, 2, cap=3)
                except CapExceeded as exc:
                    seen += 1
                    cut = {side: (pool[:len(structure.side(side))], *rest)
                           for side, (pool, *rest)
                           in genericity._digraph_tables_by_side(exc.partial).items()}
                    assert exc.defects == tuple(materialized_defects(cut, 2, mode))
        assert seen > 20


# Digests of the JSON text of seeded builder outputs; a change to the scan
# or the retry loop must leave every one of them unchanged.
PINNED_BUILDS = [
    (generic_2partite_approx, ApproximantSpec(24, 2, seed=5),
     "01c2a3ff7c5eede15253438db52f174a4de01a7acc465963c0a77638c5ff89bb"),
    (generic_orientation_approx, ApproximantSpec(32, 1, seed=6),
     "92768f0da653f2c52f077cd43b3d1d65e19b473d33e6019fb75f4dd315a3510e"),
    (lambda spec: generic_bipartite_approx(spec, Direction.RIGHT_TO_LEFT),
     ApproximantSpec(16, 1, seed=3),
     "55347f727870a46f9f1960ac9090f8c8e9e098af0759445c4e8633a74509c50f"),
]

PINNED_UNREACHABLE = [
    (generic_2partite_approx, ApproximantSpec(8, 3, seed=1), 1),
    (generic_orientation_approx, ApproximantSpec(12, 2, seed=4), 1),
    (generic_bipartite_approx, ApproximantSpec(10, 2, seed=7), 1),
]


class TestSeededBuilds:
    @pytest.mark.parametrize("builder,spec,digest", PINNED_BUILDS)
    def test_output_pinned(self, builder, spec, digest):
        text = to_json_text(builder(spec))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("builder,spec,best", PINNED_UNREACHABLE)
    def test_unreachable_best_level_pinned(self, builder, spec, best):
        with pytest.raises(ApproximantNotFound) as info:
            builder(spec)
        assert info.value.best_level == best


class TestArgumentValidation:
    def test_negative_level_rejected(self):
        d = matching_complement_pair(3)
        g = d.underlying_bipartite()
        for call in (lambda: check_generic_2partite(d, -1),
                     lambda: check_generic_orientation(d, -1),
                     lambda: check_generic_bipartite(g, -2),
                     lambda: first_defect(d, -1, Mode.ORIENTATION),
                     lambda: achieved_level(d, Mode.TWO_PARTITE, -1),
                     lambda: witness_closure(d, Mode.TWO_PARTITE, -1, cap=4)):
            with pytest.raises(ValidationError, match="non-negative"):
                call()

    def test_worker_count_below_one_rejected(self):
        d = matching_complement_pair(3)
        for jobs in (0, -1):
            with pytest.raises(ValidationError, match="at least 1"):
                check_generic_orientation(d, 1, jobs=jobs)
