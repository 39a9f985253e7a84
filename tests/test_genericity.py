import hashlib
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import factorial, prod

import pytest

from twopartite import catalog, genericity
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
from twopartite.core import PAIR_LR, PAIR_NONE, PAIR_RL, Side, build, to_json_text
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
    _scan_size,
    defect_row,
    kernels_of,
    materialized_defects,
    naive_witness,
    random_digraph,
    requirement_sort_key,
    row_defects,
    row_scan,
    shape_group_fails,
    shuffled_copy,
    sorted_scan_rows,
    unrolled_kernel,
    zip_kernel_inputs,
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
        # complement.  Each packed table entry is the AND, over the
        # witnesses of its subset, of the complemented columns masked to
        # the pool: slot a at offset 0 holds the elements adjacent to none
        # of them, slot c at offset p those adjacent to all of them.  Pools
        # are cut at random, as the closure cuts them, and then sorted by id
        # (``x10`` before ``x2``).
        rng = random.Random(300)
        for _ in range(120):
            d = random_digraph(rng, max_side=11)
            cut = {side: rng.randint(0, len(d.side(side))) for side in (Side.LEFT, Side.RIGHT)}
            kernels = kernels_of(genericity._kernel_inputs(d, Mode.BIPARTITE, cut))
            for side in (Side.LEFT, Side.RIGHT):
                _, _, pool, wit_count, rows, packed = kernels[side]
                assert pool == tuple(sorted(d.side(side)[:cut[side]]))
                # witnesses come in the order of the opposite side's vertices:
                # its pool, then the vertices past its cut
                other = side.opposite
                wit = kernels[other][2] + d.side(other)[cut[other]:]
                assert wit_count == len(wit)
                adjacent, apart = rows
                for i, v in enumerate(pool):
                    nbrs = set(d.out_neighbourhood(v)) | set(d.in_neighbourhood(v))
                    bits = sum(1 << k for k, w in enumerate(wit) if w in nbrs)
                    assert adjacent[i] == bits
                    assert apart[i] == ((1 << len(wit)) - 1) & ~bits
                p = len(pool)
                everyone = (1 << p) - 1
                columns = []
                for w in wit:
                    nbrs = set(d.out_neighbourhood(w)) | set(d.in_neighbourhood(w))
                    columns.append(sum(1 << i for i, v in enumerate(pool) if v in nbrs))
                assert len(packed) == -(-len(wit) // genericity._CHUNK)
                for c, table in enumerate(packed):
                    run = columns[c * genericity._CHUNK:(c + 1) * genericity._CHUNK]
                    assert len(table) == 1 << len(run)
                    for subset, entry in enumerate(table):
                        untouched, shared = everyone, everyone
                        for r, column in enumerate(run):
                            if subset >> r & 1:
                                untouched &= ~column
                                shared &= column
                        assert entry == untouched | shared << p


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

    def test_complete_report_matches_oracle(self):
        d = complete_bipartite_digraph(4, 3)
        inputs = genericity._kernel_inputs(d, Mode.ORIENTATION)
        want = materialized_defects(inputs, 2, Mode.ORIENTATION)
        assert check_generic_orientation(d, 2).defects == tuple(want)


# -- the report-order scan against the oracle kernels ---------------------------

def _oracle_rows(inputs, level, mode, limit=None, scan=_scan_size):
    """The oracle's full report at ``level`` as rows, truncated to
    ``limit``.  The report runs by side and then by size, so a truncated
    list materialises only the sizes it reaches."""
    if limit is None:
        return [defect_row(r) for r in materialized_defects(inputs, level, mode, scan=scan)]
    by_size: dict[int, list] = {}
    rows = []
    for side in (Side.LEFT, Side.RIGHT):
        for size in range(level + 1):
            if size not in by_size:
                by_size[size] = [defect_row(r) for r in materialized_defects(
                    inputs, level, mode, only_total=size, scan=scan)]
            rows += [row for row in by_size[size] if row[0] is side]
            if len(rows) >= limit:
                return rows[:limit]
    return rows


def _collected_rows(inputs, level, limit=None):
    """``genericity._collect_defects``'s runs, expanded into rows."""
    return genericity._expand(genericity._collect_defects(inputs, level, limit=limit))


def _oracle_achieved_level(structure, mode, max_level, scan=_scan_size):
    if mode is Mode.TWO_PARTITE and structure.first_nonadjacent_pair() is not None:
        return -1
    inputs = genericity._kernel_inputs(structure, mode)
    for total in range(max_level + 1):
        if materialized_defects(inputs, max_level, mode, limit=1, only_total=total, scan=scan):
            return total - 1
    return max_level


def _first_row(structure, level, mode):
    defect = first_defect(structure, level, mode)
    return None if defect is None else defect_row(defect)


def _skewed_digraph(rng, max_side=7):
    """Random structure whose non-adjacency rate varies between draws, so
    that both dense and sparse defect sets occur."""
    m, n = rng.randint(0, max_side), rng.randint(0, max_side)
    return _skewed_sides(rng, m, n, rng.choice((0.0, 0.0, 0.1, 1 / 3, 0.7)))


def _skewed_sides(rng, m, n, p_none, p_lr=0.5):
    left = [f"x{i}" for i in range(1, m + 1)]
    right = [f"y{j}" for j in range(1, n + 1)]
    edges = []
    for x in left:
        for y in right:
            if rng.random() >= p_none:
                edges.append((x, y) if rng.random() < p_lr else (y, x))
    return build(left, right, edges)


# side sizes on both sides of a run boundary of genericity._CHUNK witnesses
WIDE_SIDES = (8, 9, 15, 16, 17, 20)


def _wide_digraph(rng):
    """Sides from WIDE_SIDES, one of them empty one time in five, with a
    skewed non-adjacency rate and orientation bias.  Ids run ``x1`` to
    ``x20``, so their string order differs from the stored order."""
    m, n = rng.choice(WIDE_SIDES), rng.choice(WIDE_SIDES)
    if rng.random() < 0.2:
        m, n = rng.choice(((0, n), (m, 0)))
    return _skewed_sides(rng, m, n, rng.choice((0.0, 0.1, 1 / 3, 0.7, 0.9)),
                         rng.choice((0.5, 0.2, 0.9)))


def _mode_inputs(digraph):
    return ((Mode.TWO_PARTITE, digraph), (Mode.ORIENTATION, digraph),
            (Mode.BIPARTITE, digraph.underlying_bipartite()))


CHECKS = {Mode.TWO_PARTITE: check_generic_2partite,
          Mode.ORIENTATION: check_generic_orientation,
          Mode.BIPARTITE: check_generic_bipartite}


class TestTransposedKernel:
    """The report-order scan against full reports of the unrolled scan."""

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
                inputs = genericity._kernel_inputs(structure, mode)
                for level, limit in cases:
                    got = _collected_rows(inputs, level, limit)
                    want = _oracle_rows(inputs, level, mode, limit, scan=unrolled_kernel)
                    assert got == want, (d, mode, level, limit)

    def test_scan_rows_per_side_and_size(self):
        rng = random.Random(77)
        for _ in range(200):
            d = _skewed_digraph(rng)
            for mode, structure in _mode_inputs(d):
                inputs = genericity._kernel_inputs(structure, mode)
                parts: dict[tuple, list] = {}
                for row in sorted_scan_rows(inputs, max(self.LEVELS), mode,
                                            scan=unrolled_kernel):
                    parts.setdefault((row[0], sum(map(len, row[1:]))), []).append(row)
                for side in (Side.LEFT, Side.RIGHT):
                    kernel = kernels_of(inputs)[side]
                    for size in self.LEVELS:
                        side_rows = parts.get((side, size), [])
                        for limit in (None, 1, 2):
                            got = genericity._expand(genericity._scan(kernel, size, limit))
                            assert got == side_rows[:limit], (d, mode, side, size, limit)
                        assert genericity._fails(kernel, size) == bool(side_rows)

    def test_first_defect_and_achieved_level(self):
        rng = random.Random(4048)
        for _ in range(200):
            d = _skewed_digraph(rng)
            for mode, structure in _mode_inputs(d):
                inputs = genericity._kernel_inputs(structure, mode)
                for level in self.LEVELS:
                    want = _oracle_rows(inputs, level, mode, 1, scan=unrolled_kernel)
                    assert _first_row(structure, level, mode) == (want[0] if want else None)
                    assert (achieved_level(structure, mode, level)
                            == _oracle_achieved_level(structure, mode, level,
                                                      scan=unrolled_kernel))

    def test_scans_across_witness_runs(self):
        # the structures above have sides of at most 7, inside one run of
        # _CHUNK witnesses; these cross one or two run boundaries.  Level 4
        # goes to the faster element-order oracle, and only with a limit,
        # since a sparse 20-element side fails ~10^5 requirements of size 4
        rng = random.Random(8128)
        for _ in range(16):
            d = _wide_digraph(rng)
            for mode, structure in _mode_inputs(d):
                inputs = genericity._kernel_inputs(structure, mode)
                for side in (Side.LEFT, Side.RIGHT):
                    kernel = kernels_of(inputs)[side]
                    _, _, _, wit_count, _, packed = kernel
                    assert len(packed) == -(-wit_count // genericity._CHUNK)
                for level in range(4):
                    for limit in (None, 1, 2):
                        got = _collected_rows(inputs, level, limit)
                        want = _oracle_rows(inputs, level, mode, limit, scan=unrolled_kernel)
                        assert got == want, (d, mode, level, limit)
                for limit in (1, 2):
                    got = _collected_rows(inputs, 4, limit)
                    assert got == _oracle_rows(inputs, 4, mode, limit), (d, mode, limit)
                assert (achieved_level(structure, mode, 3)
                        == _oracle_achieved_level(structure, mode, 3, scan=unrolled_kernel))
                assert (achieved_level(structure, mode, 4)
                        == _oracle_achieved_level(structure, mode, 4))

    def test_closure_cut_pools_across_witness_runs(self):
        # original sides of 8 or more, so the cut pools and the grown
        # witness sides span several runs; the defects left at the cap are
        # exactly the requirements over the original vertices that no
        # vertex of the partial structure witnesses, in requirement order
        rng = random.Random(4711)
        capped = 0
        for _ in range(8):
            d = _wide_digraph(rng)
            for mode, structure in _mode_inputs(d):
                try:
                    closed = witness_closure(structure, mode, 2, cap=12)
                except CapExceeded as exc:
                    capped += 1
                    closed, defects = exc.partial, exc.defects
                else:
                    defects = ()
                want = [req for req in iter_requirements(structure.left, structure.right,
                                                         2, mode)
                        if naive_witness(closed, req, mode) is None]
                assert list(defects) == sorted(want, key=requirement_sort_key), (d, mode)
        assert capped > 8

    def test_checks_in_unrolled_order(self):
        rng = random.Random(5)
        for _ in range(2):
            d = _skewed_digraph(rng, max_side=6)
            for mode, structure in _mode_inputs(d):
                inputs = genericity._kernel_inputs(structure, mode)
                report = CHECKS[mode](structure, 3)
                assert report.rows == tuple(_oracle_rows(inputs, 3, mode, scan=unrolled_kernel))


# -- report rows against the collectors they replaced ----------------------------

def _scrambled_digraph(rng, max_side=7):
    """A skewed structure under ids whose string order, stored order and
    numeric order differ: ``x10`` sorts before ``x2``, and the stored
    order is random."""
    d = _skewed_digraph(rng, max_side)
    old = d.left + d.right
    numbers = rng.sample(range(1, 40), len(old))
    return d.relabel({v: f"{v[0]}{k}" for v, k in zip(old, numbers)})


class TestDefectRows:
    LEVELS = range(5)

    def test_rows_and_reports_match_oracle(self):
        # unlimited level 4 materialises up to ~10^4 defects per structure,
        # so only every fourth structure gets it; a limited report is the
        # full report truncated
        limited = [(level, limit) for level in self.LEVELS for limit in (1, 2)]
        rng = random.Random(808)
        for index in range(200):
            d = _scrambled_digraph(rng)
            cases = limited + [(3 if index % 4 else 4, None)]
            for mode, structure in _mode_inputs(d):
                inputs = genericity._kernel_inputs(structure, mode)
                for level, limit in cases:
                    got = _collected_rows(inputs, level, limit)
                    assert got == _oracle_rows(inputs, level, mode, limit), \
                        (d, mode, level, limit)
                    if limit is None:
                        assert got == sorted_scan_rows(inputs, level, mode)
                report = CHECKS[mode](structure, 2)
                want = materialized_defects(inputs, 2, mode)
                assert report.rows == tuple(map(defect_row, want))
                assert report.defects == tuple(want)

    def test_first_defect_and_achieved_level(self):
        rng = random.Random(909)
        for _ in range(200):
            d = _scrambled_digraph(rng)
            for mode, structure in _mode_inputs(d):
                inputs = genericity._kernel_inputs(structure, mode)
                for level in self.LEVELS:
                    want = _oracle_rows(inputs, level, mode, 1)
                    assert _first_row(structure, level, mode) == (want[0] if want else None)
                    assert (achieved_level(structure, mode, level)
                            == _oracle_achieved_level(structure, mode, level))

    def test_first_defect_is_the_reports_first_row(self):
        rng = random.Random(1010)
        seen = {True: 0, False: 0}
        for _ in range(150):
            d = _scrambled_digraph(rng)
            for mode, structure in _mode_inputs(d):
                for level in range(4):
                    defects = CHECKS[mode](structure, level).defects
                    want = defects[0] if defects else None
                    assert first_defect(structure, level, mode) == want, (d, mode, level)
                    seen[want is None] += 1
        assert min(seen.values()) > 50

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
                    originals = {side: len(structure.side(side))
                                 for side in (Side.LEFT, Side.RIGHT)}
                    cut = genericity._kernel_inputs(exc.partial, mode, originals)
                    assert exc.defects == tuple(materialized_defects(cut, 2, mode))
                    assert list(map(defect_row, exc.defects)) == sorted_scan_rows(cut, 2, mode)
        assert seen > 20


# -- runs against the row-emitting scan they replaced ------------------------------

def _run_limits(runs):
    """Limits 1 and 2, and the limits one row inside, at and one row past
    the end of each run."""
    limits, total = {1, 2}, 0
    for run in runs:
        total += len(run[5]) or 1
        limits |= {total - 1, total, total + 1}
    return sorted(limits - {0})


def _check_runs(runs, side, size):
    """The shape of one side's runs of one size: every tail ascending and
    outside the prefix, one run per prefix and last slot, and empty tails
    only for the one defect of no demands."""
    assert len({run[:5] for run in runs}) == len(runs)
    for run_side, a, b, c, slot, tails in runs:
        assert run_side is side
        if size == 0:
            assert (a, b, c, slot, tails) == ((), (), (), 0, ())
            continue
        assert list(tails) == sorted(set(tails)) and tails
        assert not set(tails) & set(a + b + c)
        assert len(a + b + c) == size - 1


class TestRuns:
    SIZES = range(5)

    def _compare(self, inputs, mode, levels):
        """Per side and size, and then across both sides per level, the
        expanded runs against the row-emitting scan: uncut, and cut per
        size to every limit of ``_run_limits`` and across both sides at
        the last level to limits around the change of side."""
        for side, kernel in kernels_of(inputs).items():
            for size in self.SIZES:
                runs = genericity._scan(kernel, size)
                rows = row_scan(kernel, size)
                assert genericity._expand(runs) == rows, (mode, side, size)
                assert genericity._count(runs) == len(rows)
                _check_runs(runs, side, size)
                for limit in _run_limits(runs):
                    cut = genericity._scan(kernel, size, limit)
                    assert genericity._expand(cut) == rows[:limit], (mode, side, size, limit)
                    assert cut[:-1] == runs[:len(cut) - 1]
        for level in levels:
            runs = genericity._collect_defects(inputs, level)
            rows = row_defects(inputs, level)
            assert genericity._expand(runs) == rows, (mode, level)
        # limits that end in or just past the left side's last run
        left = genericity._count(run for run in runs if run[0] is Side.LEFT)
        for limit in {1, 2, left - 1, left, left + 1, left + 2} - {0, -1}:
            assert _collected_rows(inputs, level, limit) == rows[:limit], (mode, limit)

    def test_random_structures(self):
        rng = random.Random(2222)
        for _ in range(150):
            d = _scrambled_digraph(rng, max_side=4)
            for mode, structure in _mode_inputs(d):
                self._compare(genericity._kernel_inputs(structure, mode), mode, self.SIZES)

    def test_cut_pools(self):
        # the pools of witness_closure's partial structures, and random
        # cuts of random structures: vertices past a cut are witnesses only
        rng = random.Random(3333)
        seen = 0
        for _ in range(40):
            d = _scrambled_digraph(rng, max_side=4)
            for mode, structure in _mode_inputs(d):
                originals = {side: len(structure.side(side)) for side in (Side.LEFT, Side.RIGHT)}
                try:
                    witness_closure(structure, mode, 2, cap=2)
                except CapExceeded as exc:
                    seen += 1
                    inputs = genericity._kernel_inputs(exc.partial, mode, originals)
                    self._compare(inputs, mode, range(4))
                cut = {side: rng.randint(0, count) for side, count in originals.items()}
                self._compare(genericity._kernel_inputs(structure, mode, cut), mode, range(4))
        assert seen > 20

    @pytest.mark.parametrize("m,n", [(0, 0), (0, 1), (0, 3), (1, 0), (4, 0)])
    def test_empty_sides(self, m, n):
        # a side facing no witnesses fails every requirement, the one of
        # no demands included
        d = empty_digraph(m, n)
        for mode, structure in _mode_inputs(d):
            inputs = genericity._kernel_inputs(structure, mode)
            self._compare(inputs, mode, self.SIZES)
            report = CHECKS[mode](structure, 2)
            empty_rows = [(side, (), (), ()) for side, count in ((Side.LEFT, n), (Side.RIGHT, m))
                          if not count]
            assert [row for row in report.rows if not any(row[1:])] == empty_rows
            assert report.count == len(report.rows) == len(report.defects)
            first = first_defect(structure, 2, mode)
            assert (first and defect_row(first)) == (report.rows[0] if report.rows else None)


def _prefix_weight(prefix):
    """1 / prod(n_slot!) over the slot counts of a prefix shape."""
    return Fraction(1, prod(factorial(prefix.count(t)) for t in set(prefix)))


def _covered(prefixes, slots):
    """The shapes that one more demand in some slot makes of ``prefixes``."""
    return {tuple(sorted(prefix + (t,))) for prefix in prefixes for t in range(slots)}


def _near_universal(rng, q, states, missing):
    """A side of ``q`` vertices facing one vertex per pattern of pair
    states over it, but for ``missing`` random patterns, under shuffled
    ids and on a random side: its requirements hold up to some size, and
    a few past it fail."""
    patterns = list(product(states, repeat=q))
    rng.shuffle(patterns)
    left = [f"x{i}" for i in range(q)]
    right = [f"y{j}" for j in range(len(patterns) - missing)]
    edges = [(x, y) if state == PAIR_LR else (y, x)
             for y, pattern in zip(right, patterns) for x, state in zip(left, pattern)
             if state != PAIR_NONE]
    d = shuffled_copy(build(left, right, edges), rng)
    return d.swap_sides() if rng.random() < 0.5 else d


class TestExistenceCover:
    """``_fails``, which walks a cover of prefix shapes with last demands
    anywhere, against the walk over the report's shape groups, and the
    kernel inputs against the tuple transposes."""

    SIZES = range(6)

    def _compare(self, structure, mode, originals=None, sizes=SIZES):
        inputs = genericity._kernel_inputs(structure, mode, originals)
        assert inputs == zip_kernel_inputs(structure, mode, originals), (structure, mode)
        for side_inputs in inputs:
            kernel = genericity._kernel(*side_inputs)
            for size in sizes:
                assert genericity._fails(kernel, size) == shape_group_fails(kernel, size), (
                    structure, mode, originals, side_inputs[0], size)

    def test_random_structures(self):
        rng = random.Random(6060)
        for _ in range(150):
            d = _scrambled_digraph(rng)
            for mode, structure in _mode_inputs(d):
                self._compare(structure, mode)

    def test_structures_across_witness_runs(self):
        rng = random.Random(6161)
        for _ in range(12):
            d = _wide_digraph(rng)
            for mode, structure in _mode_inputs(d):
                self._compare(structure, mode, sizes=range(5))

    def test_near_universal_witness_sets(self):
        # the random structures fail every size past 2 on a side of more
        # than 2 vertices; these hold at sizes 3 and 4 and fail a few
        # requirements of a larger size, or of those sizes once patterns
        # go missing
        rng = random.Random(6363)
        outcomes = set()
        for _ in range(60):
            states = rng.choice(((PAIR_LR, PAIR_RL), (PAIR_LR, PAIR_RL, PAIR_NONE)))
            q = rng.randint(3, 5 if len(states) == 2 else 4)
            d = _near_universal(rng, q, states, rng.choice((0, 1, 2, 5)))
            for mode, structure in _mode_inputs(d):
                self._compare(structure, mode)
                for side_inputs in genericity._kernel_inputs(structure, mode):
                    kernel = genericity._kernel(*side_inputs)
                    outcomes |= {(size, genericity._fails(kernel, size)) for size in (3, 4)
                                 if size <= len(side_inputs[2])}
        assert outcomes == {(3, False), (3, True), (4, False), (4, True)}

    def test_cut_pools(self):
        rng = random.Random(6262)
        seen = 0
        for _ in range(40):
            d = _scrambled_digraph(rng, max_side=5)
            for mode, structure in _mode_inputs(d):
                originals = {side: len(structure.side(side)) for side in (Side.LEFT, Side.RIGHT)}
                try:
                    witness_closure(structure, mode, 2, cap=2)
                except CapExceeded as exc:
                    seen += 1
                    self._compare(exc.partial, mode, originals)
                cut = {side: rng.randint(0, count) for side, count in originals.items()}
                self._compare(structure, mode, cut)
        assert seen > 20

    @pytest.mark.parametrize("m,n", [(0, 0), (0, 1), (0, 5), (1, 0), (5, 0), (5, 5)])
    def test_empty_sides_and_no_witnesses(self, m, n):
        # an empty side has no witnesses for the other; an empty structure
        # has no witnesses for any demand of size 1 in 2partite mode
        for mode, structure in _mode_inputs(empty_digraph(m, n)):
            self._compare(structure, mode)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_cover_covers_every_shape(self, mode):
        slots = len(genericity._SLOTS[mode])
        for size in range(1, 13):
            shapes = set(combinations_with_replacement(range(slots), size))
            assert _covered(genericity._cover(size, mode), slots) == shapes, (mode, size)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_cover_costs_no_more_than_the_shape_groups(self, mode):
        for size in range(1, 13):
            cover = genericity._cover(size, mode)
            groups = [prefix for prefix, _ in genericity._shape_groups(size, mode)]
            assert sum(map(_prefix_weight, cover)) <= sum(map(_prefix_weight, groups))
            prefixes, anywhere = genericity._existence_walk(size, mode)
            assert (prefixes, anywhere) == ((cover, True) if size >= 3 else (tuple(groups), False))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_cover_is_a_least_cost_cover_up_to_size_4(self, mode):
        slots = len(genericity._SLOTS[mode])
        for size in range(1, 5):
            shapes = set(combinations_with_replacement(range(slots), size))
            candidates = list(combinations_with_replacement(range(slots), size - 1))
            least = min(sum(map(_prefix_weight, chosen))
                        for k in range(1, len(candidates) + 1)
                        for chosen in combinations(candidates, k)
                        if _covered(chosen, slots) == shapes)
            assert sum(map(_prefix_weight, genericity._cover(size, mode))) == least, (mode, size)

    @pytest.mark.parametrize("mode,size,cover", [
        (Mode.TWO_PARTITE, 2, ((0,), (1,))),
        (Mode.TWO_PARTITE, 3, ((0, 0), (1, 1))),
        (Mode.TWO_PARTITE, 4, ((0, 0, 0), (1, 1, 1), (0, 0, 1))),
        (Mode.BIPARTITE, 2, ((0,), (1,))),
        (Mode.BIPARTITE, 3, ((0, 0), (1, 1))),
        (Mode.BIPARTITE, 4, ((0, 0, 0), (1, 1, 1), (0, 0, 1))),
        (Mode.ORIENTATION, 2, ((0,), (1,), (2,))),
        (Mode.ORIENTATION, 3, ((0, 0), (1, 1), (2, 2), (0, 1))),
        (Mode.ORIENTATION, 4, ((0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 0, 1), (0, 2, 2), (1, 1, 2))),
    ])
    def test_cover_pinned(self, mode, size, cover):
        assert genericity._cover(size, mode) == cover

    def test_a_level_that_holds_runs_no_report_scan(self, monkeypatch):
        d = generic_2partite_approx(ApproximantSpec(160, 3, seed=3))

        def refuse(*args, **kwargs):
            raise AssertionError("the report scan ran on a size that holds")

        monkeypatch.setattr(genericity, "_scan", refuse)
        report = check_generic_2partite(d, 3)
        assert report.holds and report.runs == () and report.count == 0
        assert first_defect(d, 3, Mode.TWO_PARTITE) is None
        assert achieved_level(d, Mode.TWO_PARTITE, 3) == 3


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

# Builds that reject some attempts first, so the digest also covers the
# random stream across attempts: (builder, spec, attempts, digest), computed
# with the draws written as ``randrange(3)`` and ``getrandbits(1)`` per pair.
PINNED_RETRIED_BUILDS = [
    (generic_2partite_approx, ApproximantSpec(20, 2, seed=1), 19,
     "73d8c8d234828f77ae25ef1ac44705287e419ca710150989bf1cb877e3f1fc23"),
    (generic_orientation_approx, ApproximantSpec(12, 1, seed=8), 5,
     "62ee43a9d77524b145805de06c35d778482791be7feb19487ac0e210d9cb1e5f"),
    (generic_bipartite_approx, ApproximantSpec(32, 2, seed=7), 2,
     "ecedfb0718a1205e9ac586e9b1460d6417452c1d980724126c8b42cbcba5ce80"),
    (lambda spec: generic_bipartite_approx(spec, Direction.RIGHT_TO_LEFT),
     ApproximantSpec(36, 2, seed=5), 2,
     "5e6401617eacbd94222c7ab4f0cace015ac2561b1be885140d7c97a1979adcd4"),
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

    @pytest.mark.parametrize("builder,spec,attempts,digest", PINNED_RETRIED_BUILDS)
    def test_retried_output_pinned(self, builder, spec, attempts, digest):
        calls = []

        def counted(*args):
            calls.append(args)
            return achieved_level(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(catalog, "achieved_level", counted)
            text = to_json_text(builder(spec))
        assert len(calls) == attempts
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_unreachable_message_pinned(self):
        with pytest.raises(ApproximantNotFound) as info:
            generic_2partite_approx(ApproximantSpec(40, 3, seed=1))
        assert info.value.best_level == 2
        assert str(info.value) == ("no attempt out of 32 reached level 3 at side size 40 "
                                   "(best level achieved: 2)")

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

    def test_jobs_is_not_a_keyword(self):
        d = matching_complement_pair(3)
        for call in (*(lambda check=check: check(d, 1, jobs=1) for check in CHECKS.values()),
                     lambda: genericity.validate_level(1, jobs=1)):
            with pytest.raises(TypeError, match="jobs"):
                call()
