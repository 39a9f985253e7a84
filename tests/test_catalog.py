import hashlib
import random

import pytest

from twopartite import build, catalog
from twopartite.catalog import (
    MAX_SIDE,
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
    witness_closure,
)
from twopartite.core import PAIR_LR, PAIR_NONE, PAIR_RL, to_json_text
from twopartite.errors import (
    ApproximantNotFound,
    CapExceeded,
    InvalidSpec,
    PairSizeTooSmall,
    ValidationError,
)
from twopartite.genericity import (
    Mode,
    brute_witness_scan,
    check_generic_2partite,
    check_generic_bipartite,
    check_generic_orientation,
    iter_requirements,
)

from conftest import (
    edge_list_closure,
    naive_witness,
    pairwise_bit_rows,
    pairwise_orientation_rows,
    requirement_sort_key,
)

L2R, R2L = Direction.LEFT_TO_RIGHT, Direction.RIGHT_TO_LEFT


class TestFixedConstructors:
    def test_complete_one_one(self):
        assert complete_bipartite_digraph(1, 1).edges == (("x1", "y1"),)

    def test_complete_reversed(self):
        d = complete_bipartite_digraph(2, 3, R2L)
        assert len(d.edges) == 6
        assert all(u.startswith("y") for (u, _) in d.edges)

    def test_complete_underlying(self):
        assert complete_bipartite_digraph(3, 2).underlying_bipartite().first_nonadjacent_pair() is None

    def test_empty(self):
        assert empty_digraph(0, 0).vertices() == ()
        d = empty_digraph(2, 2)
        assert len(d.vertices()) == 4 and not d.edges
        assert d.is_bipartite_digraph()

    def test_matching(self):
        d = matching_digraph(1)
        assert d.edges == (("x1", "y1"),)
        prof = matching_digraph(3).degree_profile()
        assert all(prof[x] == (1, 0, 2) for x in ("x1", "x2", "x3"))

    def test_complement_matching(self):
        d = complement_matching_digraph(2)
        assert set(d.edges) == {("x1", "y2"), ("x2", "y1")}
        assert complement_matching_digraph(1).edges == ()
        d3 = complement_matching_digraph(3)
        assert all(d3.perp(f"x{i}") == (f"y{i}",) for i in (1, 2, 3))
        with pytest.raises(InvalidSpec):
            complement_matching_digraph(0)

    def test_negative_sizes_rejected(self):
        for call in (lambda: complete_bipartite_digraph(-2, 1),
                     lambda: complete_bipartite_digraph(1, -1),
                     lambda: empty_digraph(0, -1),
                     lambda: matching_digraph(-3),
                     lambda: complement_matching_digraph(-1)):
            with pytest.raises(InvalidSpec):
                call()

    def test_sides_past_the_bound_rejected(self):
        assert len(empty_digraph(MAX_SIDE, 0).left) == MAX_SIDE
        for size in (MAX_SIDE + 1, 10 ** 9):
            for call in (lambda: complete_bipartite_digraph(size, 0),
                         lambda: complete_bipartite_digraph(0, size),
                         lambda: empty_digraph(1, size),
                         lambda: matching_digraph(size),
                         lambda: complement_matching_digraph(size),
                         lambda: matching_complement_pair(size)):
                with pytest.raises(InvalidSpec, match=f"side size {size} exceeds the bound"):
                    call()


@pytest.mark.parametrize("direction", [L2R, R2L])
def test_fixed_constructors_match_edge_lists(direction):
    # each constructor's matrix is the one build gives for its edge list
    def oriented(x, y, d=direction):
        return (x, y) if d is L2R else (y, x)

    for m in range(5):
        for n in range(5):
            left, right = [f"x{i + 1}" for i in range(m)], [f"y{j + 1}" for j in range(n)]
            pairs = [(i, j) for i in range(m) for j in range(n)]
            assert complete_bipartite_digraph(m, n, direction) == build(
                left, right, [oriented(left[i], right[j]) for i, j in pairs])
            assert empty_digraph(m, n) == build(left, right, [])
            if m != n:
                continue
            matching = [oriented(left[i], right[j]) for i, j in pairs if i == j]
            assert matching_digraph(n, direction) == build(left, right, matching)
            rest = [oriented(left[i], right[j]) for i, j in pairs if i != j]
            if n:
                assert complement_matching_digraph(n, direction) == build(left, right, rest)
            if n >= 2:
                flipped = [(v, u) for u, v in rest]
                assert matching_complement_pair(n, direction) == build(
                    left, right, matching + flipped)


class TestMatchingComplementPair:
    def test_size_too_small(self):
        with pytest.raises(PairSizeTooSmall):
            matching_complement_pair(1)

    def test_edge_partition(self):
        for size in (2, 3, 5):
            d = matching_complement_pair(size)
            on_left = set(d.left)
            lr = [e for e in d.edges if e[0] in on_left]
            rl = [e for e in d.edges if e[0] not in on_left]
            assert len(lr) == size
            assert len(rl) == size * (size - 1)
            assert len(d.edges) == size * size  # complete underlying

    def test_perp_empty(self):
        assert all(matching_complement_pair(3).perp(v) == () for v in matching_complement_pair(3).vertices())

    def test_matching_direction_honoured(self):
        d = matching_complement_pair(3, R2L)
        assert ("y1", "x1") in d.edges
        assert ("x1", "y2") in d.edges


class TestApproximantSpec:
    def test_level_bounded_by_side(self):
        with pytest.raises(InvalidSpec):
            ApproximantSpec(2, 3, seed=0)

    def test_positive_side(self):
        with pytest.raises(InvalidSpec):
            ApproximantSpec(0, 0, seed=0)

    def test_messages_name_the_value(self):
        with pytest.raises(InvalidSpec, match=r"side size must be positive, got -3$"):
            ApproximantSpec(-3, 0, seed=0)
        with pytest.raises(InvalidSpec, match=r"level must be non-negative, got -1$"):
            ApproximantSpec(2, -1, seed=0)

    def test_side_bound(self):
        assert ApproximantSpec(MAX_SIDE, 1, seed=0).side_size == MAX_SIDE
        for size in (MAX_SIDE + 1, 10 ** 9):
            with pytest.raises(InvalidSpec, match=f"side size {size} exceeds the bound"):
                ApproximantSpec(size, 1, seed=0)

    def test_negative_seed_rejected(self):
        # Random(-5) seeds like Random(5), so -5 would repeat seed 5's output
        with pytest.raises(InvalidSpec, match=r"seed must be non-negative, got -5$"):
            ApproximantSpec(24, 2, seed=-5)
        assert ApproximantSpec(24, 2, seed=0).seed == 0


# (word-level draw, per-pair oracle) for each randomized builder
WORD_DRAWS = {
    "bipartite-l2r": (
        lambda rng, n: catalog._two_state_rows(rng, n, catalog._BIPARTITE_STATES[L2R]),
        lambda rng, n: pairwise_bit_rows(rng, n, PAIR_NONE, PAIR_LR)),
    "bipartite-r2l": (
        lambda rng, n: catalog._two_state_rows(rng, n, catalog._BIPARTITE_STATES[R2L]),
        lambda rng, n: pairwise_bit_rows(rng, n, PAIR_NONE, PAIR_RL)),
    "2partite": (
        lambda rng, n: catalog._two_state_rows(rng, n, catalog._TWO_PARTITE_STATES),
        lambda rng, n: pairwise_bit_rows(rng, n, PAIR_RL, PAIR_LR)),
    "orientation": (catalog._orientation_rows, pairwise_orientation_rows),
}


class TestWordDraws:
    @pytest.mark.parametrize("name", WORD_DRAWS)
    def test_matches_pairwise_draws(self, name):
        """Equal matrices, and the stream left in the same state, over
        three consecutive draws from one generator."""
        draw, oracle = WORD_DRAWS[name]
        for seed in range(21):
            for n in range(1, 41):
                fast, slow = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    assert list(map(list, draw(fast, n))) == oracle(slow, n), (seed, n)
                    assert fast.getstate() == slow.getstate(), (seed, n)

    def test_orientation_oracle_is_randrange(self):
        for seed in range(5):
            rng, ref = random.Random(seed), random.Random(seed)
            assert pairwise_orientation_rows(rng, 9) == [
                [ref.randrange(3) for _ in range(9)] for _ in range(9)]
            assert rng.getstate() == ref.getstate()

    def test_unreachable_build_never_lists_edges(self, refuse_edges):
        refuse_edges()
        with pytest.raises(ApproximantNotFound):
            generic_orientation_approx(ApproximantSpec(12, 2, seed=4))


class TestRandomizedBuilders:
    def test_reproducible(self):
        spec = ApproximantSpec(16, 1, seed=42)
        assert generic_2partite_approx(spec) == generic_2partite_approx(spec)
        spec_b = ApproximantSpec(16, 1, seed=43)
        assert generic_2partite_approx(spec_b) != generic_2partite_approx(spec)

    def test_bipartite_output_is_one_direction(self):
        d = generic_bipartite_approx(ApproximantSpec(16, 1, seed=1))
        assert d.is_bipartite_digraph()
        d = generic_bipartite_approx(ApproximantSpec(16, 1, seed=1), R2L)
        assert d.is_bipartite_digraph()
        assert all(u.startswith("y") for (u, _) in d.edges)

    def test_bipartite_passes_requested_level(self):
        d = generic_bipartite_approx(ApproximantSpec(32, 1, seed=5))
        assert check_generic_bipartite(d.underlying_bipartite(), 1).holds

    def test_two_partite_underlying_complete(self):
        d = generic_2partite_approx(ApproximantSpec(12, 1, seed=3))
        assert d.first_nonadjacent_pair() is None
        assert all(p[2] == 0 for p in d.degree_profile().values())

    def test_two_partite_passes_level2(self):
        d = generic_2partite_approx(ApproximantSpec(48, 2, seed=7))
        assert check_generic_2partite(d, 2).holds

    def test_orientation_passes_level2(self):
        d = generic_orientation_approx(ApproximantSpec(128, 2, seed=7))
        assert check_generic_orientation(d, 2).holds

    def test_tiny_level0(self):
        d = generic_bipartite_approx(ApproximantSpec(1, 0, seed=0))
        assert len(d.left) == 1 and d.is_bipartite_digraph()
        d = generic_2partite_approx(ApproximantSpec(1, 0, seed=0))
        assert len(d.edges) == 1
        d = generic_orientation_approx(ApproximantSpec(1, 0, seed=0))
        assert len(d.edges) <= 1

    def test_not_found_reports_best_level(self):
        # a four-vertex side cannot carry level-3 demands; every attempt
        # fails and the error reports what was achieved instead
        with pytest.raises(ApproximantNotFound) as err:
            generic_2partite_approx(ApproximantSpec(4, 3, seed=9))
        assert 0 <= err.value.best_level < 3

    def test_approximants_fail_homogeneity_with_counterexample(self):
        # finite approximants are essentially never homogeneous; what
        # matters is that the failure carries a checkable witness
        from twopartite.iso import extends_to_automorphism, is_homogeneous
        for builder in (generic_2partite_approx, generic_orientation_approx):
            d = builder(ApproximantSpec(48, 1, seed=17))
            verdict = is_homogeneous(d, 1)
            assert not verdict.holds
            assert verdict.counterexample is not None
            assert not extends_to_automorphism(d, verdict.counterexample)


class TestWitnessClosure:
    def test_level0_unchanged(self):
        base = empty_digraph(1, 1)
        assert witness_closure(base, Mode.TWO_PARTITE, 0, 10) == base

    def test_level1_closure_clears_original_defects(self):
        base = complete_bipartite_digraph(2, 2)
        closed = witness_closure(base, Mode.TWO_PARTITE, 1, 10)
        leftovers = [req for req
                     in iter_requirements(base.left, base.right, 1, Mode.TWO_PARTITE)
                     if brute_witness_scan(closed, req) is None]
        assert leftovers == []

    def test_originals_untouched_and_monotone(self):
        base = complete_bipartite_digraph(2, 2)
        closed = witness_closure(base, Mode.TWO_PARTITE, 1, 10)
        assert closed.induced(base.vertices()) == base
        assert set(base.edges) <= set(closed.edges)

    def test_two_partite_mode_keeps_completeness(self):
        base = matching_complement_pair(2)
        closed = witness_closure(base, Mode.TWO_PARTITE, 2, 32)
        assert closed.first_nonadjacent_pair() is None

    def test_orientation_mode(self):
        base = generic_orientation_approx(ApproximantSpec(4, 0, seed=2))
        closed = witness_closure(base, Mode.ORIENTATION, 1, 32)
        leftovers = [req for req
                     in iter_requirements(base.left, base.right, 1, Mode.ORIENTATION)
                     if brute_witness_scan(closed, req) is None]
        assert leftovers == []

    def test_bipartite_mode(self):
        base = matching_digraph(2)
        closed = witness_closure(base, Mode.BIPARTITE, 1, 32)
        assert closed.is_bipartite_digraph()
        leftovers = [req for req
                     in iter_requirements(base.left, base.right, 1, Mode.BIPARTITE)
                     if naive_witness(closed, req, Mode.BIPARTITE) is None]
        assert leftovers == []

    def test_bipartite_mode_rejects_mixed_input(self):
        with pytest.raises(InvalidSpec):
            witness_closure(matching_complement_pair(2), Mode.BIPARTITE, 1, 10)

    def test_cap_exceeded_carries_partial_and_defects(self):
        base = complete_bipartite_digraph(2, 2)
        with pytest.raises(CapExceeded) as err:
            witness_closure(base, Mode.TWO_PARTITE, 1, 1)
        partial = err.value.partial
        assert len(partial.vertices()) == len(base.vertices()) + 1
        assert err.value.defects
        for req in err.value.defects:
            assert brute_witness_scan(partial, req) is None

    def test_deterministic(self):
        base = complete_bipartite_digraph(2, 2)
        a = witness_closure(base, Mode.TWO_PARTITE, 1, 10)
        b = witness_closure(base, Mode.TWO_PARTITE, 1, 10)
        assert a == b

    def test_negative_cap_rejected(self):
        base = complete_bipartite_digraph(2, 2)
        with pytest.raises(ValidationError, match="non-negative"):
            witness_closure(base, Mode.TWO_PARTITE, 1, -1)
        with pytest.raises(CapExceeded):
            witness_closure(base, Mode.TWO_PARTITE, 1, 0)


# -- witness_closure outputs, pinned -------------------------------------------

def _closure_inputs(seed: int, one_direction: bool):
    rng = random.Random(seed)
    for _ in range(12):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        left = [f"x{i}" for i in range(1, m + 1)]
        right = [f"y{j}" for j in range(1, n + 1)]
        forward = rng.random() < 0.5
        edges = []
        for x in left:
            for y in right:
                state = rng.randrange(3)
                if one_direction and state:
                    state = 1 if forward else 2
                if state == 1:
                    edges.append((x, y))
                elif state == 2:
                    edges.append((y, x))
        yield build(left, right, edges)


def _closure_outcomes(mode: Mode, seed: int) -> str:
    """One line per (input, level, cap): the closure's JSON text, or the
    partial structure and the sorted remaining defects when the cap is
    exceeded."""
    lines = []
    for base in _closure_inputs(seed, one_direction=mode is Mode.BIPARTITE):
        for level, cap in ((1, 64), (2, 64), (2, 5)):
            try:
                lines.append(to_json_text(witness_closure(base, mode, level, cap)))
            except CapExceeded as exc:
                defects = [(r.side.value, sorted(r.a), sorted(r.b), sorted(r.c))
                           for r in exc.defects]
                lines.append(f"cap {to_json_text(exc.partial)} {defects!r}\n")
    return "".join(lines)


# SHA-256 of _closure_outcomes, computed with the earlier closure that ran
# brute_witness_scan over every requirement from iter_requirements (on the
# underlying undirected graph in BIPARTITE mode).
PINNED_CLOSURES = [
    (Mode.TWO_PARTITE, 11,
     "da9687768c733c9e4222bd88db3f029236f439409a4ea86b4ec024179623bf07"),
    (Mode.ORIENTATION, 12,
     "09da5d2c2c073f2ddecc4eb7d1466ba77ae531ba94745736bfa2b3e3be73d7c5"),
    (Mode.BIPARTITE, 13,
     "534181cf0da61e8addad9ea85b4dad80944333698e1cd84c2d2e8edbf03e5369"),
]


@pytest.mark.parametrize("mode,seed,digest", PINNED_CLOSURES)
def test_closure_outputs_pinned(mode, seed, digest):
    text = _closure_outcomes(mode, seed)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("mode", list(Mode))
def test_closure_matches_edge_list_closure(mode):
    # the closure that appends rows and columns gives the structures, and
    # at the cap the message, partial structure and defects, of the one
    # that rebuilt its edge list through build each round
    def outcome(closure, base, level, cap):
        try:
            return closure(base, mode, level, cap)
        except CapExceeded as exc:
            return str(exc), exc.partial, exc.defects

    enough = 10 ** 6
    for seed in (31, 32):
        for base in _closure_inputs(seed, one_direction=mode is Mode.BIPARTITE):
            for level in range(3):
                for cap in (0, 1, enough):
                    ours = outcome(witness_closure, base, level, cap)
                    assert ours == outcome(edge_list_closure, base, level, cap)
                    if cap == enough:
                        assert ours.edges == edge_list_closure(base, mode, level, cap).edges


def test_closure_defects_match_naive_scan():
    # the kernel over the cut pools reports exactly the requirements over
    # the original vertices that no vertex of the partial structure witnesses
    for mode in Mode:
        for base in _closure_inputs(21, one_direction=mode is Mode.BIPARTITE):
            try:
                witness_closure(base, mode, 2, 3)
            except CapExceeded as exc:
                want = [req for req in iter_requirements(base.left, base.right, 2, mode)
                        if naive_witness(exc.partial, req, mode) is None]
                assert set(exc.defects) == set(want)
                assert list(exc.defects) == sorted(want, key=requirement_sort_key)
