import pytest

from twopartite.backforth import BafTrace, back_and_forth, replay, uniqueness_demo
from twopartite.catalog import (
    ApproximantSpec,
    complete_bipartite_digraph,
    generic_2partite_approx,
    generic_orientation_approx,
    matching_complement_pair,
)
from twopartite.errors import (
    InsufficientGenericity,
    InvalidPartialMap,
    InvalidSpec,
    TargetExceedsStructure,
)
from twopartite.genericity import Mode, brute_witness_scan
from twopartite.iso import is_valid_partial_iso


class TestBackAndForth:
    def test_target_zero(self):
        d = matching_complement_pair(2)
        pm, trace = back_and_forth(d, d, Mode.TWO_PARTITE, 0)
        assert len(pm) == 0 and trace.steps == ()

    def test_self_alignment_full_cover(self):
        # aligning a structure with itself in stored order finds the
        # identity; the level precondition is irrelevant here
        m3 = matching_complement_pair(3)
        pm, trace = back_and_forth(m3, m3, Mode.TWO_PARTITE, 6, precheck=False)
        assert pm.is_identity() and len(pm) == 6

    def test_alternation_and_replay(self):
        d1 = generic_2partite_approx(ApproximantSpec(48, 2, seed=1))
        d2 = generic_2partite_approx(ApproximantSpec(48, 2, seed=2))
        pm, trace = back_and_forth(d1, d2, Mode.TWO_PARTITE, 2)
        assert [s.direction for s in trace.steps] == ["forth", "back"]
        prefixes = replay(d1, d2, trace)
        assert prefixes[-1] == pm

    def test_deterministic(self):
        d1 = generic_2partite_approx(ApproximantSpec(48, 2, seed=3))
        d2 = generic_2partite_approx(ApproximantSpec(48, 2, seed=4))
        assert back_and_forth(d1, d2, Mode.TWO_PARTITE, 2) == \
            back_and_forth(d1, d2, Mode.TWO_PARTITE, 2)

    def test_success_guarantee_two_partite(self):
        # level-verified structures never strand the construction:
        # many seed pairs at level 2, and a deeper pair at level 3
        for seed in range(10):
            d1 = generic_2partite_approx(ApproximantSpec(48, 2, seed=2 * seed))
            d2 = generic_2partite_approx(ApproximantSpec(48, 2, seed=2 * seed + 1))
            pm, trace = back_and_forth(d1, d2, Mode.TWO_PARTITE, 2)
            assert len(pm) == 2
            for prefix in replay(d1, d2, trace):
                assert is_valid_partial_iso(d1, d2, prefix)

    def test_success_guarantee_level3(self):
        d1 = generic_2partite_approx(ApproximantSpec(160, 3, seed=31))
        d2 = generic_2partite_approx(ApproximantSpec(160, 3, seed=32))
        pm, trace = back_and_forth(d1, d2, Mode.TWO_PARTITE, 3)
        assert len(pm) == 3
        replay(d1, d2, trace)

    def test_success_guarantee_orientation(self):
        d1 = generic_orientation_approx(ApproximantSpec(128, 2, seed=5))
        d2 = generic_orientation_approx(ApproximantSpec(128, 2, seed=6))
        pm, trace = back_and_forth(d1, d2, Mode.ORIENTATION, 2)
        assert len(pm) == 2
        replay(d1, d2, trace)

    def test_adversarial_order(self):
        # starting from the far end of both structures changes the map
        # but not success
        d1 = generic_2partite_approx(ApproximantSpec(48, 2, seed=7))
        d2 = generic_2partite_approx(ApproximantSpec(48, 2, seed=8))
        pm, trace = back_and_forth(d1, d2, Mode.TWO_PARTITE, 2,
                                   order1=tuple(reversed(d1.vertices())),
                                   order2=tuple(reversed(d2.vertices())))
        assert len(pm) == 2
        replay(d1, d2, trace)

    def test_insufficient_genericity_carries_defect(self):
        # the one-direction complete structure fails every a-demand
        d = complete_bipartite_digraph(4, 4)
        with pytest.raises(InsufficientGenericity) as err:
            back_and_forth(d, d, Mode.ORIENTATION, 2)
        req = err.value.requirement
        assert req is not None
        assert brute_witness_scan(d, req) is None

    def test_target_exceeds_structure(self):
        with pytest.raises(TargetExceedsStructure):
            back_and_forth(matching_complement_pair(2), matching_complement_pair(2), Mode.TWO_PARTITE, 5)

    def test_negative_target_names_the_value(self):
        with pytest.raises(InvalidSpec, match=r"target size must be non-negative, got -1$"):
            back_and_forth(matching_complement_pair(2), matching_complement_pair(2), Mode.TWO_PARTITE, -1)

    def test_bipartite_mode_rejected(self):
        with pytest.raises(InvalidSpec):
            back_and_forth(matching_complement_pair(2), matching_complement_pair(2), Mode.BIPARTITE, 1)


class TestReplayValidation:
    def test_rejects_wrong_alternation(self):
        d1 = generic_2partite_approx(ApproximantSpec(48, 2, seed=1))
        d2 = generic_2partite_approx(ApproximantSpec(48, 2, seed=2))
        pm, trace = back_and_forth(d1, d2, Mode.TWO_PARTITE, 2)
        broken = BafTrace((trace.steps[1], trace.steps[0]), pm)
        with pytest.raises(InvalidPartialMap):
            replay(d1, d2, broken)

    def test_rejects_corrupted_witness(self):
        d1 = generic_2partite_approx(ApproximantSpec(48, 2, seed=1))
        d2 = generic_2partite_approx(ApproximantSpec(48, 2, seed=2))
        pm, trace = back_and_forth(d1, d2, Mode.TWO_PARTITE, 2)
        first = trace.steps[0]
        bad_witness = next(v for v in d2.left if v != first.witness
                           and set(d2.out_neighbourhood(v))
                           != set(d2.out_neighbourhood(first.witness)))
        # rewriting a later step against that witness must break a prefix
        second = trace.steps[1]
        broken = BafTrace(
            (type(first)(first.direction, first.vertex, first.requirement, bad_witness),
             second), pm)
        with pytest.raises(InvalidPartialMap):
            replay(d1, d2, broken)


class TestUniquenessDemo:
    def test_trivial(self):
        report = uniqueness_demo(1, 0, 1, 2, Mode.TWO_PARTITE)
        assert report.status == "success" and len(report.result) == 0

    def test_two_partite_level2(self):
        report = uniqueness_demo(48, 2, 100, 200, Mode.TWO_PARTITE)
        assert report.status == "success"
        assert len(report.result) == 2

    def test_builder_level_covering_the_target_skips_the_precheck(self, monkeypatch):
        import twopartite.backforth as backforth
        calls = []
        original = backforth.first_defect
        monkeypatch.setattr(backforth, "first_defect",
                            lambda *args: calls.append(args) or original(*args))
        assert uniqueness_demo(16, 2, 3, 4, Mode.TWO_PARTITE).status == "success"
        assert uniqueness_demo(32, 1, 3, 4, Mode.ORIENTATION).status == "success"
        assert uniqueness_demo(16, 1, 3, 4, Mode.TWO_PARTITE, build_level=2).status == "success"
        assert calls == []
        # a build level below the target keeps the check
        report = uniqueness_demo(16, 2, 3, 4, Mode.TWO_PARTITE, build_level=1)
        assert report.status == "insufficient-genericity" and calls

    def test_insufficient_level_reported_not_raised(self):
        # approximants verified only to level 2 cannot back a target of 4
        report = uniqueness_demo(48, 4, 100, 200, Mode.TWO_PARTITE, build_level=2)
        assert report.status == "insufficient-genericity"
        assert report.requirement is not None

    def test_build_failure_reported(self):
        # level 3 on a four-vertex side is unreachable for the builder
        report = uniqueness_demo(4, 3, 1, 2, Mode.TWO_PARTITE)
        assert report.status == "build-failed"

    def test_bipartite_mode_rejected(self):
        with pytest.raises(InvalidSpec):
            uniqueness_demo(4, 1, 1, 2, Mode.BIPARTITE)
