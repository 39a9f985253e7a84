import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import twopartite
from twopartite import build, from_json_text, to_json_text
from twopartite.catalog import (
    Direction,
    complete_bipartite_digraph,
    empty_digraph,
    matching_complement_pair,
    matching_digraph,
)
from twopartite.cli import _ROWS_PER_WRITE, _write_report, run
from twopartite.core import Side
from twopartite.genericity import GenericityReport, Mode, check_generic_orientation

from conftest import cycle_structure, report_json, shuffled_copy


# SHA-256 of the stdout of the 5x5 census commands, computed with the
# census that canonicalised every side-regular state vector (then behind
# --force).
PINNED_FIVE_BY_FIVE = {
    "enum": "9a844a73a80a3a72c45970414f50e93e27245ada6e27ff304eefca65fddd48e4",
    "verify": "10ac55848e173d6606c6554e375d37f7fe3c81a503b3ad299c844dfbf6eed7cf",
}


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, structure):
    path = tmp_path / name
    path.write_text(to_json_text(structure), encoding="utf-8")
    return str(path)


class TestGen:
    def test_every_constructor_has_a_name(self):
        for argv in (
            ["gen", "complete", "--m", "2", "--n", "3", "--dir", "r2l"],
            ["gen", "empty", "--m", "2", "--n", "2"],
            ["gen", "matching", "--size", "3"],
            ["gen", "complement-matching", "--size", "3"],
            ["gen", "matching-complement", "--size", "2"],
            ["gen", "generic-bipartite", "--size", "16", "--level", "1", "--seed", "1"],
            ["gen", "generic-2partite", "--size", "16", "--level", "1", "--seed", "1"],
            ["gen", "generic-orientation", "--size", "32", "--level", "1", "--seed", "1"],
        ):
            code, out, _ = cli(*argv)
            assert code == 0, argv
            from_json_text(out)  # parses and validates

    def test_gen_m2_payload(self):
        code, out, _ = cli("gen", "matching-complement", "--size", "2")
        assert code == 0
        assert from_json_text(out) == matching_complement_pair(2)

    def test_randomized_requires_seed(self):
        code, _, err = cli("gen", "generic-2partite", "--size", "8", "--level", "1")
        assert code == 2 and "--seed" in err

    def test_unreachable_level_exits_one(self):
        code, out, _ = cli("gen", "generic-2partite", "--size", "4",
                           "--level", "3", "--seed", "1")
        assert code == 1
        payload = json.loads(out)
        assert payload["built"] is False and "best_level" in payload

    @pytest.mark.parametrize("argv", [
        ["gen", "matching", "--size", "-3"],
        ["gen", "complete", "--m", "-2"],
    ])
    def test_negative_size_exits_two(self, argv):
        code, out, err = cli(*argv)
        assert code == 2 and out == "" and "non-negative" in err

    def test_negative_seed_exits_two(self):
        # Random(-5) seeds like Random(5): a negative seed must not alias
        for argv in (["gen", "generic-2partite", "--size", "24", "--level", "2", "--seed", "-5"],
                     ["baf", "--mode", "2partite", "--size", "16", "--level", "1",
                      "--seed1", "3", "--seed2", "-4"]):
            code, out, err = cli(*argv)
            assert code == 2 and out == "", argv
            assert "seed must be non-negative, got -" in err and "Traceback" not in err

    def test_closure(self, tmp_path):
        base = write(tmp_path, "base.json", matching_complement_pair(2))
        code, out, _ = cli("gen", "closure", "--in", base, "--mode", "2partite",
                           "--level", "1", "--cap", "16")
        assert code == 0
        from_json_text(out)

    def test_closure_negative_cap_exits_two(self, tmp_path):
        base = write(tmp_path, "base.json", matching_complement_pair(2))
        code, out, err = cli("gen", "closure", "--in", base, "--mode", "2partite",
                             "--level", "1", "--cap", "-1")
        assert code == 2 and out == "" and "non-negative" in err
        unwitnessed = write(tmp_path, "k22.json", complete_bipartite_digraph(2, 2))
        code, out, _ = cli("gen", "closure", "--in", unwitnessed, "--mode", "2partite",
                           "--level", "1", "--cap", "0")
        assert code == 1 and json.loads(out)["error"] == "cap-exceeded"


class TestVerdictCommands:
    def test_check_hom_holds(self, tmp_path):
        path = write(tmp_path, "m2.json", matching_complement_pair(2))
        code, out, _ = cli("check-hom", "--in", path)
        assert code == 0 and json.loads(out)["holds"] is True

    def test_check_hom_fails_exit_one(self, tmp_path):
        from twopartite import build
        bad = build(["x1", "x2"], ["y1"], [("x1", "y1")])
        path = write(tmp_path, "bad.json", bad)
        code, out, _ = cli("check-hom", "--in", path, "--exact")
        assert code == 1
        payload = json.loads(out)
        assert payload["holds"] is False and payload["counterexample"]["pairs"]

    def test_check_generic(self, tmp_path):
        path = write(tmp_path, "m5.json", matching_complement_pair(5))
        code, out, _ = cli("check-generic", "--in", path, "--mode", "2partite",
                           "--level", "1")
        assert code == 0 and json.loads(out)["holds"] is True
        code, out, _ = cli("check-generic", "--in", path, "--mode", "2partite",
                           "--level", "2")
        assert code == 1
        payload = json.loads(out)
        defect = payload["defects"][0]
        assert defect["a"] == [] and len(defect["b"]) == 2

    def test_classify(self, tmp_path):
        path = write(tmp_path, "e.json", from_json_text('{"x":["a","b"],"y":["c","d"],"edges":[]}'))
        code, out, _ = cli("classify", "--exact", "--in", path)
        assert code == 0
        assert json.loads(out)["subkind"] == "empty_bipartite"

    def test_classify_profile_level(self, tmp_path):
        path = write(tmp_path, "m4.json", matching_complement_pair(4))
        code, out, _ = cli("classify", "--level", "1", "--in", path)
        assert code == 0 and json.loads(out)["case"] == "matching_complement"

    def test_iso_negative(self, tmp_path):
        p1 = write(tmp_path, "a.json", matching_digraph(2))
        p2 = write(tmp_path, "b.json", matching_digraph(2, Direction.RIGHT_TO_LEFT))
        code, out, _ = cli("iso", "--in1", p1, "--in2", p2)
        assert code == 1 and json.loads(out)["isomorphic"] is False

    def test_iso_positive(self, tmp_path):
        p1 = write(tmp_path, "a.json", matching_complement_pair(2))
        p2 = write(tmp_path, "b.json", matching_complement_pair(2).relabel({"x1": "q"}))
        code, out, _ = cli("iso", "--in1", p1, "--in2", p2)
        assert code == 0 and json.loads(out)["map"]["pairs"]

    def test_aut(self, tmp_path):
        path = write(tmp_path, "m.json", matching_digraph(3))
        code, out, _ = cli("aut", "--in", path)
        assert code == 0 and json.loads(out)["count"] == 6

    def test_negative_bounds_exit_two(self, tmp_path):
        path = write(tmp_path, "m.json", matching_digraph(2))
        for argv in (["check-hom", "--in", path, "--k", "-1"],
                     ["aut", "--in", path, "--cap", "-1"]):
            code, out, err = cli(*argv)
            assert code == 2 and out == "" and "non-negative" in err, argv

    def test_negative_level_exits_two(self, tmp_path):
        path = write(tmp_path, "m.json", matching_digraph(2))
        code, out, err = cli("check-generic", "--in", path, "--mode", "orientation",
                             "--level", "-1")
        assert code == 2 and out == "" and "non-negative" in err

    def test_classify_negative_level_exits_two(self, tmp_path):
        # complete 2x2 matches a structural kind before any level check runs
        path = write(tmp_path, "k22.json", complete_bipartite_digraph(2, 2))
        code, out, err = cli("classify", "--in", path, "--level", "-1")
        assert code == 2 and out == "" and "non-negative" in err

    def test_check_generic_load_never_lists_edges(self, tmp_path, refuse_edges):
        path = write(tmp_path, "pair.json", matching_complement_pair(4))
        expected = cli("check-generic", "--in", path, "--mode", "orientation", "--level", "2")
        refuse_edges()
        assert cli("check-generic", "--in", path, "--mode", "orientation",
                   "--level", "2") == expected
        assert expected[0] == 1

    def test_check_generic_bipartite_reads_adjacency(self, tmp_path):
        # the two-direction pair and its underlying graph get one report
        pair = write(tmp_path, "pair.json", matching_complement_pair(3))
        graph = write(tmp_path, "graph.json", matching_complement_pair(3).underlying_bipartite())
        runs = [cli("check-generic", "--in", path, "--mode", "bipartite", "--level", "1")
                for path in (pair, graph)]
        assert runs[0] == runs[1] and runs[0][0] == 1

    @pytest.mark.parametrize("command", [
        ["check-generic", "--mode", "2partite", "--level", "1"],
        ["enum", "--max-x", "1", "--max-y", "1"],
        ["verify", "--max-x", "1", "--max-y", "1"],
    ])
    def test_jobs_is_a_usage_error(self, tmp_path, command):
        if command[0] == "check-generic":
            command = command + ["--in", write(tmp_path, "m.json", matching_digraph(2))]
        code, out, err = cli(*command, "--jobs", "2")
        assert (code, out) == (2, "") and "unrecognized arguments: --jobs" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ["bipartite", "2partite", "orientation"])
    def test_check_generic_level_past_the_pools(self, tmp_path, mode):
        # no requirement has more demands than a side has vertices, so a
        # huge level reports what level 2 reports on a 2x2 matching
        path = write(tmp_path, "m.json", matching_digraph(2))
        start = time.perf_counter()
        far = cli("check-generic", "--in", path, "--mode", mode, "--level", "1000000000")
        assert time.perf_counter() - start < 2
        near = cli("check-generic", "--in", path, "--mode", mode, "--level", "2")
        assert far == (near[0], near[1].replace('"level":2', '"level":1000000000'), near[2])
        assert far[1].count('"level":') == 1

    def test_check_hom_k_past_the_vertices(self, tmp_path):
        path = write(tmp_path, "m.json", matching_digraph(2))
        start = time.perf_counter()
        far = cli("check-hom", "--in", path, "--k", "1000000000")
        assert time.perf_counter() - start < 2
        assert far == cli("check-hom", "--in", path, "--k", "4")


class TestBafEnumVerify:
    def test_baf_success_trace(self):
        code, out, _ = cli("baf", "--mode", "2partite", "--size", "16",
                           "--level", "1", "--seed1", "3", "--seed2", "4")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[-1]["status"] == "success"
        assert lines[0]["direction"] == "forth"

    def test_baf_failure_exit_one(self):
        code, out, _ = cli("baf", "--mode", "2partite", "--size", "4",
                           "--level", "3", "--seed1", "1", "--seed2", "2")
        assert code == 1
        assert json.loads(out.splitlines()[-1])["status"] == "build-failed"

    def test_enum_jsonl(self):
        code, out, err = cli("enum", "--max-x", "1", "--max-y", "1")
        assert code == 0
        entries = [json.loads(line) for line in out.splitlines()]
        assert len(entries) == 6
        assert all(e["holds"] for e in entries)
        assert "6 homogeneous classes" in err

    def test_enum_four_by_four(self):
        # the stdout of ``enum --max-x 4 --max-y 4 --force`` from the census
        # that also had a budget of 12 labelled pairs
        code, out, err = cli("enum", "--max-x", "4", "--max-y", "4")
        assert (code, err) == (0, "72 homogeneous classes\n")
        assert _sha(out) == "8df7e98db9dd7f2234b9aac8ed3ae64eb71ddba471c9107652cf4933498b9554"

    @pytest.mark.parametrize("argv", [["verify", "--max-x", "7", "--max-y", "7"],
                                      ["enum", "--max-x", "100", "--max-y", "100"]])
    def test_range_over_the_automorphism_cap_exits_two(self, argv):
        # 7!7! and 100!100! exceed the decider's cap of 10^6
        code, out, err = cli(*argv)
        assert (code, out) == (2, "")
        assert err == "error: automorphism group exceeds cap of 1000000 maps\n"

    @pytest.mark.parametrize("command", ["enum", "verify"])
    def test_force_is_a_usage_error(self, command):
        code, out, err = cli(command, "--max-x", "2", "--max-y", "2", "--force")
        assert (code, out) == (2, "") and "unrecognized arguments: --force" in err

    def test_verify_small(self):
        code, out, _ = cli("verify", "--max-x", "2", "--max-y", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["homogeneous_classes"] == 20

    def test_verify_four_by_three_within_budget(self):
        code, out, _ = cli("verify", "--max-x", "4", "--max-y", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["classes_scanned"] == 6327
        assert payload["homogeneous_classes"] == 53

    def test_one_row_group_over_cap_exits_two(self, tmp_path):
        # the decider refuses a group above its cap (10! here) at once,
        # from the group order alone
        code, out, err = cli("check-hom", "--exact", "--in",
                             write(tmp_path, "row.json", empty_digraph(1, 10)))
        assert (code, out) == (2, "")
        assert err == "error: automorphism group exceeds cap of 1000000 maps\n"

    def test_aut_group_over_cap_exits_two_at_once(self, tmp_path):
        # 7!^2 maps: the stabiliser chain's order refuses them before any
        # is listed
        path = write(tmp_path, "empty7.json", empty_digraph(7, 7))
        start = time.perf_counter()
        code, out, err = cli("aut", "--in", path)
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == "error: automorphism group exceeds cap of 1000000 maps\n"

    def test_verify_four_by_four_forced(self):
        from twopartite.census import _catalog_in_range
        from twopartite.iso import canonical_form
        code, out, _ = cli("verify", "--max-x", "4", "--max-y", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["discrepancies"] == []
        assert payload["classes_scanned"] == 102155
        # every homogeneous class in range is a catalog structure
        catalog = {canonical_form(s) for _, s in _catalog_in_range(4, 4)}
        assert payload["homogeneous_classes"] == len(catalog) == 72

    def test_verify_six_by_six_forced(self):
        from twopartite.census import _catalog_in_range
        from twopartite.iso import canonical_form
        code, out, _ = cli("verify", "--max-x", "6", "--max-y", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["discrepancies"] == []
        assert payload["classes_scanned"] == 308_036_488_045
        catalog = {canonical_form(s) for _, s in _catalog_in_range(6, 6)}
        assert payload["homogeneous_classes"] == len(catalog) == 148

    @pytest.mark.parametrize("command", sorted(PINNED_FIVE_BY_FIVE))
    def test_five_by_five_forced_payload(self, command):
        code, out, _ = cli(command, "--max-x", "5", "--max-y", "5")
        assert code == 0
        assert _sha(out) == PINNED_FIVE_BY_FIVE[command]

    @pytest.mark.parametrize("command", ["enum", "verify"])
    def test_negative_census_bound_exits_two(self, command):
        for bounds in (["-1", "2"], ["2", "-1"]):
            code, out, err = cli(command, "--max-x", bounds[0], "--max-y", bounds[1])
            assert code == 2 and out == "" and "non-negative" in err, bounds

    def test_module_entry_point(self):
        # ``python -m twopartite.cli`` runs the command and exits with its code
        env = _module_env()
        argv = [sys.executable, "-m", "twopartite.cli", "verify", "--max-x", "1", "--max-y", "1"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] and payload["classes_scanned"] == 6
        proc = subprocess.run(argv[:4] + ["--max-x", "-1", "--max-y", "1"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""

    @pytest.mark.parametrize("command", ["enum", "check-generic"])
    def test_closed_stdout_exits_one_without_traceback(self, tmp_path, command):
        argv = ["enum", "--max-x", "3", "--max-y", "3"]
        if command == "check-generic":
            structure = empty_digraph(30, 30)
            # more rows than one write of the streamed report
            assert len(check_generic_orientation(structure, 2).rows) > _ROWS_PER_WRITE
            argv = ["check-generic", "--mode", "orientation", "--level", "2",
                    "--in", write(tmp_path, "empty.json", structure)]
        # the read end is closed before the child starts, so its first write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "twopartite.cli", *argv],
                                  env=_module_env(), stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr


def _module_env() -> dict[str, str]:
    """This environment with the package's source first on the path."""
    env = dict(os.environ)
    src = str(Path(twopartite.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestConvertAndErrors:
    def test_json_normalization_idempotent(self, tmp_path):
        # hand-written file with scrambled edge order
        messy = tmp_path / "messy.json"
        messy.write_text('{"edges": [["y1","x2"], ["x1","y1"]], '
                         '"y": ["y1"], "x": ["x1","x2"]}', encoding="utf-8")
        code, out1, _ = cli("convert", "--in", str(messy), "--format", "json")
        assert code == 0
        again = tmp_path / "again.json"
        again.write_text(out1, encoding="utf-8")
        code, out2, _ = cli("convert", "--in", str(again), "--format", "json")
        assert out1 == out2  # byte-for-byte after normalization

    def test_dot_round_trip_preserves_structure(self, tmp_path):
        path = write(tmp_path, "m2.json", matching_complement_pair(2))
        code, dot, _ = cli("convert", "--in", path, "--format", "dot")
        assert code == 0
        for (u, v) in matching_complement_pair(2).edges:
            assert f'"{u}" -> "{v}";' in dot

    def test_malformed_json_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"x": [,]}', encoding="utf-8")
        code, _, err = cli("classify", "--in", str(bad))
        assert code == 2 and "line 1" in err

    def test_validation_error_names_file(self, tmp_path):
        bad = tmp_path / "overlap.json"
        bad.write_text('{"x": ["a"], "y": ["a"], "edges": []}', encoding="utf-8")
        code, _, err = cli("check-hom", "--in", str(bad))
        assert code == 2 and "overlap.json" in err

    def test_unhashable_endpoint(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text('{"x":["a"],"y":["b"],"edges":[[["a"],"b"]]}', encoding="utf-8")
        code, out, err = cli("convert", "--in", str(bad))
        assert code == 2 and out == ""
        assert "unhashable" in err and "Traceback" not in err

    @pytest.mark.parametrize("content,message", [
        (b"\xff\xfe", "not UTF-8: invalid start byte at byte 0"),
        (b'{"x": ["x\xe9"]}', "not UTF-8: invalid continuation byte at byte 9"),
        (b"[" * 1000, "invalid JSON: nested too deeply"),
        (b"[" * 5000 + b"]" * 5000, "invalid JSON: nested too deeply"),
    ], ids=["bom", "latin-1", "open", "closed"])
    @pytest.mark.parametrize("command", [["convert"], ["classify", "--level", "1"],
                                         ["check-generic", "--mode", "orientation", "--level", "2"],
                                         ["aut"]])
    def test_unparsable_bytes(self, tmp_path, content, message, command):
        bad = tmp_path / "bytes.json"
        bad.write_bytes(content)
        code, out, err = cli(*command, "--in", str(bad))
        assert (code, out, err) == (2, "", f"error: {bad}: {message}\n")

    def test_unparsable_bytes_in_either_iso_input(self, tmp_path):
        bad = tmp_path / "bytes.json"
        bad.write_bytes(b"\xff\xfe")
        good = write(tmp_path, "m2.json", matching_complement_pair(2))
        for pair in ((str(bad), good), (good, str(bad))):
            code, out, err = cli("iso", "--in1", pair[0], "--in2", pair[1])
            assert (code, out) == (2, "") and err.startswith(f"error: {bad}: not UTF-8")

    def test_missing_file(self):
        code, _, err = cli("classify", "--in", "/no/such/file.json")
        assert code == 2

    def test_usage_error(self):
        code, _, _ = cli("frobnicate")
        assert code == 2

    def test_missing_required_flag(self):
        code, _, _ = cli("check-hom")
        assert code == 2


# -- pinned defect reports ------------------------------------------------------
#
# Dense inputs whose ids need JSON escaping (quote, backslash, non-ASCII) and
# whose string order, stored order and numeric order all differ.

_ODD_LEFT = ["x10", 'x"q', "x2", "x\\b", "x\u00e9", "x1", "x\u65e5", "x33", "x03"]
_ODD_RIGHT = ["y7", "y\\", 'y"', "y12", "y\u00fc", "y1", "y0", "y\u2603"]


def _odd_structure(seed: int, states: int):
    """A random structure on the odd ids, each pair drawn from the first
    ``states`` of (left-to-right, right-to-left, non-adjacent)."""
    import random
    from twopartite import build
    rng = random.Random(seed)
    edges = []
    for x in _ODD_LEFT:
        for y in _ODD_RIGHT:
            state = rng.randrange(states)
            if state < 2:
                edges.append((x, y) if state == 0 else (y, x))
    return build(_ODD_LEFT, _ODD_RIGHT, edges)


def _transcript(runs) -> str:
    """Exit code, stdout and stderr of each command, one after another."""
    parts = []
    for argv in runs:
        code, out, err = cli(*argv)
        parts.append(f"{argv!r} {code}\n{out}{err}")
    return "".join(parts)


def _sha(text: str) -> str:
    import hashlib
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of the transcripts.  Their payloads are those of the collector
# that built a Requirement per defect and sorted by requirement_sort_key:
# the digests were recomputed, when the --jobs runs left the list, on code
# whose full transcript still had that collector's digests.
PINNED_CHECK_GENERIC = {
    "bipartite": "41414bc3f684a0e753a02a6d2bc379d4ce8870f5d2f6941f64e99db465dbdbd2",
    "2partite": "80a5b75afef5b40c8fb195f6759045550b7bbacf4560d8b1d366d6fd086d45e2",
    "orientation": "94613940b663efad53b3b8431470c9cf2afa7b533962ce183f716fe423ee9b30",
}
# SHA-256 of a baf transcript (a success in each mode, then approximants
# built below the target), computed while uniqueness_demo re-checked both
# approximants at the target before every alignment.  The failed precheck
# names the level report's first defect, ``a=[x4, x7]``.
PINNED_BAF = "a859edaf25f266fa3767e6c9cc8079327a89146575130ec2ecf882e1eee07047"
PINNED_CAP_EXCEEDED = "5319645eb253ed2f966ee3108489079e3c7a5be093029deeb61b4c4b9d21d986"

# SHA-256 of the payloads of the map search and the decider, computed with
# the pairwise search and the decider that walked every valid image.
PINNED_MAP_SEARCH = {
    "aut": "13c3e526698e2f729f1e3093d4fdaf73e64770667cb4573a764e44e7c2c4b24d",
    "iso": "87f5275b3b8c75565418f4f158f91faea44023af819dbe43f387457884171318",
    "check-hom": "d49f14f74a016e3e0abfc83461b0ba98cd09199f48c3dbcb5103ae7ba6af37de",
}
# SHA-256 of the ``aut`` payloads of three disjoint 8-cycles on 12x12
# sides (3,072 maps each), computed on the listing by one full map search.
PINNED_AUT_CYCLES = "dbab367f404567d719269fc6425a30e03928154b5f29b9166033386cd7bb8e90"

# SHA-256 of the transcripts of two census commands, computed with the
# colour refinement that spelled out each side and the canonical form that
# grouped colours by their values: the TP1 bytes order the classes.
PINNED_CENSUS = {
    "enum": "905d78af45eae9edd75eda126f98e4da1ba37d7664e76749121405ff3960670b",
    "verify": "371631252ff4956d0d27bfc30a1a6f017c5341ae0ba12cd7277589ef7163cc88",
}

# SHA-256 of the check-generic payload of 127,520 rows on a 160x160 level-3
# generic-2partite approximant, computed with the writer that formatted
# one row at a time.
PINNED_LARGE_REPORT = "bda3200b273d2456a782198e16acc7e176ed466b8d15db11f5642393734aa941"


def _map_search_inputs(tmp_path) -> dict[str, list[list[str]]]:
    """Inputs, most listed in an order unlike their id order, and the runs of
    ``aut``, ``iso`` and ``check-hom --exact`` on them."""
    import random
    rng = random.Random(8)
    cycle = cycle_structure((8,), False)
    paths = {name: write(tmp_path, f"{name}.json", structure) for name, structure in (
        ("complete4", shuffled_copy(complete_bipartite_digraph(4, 4), rng)),
        ("matching5", shuffled_copy(matching_digraph(5), rng)),
        ("cycle16", cycle),
        ("relabelled16", shuffled_copy(cycle, rng)),
        ("cycles6_10", cycle_structure((3, 5), False)),
        ("odd", _odd_structure(6, 3)),
        ("split", build(["a", "b", "c", "d"], ["p", "q", "r", "s"],
                        [("a", "p"), ("a", "q"), ("b", "p"), ("b", "q"),
                         ("c", "r"), ("c", "s"), ("d", "r"), ("d", "s")])),
        ("empty3", empty_digraph(3, 3)),
    )}
    return {
        "aut": [["aut", "--in", paths[name]] for name in ("complete4", "matching5")],
        "iso": [["iso", "--in1", paths["cycle16"], "--in2", paths[other]]
                for other in ("relabelled16", "cycles6_10")],
        "check-hom": [["check-hom", "--exact", "--in", paths[name]]
                      for name in ("cycle16", "odd", "split", "empty3")],
    }



class TestPinnedPayloads:
    @pytest.mark.parametrize("mode", sorted(PINNED_CHECK_GENERIC))
    def test_check_generic_transcript(self, tmp_path, mode):
        paths = [write(tmp_path, "three.json", _odd_structure(1, 3)),
                 write(tmp_path, "two.json", _odd_structure(2, 2)),
                 write(tmp_path, "one.json", _odd_structure(3, 3).underlying_bipartite())]
        runs = [["check-generic", "--in", path, "--mode", mode, "--level", str(level)]
                for path in paths for level in range(4)]
        assert _sha(_transcript(runs).replace(str(tmp_path), "")) == PINNED_CHECK_GENERIC[mode]

    def test_large_orientation_report(self, tmp_path):
        code, out, _ = cli("gen", "generic-2partite", "--size", "160", "--level", "3",
                           "--seed", "31394")
        assert code == 0
        path = tmp_path / "gen.json"
        path.write_text(out, encoding="utf-8")
        code, out, err = cli("check-generic", "--mode", "orientation", "--level", "2",
                             "--in", str(path))
        assert (code, err) == (1, "")
        assert out.count('{"side":') == 127_520
        assert _sha(out) == PINNED_LARGE_REPORT

    def test_baf_transcript(self):
        runs = [["baf", "--mode", "2partite", "--size", "16", "--level", "2",
                 "--seed1", "3", "--seed2", "4"],
                ["baf", "--mode", "orientation", "--size", "32", "--level", "1",
                 "--seed1", "3", "--seed2", "4"],
                ["baf", "--mode", "2partite", "--size", "16", "--level", "2",
                 "--build-level", "1", "--seed1", "3", "--seed2", "4"]]
        assert _sha(_transcript(runs)) == PINNED_BAF

    def test_closure_cap_exceeded_transcript(self, tmp_path):
        three = write(tmp_path, "three.json", _odd_structure(4, 3))
        one = write(tmp_path, "one.json", _odd_structure(5, 3).underlying_bipartite())
        runs = [["gen", "closure", "--in", path, "--mode", mode, "--level", "2",
                 "--cap", str(cap)]
                for path, mode in ((three, "2partite"), (three, "orientation"),
                                   (one, "bipartite"))
                for cap in (0, 5)]
        text = _transcript(runs).replace(str(tmp_path), "")
        assert text.count("cap-exceeded") == len(runs)
        assert _sha(text) == PINNED_CAP_EXCEEDED

    @pytest.mark.parametrize("command,bound", [("enum", "4"), ("verify", "6")])
    def test_census_transcript(self, command, bound):
        runs = [[command, "--max-x", bound, "--max-y", bound]]
        assert _sha(_transcript(runs)) == PINNED_CENSUS[command]

    @pytest.mark.parametrize("command", sorted(PINNED_MAP_SEARCH))
    def test_map_search_payloads(self, tmp_path, command):
        runs = _map_search_inputs(tmp_path)[command]
        text = _transcript(runs).replace(str(tmp_path), "")
        assert _sha(text) == PINNED_MAP_SEARCH[command]

    def test_aut_three_eight_cycles(self, tmp_path):
        import random
        cycles = cycle_structure((4, 4, 4), False)
        runs = [["aut", "--in", write(tmp_path, f"{name}.json", structure)]
                for name, structure in (("cycles", cycles),
                                        ("shuffled", shuffled_copy(cycles, random.Random(24))))]
        text = _transcript(runs).replace(str(tmp_path), "")
        assert text.count('{"pairs":') == 2 * 3072
        assert _sha(text) == PINNED_AUT_CYCLES


def _odd_runs(count: int, seed: int) -> tuple:
    """Runs of ``count`` report rows in all, on the odd ids: each prefix
    slot holds up to two of them, the tails are up to six ascending ids
    outside the prefix, and one run in twenty is the empty-tailed run of
    the defect of no demands."""
    import random
    rng = random.Random(seed)
    runs = []
    while count:
        side = rng.choice((Side.LEFT, Side.RIGHT))
        if rng.random() < 0.05:
            runs.append((side, (), (), (), 0, ()))
            count -= 1
            continue
        pool = _ODD_LEFT if side is Side.LEFT else _ODD_RIGHT
        ids = rng.sample(pool, 6)
        prefix = [tuple(sorted(ids[2 * i:2 * i + rng.randrange(3)])) for i in range(3)]
        rest = sorted(set(pool).difference(*prefix))
        tails = tuple(sorted(rng.sample(rest, rng.randint(1, min(count, 6, len(rest))))))
        runs.append((side, *prefix, rng.randrange(3), tails))
        count -= len(tails)
    return tuple(runs)


def _written(report) -> list[str]:
    """The writes of ``_write_report``, checked against the one-call
    encoding: compared as lists of row texts, which are equal iff the
    payloads are, so that a failure names the first differing row."""
    writes = []
    _write_report(SimpleNamespace(write=writes.append), report)
    assert "".join(writes).split("},{") == report_json(report).split("},{")
    assert max(w.count('{"side":') for w in writes) <= _ROWS_PER_WRITE
    return writes


class TestReportWriter:
    @pytest.mark.parametrize("count", [0, 1, _ROWS_PER_WRITE, _ROWS_PER_WRITE + 1])
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("nonadjacent", [None, ('x"q', "y\u2603")])
    def test_matches_single_object_encoding(self, count, mode, nonadjacent):
        report = GenericityReport(mode, count % 4, not count and nonadjacent is None,
                                  _odd_runs(count, count), nonadjacent)
        assert report.count == len(report.rows) == count
        _written(report)

    @pytest.mark.parametrize("slot", range(3))
    @pytest.mark.parametrize("prefix", [(), ('x"q',), ("x\u00e9", "x\u65e5")])
    def test_prefix_in_every_slot(self, slot, prefix):
        # the last demand's slot with an empty, a one-id and a two-id
        # prefix, between other slots that are empty or not
        for other in ((), ("x10",)):
            sets = [other, ("x33",), other]
            sets[slot] = prefix
            runs = ((Side.LEFT, *sets, slot, ("x03", "x1")), (Side.RIGHT, (), (), (), 0, ()),
                    (Side.RIGHT, *sets[::-1], slot, ("y\u2603",)))
            _written(GenericityReport(Mode.ORIENTATION, 2, False, runs))

    def test_run_longer_than_one_write(self):
        # a run of 2 * _ROWS_PER_WRITE + 3 rows between runs of 5 and 2
        # rows is split into three pieces, the last written with the run
        # after it
        wide = tuple(sorted(f"y{k}" for k in range(2 * _ROWS_PER_WRITE + 3)))
        runs = ((Side.RIGHT, ("y\u2603",), (), (), 0, tuple(f"y\"{k}" for k in range(5))),
                (Side.RIGHT, (), ("y\\",), ('y"',), 1, wide),
                (Side.RIGHT, (), (), ("y\u00fc",), 2, ("y0", "y1")))
        writes = _written(GenericityReport(Mode.ORIENTATION, 3, False, runs))
        assert [w.count('{"side":') for w in writes[1:]] == [
            5, _ROWS_PER_WRITE, _ROWS_PER_WRITE, 5]


# -- fuzzing: every input gets exit code 0, 1 or 2 and nothing escapes -------

_IDS = st.sampled_from(["x1", "x2", "x3", "y1", "y2", "y3"])
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3) | _IDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["x", "y", "edges", "z"]), inner, max_size=3),
    max_leaves=8)
_ENDPOINT = st.one_of(_IDS, _IDS, _JUNK)
_STRUCTURES = st.fixed_dictionaries({
    "x": st.lists(st.sampled_from(["x1", "x2", "x3"]), max_size=3, unique=True)
    | st.lists(_ENDPOINT, max_size=3),
    "y": st.lists(st.sampled_from(["y1", "y2", "y3"]), max_size=3, unique=True)
    | st.lists(_ENDPOINT, max_size=3),
    "edges": st.lists(st.lists(_ENDPOINT, min_size=2, max_size=2) | _JUNK, max_size=6),
})
_INT = st.integers(-2, 3).map(str) | st.sampled_from(["", "x"])
_BOUND = st.integers(-2, 2).map(str) | st.sampled_from(["100", "1000000000"])

_FILE_COMMANDS = {
    "check-hom": [("--k", _INT)],
    "check-generic": [("--mode", st.sampled_from(["bipartite", "2partite", "orientation"])),
                      ("--level", _INT)],
    "classify": [("--level", _INT)],
    "aut": [("--cap", _INT)],
    "convert": [("--format", st.sampled_from(["json", "dot"]))],
}
_GEN_KINDS = ["complete", "empty", "matching", "complement-matching", "matching-complement",
              "generic-bipartite", "generic-2partite", "generic-orientation", "closure"]


@st.composite
def _argv(draw, path: str):
    command = draw(st.sampled_from(["gen", "baf", "enum", "verify", "iso", *_FILE_COMMANDS]))
    argv = [command]
    if command == "gen":
        argv.append(draw(st.sampled_from(_GEN_KINDS)))
        options = [("--m", _INT), ("--n", _INT), ("--size", _INT), ("--level", _INT),
                   ("--seed", _INT), ("--cap", _INT), ("--dir", st.sampled_from(["l2r", "r2l"])),
                   ("--mode", st.sampled_from(["bipartite", "2partite", "orientation"])),
                   ("--in", st.just(path))]
    elif command == "baf":
        options = [("--mode", st.sampled_from(["2partite", "orientation"])),
                   ("--size", _INT), ("--level", _INT), ("--seed1", _INT),
                   ("--seed2", _INT), ("--build-level", _INT)]
    elif command in ("enum", "verify"):
        options = [("--max-x", _BOUND), ("--max-y", _BOUND)]
    elif command == "iso":
        options = [("--in1", st.just(path)), ("--in2", st.just(path))]
    else:
        options = [("--in", st.just(path)), *_FILE_COMMANDS[command]]
    for flag, values in options:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


# raw file contents: any bytes, bytes that are not UTF-8 and JSON nested
# past the parser's depth
_RAW = st.binary(max_size=12) | st.sampled_from([
    b"\xff\xfe", b'{"x": ["\xe9"]}', b"\xef\xbb\xbf{}", b"[" * 1000,
    b'{"x": ' + b"[" * 1000, b"[" * 3000 + b"]" * 3000])


@given(data=st.data(), payload=_JUNK | _STRUCTURES | _RAW)
def test_fuzz_exit_codes(tmp_path_factory, data, payload):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps(payload), encoding="utf-8")
    for argv in (["convert", "--in", str(path)], data.draw(_argv(str(path)))):
        code, _, err = cli(*argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err
