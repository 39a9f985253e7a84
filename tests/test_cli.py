import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import twopartite
from twopartite import from_json_text, to_json_text
from twopartite.catalog import (
    Direction,
    complete_bipartite_digraph,
    matching_complement_pair,
    matching_digraph,
)
from twopartite.cli import run


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
    def test_jobs_below_one_exits_two(self, tmp_path, command):
        if command[0] == "check-generic":
            command = command + ["--in", write(tmp_path, "m.json", matching_digraph(2))]
        for jobs in ("0", "-1"):
            code, out, err = cli(*command, "--jobs", jobs)
            assert code == 2 and out == "" and "at least 1" in err, jobs


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

    def test_enum_budget(self):
        code, _, err = cli("enum", "--max-x", "4", "--max-y", "4")
        assert code == 2 and "force" in err

    def test_enum_jobs_deterministic(self):
        _, seq, _ = cli("enum", "--max-x", "1", "--max-y", "1")
        _, par, _ = cli("enum", "--max-x", "1", "--max-y", "1", "--jobs", "2")
        assert seq == par

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

    def test_verify_four_by_four_forced(self):
        from twopartite.census import _catalog_in_range
        from twopartite.iso import canonical_form
        code, out, _ = cli("verify", "--max-x", "4", "--max-y", "4", "--force")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["discrepancies"] == []
        assert payload["classes_scanned"] == 102155
        # every homogeneous class in range is a catalog structure
        catalog = {canonical_form(s) for _, s in _catalog_in_range(4, 4)}
        assert payload["homogeneous_classes"] == len(catalog) == 72

    @pytest.mark.parametrize("command", ["enum", "verify"])
    def test_negative_census_bound_exits_two(self, command):
        for bounds in (["-1", "2"], ["2", "-1"]):
            code, out, err = cli(command, "--max-x", bounds[0], "--max-y", bounds[1])
            assert code == 2 and out == "" and "non-negative" in err, bounds

    def test_module_entry_point(self):
        # ``python -m twopartite.cli`` runs the command and exits with its code
        env = dict(os.environ)
        src = str(Path(twopartite.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "twopartite.cli", "verify", "--max-x", "1", "--max-y", "1"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] and payload["classes_scanned"] == 6
        proc = subprocess.run(argv[:4] + ["--max-x", "-1", "--max-y", "1"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""


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

    def test_missing_file(self):
        code, _, err = cli("classify", "--in", "/no/such/file.json")
        assert code == 2

    def test_usage_error(self):
        code, _, _ = cli("frobnicate")
        assert code == 2

    def test_missing_required_flag(self):
        code, _, _ = cli("check-hom")
        assert code == 2


# -- fuzzing: every input gets exit code 0, 1 or 2 and nothing escapes -------

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


# SHA-256 of the transcripts, computed with the collector that built a
# Requirement per defect and sorted by requirement_sort_key.
PINNED_CHECK_GENERIC = {
    "bipartite": "55b154a89fd1d21eeff31df398406e07a7f496b1e546d9758cdbcfb5a7661fe4",
    "2partite": "d866963ad36649020976c314358688cd206d3650cf4d66a5c90a80bcb80c4aa9",
    "orientation": "a13c0a688d84581c99562b3f91e21c647acd590b93adc6cf8ccec653f879f778",
}
PINNED_CAP_EXCEEDED = "5319645eb253ed2f966ee3108489079e3c7a5be093029deeb61b4c4b9d21d986"


class TestPinnedPayloads:
    @pytest.mark.parametrize("mode", sorted(PINNED_CHECK_GENERIC))
    def test_check_generic_transcript(self, tmp_path, mode):
        paths = [write(tmp_path, "three.json", _odd_structure(1, 3)),
                 write(tmp_path, "two.json", _odd_structure(2, 2)),
                 write(tmp_path, "one.json", _odd_structure(3, 3).underlying_bipartite())]
        runs = [["check-generic", "--in", path, "--mode", mode, "--level", str(level)]
                for path in paths for level in range(4)]
        runs += [["check-generic", "--in", path, "--mode", mode, "--level", "3",
                  "--jobs", "2"] for path in paths[:2]]
        assert _sha(_transcript(runs).replace(str(tmp_path), "")) == PINNED_CHECK_GENERIC[mode]

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
_BOUND = st.integers(-2, 2).map(str)
_JOBS = st.integers(-1, 1).map(str)

_FILE_COMMANDS = {
    "check-hom": [("--k", _INT)],
    "check-generic": [("--mode", st.sampled_from(["bipartite", "2partite", "orientation"])),
                      ("--level", _INT), ("--jobs", _JOBS)],
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
        options = [("--max-x", _BOUND), ("--max-y", _BOUND), ("--jobs", _JOBS)]
    elif command == "iso":
        options = [("--in1", st.just(path)), ("--in2", st.just(path))]
    else:
        options = [("--in", st.just(path)), *_FILE_COMMANDS[command]]
    for flag, values in options:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@given(data=st.data(), payload=_JUNK | _STRUCTURES)
def test_fuzz_exit_codes(tmp_path_factory, data, payload):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    for argv in (["convert", "--in", str(path)], data.draw(_argv(str(path)))):
        code, _, err = cli(*argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err
