"""Tests of the benchmark's own logic: failure counting, span arithmetic,
boundary wrapping and the metric names in BENCHMARK.json."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench_run  # noqa: E402
from layers import PER_LAYER, LayerTotals, Tracer, layer_metrics, requirement_count, self_times  # noqa: E402
from workloads import TRACEBACK, WORKLOADS, census, exact, judge  # noqa: E402

VERIFY_OK = ('{"ok":true,"max_x":3,"max_y":3,"classes_scanned":991,'
             '"homogeneous_classes":43,"discrepancies":[]}\n')


@pytest.fixture
def verify_cmd(tmp_path):
    return next(c for c in census(0, tmp_path) if c.label == "verify")


def test_judge_passes_a_correct_command(verify_cmd):
    assert judge(verify_cmd, 0, "", VERIFY_OK) == []


@pytest.mark.parametrize("returncode, stderr, payload", [
    (0, "", VERIFY_OK.replace("991", "990")),        # wrong payload
    (0, "", "not json"),                               # unparseable payload
    (0, "", ""),                                       # no payload
    (2, "error: bad input\n", VERIFY_OK),              # usage error exit
    (1, f"{TRACEBACK}\n  File ...\nKeyError: 'x'\n", VERIFY_OK),
    (0, TRACEBACK, VERIFY_OK),                         # traceback even with exit 0
])
def test_judge_counts_failures(verify_cmd, returncode, stderr, payload):
    assert judge(verify_cmd, returncode, stderr, payload)


def test_self_times_on_a_synthetic_tree():
    spans = [
        ["cli.run", 0.0, 10.0, -1, None],
        ["iso.a", 1.0, 4.0, 0, None],
        ["core.b", 2.0, 3.0, 1, None],
        ["iso.a", 5.0, 9.0, 0, None],
        ["iso.a", 6.0, 7.0, 3, None],   # nested call of the same boundary
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0]
    totals = LayerTotals()
    assert totals.add(spans) == 0.0
    assert totals.calls["iso.a"] == 3
    assert totals.inclusive["iso.a"] == 7.0        # the nested call is not counted twice
    assert totals.self_by_layer == {"cli": 3.0, "iso": 6.0, "core": 1.0}
    assert totals.child_calls["cli.run", "iso.a"] == 2


def test_tracer_rebinds_imported_names_and_reports_missing_boundaries(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "core.py").write_text("def build(x):\n    return x\n")
    (pkg / "census.py").write_text(
        "from .core import build\n"
        "def verify_classification(m, n):\n    return [build(i) for i in range(m * n)]\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        import fakepkg.census
        tracer = Tracer()
        missing = tracer.install("fakepkg")
        assert fakepkg.census.verify_classification(2, 3) == list(range(6))
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "fakepkg"]:
            del sys.modules[name]

    assert "iso.canonical_form" in missing and "core.build" not in missing
    assert [s[0] for s in tracer.spans] == ["census.verify_classification"] + ["core.build"] * 6
    assert all(s[3] == 0 for s in tracer.spans[1:])
    assert tracer.spans[0][4] == {"labelled": sum(3 ** (m * n) for m in range(3) for n in range(4))}

    totals = LayerTotals()
    totals.add(tracer.spans)
    values, absent = layer_metrics(totals, missing)
    assert values["core.build_calls"] == 6
    assert "iso.canonical_calls" in absent and "iso.canonical_calls" not in values


@pytest.mark.parametrize("mode, slots", [("TWO_PARTITE", 2), ("ORIENTATION", 3),
                                         ("BIPARTITE", 2)])
def test_requirement_count_matches_the_library_enumeration(mode, slots):
    from twopartite.genericity import Mode, iter_requirements
    left, right = [f"x{i}" for i in range(5)], [f"y{i}" for i in range(4)]
    listed = list(iter_requirements(left, right, 3, Mode[mode]))
    assert requirement_count((5, 4), 3, slots) == len(listed)


def test_inputs_depend_on_the_seed_only(tmp_path):
    runs = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        work = tmp_path / name
        work.mkdir()
        argv = [c.argv for c in exact(seed, work)]
        runs[name] = (argv, {p.name: p.read_bytes() for p in sorted(work.iterdir())})
    assert runs["a"] == runs["b"]
    assert runs["a"][1] != runs["c"][1]
    assert [c.argv for c in WORKLOADS["approx"](1, tmp_path)] != \
        [c.argv for c in WORKLOADS["approx"](2, tmp_path)]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [(n, u, b) for n, u, b, *_ in PER_LAYER] + [bench_run.TRACE_OVERHEAD]
