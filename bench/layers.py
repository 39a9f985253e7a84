"""Per-layer tracing for the traced benchmark run.

The runner wraps the public functions at each module boundary of
``twopartite`` (never editing ``src/``) so that every call records a span:
its name, start, end and parent.  Spans stay in memory and are written out
when the command ends; the benchmark then folds them into per-layer
metrics.  A span's self time is its duration minus the part of it that its
child spans cover, so within one command the self times of all spans sum
to the duration of the root span.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import Counter, defaultdict

ROOT_SPAN = "cli.run"


def requirement_count(side_sizes, level: int, slots: int) -> int:
    """Requirements of total size <= ``level`` over both sides: choose the
    demanded vertices, then one of ``slots`` demand sets for each."""
    return sum(math.comb(p, t) * slots ** t for p in side_sizes for t in range(level + 1))


def labelled_count(max_left: int, max_right: int) -> int:
    """Labelled structures a census visits: 3^(m*n) for every side pair."""
    return sum(3 ** (m * n) for m in range(max_left + 1) for n in range(max_right + 1))


def _check_counts(slots: int):
    def count(args, kwargs, report):
        structure = args[0]
        level = args[1] if len(args) > 1 else kwargs["level"]
        return {"requirements": requirement_count(
                    (len(structure.left), len(structure.right)), level, slots),
                "defects": len(report.defects)}
    return count


def _census_counts(args, kwargs, result):
    return {"labelled": labelled_count(args[0], args[1])}


# Span name ("<module>.<attribute path>") -> counter run on the call's
# arguments and result, or None.  Generator functions are left out: their
# span would close before the work it stands for.
BOUNDARIES = {
    "core.build": None,
    "core.TwoPartiteDigraph.pair_states": None,
    "core.from_json_text": None,
    "core.to_json_text": None,
    "catalog.complete_bipartite_digraph": None,
    "catalog.empty_digraph": None,
    "catalog.matching_digraph": None,
    "catalog.complement_matching_digraph": None,
    "catalog.matching_complement_pair": None,
    "catalog.generic_bipartite_approx": None,
    "catalog.generic_2partite_approx": None,
    "catalog.generic_orientation_approx": None,
    "catalog.witness_closure": None,
    "genericity.first_defect": None,
    "genericity.achieved_level": None,
    "genericity.brute_witness_scan": None,
    "genericity.check_generic_2partite": _check_counts(2),
    "genericity.check_generic_orientation": _check_counts(3),
    "genericity.check_generic_bipartite": _check_counts(2),
    "iso.canonical_form": None,
    "iso.are_isomorphic": None,
    "iso.automorphisms": lambda args, kwargs, maps: {"found": len(maps)},
    "iso.is_valid_partial_iso": None,
    "iso.is_homogeneous": None,
    "classify.classify_exact": None,
    "classify.classify_profile": None,
    "backforth.back_and_forth": lambda args, kwargs, result: {"steps": len(result[1].steps)},
    "backforth.uniqueness_demo": None,
    "census.census_homogeneous": _census_counts,
    "census.verify_classification": _census_counts,
}

BUILDERS = ("catalog.generic_bipartite_approx", "catalog.generic_2partite_approx",
            "catalog.generic_orientation_approx")
CHECKS = ("genericity.check_generic_2partite", "genericity.check_generic_orientation",
          "genericity.check_generic_bipartite")
CENSUS = ("census.census_homogeneous", "census.verify_classification")


class Tracer:
    """In-memory span recorder.  A span is ``[name, start, end, parent,
    counts]`` with ``parent`` the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "twopartite") -> list[str]:
        """Wrap every boundary in BOUNDARIES, rebinding each name in every
        module of ``package`` that imported it.  Returns the boundaries
        that no longer exist, so their metrics can be reported missing."""
        missing = []
        for name, count in BOUNDARIES.items():
            module_name, *path = name.split(".")
            try:
                owner = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                missing.append(name)
                continue
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if not callable(original):
                missing.append(name)
                continue
            traced = self.wrap(name, original, count)
            if len(path) > 1:
                setattr(owner, path[-1], traced)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == package or mod_name.startswith(package + "."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
        return missing


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


class LayerTotals:
    """Span statistics summed over one or more commands."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)   # outermost spans only
        self.self_by_name: defaultdict = defaultdict(float)
        self.self_by_layer: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()                   # (span name, key)
        self.child_calls: Counter = Counter()              # (parent name, child name)

    def add(self, spans) -> float:
        """Fold in one command's spans; returns how far the self times miss
        the root span's duration (0 up to rounding)."""
        selfs = self_times(spans)
        outer = []   # names on the path from the root, per span
        for i, (name, start, end, parent, counts) in enumerate(spans):
            path = outer[parent] | {name} if parent >= 0 else frozenset((name,))
            outer.append(path)
            self.calls[name] += 1
            if parent < 0 or name not in outer[parent]:
                self.inclusive[name] += end - start
            self.self_by_name[name] += selfs[i]
            self.self_by_layer[name.split(".")[0]] += selfs[i]
            if parent >= 0:
                self.child_calls[spans[parent][0], name] += 1
            for key, value in (counts or {}).items():
                self.counts[name, key] += value
        roots = [s for s in spans if s[3] < 0]
        return sum(selfs) - sum(s[2] - s[1] for s in roots)

    def merge(self, other: "LayerTotals") -> None:
        for table in ("calls", "inclusive", "self_by_name", "self_by_layer", "counts",
                      "child_calls"):
            mine = getattr(self, table)
            for key, value in getattr(other, table).items():
                mine[key] += value

    def total(self, table, names) -> float:
        return sum(table[n] for n in names)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# (metric, unit, better, boundaries it needs, value from LayerTotals)
PER_LAYER = [
    ("cli.self_s", "s", "lower", (), lambda t: t.self_by_layer["cli"]),
    ("cli.stdout_bytes", "bytes", "lower", (), lambda t: t.counts[ROOT_SPAN, "stdout_bytes"]),
    ("core.build_calls", "count", "lower", ("core.build",),
     lambda t: t.calls["core.build"]),
    ("core.build_s", "s", "lower", ("core.build",), lambda t: t.inclusive["core.build"]),
    ("core.pair_states_calls", "count", "lower", ("core.TwoPartiteDigraph.pair_states",),
     lambda t: t.calls["core.TwoPartiteDigraph.pair_states"]),
    ("core.pair_states_s", "s", "lower", ("core.TwoPartiteDigraph.pair_states",),
     lambda t: t.inclusive["core.TwoPartiteDigraph.pair_states"]),
    ("core.json_read_s", "s", "lower", ("core.from_json_text",),
     lambda t: t.inclusive["core.from_json_text"]),
    ("core.json_write_s", "s", "lower", ("core.to_json_text",),
     lambda t: t.inclusive["core.to_json_text"]),
    ("catalog.builds", "count", "lower", BUILDERS, lambda t: t.total(t.calls, BUILDERS)),
    ("catalog.attempts", "count", "lower", BUILDERS + ("core.build",),
     lambda t: sum(t.child_calls[b, "core.build"] for b in BUILDERS)),
    ("catalog.attempts_per_build", "ratio", "lower", BUILDERS + ("core.build",),
     lambda t: _ratio(sum(t.child_calls[b, "core.build"] for b in BUILDERS),
                      t.total(t.calls, BUILDERS))),
    ("catalog.self_s", "s", "lower", (), lambda t: t.self_by_layer["catalog"]),
    ("genericity.first_defect_calls", "count", "lower", ("genericity.first_defect",),
     lambda t: t.calls["genericity.first_defect"]),
    ("genericity.first_defect_s", "s", "lower", ("genericity.first_defect",),
     lambda t: t.inclusive["genericity.first_defect"]),
    ("genericity.achieved_level_calls", "count", "lower", ("genericity.achieved_level",),
     lambda t: t.calls["genericity.achieved_level"]),
    ("genericity.achieved_level_s", "s", "lower", ("genericity.achieved_level",),
     lambda t: t.inclusive["genericity.achieved_level"]),
    ("genericity.check_calls", "count", "lower", CHECKS, lambda t: t.total(t.calls, CHECKS)),
    ("genericity.check_s", "s", "lower", CHECKS, lambda t: t.total(t.inclusive, CHECKS)),
    ("genericity.requirements", "count", "lower", CHECKS,
     lambda t: sum(t.counts[c, "requirements"] for c in CHECKS)),
    ("genericity.requirements_per_s", "1/s", "higher", CHECKS,
     lambda t: _ratio(sum(t.counts[c, "requirements"] for c in CHECKS),
                      t.total(t.inclusive, CHECKS))),
    ("genericity.defects", "count", "lower", CHECKS,
     lambda t: sum(t.counts[c, "defects"] for c in CHECKS)),
    ("genericity.defects_per_requirement", "ratio", "lower", CHECKS,
     lambda t: _ratio(sum(t.counts[c, "defects"] for c in CHECKS),
                      sum(t.counts[c, "requirements"] for c in CHECKS))),
    ("genericity.brute_scan_calls", "count", "lower", ("genericity.brute_witness_scan",),
     lambda t: t.calls["genericity.brute_witness_scan"]),
    ("genericity.brute_scan_s", "s", "lower", ("genericity.brute_witness_scan",),
     lambda t: t.inclusive["genericity.brute_witness_scan"]),
    ("iso.canonical_calls", "count", "lower", ("iso.canonical_form",),
     lambda t: t.calls["iso.canonical_form"]),
    ("iso.canonical_s", "s", "lower", ("iso.canonical_form",),
     lambda t: t.inclusive["iso.canonical_form"]),
    ("iso.is_homogeneous_calls", "count", "lower", ("iso.is_homogeneous",),
     lambda t: t.calls["iso.is_homogeneous"]),
    ("iso.is_homogeneous_s", "s", "lower", ("iso.is_homogeneous",),
     lambda t: t.inclusive["iso.is_homogeneous"]),
    ("iso.automorphisms_found", "count", "lower", ("iso.automorphisms",),
     lambda t: t.counts["iso.automorphisms", "found"]),
    ("iso.automorphisms_s", "s", "lower", ("iso.automorphisms",),
     lambda t: t.inclusive["iso.automorphisms"]),
    ("iso.are_isomorphic_s", "s", "lower", ("iso.are_isomorphic",),
     lambda t: t.inclusive["iso.are_isomorphic"]),
    ("iso.partial_iso_calls", "count", "lower", ("iso.is_valid_partial_iso",),
     lambda t: t.calls["iso.is_valid_partial_iso"]),
    ("iso.partial_iso_s", "s", "lower", ("iso.is_valid_partial_iso",),
     lambda t: t.inclusive["iso.is_valid_partial_iso"]),
    ("classify.exact_self_s", "s", "lower", ("classify.classify_exact",),
     lambda t: t.self_by_name["classify.classify_exact"]),
    ("classify.profile_self_s", "s", "lower", ("classify.classify_profile",),
     lambda t: t.self_by_name["classify.classify_profile"]),
    ("backforth.steps", "count", "lower", ("backforth.back_and_forth",),
     lambda t: t.counts["backforth.back_and_forth", "steps"]),
    ("backforth.align_self_s", "s", "lower", ("backforth.back_and_forth",),
     lambda t: t.self_by_name["backforth.back_and_forth"]),
    ("census.labelled", "count", "lower", CENSUS,
     lambda t: sum(t.counts[c, "labelled"] for c in CENSUS)),
    ("census.classes", "count", "lower", CENSUS + ("classify.classify_exact",),
     lambda t: sum(t.child_calls[c, "classify.classify_exact"] for c in CENSUS)),
    ("census.classes_per_labelled", "ratio", "higher", CENSUS + ("classify.classify_exact",),
     lambda t: _ratio(sum(t.child_calls[c, "classify.classify_exact"] for c in CENSUS),
                      sum(t.counts[c, "labelled"] for c in CENSUS))),
    ("census.self_s", "s", "lower", (), lambda t: t.self_by_layer["census"]),
]


def layer_metrics(totals: LayerTotals, missing) -> tuple[dict, list[str]]:
    """Metric values, plus the metrics left out because a boundary they
    need is missing from the program."""
    values, absent = {}, []
    gone = set(missing)
    for name, _, _, needs, value in PER_LAYER:
        if gone.intersection(needs):
            absent.append(name)
        else:
            values[name] = value(totals)
    return values, absent
