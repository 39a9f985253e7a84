"""The benchmark's workloads: seeded inputs, CLI commands and payload checks.

Every command seed and input file derives from the workload seed alone.
The generator never calls into ``twopartite`` to decide what to write;
the program under test sees only argv and the generated files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class PayloadError(Exception):
    """A command's stdout payload broke one of its invariants."""


@dataclass(frozen=True)
class Command:
    label: str                    # unique in its workload; stdout goes to <label>.out
    metric: str                   # named end-to-end metric this command's time adds to
    argv: tuple[str, ...]         # run with the workload's work directory as cwd
    exit_code: int
    check: Callable[[str], None]  # raises PayloadError (or a parse error) when wrong


TRACEBACK = "Traceback (most recent call last)"


def judge(cmd: Command, returncode: int, stderr: str, payload: str) -> list[str]:
    """Every reason the command counts as failed; empty when it passed."""
    problems = []
    if returncode != cmd.exit_code:
        problems.append(f"exit code {returncode}, expected {cmd.exit_code}")
    if TRACEBACK in stderr:
        problems.append("traceback on stderr")
    try:
        cmd.check(payload)
    except (PayloadError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"payload: {exc!r}")
    return problems


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise PayloadError(message)


# -- payload checks -----------------------------------------------------------

def _check_complete_structure(size: int):
    def check(payload: str) -> None:
        obj = json.loads(payload)
        left, right = obj["x"], obj["y"]
        _expect(len(left) == size and len(right) == size, f"sides are not {size}x{size}")
        on_left = set(left)
        pairs = {(u, v) if u in on_left else (v, u) for u, v in obj["edges"]}
        _expect(len(obj["edges"]) == size * size and len(pairs) == size * size,
                "underlying graph is not complete")
    return check


def _check_fields(**expected):
    def check(payload: str) -> None:
        obj = json.loads(payload)
        for key, value in expected.items():
            _expect(obj[key] == value, f"{key} is {obj[key]!r}, expected {value!r}")
    return check


def _check_defects(count: int):
    def check(payload: str) -> None:
        obj = json.loads(payload)
        _expect(obj["holds"] is False, "check-generic holds on a two-partite structure")
        _expect(len(obj["defects"]) == count,
                f"{len(obj['defects'])} defects, expected {count}")
        # a complete underlying graph witnesses every a/b-only demand at
        # level 2 of a level-3 structure, so every defect demands a non-neighbour
        _expect(all(d["c"] for d in obj["defects"]), "a defect without a c demand")
    return check


def _check_baf(level: int):
    def check(payload: str) -> None:
        last = json.loads(payload.splitlines()[-1])
        _expect(last["status"] == "success", f"baf status {last['status']!r}")
        _expect(len(last["result"]["pairs"]) == level, "aligned map has the wrong size")
    return check


def _check_counterexample(sides: tuple[list[str], list[str]]):
    def check(payload: str) -> None:
        obj = json.loads(payload)
        _expect(obj["holds"] is False, "random structure reported homogeneous")
        pairs = obj["counterexample"]["pairs"]
        _expect(len(pairs) >= 1, "empty counterexample")
        for s, t in pairs:
            _expect(any(s in side and t in side for side in sides),
                    f"counterexample pair {s}->{t} does not respect sides")
    return check


def _check_automorphisms(count: int):
    def check(payload: str) -> None:
        obj = json.loads(payload)
        maps = {tuple(map(tuple, a["pairs"])) for a in obj["automorphisms"]}
        _expect(obj["count"] == count and len(maps) == count,
                f"{obj['count']} automorphisms ({len(maps)} distinct), expected {count}")
    return check


# enum --max-x 2 --max-y 4: empty(m,n) for all 15 side pairs, complete in both
# directions for the 8 with both sides nonempty, the 2x2 matching in both
# directions, and the 2x2 matching/complement pair (both directions isomorphic).
ENUM_2X4_CLASSES = 15 + 2 * 8 + 2 + 1


def _check_enum(count: int):
    def check(payload: str) -> None:
        entries = [json.loads(line) for line in payload.splitlines()]
        _expect(len(entries) == count, f"{len(entries)} classes, expected {count}")
        _expect(len({e["canonical"] for e in entries}) == count, "repeated canonical form")
        for e in entries:
            _expect(e["holds"] is True, "non-homogeneous class in the census")
            _expect(e["label"]["case"] in ("bipartite_homogeneous", "matching_complement"),
                    f"unexpected label {e['label']['case']!r}")
    return check


# -- input generation -----------------------------------------------------------

NONE, LR, RL = 0, 1, 2


def _write_structure(path: Path, rng: random.Random, m: int, n: int, state) -> tuple[list, list]:
    """Write the m x n structure whose pair (i, j) has ``state(i, j)``,
    under fresh random vertex ids listed in random order."""
    ids = [f"v{k}" for k in rng.sample(range(100, 1000), m + n)]
    left, right = ids[:m], ids[m:]
    edges = []
    for i in range(m):
        for j in range(n):
            s = state(i, j)
            if s == LR:
                edges.append([left[i], right[j]])
            elif s == RL:
                edges.append([right[j], left[i]])
    listed_left, listed_right = left[:], right[:]
    for seq in (listed_left, listed_right, edges):
        rng.shuffle(seq)
    path.write_text(json.dumps({"x": listed_left, "y": listed_right, "edges": edges}),
                    encoding="utf-8")
    return left, right


def _random_states(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """Uniform three-state matrix whose left or right vertices do not all
    share one degree profile, so the structure is not vertex-transitive on
    that side and hence not homogeneous."""
    while True:
        mat = [[rng.randrange(3) for _ in range(n)] for _ in range(m)]
        rows = {tuple(sorted(r)) for r in mat}
        cols = {tuple(sorted(mat[i][j] for i in range(m))) for j in range(n)}
        if len(rows) > 1 or len(cols) > 1:
            return mat


def _cycle_states(lengths: tuple[int, ...], direction: int):
    """Disjoint cycles x_i - y_i - x_(i+1) - ..., one of ``2 * length``
    vertices per entry of ``lengths``, every edge oriented ``direction``."""
    edges = set()
    start = 0
    for length in lengths:
        for k in range(length):
            i = start + k
            edges.add((i, i))
            edges.add((start + (k + 1) % length, i))
        start += length
    return lambda i, j: direction if (i, j) in edges else NONE


def approx(seed: int, work: Path) -> list[Command]:
    gen_seed, unreachable_seed, seed1, seed2 = random.Random(f"approx:{seed}").sample(
        range(1, 1_000_000), 4)
    return [
        Command("gen", "gen_s",
                ("gen", "generic-2partite", "--size", "160", "--level", "3",
                 "--seed", str(gen_seed)), 0, _check_complete_structure(160)),
        Command("gen-unreachable", "gen_unreachable_s",
                ("gen", "generic-orientation", "--size", "128", "--level", "3",
                 "--seed", str(unreachable_seed)), 1,
                _check_fields(built=False, error="approximant-not-found", best_level=2)),
        Command("classify-level", "classify_level_s",
                ("classify", "--level", "3", "--in", "gen.out"), 0,
                _check_fields(case="generic_2partite")),
        # 2 * (160 + 5 * C(160, 2)): every requirement demanding a non-neighbour
        Command("check-generic", "check_generic_s",
                ("check-generic", "--mode", "orientation", "--level", "2", "--in", "gen.out"),
                1, _check_defects(127_520)),
        Command("baf", "baf_s",
                ("baf", "--mode", "orientation", "--size", "128", "--level", "2",
                 "--seed1", str(seed1), "--seed2", str(seed2)), 0, _check_baf(2)),
    ]


def census(seed: int, work: Path) -> list[Command]:
    return [
        Command("verify", "verify_s", ("verify", "--max-x", "3", "--max-y", "3"), 0,
                _check_fields(ok=True, classes_scanned=991, homogeneous_classes=43,
                              discrepancies=[])),
        Command("enum", "enum_s", ("enum", "--max-x", "2", "--max-y", "4"), 0,
                _check_enum(ENUM_2X4_CLASSES)),
    ]


def exact(seed: int, work: Path) -> list[Command]:
    rng = random.Random(f"exact:{seed}")
    d = rng.choice((LR, RL))
    flip = RL if d == LR else LR
    _write_structure(work / "empty5.json", rng, 5, 5, lambda i, j: NONE)
    _write_structure(work / "matching5.json", rng, 5, 5, lambda i, j: d if i == j else NONE)
    _write_structure(work / "pair5.json", rng, 5, 5, lambda i, j: d if i == j else flip)
    _write_structure(work / "complete5.json", rng, 5, 5, lambda i, j: d)
    randoms = []
    for name in ("random6a", "random6b"):
        mat = _random_states(rng, 6, 6)
        randoms.append((name, _write_structure(work / f"{name}.json", rng, 6, 6,
                                               lambda i, j, mat=mat: mat[i][j])))
    # colour refinement cannot tell a 16-cycle from a 6-cycle plus a 10-cycle
    _write_structure(work / "cycle16.json", rng, 8, 8, _cycle_states((8,), d))
    _write_structure(work / "cycles6_10.json", rng, 8, 8, _cycle_states((3, 5), d))

    homogeneous = _check_fields(holds=True, counterexample=None)
    commands = [
        Command(f"check-hom:{name}", "check_hom_s",
                ("check-hom", "--exact", "--in", f"{name}.json"), 0, homogeneous)
        for name in ("empty5", "matching5", "pair5")
    ]
    commands += [
        Command(f"check-hom:{name}", "check_hom_s",
                ("check-hom", "--exact", "--in", f"{name}.json"), 1,
                _check_counterexample(sides))
        for name, sides in randoms
    ]
    commands += [
        Command("classify-exact", "classify_exact_s",
                ("classify", "--exact", "--in", "pair5.json"), 0,
                _check_fields(case="matching_complement", pair_size=5)),
        Command("aut", "aut_s", ("aut", "--in", "complete5.json"), 0,
                _check_automorphisms(14_400)),
        Command("iso", "iso_s", ("iso", "--in1", "cycle16.json", "--in2", "cycles6_10.json"),
                1, _check_fields(isomorphic=False, map=None)),
    ]
    return commands


WORKLOADS = {"approx": approx, "census": census, "exact": exact}

# Named end-to-end metrics per workload, in report order.
NAMED_METRICS = {
    "approx": ("gen_s", "gen_unreachable_s", "classify_level_s", "check_generic_s", "baf_s"),
    "census": ("verify_s", "enum_s"),
    "exact": ("check_hom_s", "classify_exact_s", "aut_s", "iso_s"),
}
