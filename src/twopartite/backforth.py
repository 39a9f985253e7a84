"""Finite-stage back-and-forth between two structures.

Given two structures with the extension property at a level at least the
requested map size, partial isomorphisms can be grown one vertex at a
time: alternately pick the next unmatched vertex of the first structure
(forth) and of the second (back), express its edge pattern toward the
already-matched vertices as a requirement, and let a witness scan of the
other structure supply the image.  At the countable limit this argument
proves uniqueness of the generic structures; here it runs to a requested
finite size and returns the map together with a replayable trace.

A step can only get stuck when the pattern has no *fresh* witness.  When
that happens the failing requirement is extended, one demand at a time,
each new demand chosen to exclude the first (already-used) witness.  The
process either uncovers a genuine unwitnessed requirement of total size
below the map size (an extension-property defect, which is what the
raised error carries), or cannot happen at all if the level precondition
holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import ApproximantSpec, generic_2partite_approx, generic_orientation_approx
from .core import TwoPartiteDigraph
from .errors import (
    ApproximantNotFound,
    InsufficientGenericity,
    InvalidPartialMap,
    InvalidSpec,
    TargetExceedsStructure,
)
from .genericity import (
    Mode,
    Requirement,
    brute_witness_scan,
    first_defect,
    requirement,
)
from .iso import PartialMap, is_valid_partial_iso


@dataclass(frozen=True)
class BafStep:
    direction: str           # "forth" or "back"
    vertex: str              # the vertex that needed an image/preimage
    requirement: Requirement  # pattern demanded of the witness
    witness: str             # the vertex found


@dataclass(frozen=True)
class BafTrace:
    steps: tuple[BafStep, ...]
    result: PartialMap


def _level_check(digraph: TwoPartiteDigraph, mode: Mode, level: int, which: str):
    # fail fast on the first defect; the exhaustive report is not needed here
    if mode is Mode.TWO_PARTITE:
        pair = digraph.first_nonadjacent_pair()
        if pair is not None:
            raise InsufficientGenericity(
                f"{which} structure has a non-adjacent pair {pair!r}; the "
                f"two-partite extension property needs a complete underlying graph")
    defect = first_defect(digraph, level, mode)
    if defect is not None:
        raise InsufficientGenericity(
            f"{which} structure does not have the extension property at "
            f"level {level}", requirement=defect)


def _pattern_requirement(src: TwoPartiteDigraph, vertex: str,
                         mapped: dict[str, str]) -> Requirement:
    """The demands a witness for ``vertex`` must satisfy: for every
    matched vertex u on the opposite side of ``vertex``, the witness must
    relate to u's image exactly as ``vertex`` relates to u."""
    v_side = src.side_of(vertex)
    a, b, c = [], [], []
    for u, image in mapped.items():
        if src.side_of(u) is v_side:
            continue
        if src.has_edge(vertex, u):
            a.append(image)      # u in N+(vertex) -> image in N+(witness)
        elif src.has_edge(u, vertex):
            b.append(image)
        else:
            c.append(image)
    return requirement(v_side.opposite, a, b, c)


def _materialize_defect(tgt: TwoPartiteDigraph, req: Requirement) -> Requirement:
    """All witnesses of ``req`` are in use.  Grow the requirement, each
    added demand contradicting the current first witness, until no
    witness is left: the result is a genuine extension-property defect
    of total size at most (requirement size + used witnesses)."""
    current = req
    while True:
        w = brute_witness_scan(tgt, current)
        if w is None:
            return current
        pool = tgt.side(current.side)
        base = current.a | current.b | current.c
        free = [z for z in pool if z not in base]
        if not free:
            return current  # cannot be narrowed further; report as-is
        z = free[0]
        if tgt.has_edge(w, z):   # z in N+(w): demand the opposite
            current = requirement(current.side, current.a,
                                  current.b | {z}, current.c)
        else:
            current = requirement(current.side, current.a | {z},
                                  current.b, current.c)


def back_and_forth(d1: TwoPartiteDigraph, d2: TwoPartiteDigraph, mode: Mode,
                   target_size: int, order1=None, order2=None,
                   precheck: bool = True) -> tuple[PartialMap, BafTrace]:
    """Grow a side-respecting partial isomorphism d1 -> d2 of the given
    size, alternating forth (next unmatched vertex of d1, in ``order1``)
    and back (of d2, in ``order2``); orders default to stored order.

    With ``precheck`` (the default) both structures are verified to have
    the mode's extension property at level ``target_size`` first, which
    guarantees the construction cannot get stuck.  Witness choice is
    always the first admissible vertex in stored order, so the outcome is
    deterministic.
    """
    if mode not in (Mode.TWO_PARTITE, Mode.ORIENTATION):
        raise InvalidSpec("back-and-forth runs in TWO_PARTITE or ORIENTATION mode")
    if target_size < 0:
        raise InvalidSpec(f"target size must be non-negative, got {target_size}")
    if target_size > min(len(d1.vertices()), len(d2.vertices())):
        raise TargetExceedsStructure(
            f"target size {target_size} exceeds a structure "
            f"({len(d1.vertices())} and {len(d2.vertices())} vertices)")
    if precheck and target_size > 0:
        _level_check(d1, mode, target_size, "first")
        _level_check(d2, mode, target_size, "second")

    order1 = tuple(order1) if order1 is not None else d1.vertices()
    order2 = tuple(order2) if order2 is not None else d2.vertices()

    mapping: dict[str, str] = {}     # always d1 -> d2
    steps: list[BafStep] = []
    for step_no in range(target_size):
        forth = step_no % 2 == 0
        if forth:
            src, tgt, order = d1, d2, order1
            mapped = mapping
            used_tgt = set(mapping.values())
        else:
            src, tgt, order = d2, d1, order2
            mapped = {t: s for s, t in mapping.items()}
            used_tgt = set(mapping.keys())
        vertex = next(v for v in order if v not in mapped)
        req = _pattern_requirement(src, vertex, mapped)
        witness = brute_witness_scan(tgt, req, exclude=used_tgt)
        if witness is None:
            defect = _materialize_defect(tgt, req)
            raise InsufficientGenericity(
                f"no fresh witness at step {step_no + 1} "
                f"({'forth' if forth else 'back'}, vertex {vertex!r})",
                requirement=defect)
        if forth:
            mapping[vertex] = witness
        else:
            mapping[witness] = vertex
        steps.append(BafStep("forth" if forth else "back", vertex, req, witness))

    result = PartialMap.from_dict(mapping)
    trace = BafTrace(tuple(steps), result)
    assert is_valid_partial_iso(d1, d2, result)
    return result, trace


def replay(d1: TwoPartiteDigraph, d2: TwoPartiteDigraph,
           trace: BafTrace) -> list[PartialMap]:
    """Rebuild the map step by step, validating as it goes: directions
    must strictly alternate starting forth, and every prefix must be a
    valid side-respecting partial isomorphism d1 -> d2.  Returns the
    prefix maps; raises InvalidPartialMap on any violation."""
    mapping: dict[str, str] = {}
    prefixes: list[PartialMap] = []
    for i, step in enumerate(trace.steps):
        expected = "forth" if i % 2 == 0 else "back"
        if step.direction != expected:
            raise InvalidPartialMap(
                f"step {i + 1} has direction {step.direction!r}, expected {expected!r}")
        if step.direction == "forth":
            mapping[step.vertex] = step.witness
        else:
            mapping[step.witness] = step.vertex
        pm = PartialMap.from_dict(mapping)
        if not is_valid_partial_iso(d1, d2, pm):
            raise InvalidPartialMap(f"prefix of length {i + 1} is not a partial isomorphism")
        prefixes.append(pm)
    if prefixes and prefixes[-1] != trace.result:
        raise InvalidPartialMap("trace result does not match the replayed map")
    if not prefixes and len(trace.result) > 0:
        raise InvalidPartialMap("nonempty result with an empty trace")
    return prefixes


@dataclass(frozen=True)
class UniquenessReport:
    """Outcome of one reproducible uniqueness experiment: build two
    independently seeded approximants, then try to align them."""

    mode: Mode
    side_size: int
    target_size: int
    build_level: int
    seed1: int
    seed2: int
    status: str                      # "success" | "insufficient-genericity"
                                     # | "build-failed" | "target-exceeds-structure"
    result: PartialMap | None = None
    trace: BafTrace | None = None
    requirement: Requirement | None = None
    detail: str = ""


def uniqueness_demo(side_size: int, target_size: int, seed1: int, seed2: int,
                    mode: Mode, build_level: int | None = None) -> UniquenessReport:
    """Build two approximants (at ``build_level``, default the target
    size) and run back-and-forth to ``target_size``.  Mathematical
    failures are reported in the result, never raised."""
    if mode not in (Mode.TWO_PARTITE, Mode.ORIENTATION):
        raise InvalidSpec("uniqueness demo runs in TWO_PARTITE or ORIENTATION mode")
    level = target_size if build_level is None else build_level
    builder = (generic_2partite_approx if mode is Mode.TWO_PARTITE
               else generic_orientation_approx)
    specs = ApproximantSpec(side_size, level, seed1), ApproximantSpec(side_size, level, seed2)
    try:
        first, second = map(builder, specs)
    except ApproximantNotFound as exc:
        return UniquenessReport(mode, side_size, target_size, level, seed1, seed2,
                                status="build-failed", detail=str(exc))
    try:
        # the builders verified both at ``level``, which covers a target
        # no larger than it
        result, trace = back_and_forth(first, second, mode, target_size,
                                       precheck=level < target_size)
    except InsufficientGenericity as exc:
        return UniquenessReport(mode, side_size, target_size, level, seed1, seed2,
                                status="insufficient-genericity",
                                requirement=exc.requirement, detail=str(exc))
    except TargetExceedsStructure as exc:
        return UniquenessReport(mode, side_size, target_size, level, seed1, seed2,
                                status="target-exceeds-structure", detail=str(exc))
    return UniquenessReport(mode, side_size, target_size, level, seed1, seed2,
                            status="success", result=result, trace=trace,
                            detail=f"aligned {len(result)} vertices")
