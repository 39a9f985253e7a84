"""Classification of 2-partite digraphs.

Two modes.  ``classify_exact`` decides homogeneity outright and then
names the structure: a homogeneous one-direction structure is labelled
by the structural kind of its underlying graph plus its orientation; a
homogeneous two-direction structure must be a matching/complement pair
(every finite homogeneous non-bipartite structure is one, so anything
else is surfaced as INCONCLUSIVE rather than silently absorbed).

``classify_profile`` never runs the exact homogeneity search, so it
scales to the level-verified approximants of the infinite generic
classes: structural matches first, then the extension-property checks at
the caller's level.  A profile verdict is always level-relative: it
says which class the structure *locally resembles*, not which infinite
structure it converges to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .catalog import Direction
from .core import PAIR_LR, PAIR_NONE, PAIR_RL, TwoPartiteDigraph
from .genericity import (
    check_generic_2partite,
    check_generic_bipartite,
    check_generic_orientation,
    validate_level,
)
from .iso import PartialMap, is_homogeneous


class ClassCase(Enum):
    BIPARTITE_HOMOGENEOUS = "bipartite_homogeneous"
    MATCHING_COMPLEMENT = "matching_complement"
    GENERIC_2PARTITE = "generic_2partite"
    GENERIC_ORIENTATION = "generic_orientation"
    NOT_HOMOGENEOUS = "not_homogeneous"
    INCONCLUSIVE = "inconclusive"


class BipartiteKind(Enum):
    COMPLETE = "complete_bipartite"
    EMPTY = "empty_bipartite"
    PERFECT_MATCHING = "perfect_matching"
    COMPLEMENT_OF_MATCHING = "complement_of_matching"
    GENERIC = "generic_bipartite"


@dataclass(frozen=True)
class ClassLabel:
    """Classification outcome.  ``pair_size`` accompanies
    MATCHING_COMPLEMENT, ``subkind`` and ``direction`` accompany
    BIPARTITE_HOMOGENEOUS (direction is None for edgeless structures),
    ``counterexample`` accompanies NOT_HOMOGENEOUS, and ``reason``
    explains an INCONCLUSIVE.  ``evidence`` carries the verdicts and
    reports that drove the decision; it does not take part in equality."""

    case: ClassCase
    subkind: BipartiteKind | None = None
    direction: Direction | None = None
    pair_size: int | None = None
    counterexample: PartialMap | None = None
    reason: str | None = None
    evidence: dict = field(default_factory=dict, compare=False, repr=False)


def edge_direction(digraph: TwoPartiteDigraph) -> Direction | None:
    """Orientation of a one-direction structure; None when edgeless.
    Meaningless (None) when edges run both ways."""
    directions = {s for row in digraph.pair_states() for s in row} - {PAIR_NONE}
    if len(directions) != 1:
        return None
    return Direction.LEFT_TO_RIGHT if PAIR_LR in directions else Direction.RIGHT_TO_LEFT


def classify_bipartite_graph(digraph: TwoPartiteDigraph,
                             level: int | None = None) -> ClassLabel:
    """Structural kind of the undirected bipartite graph underlying
    ``digraph`` (an edge in either direction is an adjacency).

    Matches, in order: empty, complete, perfect matching, complement of
    a perfect matching (equal sides required for the latter two).  When
    no fixed kind matches and ``level`` is given, the graph is labelled
    GENERIC if it passes the undirected extension check at that level.
    Otherwise INCONCLUSIVE.
    """
    m, n = len(digraph.left), len(digraph.right)
    if not any(map(any, digraph.matrix)):
        return ClassLabel(ClassCase.BIPARTITE_HOMOGENEOUS, subkind=BipartiteKind.EMPTY)
    if digraph.first_nonadjacent_pair() is None:
        return ClassLabel(ClassCase.BIPARTITE_HOMOGENEOUS, subkind=BipartiteKind.COMPLETE)
    degrees = [out + inn for out, inn, _ in digraph.degree_profile().values()]
    if m == n and all(d == 1 for d in degrees):
        return ClassLabel(ClassCase.BIPARTITE_HOMOGENEOUS,
                          subkind=BipartiteKind.PERFECT_MATCHING)
    if m == n and n >= 1 and all(d == n - 1 for d in degrees):
        # each vertex has exactly one non-neighbour, so the non-adjacency
        # relation is itself a perfect matching
        return ClassLabel(ClassCase.BIPARTITE_HOMOGENEOUS,
                          subkind=BipartiteKind.COMPLEMENT_OF_MATCHING)
    if level is not None:
        report = check_generic_bipartite(digraph, level)
        if report.holds:
            return ClassLabel(ClassCase.BIPARTITE_HOMOGENEOUS,
                              subkind=BipartiteKind.GENERIC,
                              evidence={"genericity": report})
        return ClassLabel(ClassCase.INCONCLUSIVE,
                          reason=f"no structural kind matches and the undirected "
                                 f"extension check fails at level {level}",
                          evidence={"genericity": report})
    return ClassLabel(ClassCase.INCONCLUSIVE,
                      reason="no structural kind matches at exact (finite) scale")


def distinct_neighbourhoods(digraph: TwoPartiteDigraph) -> bool:
    """True when, on each side, out-neighbourhoods are pairwise distinct
    and in-neighbourhoods are pairwise distinct."""
    # a vertex's successors are the cells of its line in one direction
    # state, its predecessors those in the other
    for lines in (digraph.matrix, digraph.columns):
        for state in (PAIR_LR, PAIR_RL):
            if len({tuple(s == state for s in line) for line in lines}) != len(lines):
                return False
    return True


def matching_complement_size(digraph: TwoPartiteDigraph) -> int | None:
    """The common side size (at least 2) when one direction's edges form
    a perfect matching and the other direction's form its complement
    (equivalently: complete underlying graph plus a one-direction perfect
    matching); None when the structure is not of this shape."""
    size = len(digraph.left)
    if size < 2 or len(digraph.right) != size:
        return None
    if digraph.first_nonadjacent_pair() is not None:
        return None  # underlying graph not complete
    for state in (PAIR_LR, PAIR_RL):
        # a perfect matching: exactly one cell of each row and each column
        if (all(row.count(state) == 1 for row in digraph.matrix)
                and all(column.count(state) == 1 for column in digraph.columns)):
            return size
    return None


def classify_exact(digraph: TwoPartiteDigraph) -> ClassLabel:
    """Decide homogeneity exactly, then name the class.

    The homogeneity verdict is stored under ``evidence["homogeneity"]``.
    INCONCLUSIVE here means a homogeneous structure matching no known
    finite class: a signal worth surfacing loudly, never absorbing.
    """
    verdict = is_homogeneous(digraph)
    evidence = {"homogeneity": verdict}
    if not verdict.holds:
        return ClassLabel(ClassCase.NOT_HOMOGENEOUS,
                          counterexample=verdict.counterexample,
                          evidence=evidence)
    if digraph.is_bipartite_digraph():
        sub = classify_bipartite_graph(digraph, level=None)
        if sub.case is ClassCase.INCONCLUSIVE:
            return ClassLabel(ClassCase.INCONCLUSIVE,
                              reason="homogeneous one-direction structure with no "
                                     "structural kind; this should be impossible",
                              evidence=evidence)
        return ClassLabel(ClassCase.BIPARTITE_HOMOGENEOUS,
                          subkind=sub.subkind,
                          direction=edge_direction(digraph),
                          evidence=evidence)
    size = matching_complement_size(digraph)
    if size is not None:
        return ClassLabel(ClassCase.MATCHING_COMPLEMENT, pair_size=size, evidence=evidence)
    return ClassLabel(ClassCase.INCONCLUSIVE,
                      reason="homogeneous, two-direction, yet not a "
                             "matching/complement pair; this should be impossible",
                      evidence=evidence)


def classify_profile(digraph: TwoPartiteDigraph, level: int) -> ClassLabel:
    """Level-relative classification without the exact homogeneity search.

    Structural matches come first (the matching/complement pair passes
    low-level extension checks, so genericity-first would mislabel it);
    then the extension checks at ``level``.  ``evidence`` always carries
    ``mixed_perp_profile``: a vertex with empty perp next to one with
    small nonzero perp is the profile a homogeneous structure cannot
    have, so the flag marks approximants that converge to no class.
    A negative ``level`` raises ValidationError.
    """
    validate_level(level)
    perps = [p[2] for p in digraph.degree_profile().values()]
    evidence: dict = {"mixed_perp_profile": 0 in perps and any(perps)}
    if digraph.is_bipartite_digraph():
        sub = classify_bipartite_graph(digraph, level)
        evidence.update(sub.evidence)
        if sub.case is ClassCase.INCONCLUSIVE:
            return ClassLabel(ClassCase.INCONCLUSIVE, reason=sub.reason,
                              evidence=evidence)
        return ClassLabel(ClassCase.BIPARTITE_HOMOGENEOUS, subkind=sub.subkind,
                          direction=edge_direction(digraph), evidence=evidence)
    size = matching_complement_size(digraph)
    if size is not None:
        return ClassLabel(ClassCase.MATCHING_COMPLEMENT, pair_size=size, evidence=evidence)

    if not any(perps):
        report = check_generic_2partite(digraph, level)
        evidence["two_partite_genericity"] = report
        if report.holds:
            return ClassLabel(ClassCase.GENERIC_2PARTITE, evidence=evidence)
    report_o = check_generic_orientation(digraph, level)
    evidence["orientation_genericity"] = report_o
    if report_o.holds:
        return ClassLabel(ClassCase.GENERIC_ORIENTATION, evidence=evidence)

    if "two_partite_genericity" in evidence:
        reason = (f"extension checks fail at level {level}: "
                  f"{evidence['two_partite_genericity'].count} two-partite "
                  f"defect(s), {report_o.count} orientation defect(s)")
    elif 0 in perps:
        reason = (f"mixed perp profile and the orientation extension check "
                  f"fails at level {level} ({report_o.count} defect(s))")
    else:
        reason = (f"orientation extension check fails at level {level} "
                  f"({report_o.count} defect(s))")
    return ClassLabel(ClassCase.INCONCLUSIVE, reason=reason, evidence=evidence)
