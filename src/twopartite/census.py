"""Exhaustive enumeration and the desk-scale classification census.

Every cross pair of a structure takes one of three states (->, <-, or
nonadjacent), so the labelled structures on fixed sides are exactly the
3^(m*n) state vectors.  Enumeration walks them in lexicographic order
and keeps the first representative of each side-preserving isomorphism
class, deduplicating by canonical form.

The census runs the exact homogeneity decider over every class and
records the classification of the homogeneous ones;
``verify_classification`` then cross-checks the census against the
catalog: every homogeneous class must be a one-direction structure or a
matching/complement pair, and every catalog structure in range must
appear.  This brute-force audit is the ground truth the rest of the
package is tested against.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .catalog import (
    Direction,
    complement_matching_digraph,
    complete_bipartite_digraph,
    empty_digraph,
    matching_complement_pair,
    matching_digraph,
)
from .classify import ClassCase, ClassLabel, classify_exact
from .core import PAIR_LR, PAIR_RL, TwoPartiteDigraph, build
from .errors import EnumerationBudgetExceeded, ValidationError
from .iso import CanonicalForm, HomogeneityVerdict, canonical_form

DEFAULT_PAIR_BUDGET = 12


def _check_bounds(m: int, n: int) -> None:
    if m < 0 or n < 0:
        raise ValidationError(f"side bounds must be non-negative, got {m} and {n}")


def _check_budget(m: int, n: int, force: bool) -> None:
    _check_bounds(m, n)
    if m * n > DEFAULT_PAIR_BUDGET and not force:
        raise EnumerationBudgetExceeded(
            f"{3 ** (m * n)} labelled structures at sides {m}x{n}; "
            f"pass force=True to enumerate anyway")


def enumerate_all(m: int, n: int, force: bool = False) -> Iterator[TwoPartiteDigraph]:
    """All 2-partite digraphs with sides of size m and n, one
    representative per side-preserving isomorphism class.

    The state space has 3^(m*n) labelled structures; sizes with
    m*n > 12 are refused (eagerly, before any iteration) unless
    ``force`` is given.  A negative side size raises ValidationError.
    """
    _check_budget(m, n, force)
    return _enumerate_all(m, n)


def _enumerate_all(m: int, n: int) -> Iterator[TwoPartiteDigraph]:
    left = tuple(f"x{i + 1}" for i in range(m))
    right = tuple(f"y{j + 1}" for j in range(n))
    seen: set[bytes] = set()
    for states in product((0, 1, 2), repeat=m * n):
        edges = []
        for i in range(m):
            for j in range(n):
                s = states[i * n + j]
                if s == 1:
                    edges.append((left[i], right[j]))
                elif s == 2:
                    edges.append((right[j], left[i]))
        candidate = build(left, right, edges)
        key = canonical_form(candidate)
        if key not in seen:
            seen.add(key)
            yield candidate


@dataclass(frozen=True)
class CensusEntry:
    canonical: CanonicalForm
    representative: TwoPartiteDigraph
    verdict: HomogeneityVerdict
    label: ClassLabel


def _entry(digraph: TwoPartiteDigraph) -> CensusEntry:
    label = classify_exact(digraph)
    verdict = label.evidence["homogeneity"]
    return CensusEntry(canonical_form(digraph), digraph, verdict, label)


def _census_all(max_left: int, max_right: int, force: bool = False,
                jobs: int = 1) -> list[CensusEntry]:
    if jobs < 1:
        raise ValidationError(f"worker count must be at least 1, got {jobs}")
    # refuse the whole range up front rather than partway through
    _check_budget(max_left, max_right, force)
    entries: list[CensusEntry] = []
    for m in range(max_left + 1):
        for n in range(max_right + 1):
            reps = list(enumerate_all(m, n, force=force))
            if jobs > 1:
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    entries.extend(pool.map(_entry, reps, chunksize=16))
            else:
                entries.extend(_entry(rep) for rep in reps)
    return entries


def census_homogeneous(max_left: int, max_right: int, force: bool = False,
                       jobs: int = 1) -> list[CensusEntry]:
    """Census of the homogeneous isomorphism classes with side sizes up
    to the given bounds, each entry carrying its classification.  A
    negative bound raises ValidationError."""
    return [e for e in _census_all(max_left, max_right, force=force, jobs=jobs)
            if e.verdict.holds]


@dataclass(frozen=True)
class Discrepancy:
    kind: str
    message: str
    canonical_hex: str


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    max_left: int
    max_right: int
    classes_scanned: int
    homogeneous_classes: int
    discrepancies: tuple[Discrepancy, ...]


def _catalog_in_range(max_left: int, max_right: int) -> Iterator[tuple[str, TwoPartiteDigraph]]:
    for m in range(max_left + 1):
        for n in range(max_right + 1):
            yield (f"empty({m},{n})", empty_digraph(m, n))
            if m >= 1 and n >= 1:
                for d in Direction:
                    yield (f"complete({m},{n},{d.value})",
                           complete_bipartite_digraph(m, n, d))
    for k in range(1, min(max_left, max_right) + 1):
        for d in Direction:
            yield (f"matching({k},{d.value})", matching_digraph(k, d))
            yield (f"complement_matching({k},{d.value})",
                   complement_matching_digraph(k, d))
    for k in range(2, min(max_left, max_right) + 1):
        for d in Direction:
            yield (f"matching_complement_pair({k},{d.value})", matching_complement_pair(k, d))


def verify_classification(max_left: int, max_right: int,
                          census: list[CensusEntry] | None = None,
                          force: bool = False, jobs: int = 1) -> AuditReport:
    """Audit the classification at desk scale.

    Checks that every homogeneous class is labelled as a one-direction
    structure or a matching/complement pair (with sane side/edge counts),
    and that every catalog structure within the bounds appears among the
    homogeneous classes.  A census can be injected for fault testing;
    otherwise it is computed here.  A negative bound raises
    ValidationError.
    """
    _check_bounds(max_left, max_right)
    discrepancies: list[Discrepancy] = []
    if census is None:
        all_entries = _census_all(max_left, max_right, force=force, jobs=jobs)
        scanned = len(all_entries)
        census = [e for e in all_entries if e.verdict.holds]
    else:
        scanned = len(census)

    allowed = (ClassCase.BIPARTITE_HOMOGENEOUS, ClassCase.MATCHING_COMPLEMENT)
    for entry in census:
        hexid = entry.canonical.hex()
        if not entry.verdict.holds:
            discrepancies.append(Discrepancy(
                "non-homogeneous-entry",
                "census entry whose homogeneity verdict fails", hexid))
        if entry.label.case not in allowed:
            discrepancies.append(Discrepancy(
                "unexpected-label",
                f"homogeneous class labelled {entry.label.case.value}; finite "
                f"homogeneous structures must be one-direction or a "
                f"matching/complement pair", hexid))
        if entry.label.case is ClassCase.MATCHING_COMPLEMENT:
            rep = entry.representative
            states = [s for row in rep.pair_states() for s in row]
            lr, rl = states.count(PAIR_LR), states.count(PAIR_RL)
            if len(rep.left) != len(rep.right) or len(rep.left) not in (lr, rl):
                discrepancies.append(Discrepancy(
                    "pair-shape",
                    "matching/complement label with inconsistent side/edge counts",
                    hexid))

    known = {entry.canonical for entry in census}
    for name, structure in _catalog_in_range(max_left, max_right):
        if canonical_form(structure) not in known:
            discrepancies.append(Discrepancy(
                "catalog-missing",
                f"catalog structure {name} absent from the homogeneous census",
                canonical_form(structure).hex()))

    return AuditReport(
        ok=not discrepancies,
        max_left=max_left,
        max_right=max_right,
        classes_scanned=scanned,
        homogeneous_classes=len(census),
        discrepancies=tuple(discrepancies),
    )
