"""The desk-scale classification census and its audit.

Every cross pair of a structure takes one of three states (->, <-, or
nonadjacent), so the labelled structures on fixed sides are exactly the
3^(m*n) state vectors, and each side-preserving isomorphism class is
represented by its least row-major vector.  The census walks none of
them: it generates only the classes that can be homogeneous and counts
the rest.

The census only needs the line-symmetric structures: their multiset of
columns is closed under permuting the rows, and their multiset of rows
under permuting the columns.  No pair inside a side carries a state, so
each bijection between left vertices is a partial isomorphism, and in a
homogeneous structure it extends to an automorphism, which permutes the
columns among themselves; the same holds on the right.  The census
generates the line-symmetric classes (3 on each non-square pair of
non-empty sides, 9 on each square pair from 3x3 up), each as the least
row-major state vector of its class.  It runs the exact homogeneity
decider over them and records the classification of the homogeneous
ones.  The number of classes scanned in all comes from Burnside's lemma
over the side permutations (Harary and Palmer, *Graphical Enumeration*,
1973).

Each class is keyed by its least vector, never canonicalised: a
line-symmetric structure is side-regular, so colour refinement leaves one
colour per side and its canonical form is the header and that vector.
Only the catalog check of ``verify_classification`` canonicalises.

The census has one bound, the decider's automorphism cap.  The empty
structure on the largest sides is always a candidate, and its group
S_m x S_n, of order m!n!, is the largest in range, so the decider
refuses some candidate exactly when m!n! exceeds the cap.  The census
checks that product before it builds any class and refuses the whole
range at once.

``verify_classification`` cross-checks the census against the catalog:
every homogeneous class must be a one-direction structure or a
matching/complement pair, and every catalog structure in range must
appear.  This desk-scale audit is the ground truth the rest of the
package is tested against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import factorial, gcd
from typing import Iterator

from .catalog import (
    Direction,
    _grid,
    complement_matching_digraph,
    complete_bipartite_digraph,
    empty_digraph,
    matching_complement_pair,
    matching_digraph,
)
from .classify import ClassCase, ClassLabel, classify_exact
from .core import PAIR_LR, PAIR_RL, TwoPartiteDigraph
from .errors import AutGroupTooLarge, ValidationError
from .iso import DEFAULT_AUT_CAP, CanonicalForm, HomogeneityVerdict, _encode, canonical_form


def _structure(m: int, n: int, states: tuple[int, ...]) -> TwoPartiteDigraph:
    """The structure on sides x1..xm and y1..yn with row-major ``states``."""
    return _grid(m, n, lambda i, j: states[i * n + j])


def _line_symmetric_states(m: int, n: int) -> list[tuple[int, ...]]:
    """The least row-major state vector of each line-symmetric class on
    sides of size m and n, in increasing order.

    Every row permutation keeps the column multiset, so it holds each
    orbit (the columns with given state counts) a whole number of times,
    and sorting its columns gives the least vector.  It is kept when the
    adjacent transpositions of columns, which generate all, keep its rows.
    """
    def columns(counts: tuple[int, ...]) -> list[tuple[int, ...]]:
        if not any(counts):
            return [()]
        return [(s,) + rest for s in range(3) if counts[s]
                for rest in columns(counts[:s] + (counts[s] - 1,) + counts[s + 1:])]

    orbits = [columns((c0, c1, m - c0 - c1)) for c0 in range(m + 1) for c1 in range(m + 1 - c0)
              if factorial(m) // (factorial(c0) * factorial(c1) * factorial(m - c0 - c1)) <= n]

    def multisets(i: int, room: int) -> Iterator[list[tuple[int, ...]]]:
        if room == 0:
            yield []
        elif i < len(orbits):
            for k in range(room // len(orbits[i]) + 1):
                for rest in multisets(i + 1, room - k * len(orbits[i])):
                    yield orbits[i] * k + rest

    found = []
    for cols in multisets(0, n):
        rows = list(zip(*sorted(cols)))
        if all(Counter(r[:j] + (r[j + 1], r[j]) + r[j + 2:] for r in rows) == Counter(rows)
               for j in range(n - 1)):
            found.append(tuple(chain.from_iterable(rows)))
    return sorted(found)


def _burnside_count(m: int, n: int) -> int:
    """Number of isomorphism classes on sides of size m and n, by
    Burnside's lemma over S_m x S_n: a pair of permutations with cycle
    types lam and mu fixes 3^(sum of gcd(lam_i, mu_j)) state vectors,
    and m!/z_lam permutations of S_m have cycle type lam."""
    fixed = 0
    for lam, z_lam in _cycle_types(m):
        for mu, z_mu in _cycle_types(n):
            orbits = sum(gcd(a, b) for a in lam for b in mu)
            fixed += factorial(m) // z_lam * (factorial(n) // z_mu) * 3 ** orbits
    return fixed // (factorial(m) * factorial(n))


def _cycle_types(k: int, largest: int | None = None) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each partition of k into parts of at most ``largest``, as its parts
    in non-increasing order, with z, the order of the centraliser of a
    permutation of that cycle type."""
    if k == 0:
        yield (), 1
        return
    for part in range(min(k, largest or k), 0, -1):
        for rest, z in _cycle_types(k - part, part):
            # parts are non-increasing, so equal parts lead ``rest``
            same = 1 + sum(1 for p in rest if p == part)
            yield (part,) + rest, z * part * same


@dataclass(frozen=True)
class CensusEntry:
    canonical: CanonicalForm
    representative: TwoPartiteDigraph
    verdict: HomogeneityVerdict
    label: ClassLabel


def _entry(canonical: CanonicalForm, digraph: TwoPartiteDigraph) -> CensusEntry:
    label = classify_exact(digraph)
    verdict = label.evidence["homogeneity"]
    return CensusEntry(canonical, digraph, verdict, label)


def _census_all(max_left: int, max_right: int) -> list[CensusEntry]:
    """Census entries of the line-symmetric classes, which include every
    homogeneous class, each keyed by its least vector.  A negative bound
    raises ValidationError, and a range whose empty largest structure has
    more automorphisms than the decider's cap AutGroupTooLarge, both
    before any class is built."""
    if max_left < 0 or max_right < 0:
        raise ValidationError(
            f"side bounds must be non-negative, got {max_left} and {max_right}")
    order = 1
    # multiply up only until the cap is passed: a bound may be huge
    for k in chain(range(2, max_left + 1), range(2, max_right + 1)):
        order *= k
        if order > DEFAULT_AUT_CAP:
            raise AutGroupTooLarge(DEFAULT_AUT_CAP)
    return [_entry(_encode(m, n, states), _structure(m, n, states))
            for m in range(max_left + 1) for n in range(max_right + 1)
            for states in _line_symmetric_states(m, n)]


def census_homogeneous(max_left: int, max_right: int) -> list[CensusEntry]:
    """Census of the homogeneous isomorphism classes with side sizes up
    to the given bounds, each entry carrying its classification.  A
    negative bound raises ValidationError, and a range past the
    automorphism cap AutGroupTooLarge."""
    return [e for e in _census_all(max_left, max_right) if e.verdict.holds]


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


def verify_classification(max_left: int, max_right: int) -> AuditReport:
    """Audit the classification at desk scale.

    Checks that every homogeneous class of the census is labelled as a
    one-direction structure or a matching/complement pair (with sane
    side/edge counts), and that every catalog structure within the
    bounds appears among the homogeneous classes, by canonical form.  A
    negative bound raises ValidationError, and a range past the
    automorphism cap AutGroupTooLarge.
    """
    discrepancies: list[Discrepancy] = []
    # not census_homogeneous: a traced run would count the census twice
    census = [e for e in _census_all(max_left, max_right) if e.verdict.holds]
    scanned = sum(_burnside_count(m, n) for m in range(max_left + 1)
                  for n in range(max_right + 1))

    allowed = (ClassCase.BIPARTITE_HOMOGENEOUS, ClassCase.MATCHING_COMPLEMENT)
    for entry in census:
        hexid = entry.canonical.hex()
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
        key = canonical_form(structure)
        if key not in known:
            discrepancies.append(Discrepancy(
                "catalog-missing",
                f"catalog structure {name} absent from the homogeneous census",
                key.hex()))

    return AuditReport(
        ok=not discrepancies,
        max_left=max_left,
        max_right=max_right,
        classes_scanned=scanned,
        homogeneous_classes=len(census),
        discrepancies=tuple(discrepancies),
    )
