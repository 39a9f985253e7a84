"""Side-respecting isomorphism, canonical forms, and homogeneity.

All maps here preserve the two sides setwise: left vertices go to left
vertices and right to right.  A structure is homogeneous when every
side-respecting isomorphism between induced substructures extends to a
side-preserving automorphism of the whole structure.

Everything here reads the digraph's stored pair-state matrix and its
row and column maps.  The search kernel is a backtracking completion
over vertex assignments, pruned by an iteratively refined colour
invariant built from the (outdegree, indegree, perp-degree) triple.  Colours only prune; every
candidate assignment is still verified pairwise, so the kernel is exact.
The homogeneity decider runs it once, to enumerate the automorphism
group, and then decides every partial isomorphism by looking up the
restrictions of the automorphisms to its domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, permutations, product
from math import factorial, prod
from operator import itemgetter
from typing import Iterator, Mapping

from .core import FLIPPED, PAIR_LR, PAIR_RL, TwoPartiteDigraph
from .errors import AutGroupTooLarge, InvalidPartialMap, ValidationError

DEFAULT_AUT_CAP = 10 ** 6

CanonicalForm = bytes


@dataclass(frozen=True)
class PartialMap:
    """A finite set of (source, target) vertex associations, stored
    sorted by source id.  Injectivity is intrinsic; side and structure
    preservation are relative to structures and checked by
    :func:`is_valid_partial_iso`."""

    pairs: tuple[tuple[str, str], ...]

    @staticmethod
    def from_dict(mapping: Mapping[str, str]) -> "PartialMap":
        items = tuple(sorted(mapping.items()))
        targets = [t for (_, t) in items]
        if len(set(targets)) != len(targets):
            raise InvalidPartialMap("map is not injective")
        return PartialMap(items)

    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)

    def sources(self) -> tuple[str, ...]:
        return tuple(s for (s, _) in self.pairs)

    def targets(self) -> tuple[str, ...]:
        return tuple(t for (_, t) in self.pairs)

    def apply(self, v: str) -> str:
        for (s, t) in self.pairs:
            if s == v:
                return t
        raise KeyError(v)

    def inverse(self) -> "PartialMap":
        return PartialMap.from_dict({t: s for (s, t) in self.pairs})

    def compose(self, then: "PartialMap") -> "PartialMap":
        """The map v -> then(self(v)), defined where both legs are."""
        out = {}
        other = then.as_dict()
        for (s, t) in self.pairs:
            if t in other:
                out[s] = other[t]
        return PartialMap.from_dict(out)

    def extended(self, source: str, target: str) -> "PartialMap":
        d = self.as_dict()
        d[source] = target
        return PartialMap.from_dict(d)

    def is_identity(self) -> bool:
        return all(s == t for (s, t) in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class HomogeneityVerdict:
    """Outcome of a homogeneity decision.  ``counterexample`` is present
    exactly when ``holds`` is false: a valid partial isomorphism that
    extends to no side-preserving automorphism."""

    holds: bool
    counterexample: PartialMap | None = None


def _rank(values: dict[str, object]) -> dict[str, int]:
    # rank by sorted distinct value; isomorphic structures get equal ranks
    order = {sig: r for r, sig in enumerate(sorted(set(values.values())))}
    return {v: order[sig] for v, sig in values.items()}


def _refined_colors(digraph: TwoPartiteDigraph, rounds: int = 2) -> dict[str, tuple]:
    """Colour invariant: degree triple refined ``rounds`` times by the
    multiset of (pair state, neighbour colour) over the opposite side."""
    left, right = digraph.left, digraph.right
    m, n = len(left), len(right)
    mat = digraph.pair_states()
    col: dict[str, tuple] = {}
    for i, x in enumerate(left):
        out = sum(1 for j in range(n) if mat[i][j] == PAIR_LR)
        inn = sum(1 for j in range(n) if mat[i][j] == PAIR_RL)
        col[x] = (0, out, inn, n - out - inn)
    for j, y in enumerate(right):
        out = sum(1 for i in range(m) if mat[i][j] == PAIR_RL)
        inn = sum(1 for i in range(m) if mat[i][j] == PAIR_LR)
        col[y] = (1, out, inn, m - out - inn)
    for _ in range(rounds):
        sigs: dict[str, tuple] = {}
        for i, x in enumerate(left):
            sigs[x] = (col[x], tuple(sorted(
                (mat[i][j], col[y]) for j, y in enumerate(right))))
        for j, y in enumerate(right):
            sigs[y] = (col[y], tuple(sorted(
                (FLIPPED[mat[i][j]], col[x]) for i, x in enumerate(left))))
        # compress per round so colour values stay small; ranking by the
        # sorted distinct signature keeps equality stable across
        # isomorphic structures (same multiset -> same ranks)
        left_rank = _rank({x: sigs[x] for x in left})
        right_rank = _rank({y: sigs[y] for y in right})
        refined = {x: (col[x], left_rank[x]) for x in left}
        refined.update({y: (col[y], right_rank[y]) for y in right})
        col = refined
    return col


def _blocks(ids: tuple[str, ...], col: dict[str, tuple]) -> list[list[str]]:
    """``ids`` grouped into colour classes, the classes sorted by colour
    value and each kept in stored order."""
    groups: dict[tuple, list[str]] = {}
    for v in ids:
        groups.setdefault(col[v], []).append(v)
    return [groups[k] for k in sorted(groups)]


def _arrangements(lines, blocks: list[list[int]], cross_blocks: list[list[int]]):
    """For every ordering of ``lines`` that keeps ``blocks`` in place and
    permutes freely inside each, the cross vectors (the entries at one
    index of every ordered line) with each of ``cross_blocks`` sorted.
    Both sides must be nonempty."""
    for combo in product(*map(permutations, blocks)):
        cross = list(zip(*[lines[i] for perm in combo for i in perm]))
        yield [vec for b in cross_blocks for vec in sorted(cross[k] for k in b)]


def canonical_form(digraph: TwoPartiteDigraph) -> CanonicalForm:
    """A byte string identifying the side-preserving isomorphism class.

    Two structures have equal canonical form iff :func:`are_isomorphic`
    finds a map between them.  The encoding is the row-major
    lexicographic minimum of the pair-state matrix over all orderings
    of each side that sort the refined colour classes by colour value
    and permute freely inside each class; sides are never mixed.

    Only the orderings of one side are enumerated, whichever side has
    fewer.  For a fixed ordering of the rows, the least arrangement of
    the columns sorts each right colour class by column vector, because
    that makes the rows, read one after another, lexicographically
    least; for a fixed ordering of the columns, each left colour class
    is sorted by row vector instead.
    """
    m, n = len(digraph.left), len(digraph.right)
    header = b"TP1" + m.to_bytes(4, "big") + n.to_bytes(4, "big")
    if not (m and n):
        return header
    col = _refined_colors(digraph)
    mat = digraph.pair_states()
    lblocks = [[digraph.row_of[x] for x in b] for b in _blocks(digraph.left, col)]
    rblocks = [[digraph.col_of[y] for y in b] for b in _blocks(digraph.right, col)]

    def orderings(blocks):
        return prod(factorial(len(b)) for b in blocks)

    if orderings(lblocks) <= orderings(rblocks):
        # the cross vectors are columns: compare them as rows
        best = min(list(zip(*cols)) for cols in _arrangements(mat, lblocks, rblocks))
    else:
        best = min(_arrangements(list(zip(*mat)), rblocks, lblocks))
    return header + bytes(chain.from_iterable(best))


def _search_maps(d1: TwoPartiteDigraph, d2: TwoPartiteDigraph, initial: dict[str, str],
                 limit: int | None) -> Iterator[dict[str, str]]:
    """Backtracking enumeration of total side-preserving bijections
    d1 -> d2 that preserve all pair states and extend ``initial``.
    ``initial`` must already be consistent.  Yields at most ``limit``
    maps when limit is not None."""
    if len(d1.left) != len(d2.left) or len(d1.right) != len(d2.right):
        return
    col1 = _refined_colors(d1)
    col2 = col1 if d2 is d1 else _refined_colors(d2)
    if sorted(col1[v] for v in d1.left) != sorted(col2[v] for v in d2.left):
        return
    if sorted(col1[v] for v in d1.right) != sorted(col2[v] for v in d2.right):
        return

    assigned = dict(initial)
    used = set(initial.values())
    for s, t in initial.items():
        if col1[s] != col2[t]:
            return  # colours are isomorphism invariants; no completion exists

    todo = [v for v in d1.vertices() if v not in assigned]
    yielded = 0

    mat1, mat2 = d1.pair_states(), d2.pair_states()
    l1, r1 = d1.row_of, d1.col_of
    l2, r2 = d2.row_of, d2.col_of

    def consistent(v: str, w: str) -> bool:
        if v in l1:
            vi, wi = l1[v], l2[w]
            for (u, x) in assigned.items():
                if u in r1:
                    if mat1[vi][r1[u]] != mat2[wi][r2[x]]:
                        return False
        else:
            vj, wj = r1[v], r2[w]
            for (u, x) in assigned.items():
                if u in l1:
                    if mat1[l1[u]][vj] != mat2[l2[x]][wj]:
                        return False
        return True

    def candidates(v: str) -> Iterator[str]:
        pool = d2.left if v in l1 else d2.right
        cv = col1[v]
        for w in pool:
            if w in used or col2[w] != cv:
                continue
            if consistent(v, w):
                yield w

    def rec(pos: int) -> Iterator[dict[str, str]]:
        nonlocal yielded
        if limit is not None and yielded >= limit:
            return
        if pos == len(todo):
            yielded += 1
            yield dict(assigned)
            return
        v = todo[pos]
        for w in candidates(v):
            assigned[v] = w
            used.add(w)
            yield from rec(pos + 1)
            del assigned[v]
            used.discard(w)
            if limit is not None and yielded >= limit:
                return

    yield from rec(0)


def are_isomorphic(d1: TwoPartiteDigraph, d2: TwoPartiteDigraph) -> PartialMap | None:
    """A total side-preserving isomorphism, or None."""
    for mapping in _search_maps(d1, d2, {}, limit=1):
        return PartialMap.from_dict(mapping)
    return None


def _automorphism_maps(digraph: TwoPartiteDigraph, cap: int) -> Iterator[dict[str, str]]:
    """The side-preserving automorphisms of ``digraph`` as vertex maps;
    raises AutGroupTooLarge instead of yielding a map past ``cap``."""
    if cap < 0:
        raise ValidationError(f"automorphism cap must be non-negative, got {cap}")
    for count, mapping in enumerate(_search_maps(digraph, digraph, {}, limit=cap + 1)):
        if count == cap:
            raise AutGroupTooLarge(cap)
        yield mapping


def automorphisms(digraph: TwoPartiteDigraph,
                  cap: int = DEFAULT_AUT_CAP) -> list[PartialMap]:
    """All side-preserving automorphisms, identity included.

    Raises AutGroupTooLarge when more than ``cap`` maps exist, and
    ValidationError when ``cap`` is negative.
    """
    return [PartialMap.from_dict(m) for m in _automorphism_maps(digraph, cap)]


def is_valid_partial_iso(d1: TwoPartiteDigraph, d2: TwoPartiteDigraph,
                         pmap: PartialMap) -> bool:
    """True when ``pmap`` is an injective, side-preserving isomorphism
    between the substructures induced on its domain and codomain."""
    srcs = pmap.sources()
    tgts = pmap.targets()
    if len(set(srcs)) != len(srcs) or len(set(tgts)) != len(tgts):
        return False
    rows, cols = [], []   # (row or column in d1, its image's in d2)
    for (s, t) in pmap.pairs:
        if s in d1.row_of and t in d2.row_of:
            rows.append((d1.row_of[s], d2.row_of[t]))
        elif s in d1.col_of and t in d2.col_of:
            cols.append((d1.col_of[s], d2.col_of[t]))
        else:
            return False
    mat1, mat2 = d1.pair_states(), d2.pair_states()
    return all(mat1[i][j] == mat2[k][l] for i, k in rows for j, l in cols)


def extends_to_automorphism(digraph: TwoPartiteDigraph, pmap: PartialMap) -> bool:
    """Whether some side-preserving automorphism restricts to ``pmap``.

    Decided by backtracking completion of the map, not by enumerating
    the automorphism group.
    """
    if not is_valid_partial_iso(digraph, digraph, pmap):
        raise InvalidPartialMap("not a valid partial isomorphism of the structure")
    for _ in _search_maps(digraph, digraph, pmap.as_dict(), limit=1):
        return True
    return False


def is_homogeneous(digraph: TwoPartiteDigraph, k: int | None = None, *,
                   aut_cap: int = DEFAULT_AUT_CAP) -> HomogeneityVerdict:
    """Exact homogeneity up to domain size ``k`` (default: all sizes).

    Every isomorphism between induced substructures on at most ``k``
    vertices must extend to a side-preserving automorphism.  The
    automorphism group is enumerated once, so memory grows with the
    group, which is bounded by ``aut_cap`` (AutGroupTooLarge beyond
    it).  A partial isomorphism out of a domain S extends exactly when
    it is the restriction g|S of some automorphism g, so each one is
    decided by a set lookup.  Domains are enumerated smallest first and
    reduced to one per automorphism orbit, so a failing verdict carries
    a smallest counterexample.  A negative ``k`` or ``aut_cap`` raises
    ValidationError.
    """
    if k is not None and k < 0:
        raise ValidationError(f"domain size bound must be non-negative, got {k}")
    vertices = digraph.vertices()
    m, n = len(digraph.left), len(digraph.right)
    # vertices are numbered by position in ``vertices``: left 0..m-1,
    # right m..m+n-1; automorphisms become tuples of positions
    pos = {v: p for p, v in enumerate(vertices)}
    auts = [tuple(pos[g[v]] for v in vertices) for g in _automorphism_maps(digraph, aut_cap)]
    mat = digraph.pair_states()
    column = {m + j: tuple(row[j] for row in mat) for j in range(n)}

    seen: set[frozenset[int]] = set()
    for size in range(1, (m + n if k is None else k) + 1):
        for subset in combinations(range(m + n), size):
            # a domain fails exactly when every domain in its orbit does,
            # so the first of each orbit in this order stands for them all
            if frozenset(subset) in seen:
                continue
            restrict = itemgetter(*subset)
            if size == 1:
                restrictions = {(restrict(g),) for g in auts}
            else:
                restrictions = set(map(restrict, auts))
            seen.update(map(frozenset, restrictions))
            a = sum(1 for p in subset if p < m)
            want = [tuple(column[j][i] for i in subset[:a]) for j in subset[a:]]
            # Images are not filtered by colour: a map between induced
            # substructures only has to preserve the induced structure,
            # and maps that break ambient invariants are precisely the
            # counterexample candidates.
            for img_l in permutations(range(m), a):
                # pair states are preserved iff each right image's column
                # over the left images equals its source's column
                key = {j: tuple(col[i] for i in img_l) for j, col in column.items()}
                for img_r in permutations(range(m, m + n), size - a):
                    if [key[j] for j in img_r] == want and img_l + img_r not in restrictions:
                        return HomogeneityVerdict(False, PartialMap.from_dict(
                            {vertices[p]: vertices[q] for p, q in zip(subset, img_l + img_r)}))
    return HomogeneityVerdict(True, None)


def is_homogeneous_bipartite(digraph: TwoPartiteDigraph,
                             k: int | None = None, **kwargs) -> HomogeneityVerdict:
    """Homogeneity of the undirected bipartite graph underlying
    ``digraph``, decided on its left-to-right orientation.  Orienting
    every edge one way is information-preserving, so side-respecting
    partial isomorphisms and automorphisms of the two coincide."""
    return is_homogeneous(digraph.underlying_bipartite(), k, **kwargs)
