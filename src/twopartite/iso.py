"""Side-respecting isomorphism, canonical forms, and homogeneity.

All maps here preserve the two sides setwise: left vertices go to left
vertices and right to right.  A structure is homogeneous when every
side-respecting isomorphism between induced substructures extends to a
side-preserving automorphism of the whole structure.

Everything here reads the digraph's stored pair-state matrix and its
row and column maps.  The one map-search kernel, :func:`_search_maps`,
is a backtracking completion over vertex assignments.  It starts from
an iteratively refined colour invariant built from the (outdegree,
indegree, perp-degree) triple.  Each open vertex carries a signature:
its colour, extended by its pair state to every assigned vertex on the
other side.  A vertex only takes a candidate of equal signature, and a
partial map is dropped as soon as the open signatures of the two
structures stop matching as multisets, which also separates vertices
that colour refinement leaves together.  The homogeneity decider runs
the kernel once, to enumerate the automorphism group.  It then counts
the valid images of each domain and compares the count with the number
of distinct restrictions of the automorphisms to that domain.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, permutations, product
from math import factorial, perm, prod
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


def _uniform_state(line) -> int:
    """The one pair state of ``line``, or -1 when it holds several or none."""
    return line[0] if len(set(line)) == 1 else -1


def _search_maps(d1: TwoPartiteDigraph, d2: TwoPartiteDigraph, initial: dict[str, str],
                 limit: int | None) -> Iterator[dict[str, str]]:
    """Backtracking enumeration of total side-preserving bijections
    d1 -> d2 that preserve all pair states and extend ``initial``.
    ``initial`` must already be consistent.  Yields at most ``limit``
    maps when limit is not None.

    Open vertices are placed in d1's stored order, left before right,
    and each takes its candidates in d2's stored order.  Every open
    vertex carries an integer signature: its colour rank, extended in
    base 3 by its pair state to each assigned vertex on the other side,
    in assignment order.  A candidate must have the signature of the
    vertex it takes, which says exactly that the pair is consistent with
    every assignment so far.  After a left vertex is placed, the open
    right vertices of d1 and of d2 must still have equal multisets of
    signatures, since a completion maps one onto the other; otherwise
    the subtree has no completion and is cut.  Cuts lose no map, so the
    maps come in the order of the unpruned search.
    """
    m, n = len(d1.left), len(d1.right)
    if len(d2.left) != m or len(d2.right) != n:
        return
    col1 = _refined_colors(d1)
    col2 = col1 if d2 is d1 else _refined_colors(d2)
    if sorted(col1[v] for v in d1.left) != sorted(col2[v] for v in d2.left):
        return
    if sorted(col1[v] for v in d1.right) != sorted(col2[v] for v in d2.right):
        return
    for s, t in initial.items():
        if col1[s] != col2[t]:
            return  # colours are isomorphism invariants; no completion exists

    # side 0 is left, side 1 is right; a vertex's line holds its pair
    # states to the other side's vertices, by index
    ids1, ids2 = (d1.left, d1.right), (d2.left, d2.right)
    index1, index2 = (d1.row_of, d1.col_of), (d2.row_of, d2.col_of)
    mat1, mat2 = d1.pair_states(), d2.pair_states()
    lines1 = (mat1, [tuple(row[j] for row in mat1) for j in range(n)])
    lines2 = (mat2, [tuple(row[j] for row in mat2) for j in range(n)])
    uniform = [list(map(_uniform_state, lines)) for lines in lines1]
    rank = {c: r for r, c in enumerate(dict.fromkeys(col1.values()))}
    sig1 = [[rank[col1[v]] for v in ids] for ids in ids1]
    sig2 = [[rank[col2[v]] for v in ids] for ids in ids2]
    used = [[False] * m, [False] * n]

    def extend(side: int, a: int, b: int) -> bool:
        # a and b on ``side`` are assigned: the other side's signatures
        # gain their pair states; True when they grew.  When a's line is
        # one state throughout, so is b's, which has a's colour and hence
        # its state counts: one digit would go everywhere, keeping every
        # equality and multiset as it is, so none is added
        if uniform[side][a] != -1:
            return False
        other = 1 - side
        sig1[other] = [3 * s + x for s, x in zip(sig1[other], lines1[side][a])]
        sig2[other] = [3 * s + x for s, x in zip(sig2[other], lines2[side][b])]
        return True

    def balanced(side: int) -> bool:
        return (sorted(sig1[side][u] for u in open1[side])
                == sorted(sig2[side][u] for u in open2[side]))

    assigned = dict(initial)
    for s, t in initial.items():
        side = 0 if s in d1.row_of else 1
        a, b = index1[side][s], index2[side][t]
        used[side][b] = True
        extend(side, a, b)
    open1 = [[u for u, v in enumerate(ids) if v not in assigned] for ids in ids1]
    open2 = [[u for u, taken in enumerate(flags) if not taken] for flags in used]
    if not (balanced(0) and balanced(1)):
        return
    # every open left vertex is placed before any open right one, so the
    # open right vertices stay fixed while the left ones are placed, and
    # no left vertex is open once the right ones are
    todo = [(0, a) for a in open1[0]] + [(1, a) for a in open1[1]]
    yielded = 0

    def rec(pos: int) -> Iterator[dict[str, str]]:
        nonlocal yielded
        if limit is not None and yielded >= limit:
            return
        if pos == len(todo):
            yielded += 1
            yield dict(assigned)
            return
        side, a = todo[pos]
        v, want, taken = ids1[side][a], sig1[side][a], used[side]
        for b, sig in enumerate(sig2[side]):
            if taken[b] or sig != want:
                continue
            assigned[v] = ids2[side][b]
            taken[b] = True
            if side == 0:
                saved = sig1[1], sig2[1]
                if not extend(0, a, b) or balanced(1):
                    yield from rec(pos + 1)
                sig1[1], sig2[1] = saved
            else:
                yield from rec(pos + 1)
            del assigned[v]
            taken[b] = False
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


def _image_count(mat, n: int, a: int, want: list[tuple]) -> int:
    """The number of valid images of a domain with ``a`` left vertices
    whose right vertices have the pair-state columns ``want`` over them:
    a right image must have its source's column over the left images,
    and the right images of one column group are distinct."""
    if a == 0:
        return perm(n, len(want))
    groups = Counter(want).items()
    total = 0
    for img_l in permutations(mat, a):
        have = Counter(zip(*img_l))
        total += prod(perm(have[col], k) for col, k in groups)
    return total


def is_homogeneous(digraph: TwoPartiteDigraph, k: int | None = None, *,
                   aut_cap: int = DEFAULT_AUT_CAP) -> HomogeneityVerdict:
    """Exact homogeneity up to domain size ``k`` (default: all sizes).

    Every isomorphism between induced substructures on at most ``k``
    vertices must extend to a side-preserving automorphism.  The
    automorphism group is enumerated once, so memory grows with the
    group, which is bounded by ``aut_cap`` (AutGroupTooLarge beyond
    it).  A partial isomorphism out of a domain S extends exactly when
    it is the restriction g|S of some automorphism g, and every such
    restriction is a valid image of S, so S passes exactly when it has
    as many valid images as distinct restrictions.  The valid images are
    counted, not listed: for each image of S's left part, the right
    images are counted as a product of falling factorials, one per
    group of S's right vertices with equal pair states to the left
    part.  Only a failing domain walks its images in order to find the
    first one that is not a restriction.  Domains are enumerated
    smallest first and reduced to one per automorphism orbit, so a
    failing verdict carries a smallest counterexample.  A negative
    ``k`` or ``aut_cap`` raises ValidationError.
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
            if _image_count(mat, n, a, want) == len(restrictions):
                continue
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
